"""Agent dynamics, consensus protocols, and fixed-step integration.

Agents are scalar integrators dx/dt = u + w with a constant disturbance
vector w. The nominal protocol is u = -L x (disturbances uncorrected); the
adaptive one is u = -L x - w_hat, where each agent runs a state emulator
x_hat and integrates the emulator mismatch, with gain alpha > 0, into a
disturbance estimate w_hat. In the stacked state y = (x, x_hat, w_hat) the
closed loop is the linear time-invariant system

    y' = A y + b,   b = (w, 0, 0),

    A = [[-L,       0,        -I],      (adaptive; the nominal A keeps
         [Adj,      -Delta,    0],       only the -L block)
         [alpha I,  -alpha I,  0]]

with Adj the adjacency and Delta the degree matrix, L = Delta - Adj.
``_closed_loop`` builds (A, b) and RK4 integrates it; a ``Trajectory`` is
the (steps + 1) x 3n array of stacked states that RK4 fills.

Error conventions used throughout: x_tilde = x - x_hat and
w_tilde = w_hat - w, so the closed-loop error dynamics are
    d(x_tilde)/dt = -Delta x_tilde - w_tilde,
    d(w_tilde)/dt = alpha x_tilde.

Integration is classical fixed-step 4th-order Runge-Kutta. On the linear
closed loop one step of size h is exactly

    y <- y + h phi(hA)(A y + b),   phi(z) = 1 + z/2 + z^2/6 + z^3/24,

which ``_rk4_increment`` forms by Horner's rule, the one place the
polynomial is written. The step multiplies each mode mu of A by
R(h mu) = 1 + z phi(z), z = h mu, and ``simulate`` rejects a step size
with |R(h mu)| > 1 before it integrates. The adaptive spec(A) is
{0} U spec(M), with M the agreement-coordinate matrix of ``stability``;
``closed_form_spectrum`` gives spec(M) in closed form from the Laplacian
spectrum and the node degrees.

``simulate`` takes one of two routes to the same steps, chosen by the run
size alone. A run with 3n <= ``MAX_MAP_DIM`` and
steps >= 2 + (3n)^3 / ``MAP_BREAK_EVEN`` forms the map y <- P y + q,
P = I + A T, q = T b, T = h phi(hA), with the sparse A times a dense
matrix (O(nnz(A) 3n) each), and marches it in blocks by repeated
squaring: rows k..k+m-1 are rows k-m..k-1 advanced by P^m and q_m, one
matmul per block, with P^2m = P^m P^m and q_2m = P^m q_m + q_m. The
block doubles while one more squaring (about 2 (3n)^3 flops) costs less
than the matmul calls it saves, 4 m (3n)^3 < ``MATMUL_CALL_FLOPS`` * steps;
where no squaring pays, the map makes one dense matvec per step. Any
other run applies the polynomial to A y + b at every step, four sparse
matvecs: a short run does not repay forming P, and above ``MAX_MAP_DIM``
the dense matvec costs more per step than the four sparse ones. The map
holds at most two 3n x 3n arrays at once (T and P while forming P, then
P^m and its square), 3.2 MB at ``MAX_MAP_DIM``, besides the trajectory
that ``MAX_TRAJECTORY_SAMPLES`` budgets.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DisconnectedGraphError,
    MatrixShapeError,
    NumericalBlowupError,
    ScenarioError,
)
from .graph import (
    Graph,
    adjacency_matrix,
    degree_matrix,
    is_connected,
    laplacian,
    laplacian_spectrum,
)
from .spectral import Spectrum

if TYPE_CHECKING:
    from scipy import sparse

NOMINAL = "nominal"
ADAPTIVE = "adaptive"

DEFAULT_DT = 0.001

#: Largest trajectory ``simulate`` allocates, in samples: (steps + 1) * 3n
#: float64 values, 800 MB. The largest run in the tests and the benchmark
#: has 1.8 M samples (p2, dt = 1e-4, 30 s).
MAX_TRAJECTORY_SAMPLES = 100_000_000

#: Largest state dimension 3n at which ``simulate`` integrates with the
#: dense RK4 map P, so P takes at most 1.6 MB. On a Xeon with 2 MB of L2
#: cache per core and single-threaded OpenBLAS, one step with a P of 480^2
#: or more took longer than the four sparse RK4 stages it replaces.
MAX_MAP_DIM = 450

#: Break-even of the dense map against the sparse stages: the map path
#: needs steps >= 2 + (3n)^3 / MAP_BREAK_EVEN. Fitted to the measured runs
#: (forming P included) on which the map first beat the stages: 2-3 steps
#: up to 3n = 60, 12 at 3n = 150, 64-128 at 300 and 256-384 at 360.
MAP_BREAK_EVEN = 2**18

#: Overhead of one numpy matmul call on a block of rows, in flops of a
#: squaring of P: about 3 us, at the 14 GFlop/s a 30 x 30 squaring reaches
#: on a Xeon with single-threaded OpenBLAS. ``_rk4_map`` squares P^m into
#: P^2m (about 2 (3n)^3 flops) only while that costs less than the
#: steps / 2m calls it saves: 4 m (3n)^3 < MATMUL_CALL_FLOPS * steps.
#: From 3n = 90 up a squaring runs at about 50 GFlop/s, so the rule
#: squares no more than pays there either.
MATMUL_CALL_FLOPS = 40_000


def read_scalar(raw, name: str, positive: bool = False) -> float:
    """A finite real number from outside input, or a ``ScenarioError``.

    Accepts a real number or a string that parses as one (PyYAML reads
    ``1e-3`` as a string); booleans are not numbers here. With
    ``positive``, the value must also be > 0.
    """
    if isinstance(raw, bool) or not isinstance(raw, (numbers.Real, str)):
        raise ScenarioError(f"{name} must be a number, got {raw!r}")
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"{name} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{name} must be finite, got {raw!r}")
    if positive and not value > 0:
        raise ScenarioError(f"{name} must be positive, got {raw!r}")
    return value


@dataclass(frozen=True)
class SimConfig:
    """Simulation setup: protocol, gain, step size, horizon, initial vectors.

    x_hat0 defaults to x0 (zero initial emulator mismatch) and w_hat0 to
    zero; both may be overridden. The nominal protocol runs no emulator or
    estimate, so both are zero there. ``y0`` is the stacked initial state.
    """

    protocol: str
    dt: float
    t_final: float
    x0: np.ndarray
    alpha: float | None = None
    x_hat0: np.ndarray | None = None
    w_hat0: np.ndarray | None = None

    def __post_init__(self):
        if self.protocol not in (NOMINAL, ADAPTIVE):
            raise ScenarioError(f"unknown protocol {self.protocol!r}")
        for name in ("dt", "t_final"):
            object.__setattr__(self, name, read_scalar(getattr(self, name), name, positive=True))
        if self.t_final < self.dt:
            raise ScenarioError("t_final must be at least one step")
        if self.protocol == ADAPTIVE:
            if self.alpha is None:
                raise ScenarioError("adaptive protocol requires alpha > 0")
            object.__setattr__(self, "alpha", read_scalar(self.alpha, "alpha", positive=True))
        x0 = np.asarray(self.x0, dtype=float)
        zeros = np.zeros_like(x0)
        if self.protocol == NOMINAL:
            x_hat0 = w_hat0 = zeros
        else:
            x_hat0 = x0 if self.x_hat0 is None else np.asarray(self.x_hat0, dtype=float)
            w_hat0 = zeros if self.w_hat0 is None else np.asarray(self.w_hat0, dtype=float)
        if len(x_hat0) != len(x0) or len(w_hat0) != len(x0):
            raise ScenarioError("x_hat0/w_hat0 length must match x0")
        for name, v in (("x0", x0), ("x_hat0", x_hat0), ("w_hat0", w_hat0)):
            object.__setattr__(self, name, v)

    @property
    def y0(self) -> np.ndarray:
        """The stacked initial state (x0, x_hat0, w_hat0)."""
        return np.concatenate([self.x0, self.x_hat0, self.w_hat0])


def default_t_final(g: Graph) -> float:
    """Default horizon: 20 algebraic-connectivity time constants."""
    return 20.0 / float(laplacian_spectrum(g)[1])


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled run: row k of ``states`` is the stacked state
    y = (x, x_hat, w_hat) at t_k = k dt, as RK4 fills it."""

    states: np.ndarray
    graph: Graph
    config: SimConfig

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.states)) * self.config.dt

    @property
    def x(self) -> np.ndarray:
        return self.states[:, : self.graph.n]

    @property
    def x_hat(self) -> np.ndarray:
        return self.states[:, self.graph.n : 2 * self.graph.n]

    @property
    def w_hat(self) -> np.ndarray:
        return self.states[:, 2 * self.graph.n :]


def _check_lengths(g: Graph, *vecs):
    for v in vecs:
        if len(v) != g.n:
            raise MatrixShapeError(f"vector length {len(v)} != node count {g.n}")


def nominal_control(g: Graph, x: np.ndarray) -> np.ndarray:
    """Standard consensus law u = -L x."""
    x = np.asarray(x, dtype=float)
    _check_lengths(g, x)
    return -laplacian(g) @ x


def adaptive_control(g: Graph, x: np.ndarray, w_hat: np.ndarray) -> np.ndarray:
    """Modified consensus law u = -L x - w_hat; the estimate cancels w."""
    x = np.asarray(x, dtype=float)
    w_hat = np.asarray(w_hat, dtype=float)
    _check_lengths(g, x, w_hat)
    return -laplacian(g) @ x - w_hat


def emulator_derivative(g: Graph, x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """Emulator dynamics -Delta x_hat + A x, componentwise
    d(x_hat_i)/dt = -d_i x_hat_i + sum over neighbors of x_j."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    _check_lengths(g, x, x_hat)
    return -degree_matrix(g) @ x_hat + adjacency_matrix(g) @ x


def _closed_loop(g: Graph, cfg: SimConfig, w: np.ndarray) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The closed loop y' = A y + b of the configured protocol, A in CSR form.

    ``scipy.sparse`` is imported here, not at module level: only
    ``simulate`` needs it, so ``verify`` and ``analyze`` run without
    importing scipy.
    """
    from scipy import sparse

    _check_lengths(g, cfg.x0, w)
    n = g.n
    adj = sparse.csr_matrix(adjacency_matrix(g))
    deg = sparse.diags(g.degrees.astype(float))
    neg_lap = adj - deg
    if cfg.protocol == ADAPTIVE:
        eye = sparse.identity(n)
        a = sparse.bmat(
            [[neg_lap, None, -eye], [adj, -deg, None], [cfg.alpha * eye, -cfg.alpha * eye, None]],
            format="csr",
        )
    else:
        a = sparse.block_diag([neg_lap, sparse.csr_matrix((2 * n, 2 * n))], format="csr")
    b = np.concatenate([np.asarray(w, dtype=float), np.zeros(2 * n)])
    return a, b


def _closed_form_modes(g: Graph, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """spec(A1) = {-lambda_k(L) : k >= 2} and spec(E), the 2n roots of
    lam^2 + d_i lam + alpha, of the adaptive closed loop in agreement
    coordinates (see ``stability``).

    Each pair of roots is q = -(d/2 + sqrt(d^2/4 - alpha)) and its partner:
    conj(q) when the pair is complex, else alpha / q (the product of the
    roots is alpha), which avoids the cancellation of -d/2 + sqrt(.) when
    alpha << d^2.
    """
    agreement = -laplacian_spectrum(g)[1:]
    half = g.degrees / 2.0
    q = -(half + np.sqrt((half * half - alpha).astype(complex)))
    return agreement, np.concatenate([q, np.where(q.imag != 0, q.conj(), alpha / q)])


def closed_form_spectrum(g: Graph, alpha: float) -> Spectrum:
    """spec(M) from the Laplacian spectrum and the node degrees, without
    assembling M: {-lambda_k(L) : k >= 2} U {roots of lam^2 + d_i lam + alpha}."""
    alpha = read_scalar(alpha, "alpha", positive=True)
    return Spectrum(np.concatenate(_closed_form_modes(g, alpha)))


def _rk4_increment(mul, v, dt: float):
    """dt phi(dt X) v, phi(z) = 1 + z/2 + z^2/6 + z^3/24, by Horner's rule,
    with ``mul(t)`` returning X t. A scalar v stands for v times the
    identity; where X t is a matrix it is added on the diagonal in place,
    so forming T = dt phi(dt A) holds no dense identity alive."""
    t = v
    for c in (4.0, 3.0, 2.0):
        t = mul(t)
        t *= dt / c
        if t.ndim == 2:
            t.flat[:: len(t) + 1] += v
        else:
            t += v
    t *= dt
    return t


def _check_rk4_step(g: Graph, cfg: SimConfig) -> np.ndarray:
    """Reject a step size at which RK4 amplifies a closed-loop mode; else
    return |R(dt mu)| = |1 + mu dt phi(dt mu)| per mode.

    The modes are the closed-form spec(M) for the adaptive protocol and
    -lambda_k(L), k >= 2, for the nominal one. The exact zero modes are
    left out: |R(0)| = 1, and a computed zero of +-1e-16 would trip the
    check. A mode so large that R(dt mu) overflows has gain inf, with no
    numpy warning.
    """
    if cfg.protocol == ADAPTIVE:
        modes = closed_form_spectrum(g, cfg.alpha).eigenvalues
    else:
        modes = -laplacian_spectrum(g)[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        gain = np.abs(1 + modes * _rk4_increment(lambda t: modes * t, 1.0, cfg.dt))
    gain[np.isnan(gain)] = np.inf
    k = int(np.argmax(gain))
    if gain[k] > 1.0:
        raise ScenarioError(
            f"dt={cfg.dt:g} is outside RK4's stability region: the closed-loop mode "
            f"{complex(modes[k]):.6g} has |R(dt mu)| = {gain[k]:.6g} > 1"
        )
    return gain


def _step_count(g: Graph, cfg: SimConfig) -> int:
    """RK4 steps from 0 to t_final; rejects a run whose trajectory of
    (steps + 1) x 3n samples exceeds ``MAX_TRAJECTORY_SAMPLES``."""
    steps = cfg.t_final / cfg.dt
    samples = (steps + 1) * 3 * g.n
    if not samples <= MAX_TRAJECTORY_SAMPLES:
        raise ScenarioError(
            f"run too large: {steps:.6g} steps of 3n = {3 * g.n} values (n={g.n}) need "
            f"{8 * samples:.6g} bytes, over the budget of {8 * MAX_TRAJECTORY_SAMPLES} bytes"
        )
    return int(round(steps))


def _rk4_stages(a: sparse.csr_matrix, b: np.ndarray, dt: float, out: np.ndarray) -> None:
    """Fill out[1:] with RK4 steps y <- y + dt phi(dt A)(A y + b) of
    y' = A y + b from out[0]: four sparse matvecs per step."""
    for k in range(len(out) - 1):
        y = out[k]
        out[k + 1] = y + _rk4_increment(a.__matmul__, a @ y + b, dt)


def _rk4_affine_map(
    a: sparse.csr_matrix, b: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """(P, q) with one RK4 step of y' = A y + b equal to y <- P y + q:
    P = I + A T and q = T b, T = dt phi(dt A), with the sparse A times a
    dense matrix (O(nnz(A) 3n) each)."""
    t = _rk4_increment(lambda t: a @ (np.eye(len(b)) if np.isscalar(t) else t), 1.0, dt)
    p = a @ t
    p.flat[:: len(p) + 1] += 1.0
    return p, t @ b


def _rk4_map(a: sparse.csr_matrix, b: np.ndarray, dt: float, out: np.ndarray) -> None:
    """The steps of ``_rk4_stages`` as the affine map y <- P y + q of
    ``_rk4_affine_map``, marched in blocks of m rows by repeated squaring:
    out[k:k+m] = out[k-m:k] (P^m)^T + q_m, with P^2m = P^m P^m and
    q_2m = P^m q_m + q_m.

    While one more squaring pays (``MATMUL_CALL_FLOPS``) and saves at least
    one block, rows [m, 2m) are filled from rows [0, m) and m doubles;
    then one matmul per block of m rows fills the rest, the last block
    possibly partial. With m = 1 (no squaring pays, or fewer than four
    rows) each step is one matvec. Extra memory: P^m and its square, two
    3n x 3n arrays."""
    p, q = _rk4_affine_map(a, b, dt)
    rows, dim = out.shape
    m = 1  # out[:m] is filled; p, q advance a row by m steps
    while 3 * m < rows and 4 * m * dim**3 < MATMUL_CALL_FLOPS * (rows - 1):
        np.matmul(out[:m], p.T, out=out[m : 2 * m])
        out[m : 2 * m] += q
        q = p @ q + q
        p = p @ p
        m *= 2
    if m == 1:  # no squaring pays: one matvec per row, without block views
        for k in range(1, rows):
            row = out[k]
            np.matmul(p, out[k - 1], out=row)
            row += q
        return
    for k in range(m, rows, m):
        end = min(k + m, rows)
        np.matmul(out[k - m : end - m], p.T, out=out[k:end])
        out[k:end] += q


def simulate(g: Graph, cfg: SimConfig, w: np.ndarray) -> Trajectory:
    """Integrate the closed loop with classical RK4 from t=0 to t_final.

    The run-size budget and ``_check_rk4_step`` run first, so a run that is
    too large or an unstable step size is rejected before any state is
    allocated. A run with 3n <= ``MAX_MAP_DIM`` and at least
    2 + (3n)^3 / ``MAP_BREAK_EVEN`` steps takes the dense affine map,
    marched in blocks by repeated squaring (``_rk4_map``), any other the
    sparse stages (``_rk4_stages``); see the module docstring. Both
    evaluate the one polynomial of ``_rk4_increment``. Either way a
    non-finite value raises ``NumericalBlowupError`` naming the time of
    the first non-finite sample, and no numpy floating-point warning is
    printed.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("simulation requires a connected graph")
    steps = _step_count(g, cfg)
    _check_rk4_step(g, cfg)
    a, b = _closed_loop(g, cfg, w)
    dim = len(b)
    out = np.empty((steps + 1, dim))
    out[0] = cfg.y0
    takes_map = dim <= MAX_MAP_DIM and steps >= 2 + dim**3 / MAP_BREAK_EVEN
    integrate = _rk4_map if takes_map else _rk4_stages
    with np.errstate(over="ignore", invalid="ignore"):
        integrate(a, b, cfg.dt, out)
    blown = ~np.isfinite(out).all(axis=1)
    if blown.any():
        raise NumericalBlowupError(int(np.argmax(blown)) * cfg.dt)
    return Trajectory(out, g, cfg)


def error_series(traj: Trajectory, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Emulator mismatch x - x_hat and estimate error w_hat - w per sample."""
    w = np.asarray(w, dtype=float)
    _check_lengths(traj.graph, w)
    return traj.x - traj.x_hat, traj.w_hat - w[None, :]


def consensus_error(x: np.ndarray) -> float:
    """Largest pairwise disagreement max_{i,j} |x_i - x_j|."""
    x = np.asarray(x, dtype=float)
    return float(np.max(x) - np.min(x))


def _csv_columns(n: int) -> list[str]:
    return ["t"] + [f"{name}_{i}" for name in ("x", "xhat", "what") for i in range(n)]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory CSV: header t,x_0..,xhat_0..,what_0..; each value is the
    ``repr`` of its float. Rows are converted one at a time, so the writer
    holds one row of Python floats, not a copy of the trajectory."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_csv_columns(traj.graph.n)) + "\n")
        for t, y in zip(traj.times.tolist(), traj.states):
            fh.write(f"{t!r},{','.join(map(repr, y.tolist()))}\n")


def _scan_csv_rows(lines, n: int) -> np.ndarray:
    """Trajectory CSV body lines parsed one by one; raises ``ScenarioError``
    naming the first row with the wrong number of fields or a non-numeric
    field (the header is row 1)."""
    rows = []
    for lineno, line in enumerate(lines, start=2):
        parts = line.strip().split(",")
        if len(parts) != 1 + 3 * n:
            raise ScenarioError(f"trajectory CSV row {lineno} has {len(parts)} fields")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ScenarioError(f"trajectory CSV row {lineno} has a non-numeric field") from None
    return np.asarray(rows)


def read_trajectory_csv(path, g: Graph, cfg: SimConfig) -> Trajectory:
    """Read a trajectory CSV back; validates the header against the graph
    and the time column against the grid ``simulate`` writes for cfg:
    exactly t_k = k dt for k = 0..round(t_final / dt).

    numpy's C text reader parses the body as it streams from the file.
    It skips empty lines, so a body in which it skipped a line, which it
    rejects, or which it reads into the wrong width is read again by
    ``_scan_csv_rows``: that names the first bad row, or accepts what
    ``float`` accepts."""
    n = g.n
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().strip().split(",")
            if header != _csv_columns(n):
                raise ScenarioError(f"trajectory CSV header does not match graph with n={n}")
            start = fh.tell()
            lines = itertools.count()  # then next(lines) counts the lines parsed
            with warnings.catch_warnings():
                # a body with no data lines warns; the scan rejects it below
                warnings.simplefilter("ignore", UserWarning)
                try:
                    data = np.loadtxt(
                        (line for line, _ in zip(fh, lines)), delimiter=",", comments=None, ndmin=2
                    )
                except ValueError:
                    data = None
            if data is None or data.shape != (next(lines), 1 + 3 * n):
                fh.seek(start)
                data = _scan_csv_rows(fh, n)
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"trajectory CSV is not UTF-8 text ({exc.reason})") from None
    if not len(data):
        raise ScenarioError("trajectory CSV has no samples")
    traj = Trajectory(data[:, 1:], g, cfg)
    times = data[:, 0]
    steps = cfg.t_final / cfg.dt
    if not (
        math.isfinite(steps) and len(times) - 1 == round(steps) and np.array_equal(times, traj.times)
    ):
        raise ScenarioError(
            f"trajectory CSV time grid ({len(times)} samples, t from {float(times[0])!r} to "
            f"{float(times[-1])!r}) is not the scenario's: t_k = k * {cfg.dt!r} for "
            f"k = 0..round({cfg.t_final!r} / {cfg.dt!r})"
        )
    return traj
