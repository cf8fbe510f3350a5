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
``_closed_loop`` builds (A, b) for the stage route below; a ``Trajectory``
is the (steps + 1) x 3n array of stacked states that RK4 fills.

Error conventions used throughout: x_tilde = x - x_hat and
w_tilde = w_hat - w, so the closed-loop error dynamics are
    d(x_tilde)/dt = -Delta x_tilde - w_tilde,
    d(w_tilde)/dt = alpha x_tilde.

In the error coordinates z = (x, x_tilde, w_tilde) the adaptive loop is
homogeneous, since x' = -L x - w_hat + w = -L x - w_tilde:

    z' = B z,   B = [[-L,  0,        -I],
                     [0,   -Delta,   -I],
                     [0,   alpha I,   0]].

Only x sees the graph; each agent's error (x_tilde_i, w_tilde_i) evolves
on its own, by the 2 x 2 block E_i = [[-d_i, -1], [alpha, 0]]. The
nominal loop is the same system with alpha = 0 and w_tilde held at -w
(x_hat = w_hat = 0).

Integration is classical fixed-step 4th-order Runge-Kutta. On a linear
loop one step of size h is exactly

    y <- y + h phi(hA)(A y + b),   phi(z) = 1 + z/2 + z^2/6 + z^3/24,

which ``_rk4_increment`` forms by Horner's rule, the one place the
polynomial is written. The step multiplies each mode mu of A by
R(h mu) = 1 + z phi(z), z = h mu, and ``simulate`` rejects a step size
with |R(h mu)| > 1 before it integrates. The adaptive spec(A) is
{0} U spec(M), with M the agreement-coordinate matrix of ``stability``;
``closed_form_spectrum`` gives spec(M) in closed form from the Laplacian
spectrum and the node degrees.

``simulate`` takes one of two routes to the same steps, chosen by the run
size alone. A run with n <= ``MAX_MAP_NODES`` and
steps >= n^4 / ``MAP_BREAK_EVEN`` takes the map in error coordinates.
One step R(hB) is block upper triangular: its error block is the n
per-agent 2 x 2 maps G_i = R(h E_i), and its x rows form the n x 3n block
[P_xx | Q], both formed by one Horner evaluation with the dense Laplacian
(``_rk4_row_map``). Every error row is filled first, agent by agent, by
doubling G (O(steps n) elementwise work). Then the x columns are marched
in blocks by repeated squaring: rows k..k+m-1 of x are rows k-m..k-1 of z
times the x rows of R^m, one matmul per block, with
[P_2m | Q_2m] = P_m [P_m | Q_m] + [0 | Q_m G_m], 6 n^3 flops. The block
doubles while a squaring costs less than the matmul calls it saves
(``MATMUL_CALL_FLOPS``); where none pays, each step is one matvec with the
row block. Last, each row is converted in place to y: x_hat = x - x_tilde,
w_hat = w_tilde + w. This route needs numpy only. Besides the trajectory
that ``MAX_TRAJECTORY_SAMPLES`` budgets, forming the step holds a few
3n x (n + 2) arrays (Horner's operand, its image and their temporaries),
and the march the row block and its square (2 x 3n^2 values) and
temporaries of at most ``ERROR_BLOCK_VALUES`` values; no 3n x 3n array.
The peak was 7.4 MB at ``MAX_MAP_NODES`` by ``tracemalloc``. Any other run
builds A in CSR form (``_closed_loop``, the one place ``scipy.sparse`` is
imported) and applies the polynomial to A y + b at every step, four
sparse matvecs: a short run does not repay forming the map, and above
``MAX_MAP_NODES`` the dense matvec costs more per step than the four
sparse ones.
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

#: Largest node count at which ``simulate`` integrates with the map in
#: error coordinates, whose x-row block takes 3n^2 values, 1.6 MB here. On
#: a Xeon with 2 MB of L2 cache per core and single-threaded OpenBLAS, at
#: n = 300 and 1000 steps the map took 106 ms against 109 ms for the four
#: sparse stages on a random graph, and 99 against 69 ms on a path.
MAX_MAP_NODES = 256

#: Break-even of the map against the sparse stages: the map path needs
#: steps >= n^4 / MAP_BREAK_EVEN. Fitted to the measured runs (forming the
#: map and building the CSR operator included) on which the map first beat
#: the stages: 1 step up to n = 130, 1-32 at n = 150, 48-192 at n = 200
#: and 192-768 at n = 250.
MAP_BREAK_EVEN = 2**23

#: Cost of one numpy matmul call on a block of rows, in flops of a squaring
#: of the x-row block: about 3 us of overhead, at the 14 GFlop/s a small
#: squaring reaches on a Xeon with single-threaded OpenBLAS, plus reading
#: the 3n x n block once, counted as two flops per value (6 n^2). A
#: squaring (6 n^3 flops) pays while it costs less than the calls it saves
#: on the rows left: 12 m n^3 < (MATMUL_CALL_FLOPS + 6 n^2) * rows left.
MATMUL_CALL_FLOPS = 40_000

#: Largest block of error rows, in rows times n, that ``_march_error_rows``
#: advances in one go: its temporaries hold at most this many values.
ERROR_BLOCK_VALUES = 2**16


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
    except OverflowError:  # an int beyond the float range
        value = math.inf
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

    ``scipy.sparse`` is imported here, not at module level: only the
    stage route of ``simulate`` needs it, so ``verify``, ``analyze`` and
    every run on the map route run without importing scipy.
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
    with ``mul(t)`` returning X t as a new array; v is a scalar, a vector
    or a block of columns."""
    t = v
    for c in (4.0, 3.0, 2.0):
        t = mul(t)
        t *= dt / c
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


def _rk4_row_map(g: Graph, alpha: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step z <- R z, R = R(dt B), of the loop z' = B z in error
    coordinates (module docstring), as the two parts of R that are not zero:
    the x rows [P_xx | Q] of R, returned transposed as a 3n x n array
    ``cols``, and the per-agent 2 x 2 maps G_i = R(dt E_i) of
    (x_tilde_i, w_tilde_i), as ``gains[r, c, i]`` = G_i[r, c].

    Both come from one Horner evaluation on B^T applied to n + 2 columns:
    the x unit vectors, whose images are the x rows of R, and the sums of
    all x_tilde and of all w_tilde unit vectors, whose images hold the G_i
    side by side, since agent i's error rows of R meet only agent i's
    error columns. With alpha = 0 this is the nominal loop: the w_tilde
    rows of R are the identity, and the x rows take no x_tilde.
    """
    n = g.n
    lap = laplacian(g)
    deg = g.degrees[:, None]

    def mul(t):  # B^T t, B^T = [[-L, 0, 0], [0, -Delta, alpha I], [-I, -I, 0]]
        tx, te, tw = t[:n], t[n : 2 * n], t[2 * n :]
        return np.concatenate([-(lap @ tx), alpha * tw - deg * te, -tx - te])

    v = np.zeros((3 * n, n + 2))
    np.fill_diagonal(v[:n], 1.0)
    v[n : 2 * n, n] = 1.0
    v[2 * n :, n + 1] = 1.0
    r = v + mul(_rk4_increment(mul, v, dt))
    gains = np.array([[r[n : 2 * n, n], r[2 * n :, n]], [r[n : 2 * n, n + 1], r[2 * n :, n + 1]]])
    return np.ascontiguousarray(r[:, :n]), gains


def _square_gains(gains: np.ndarray) -> np.ndarray:
    """G_i^2 for every agent, in the layout of ``_rk4_row_map``."""
    return np.einsum("ijn,jkn->ikn", gains, gains)


def _march_error_rows(gains: np.ndarray, xt: np.ndarray, wt: np.ndarray) -> None:
    """Fill rows 1.. of the x_tilde and w_tilde columns from row 0 with
    the per-agent maps G_i, elementwise: rows [k, k + m) are rows
    [k - m, k) advanced by G^m. The block m doubles, with G^2m = G^m G^m,
    while it holds fewer than ``ERROR_BLOCK_VALUES`` values per column
    group, which bounds the temporaries."""
    rows, n = xt.shape
    k = m = 1
    while k < rows:
        end = min(k + m, rows)
        src = slice(k - m, end - m)
        (g00, g01), (g10, g11) = gains
        np.multiply(xt[src], g00, out=xt[k:end])
        xt[k:end] += wt[src] * g01
        np.multiply(wt[src], g11, out=wt[k:end])
        wt[k:end] += xt[src] * g10
        k = end
        if k == 2 * m and m * n < ERROR_BLOCK_VALUES:
            gains = _square_gains(gains)
            m *= 2


def _march_x_rows(cols: np.ndarray, gains: np.ndarray, out: np.ndarray) -> None:
    """Fill the x columns of rows 1.. of z = (x, x_tilde, w_tilde) from
    row 0, with the error columns already filled: rows [k, k + m) of x are
    rows [k - m, k) of z times the x rows of R^m, one matmul per block.
    After the block [m, 2m) the block doubles, by the squaring
    [P_2m | Q_2m] = P_m [P_m | Q_m] + [0 | Q_m G_m] (6 n^3 flops), while
    that costs less than the matmul calls it saves:
    12 m n^3 < (``MATMUL_CALL_FLOPS`` + 6 n^2) * (rows left)."""
    rows, n = len(out), cols.shape[1]
    k = m = 1
    while k < rows:
        end = min(k + m, rows)
        np.matmul(out[k - m : end - m], cols, out=out[k:end, :n])
        k = end
        left = rows - k
        if k == 2 * m and left > m and 12 * m * n**3 < (MATMUL_CALL_FLOPS + 6 * n * n) * left:
            (g00, g01), (g10, g11) = gains[..., None]
            qx, qw = cols[n : 2 * n], cols[2 * n :]
            squared = cols @ cols[:n]
            squared[n : 2 * n] += g00 * qx + g10 * qw
            squared[2 * n :] += g01 * qx + g11 * qw
            cols, gains = squared, _square_gains(gains)
            m *= 2


def _rk4_map(g: Graph, cfg: SimConfig, w: np.ndarray, out: np.ndarray) -> None:
    """The steps of ``_rk4_stages``, filled into out[1:] from out[0], in
    error coordinates z = (x, x_tilde, w_tilde): ``_rk4_row_map`` forms
    the step, ``_march_error_rows`` fills every error row, then
    ``_march_x_rows`` the x rows, and each row is converted in place to
    y = (x, x - x_tilde, w_tilde + w). Row 0 keeps the initial state as
    given. The nominal loop has alpha = 0 and w_tilde = -w throughout, and
    its x_hat and w_hat columns keep their initial values (zero from
    ``SimConfig``), as its A leaves them."""
    n = g.n
    y0 = out[0].copy()
    xt, wt = out[:, n : 2 * n], out[:, 2 * n :]
    adaptive = cfg.protocol == ADAPTIVE
    cols, gains = _rk4_row_map(g, cfg.alpha if adaptive else 0.0, cfg.dt)
    if adaptive:
        np.subtract(y0[:n], y0[n : 2 * n], out=xt[0])
        np.subtract(y0[2 * n :], w, out=wt[0])
        _march_error_rows(gains, xt, wt)
    else:
        xt[:] = 0.0
        wt[:] = -w
    _march_x_rows(cols, gains, out)
    if adaptive:
        np.subtract(out[:, :n], xt, out=xt)
        wt += w
    else:
        out[:, n:] = y0[n:]
    out[0] = y0


def simulate(g: Graph, cfg: SimConfig, w: np.ndarray) -> Trajectory:
    """Integrate the closed loop with classical RK4 from t=0 to t_final.

    The run-size budget and ``_check_rk4_step`` run first, so a run that is
    too large or an unstable step size is rejected before any state is
    allocated. A run with n <= ``MAX_MAP_NODES`` and at least
    n^4 / ``MAP_BREAK_EVEN`` steps takes the map in error coordinates
    (``_rk4_map``), any other the sparse stages of the closed loop
    y' = A y + b (``_rk4_stages``); see the module docstring. Both
    evaluate the one polynomial of ``_rk4_increment``. Either way a
    non-finite value raises ``NumericalBlowupError`` naming the time of
    the first non-finite sample, and no numpy floating-point warning is
    printed.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("simulation requires a connected graph")
    steps = _step_count(g, cfg)
    _check_rk4_step(g, cfg)
    w = np.asarray(w, dtype=float)
    _check_lengths(g, cfg.x0, w)
    out = np.empty((steps + 1, 3 * g.n))
    out[0] = cfg.y0
    with np.errstate(over="ignore", invalid="ignore"):
        if g.n <= MAX_MAP_NODES and steps >= g.n**4 / MAP_BREAK_EVEN:
            _rk4_map(g, cfg, w, out)
        else:
            a, b = _closed_loop(g, cfg, w)
            _rk4_stages(a, b, cfg.dt, out)
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
