"""Agent dynamics, consensus protocols, and fixed-step integration.

Agents are scalar integrators dx/dt = u + w with a constant disturbance
vector w. The nominal protocol is u = -L x (disturbances uncorrected); the
adaptive one is u = -L x - w_hat, where each agent runs a state emulator
x_hat' = -Delta x_hat + Adj x and integrates the emulator mismatch, with
gain alpha > 0, into a disturbance estimate w_hat' = alpha (x - x_hat);
Adj is the adjacency and Delta the degree matrix, L = Delta - Adj.

Error conventions used throughout: x_tilde = x - x_hat and
w_tilde = w_hat - w, so the closed-loop error dynamics are
    d(x_tilde)/dt = -Delta x_tilde - w_tilde,
    d(w_tilde)/dt = alpha x_tilde.

In the error coordinates z = (x, x_tilde, w_tilde) the adaptive loop is
homogeneous, since x' = -L x - w_hat + w = -L x - w_tilde, and this is
the closed loop that ``simulate`` integrates:

    z' = B z,   B = [[-L,  0,        -I],
                     [0,   -Delta,   -I],
                     [0,   alpha I,   0]].

Only x sees the graph; each agent's error (x_tilde_i, w_tilde_i) evolves
on its own, by the 2 x 2 block E_i = [[-d_i, -1], [alpha, 0]]. The
nominal loop is the same system with alpha = 0 and w_tilde held at -w
(x_hat = w_hat = 0). A ``Trajectory`` stores each sample as the stacked
y = (x, x_hat, w_hat), the CSV's layout too.

Integration is classical fixed-step 4th-order Runge-Kutta. On the linear
loop one step of size h is exactly z <- z + h phi(hB) B z, with
phi(s) = 1 + s/2 + s^2/6 + s^3/24, which ``_rk4_increment`` forms by
Horner's rule, the one place the polynomial is written. The step
multiplies each mode mu of B by R(h mu) = 1 + s phi(s), s = h mu, and
``simulate`` rejects a step size with |R(h mu)| > 1 before it
integrates. The adaptive spec(B) is {0} U spec(M), with M the
agreement-coordinate matrix of ``stability``; ``closed_form_spectrum``
gives spec(M) in closed form from the Laplacian spectrum and the degrees.

One step R(hB) is block upper triangular: its error block is the n
per-agent maps G_i = R(h E_i) (``_rk4_error_gains``), and its x rows form
the n x 3n block [P_xx | Q]. One driver, ``_rk4_steps``, fills every
error row from row 0 by doubling G (``_march_error_rows``, O(steps n)
elementwise work), marches the x columns by one of two routes, chosen by
the run size alone, and converts each row in place to y.

A run with n <= ``MAX_MAP_NODES`` and steps >= n^3 / ``MAP_BREAK_EVEN``
takes the map, which needs numpy only. ``_rk4_row_map`` forms [P_xx | Q]
with the dense Laplacian, and the x columns are marched in blocks by
repeated squaring: rows k..k+m-1 of x are rows k-m..k-1 of z times the x
rows of R^m, one matmul per block, with
[P_2m | Q_2m] = P_m [P_m | Q_m] + [0 | Q_m G_m], 6 n^3 flops. The block
doubles while a squaring costs less than the matmul calls it saves
(``MATMUL_CALL_FLOPS``); where none pays, each step is one matvec.

Any other run takes the stages, x_{k+1} = x_k + [h phi(hB) B z_k]_x one
step at a time. The x part of B t is -L t_x - t_w, and the w_tilde parts
of the Horner operands are elementwise in the error rows, so they are
formed first; each step then makes four sparse matvecs with -L in CSR
form, whose arrays each graph builds once from its edge set
(``_neg_laplacian``, the one place ``scipy.sparse`` is imported). A
short run does not repay forming the map, and above ``MAX_MAP_NODES`` the
dense matvec costs more per step than the four sparse ones.

Besides the trajectory that ``MAX_TRAJECTORY_SAMPLES`` budgets, the map
holds a few 3n x n arrays, and the error rows, the stage shifts and the
non-finite scan a few blocks of ``ERROR_BLOCK_VALUES`` values.

Trajectory CSV I/O uses two CPUs where two are usable (``_usable_cpus``:
the affinity mask, capped by the cgroup v2 CPU quota), through one
hand-off (``_Helpers``): a forked helper pins itself to one CPU and
writes its result to an unnamed temporary file, which the caller reads
once the helper has exited with code 0. The writer's two helpers write
half the rows each, which the caller appends; a helper formats a chunk
of rows at a time in one ``floatrepr.Workspace``, the bytes of ``repr``
computed with numpy, at about 0.17 us a value against 0.6 us for
``repr`` (2-vCPU Xeon, Python 3.11, numpy 2.4), and the caller a row at
a time with ``repr`` itself. The reader splits byte pieces of the body
into lines and parses a chunk of them at a time straight into the state
columns; on a large body the caller parses the part up to a line start
near its byte midpoint while one helper parses the rest. A body this
parse does not take whole, or one that is not a regular file, goes to a
line scan with ``float``, which alone decides what is accepted and what
each error says, so neither depends on the CPU count. Both trade CPU
time for wall time. A process formats and parses a chunk of
``CSV_CHUNK_VALUES`` values at a time, the caller's writer one row at a
time; no CSV line is read past ``CSV_FIELD_CHARS`` characters a field.
"""

from __future__ import annotations

import array
import gc
import math
import numbers
import os
import stat
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    MatrixShapeError,
    NumericalBlowupError,
    ScenarioError,
)
from .graph import Graph, is_connected, laplacian, laplacian_spectrum
from .spectral import Spectrum

NOMINAL = "nominal"
ADAPTIVE = "adaptive"

DEFAULT_DT = 0.001

#: Largest trajectory ``simulate`` allocates, in samples: (steps + 1) * 3n
#: float64 values, 800 MB; ``analyze`` applies it too, and its read holds
#: the states plus one chunk of ``CSV_CHUNK_VALUES`` values. The run report
#: adds one block of ``ERROR_BLOCK_VALUES`` values and a few series of
#: steps + 1 values: 0.03 of the trajectory at n = 100, 0.3 at n = 10, and
#: as much again at n = 2, where a row holds 6 values (``tracemalloc``).
#: The largest run in the tests and the benchmark has 1.8 M samples (p2,
#: dt = 1e-4, 30 s).
MAX_TRAJECTORY_SAMPLES = 100_000_000

#: Largest node count at which ``simulate`` integrates with the map in
#: error coordinates, whose x-row block takes 3n^2 values, 1.6 MB here. On
#: a Xeon with 2 MB of L2 cache per core and single-threaded OpenBLAS, 1000
#: steps took 42 ms on the map against 76 ms on the stages on a random
#: graph at n = 256, but 92 against 101 ms at n = 300 (95 against 82 on a path).
MAX_MAP_NODES = 256

#: Break-even of the map against the sparse stages: the map path needs
#: steps >= n^3 / MAP_BREAK_EVEN. Forming the map takes about 8 n^3 flops,
#: against a stage step of about 40 us, mostly call overhead, at these n.
#: The map first beat the stages (forming the map and building -L
#: included) at 1 step at n = 60, 24-28 at n = 100, 80-112 at n = 150,
#: 160-192 at n = 200 and 320-640 at n = 250.
MAP_BREAK_EVEN = 2**15

#: Cost of one numpy matmul call on a block of rows, in flops of a squaring
#: of the x-row block: about 3 us of overhead, at the 14 GFlop/s a small
#: squaring reaches on a Xeon with single-threaded OpenBLAS, plus reading
#: the 3n x n block once, counted as two flops per value (6 n^2). A
#: squaring (6 n^3 flops) pays while it costs less than the calls it saves
#: on the rows left: 12 m n^3 < (MATMUL_CALL_FLOPS + 6 n^2) * rows left.
MATMUL_CALL_FLOPS = 40_000

#: Largest block of error rows, in rows times n, that ``_march_error_rows``
#: advances in one go, and for which ``_march_x_stages`` forms the Horner
#: shifts of the x march: their temporaries stay a few times this size. The
#: non-finite scan of ``simulate`` and the run report's
#: ``stability.error_sums`` read blocks of this many values too.
ERROR_BLOCK_VALUES = 2**16

#: Values per chunk of rows that a helper of ``write_trajectory_csv``
#: formats in one piece in its ``floatrepr.Workspace`` (138 bytes a value,
#: made once per helper, and about 20 bytes a value of text per chunk),
#: and which ``read_trajectory_csv`` parses in one
#: piece (chunks of 2^13 to 2^17 values read as fast), from byte pieces of
#: twice as many bytes (a value takes two or more). The caller's writer
#: forms the times of a chunk in one piece and formats a row at a time
#: with ``repr``. A trajectory of more than one chunk is written by two
#: helpers where two CPUs are usable, and the writer copies a helper's
#: file in pieces of at most one chunk of text (about 0.2 MB).
CSV_CHUNK_VALUES = 2**13

#: Characters a trajectory CSV field may take on average, its comma
#: included, against at most 24 for the ``repr`` of a float: the reader
#: reads a body row up to this many characters a field, and the header up
#: to this many characters past its expected length, and rejects a longer
#: line before it is read whole; its byte pieces hold one such row or more.
CSV_FIELD_CHARS = 64

#: Smallest trajectory CSV body, in bytes, that ``read_trajectory_csv``
#: parses on two CPUs. Its helper costs the caller about 7 ms in a process
#: of the benchmark worker's size (2-vCPU Xeon), whatever the body: the
#: fork 2.4-3.5 ms, the temporary file 0.1 ms, reading mid-wide's 0.7 MB
#: of rows back 0.7-0.8 ms, and the helper's exit 3-6 ms where the caller
#: waits for it (4 to 25 of 30 reads). At about 19 ns a byte, halving the
#: parse paid for that only from about 1.3 MB on: perfbench ``analyze_s``
#: at seed 1 moved by +3 % on a 1.26 MB body, -6 % on 1.45 MB and -26 %
#: on 3.75 MB (10 pairs each).
CSV_PARALLEL_BYTES = 2**21

#: The cgroup v2 file that holds the CPU quota of the caller's cgroup,
#: "<quota> <period>" in microseconds or "max <period>" for none.
CPU_MAX_PATH = "/sys/fs/cgroup/cpu.max"


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


def _neg_laplacian(g: Graph):
    """-L = Adj - Delta as a scipy CSR matrix over the graph's cached CSR
    arrays (``Graph.neg_laplacian_csr``). ``scipy.sparse`` is imported
    here, not at module level: only the stage route of ``simulate`` needs
    it, so ``verify``, ``analyze`` and every run on the map route run
    without it."""
    from scipy import sparse

    return sparse.csr_matrix(g.neg_laplacian_csr, shape=(g.n, g.n))


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


def _rk4_row_map(g: Graph, alpha: float, dt: float) -> np.ndarray:
    """The x rows [P_xx | Q] of one RK4 step R = R(dt B) of the loop
    z' = B z (module docstring), returned transposed as a 3n x n array
    ``cols``: one Horner evaluation on B^T applied to the x unit vectors,
    whose images are the x rows of R. With alpha = 0 this is the nominal
    loop, whose x rows take no x_tilde."""
    n = g.n
    lap = laplacian(g)
    deg = g.degrees[:, None]

    def mul(t):  # B^T t, B^T = [[-L, 0, 0], [0, -Delta, alpha I], [-I, -I, 0]]
        tx, te, tw = t[:n], t[n : 2 * n], t[2 * n :]
        return np.concatenate([-(lap @ tx), alpha * tw - deg * te, -tx - te])

    v = np.zeros((3 * n, n))
    np.fill_diagonal(v[:n], 1.0)
    return v + mul(_rk4_increment(mul, v, dt))


def _rk4_error_gains(g: Graph, alpha: float, dt: float) -> np.ndarray:
    """The per-agent 2 x 2 maps G_i = R(dt E_i) of (x_tilde_i, w_tilde_i),
    as ``gains[r, c, i]`` = G_i[r, c], by one elementwise Horner pass: row
    r of G_i is R(dt E_i^T) e_r, since R(dt E)^T = R(dt E^T)."""
    deg = g.degrees

    def mul(t):  # E_i^T t per agent, E_i^T = [[-d_i, alpha], [-1, 0]]
        return np.array([alpha * t[1] - deg * t[0], -t[0]])

    v = np.broadcast_to(np.eye(2)[:, :, None], (2, 2, g.n))
    rows = v + mul(_rk4_increment(mul, v, dt))
    return np.ascontiguousarray(rows.transpose(1, 0, 2))


def _square_gains(gains: np.ndarray) -> np.ndarray:
    """G_i^2 for every agent, in the layout of ``_rk4_error_gains``."""
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


def _march_x_stages(g: Graph, alpha: float, dt: float, out: np.ndarray) -> None:
    """Fill the x columns of rows 1.. of z from row 0, with the error
    columns filled, one RK4 step at a time. The w_tilde parts t_w of the
    three Horner operands are, per agent, fixed combinations of x_tilde_k
    and w_tilde_k, read off one Horner pass on E_i, and are formed for
    blocks of at most ``ERROR_BLOCK_VALUES`` values."""
    n, deg = g.n, g.degrees
    neg_lap = _neg_laplacian(g)
    x, xt, wt = out[:, :n], out[:, n : 2 * n], out[:, 2 * n :]
    operands = []

    def error_mul(t):  # E_i t per agent, recording the w_tilde part of eye, then of each operand
        operands.append(t[1])
        return np.array([-deg * t[0] - t[1], alpha * t[0]])

    _rk4_increment(error_mul, error_mul(np.broadcast_to(np.eye(2)[:, :, None], (2, 2, n))), dt)
    coef = -np.array(operands[1:])[:, :, None]  # -t_w = coef[j, 0] x_tilde + coef[j, 1] w_tilde

    def x_mul(t):  # the x part of B t: -L t_x, plus -t_w from the current step's shifts
        r = neg_lap @ t
        r += next(shift)
        return r

    steps = len(out) - 1
    block = max(1, ERROR_BLOCK_VALUES // n)
    buffer = np.empty((3, min(block, steps), n))
    for k0 in range(0, steps, block):
        k1 = min(k0 + block, steps)
        shifts = np.multiply(coef[:, 0], xt[k0:k1], out=buffer[:, : k1 - k0])
        for shift_j, coef_j in zip(shifts, coef[:, 1]):  # one block-sized temporary
            shift_j += coef_j * wt[k0:k1]
        for k in range(k0, k1):
            shift = iter(shifts[:, k - k0])
            v = neg_lap @ x[k]
            v -= wt[k]
            np.add(x[k], _rk4_increment(x_mul, v, dt), out=x[k + 1])


def _rk4_steps(g: Graph, cfg: SimConfig, w: np.ndarray, out: np.ndarray) -> None:
    """Fill out with the RK4 steps of z' = B z from the initial state of
    cfg and store each row as y (module docstring); row 0 is the initial
    state as given. The nominal loop has alpha = 0 and its error rows held
    at (0, -w), and its x_hat and w_hat columns keep their initial zeros."""
    n = g.n
    steps = len(out) - 1
    xt, wt = out[:, n : 2 * n], out[:, 2 * n :]
    adaptive = cfg.protocol == ADAPTIVE
    alpha = cfg.alpha if adaptive else 0.0
    gains = _rk4_error_gains(g, alpha, cfg.dt)
    out[0, :n] = cfg.x0
    if adaptive:
        np.subtract(cfg.x0, cfg.x_hat0, out=xt[0])
        np.subtract(cfg.w_hat0, w, out=wt[0])
        _march_error_rows(gains, xt, wt)
    else:
        xt[:] = 0.0
        wt[:] = -w
    if n <= MAX_MAP_NODES and steps >= n**3 / MAP_BREAK_EVEN:
        _march_x_rows(_rk4_row_map(g, alpha, cfg.dt), gains, out)
    else:
        _march_x_stages(g, alpha, cfg.dt, out)
    if adaptive:
        np.subtract(out[:, :n], xt, out=xt)
        wt += w
    else:
        out[:, n:] = 0.0
    out[0] = cfg.y0


def simulate(g: Graph, cfg: SimConfig, w: np.ndarray) -> Trajectory:
    """Integrate the closed loop with classical RK4 from t=0 to t_final.

    The run-size budget and ``_check_rk4_step`` run first, so a run that is
    too large or an unstable step size is rejected before any state is
    allocated. ``_rk4_steps`` then integrates z' = B z in error
    coordinates, marching x by the map or by the sparse stages (module
    docstring), and stores each row as y = (x, x_hat, w_hat). Either way a
    non-finite value raises ``NumericalBlowupError`` naming the time of
    the first non-finite sample, found by a scan in row blocks, and no
    numpy floating-point warning is printed.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("simulation requires a connected graph")
    steps = _step_count(g, cfg)
    _check_rk4_step(g, cfg)
    w = np.asarray(w, dtype=float)
    _check_lengths(g, cfg.x0, w)
    out = np.empty((steps + 1, 3 * g.n))
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4_steps(g, cfg, w, out)
    bad = _first_non_finite_row(out)
    if bad is not None:
        raise NumericalBlowupError(bad * cfg.dt)
    return Trajectory(out, g, cfg)


def _first_non_finite_row(out: np.ndarray) -> int | None:
    """Index of the first row of out holding a non-finite value, or None.
    Rows are scanned in blocks of at most ``ERROR_BLOCK_VALUES`` values
    through one reused boolean buffer, up to the first bad block."""
    block = max(1, ERROR_BLOCK_VALUES // out.shape[1])
    buf = np.empty((block, out.shape[1]), dtype=bool)
    for k in range(0, len(out), block):
        rows = out[k : k + block]
        finite = np.isfinite(rows, out=buf[: len(rows)])
        if not finite.all():
            return k + int(np.argmin(finite.all(axis=1)))
    return None


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


def _usable_cpus() -> list:
    """The CPUs a helper may pin itself to: the caller's affinity mask,
    sorted, where it holds two or more CPUs and the cgroup v2 CPU quota
    (``CPU_MAX_PATH``: quota over period, rounded up) lets two or more run
    at once; else an empty list, and neither CSV path forks a helper.
    Where the platform has no affinity call there is one CPU; where the
    quota file cannot be read or parsed, no quota applies."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        return []
    try:
        with open(CPU_MAX_PATH) as fh:
            quota, period = fh.read().split()
        if quota != "max" and -(-int(quota) // int(period)) < 2:
            return []
    except (OSError, ValueError, ZeroDivisionError):
        pass
    return cpus


def _cpu_after_caller(cpus: list) -> int:
    """Index in cpus, modulo len(cpus), of the CPU after the caller's
    (``/proc/self/stat``), else the process id. The first helper pins
    itself there: by the process id alone it took the caller's CPU in some
    runs, slowing the writer's second fork (large-cert ``simulate`` 87-98 ms
    against 77-93 ms, perfbench, three runs each)."""
    try:
        with open("/proc/self/stat") as fh:
            return 1 + cpus.index(int(fh.read().rsplit(")", 1)[1].split()[36]))
    except (OSError, ValueError, IndexError):
        return os.getpid()


def _write_csv_rows(traj: Trajectory, start: int, stop: int, fh) -> None:
    """Write rows [start, stop) to fh as CSV lines, one at a time: each value
    is the ``repr`` of its float, and t_k = k dt as in ``Trajectory.times``,
    formed a chunk of about ``CSV_CHUNK_VALUES`` values at a time."""
    per_chunk = max(1, CSV_CHUNK_VALUES // (1 + traj.states.shape[1]))
    for k in range(start, stop, per_chunk):
        end = min(k + per_chunk, stop)
        times = np.arange(k, end) * traj.config.dt
        for t, y in zip(times.tolist(), traj.states[k:end]):
            fh.write(f"{t!r},{','.join(map(repr, y.tolist()))}\n".encode())


def _write_csv_chunks(traj: Trajectory, start: int, stop: int, fh, repr_rows) -> None:
    """Write rows [start, stop) to fh as CSV lines, a chunk of about
    ``CSV_CHUNK_VALUES`` values at a time: the times t_k = k dt and the
    states of the chunk's rows go into one float block, which
    ``repr_rows`` formats to the bytes that ``_write_csv_rows`` writes,
    handed to fh as they are: the ``repr_rows`` of a ``floatrepr.Workspace``
    of one chunk, so that no chunk after the first allocates more than its
    text, or ``floatrepr.repr_rows``."""
    per_chunk = max(1, CSV_CHUNK_VALUES // (1 + traj.states.shape[1]))
    block = np.empty((min(per_chunk, stop - start), 1 + traj.states.shape[1]))
    for k in range(start, stop, per_chunk):
        rows = block[: min(per_chunk, stop - k)]
        rows[:, 0] = np.arange(k, k + len(rows)) * traj.config.dt
        rows[:, 1:] = traj.states[k : k + len(rows)]
        fh.write(repr_rows(rows))


class _Helpers:
    """The forked helpers of one call of the trajectory CSV writer or
    reader, used as a ``with`` block, whose end kills and reaps every
    helper not yet reaped and closes every file, whether the call returns
    or raises. A helper the system reaped (as under ``SIGCHLD = SIG_IGN``)
    counts as failed and gets no signal, as its pid may have been reused."""

    def __init__(self, cpus: list):
        self.cpus, self.pids, self.files = cpus, {}, {}  # by helper; a pid leaves pids once reaped
        self.first = _cpu_after_caller(cpus) if cpus else 0

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        for pid in self.pids.values():
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:  # still running: stop it
                    import signal  # here, not at module level: its import takes about 1 ms
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:  # reaped by the system
                pass
        for tmp in self.files.values():
            tmp.close()

    def start(self, i: int, work, *args) -> bool:
        """Create an unnamed temporary file (``tempfile.TemporaryFile``)
        and fork helper i, which pins itself to the usable CPU i + 1 places
        after the caller's (``_cpu_after_caller``), calls
        ``work(*args, file)``, flushes the file and exits with code 0 only
        if both returned. False, and no helper, where no file or process
        can be made.

        The helper shares the caller's memory, shows no warning, runs no
        garbage collection and leaves through ``os._exit``: no flush or
        close of the caller's files. ``work`` makes no BLAS call and imports
        nothing: what it calls is imported before the fork. Python >= 3.12
        warns about a fork of a multi-threaded process (an unpinned OpenBLAS
        pool, say); the helper takes no lock another thread could hold (the
        allocator's are reset at fork), so that warning is silenced. A CPU
        the helper cannot pin to leaves it unpinned."""
        try:
            tmp = self.files[i] = tempfile.TemporaryFile()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            return False
        if pid == 0:
            code = 1
            try:
                gc.disable()  # no finalizer of the parent's garbage runs here
                warnings.simplefilter("ignore")
                try:
                    os.sched_setaffinity(0, {self.cpus[(self.first + i) % len(self.cpus)]})
                except OSError:
                    pass
                work(*args, tmp)
                tmp.flush()
                code = 0
            finally:
                os._exit(code)
        self.pids[i] = pid
        return True

    def result(self, i: int):
        """Wait for helper i: its file, rewound, if it exited with code 0,
        else None."""
        try:
            status = os.waitpid(self.pids[i], 0)[1] if i in self.pids else 1
        except ChildProcessError:
            status = 1
        self.pids.pop(i, None)
        if status != 0:
            return None
        self.files[i].seek(0)
        return self.files[i]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory CSV: header t,x_0..,xhat_0..,what_0..; each value is the
    ``repr`` of its float, and the bytes do not depend on the CPU count.

    Where the rows make more than one chunk of ``CSV_CHUNK_VALUES`` values
    and two CPUs are usable (``_usable_cpus``), one helper per half of the
    rows is started (``_Helpers``) before the file is opened. Each writes
    its half to its temporary file, a chunk at a time, formatted in one
    ``floatrepr.Workspace`` that it makes after the fork, so the caller's
    memory does not grow (``_write_csv_chunks``); the caller imports
    ``floatrepr`` before it forks, and only here, so that ``verify`` does
    not. Unpinned, two helpers often shared one CPU: small-long
    ``simulate`` took 115 ms against 70-80 ms pinned. The caller writes the
    header, then for each half in row order waits for its helper and
    appends its file in pieces of at most one chunk of text. A half whose
    helper was not started or did not exit with code 0 (it failed, was
    killed, or was reaped by the system) the caller formats itself with
    ``repr``, a row at a time (``_write_csv_rows``), as it does every row
    where the rows are not split: that keeps the caller's working memory to
    one row of text, and the one-row writer the reference the helpers'
    bytes are checked against.

    Side effects where the rows are split: the call forks two helpers and
    creates two unnamed temporary files, all gone when it returns or
    raises. It never changes the caller's CPU set.
    """
    rows, width = len(traj.states), 1 + traj.states.shape[1]
    per_chunk = max(1, CSV_CHUNK_VALUES // width)
    cpus = _usable_cpus() if rows > per_chunk else []
    halves = [(0, rows // 2), (rows // 2, rows)] if cpus else [(0, rows)]

    def write_half(start, stop, tmp):  # in a helper
        _write_csv_chunks(traj, start, stop, tmp, Workspace(per_chunk * width).repr_rows)

    with _Helpers(cpus) as helpers:
        if cpus:
            from .floatrepr import Workspace  # here, before the forks: a helper imports nothing

            for i, (start, stop) in enumerate(halves):
                helpers.start(i, write_half, start, stop)
        # made once the helpers run; a value takes 4 bytes or more ("0.0,")
        piece = memoryview(bytearray(4 * per_chunk * width))
        with open(path, "wb") as fh:
            fh.write((",".join(_csv_columns(traj.graph.n)) + "\n").encode())
            for i, (start, stop) in enumerate(halves):
                if (done := helpers.result(i)) is None:
                    _write_csv_rows(traj, start, stop, fh)
                else:
                    while size := done.readinto(piece):
                        fh.write(piece[:size])


def _scan_csv_rows(fh, width: int, limit: int) -> np.ndarray:
    """Up to ``limit`` body lines of the trajectory CSV open as text fh,
    each read up to ``CSV_FIELD_CHARS`` characters a field and parsed with
    ``float`` into one flat ``array("d")``, returned as a (rows, width)
    view of it; ``ScenarioError`` names the first row (the header is row 1)
    that is longer, has another field count or a non-numeric field."""
    longest = CSV_FIELD_CHARS * width
    values = array.array("d")
    for lineno in range(2, limit + 2):
        line = fh.readline(longest + 1)
        if not line:
            break
        if len(line) > longest and line[-1] != "\n":
            raise ScenarioError(f"trajectory CSV row {lineno} is longer than {longest} characters")
        parts = line.strip().split(",")
        if len(parts) != width:
            raise ScenarioError(f"trajectory CSV row {lineno} has {len(parts)} fields")
        try:
            values.extend(map(float, parts))
        except ValueError:
            raise ScenarioError(f"trajectory CSV row {lineno} has a non-numeric field") from None
    return np.frombuffer(values).reshape(-1, width)


def _span_chunks(fd: int, start: int, stop: int, width: int):
    """The trajectory CSV rows in bytes [start, stop) of the file open on
    fd, parsed by numpy's C text reader a chunk of ``CSV_CHUNK_VALUES``
    values at a time: yields one (rows, width) array per chunk. Pieces of
    2 ``CSV_CHUNK_VALUES`` bytes, or one longest row and its line end where
    that is more, are read with ``os.pread`` (fd's offset stays), cut after
    their last line end, decoded as strict UTF-8 and split at line ends.
    Raises ``ValueError`` where the line scan might read the span otherwise:
    a carriage return, a row longer than ``CSV_FIELD_CHARS`` characters a
    field, or a line numpy rejects, skips (empty) or reads as another width."""
    longest = CSV_FIELD_CHARS * width
    size = max(longest + 1, 2 * CSV_CHUNK_VALUES)
    per_chunk = max(1, CSV_CHUNK_VALUES // width)
    lines, pos = [], start
    while pos < stop or lines:
        if len(lines) < per_chunk and pos < stop:
            piece = os.pread(fd, min(size, stop - pos), pos)
            cut = len(piece) if pos + len(piece) == stop else piece.rfind(b"\n") + 1
            new = piece[:cut].decode("utf-8").removesuffix("\n").split("\n")
            if not cut or b"\r" in piece or max(map(len, new)) > longest:
                raise ValueError("a row too long, or a carriage return")
            lines += new
            pos += cut
            continue
        with warnings.catch_warnings():
            # lines with no data warn; the line scan rejects them
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(lines[:per_chunk], delimiter=",", comments=None, ndmin=2)
        if data.shape != (min(per_chunk, len(lines)), width):
            raise ValueError("chunk not parsed whole")
        del lines[:per_chunk]  # before the yield, so no two chunks of lines are held
        yield data


def _check_grid(data: np.ndarray, row: int, samples: int, dt: float) -> None:
    """Raise ``ValueError`` unless the parsed rows data fit as rows
    [row, row + len(data)) of a grid of ``samples`` rows and their times
    are t_k = k dt, as ``Trajectory.times`` forms them."""
    end = row + len(data)
    if not (0 <= row and end <= samples and np.array_equal(data[:, 0], np.arange(row, end) * dt)):
        raise ValueError("rows off the grid")


def _read_body(fh, samples: int, width: int, dt: float) -> np.ndarray | None:
    """The states of the trajectory CSV open as fh, whose body starts at
    ``fh.tell()``, read in byte pieces and parsed by numpy's C text reader
    a chunk at a time (``_span_chunks``), or None where fh is not a regular
    file or that parse does not accept the body exactly as it is: a
    carriage return, a row too long, bytes that are not UTF-8, a line numpy
    rejects or skips, or rows other than the grid's ``samples`` rows with
    times t_k = k dt (``_check_grid``).

    A body too short or too long for ``samples`` rows of ``width`` fields
    of 1 to ``CSV_FIELD_CHARS`` characters is rejected before the result is
    allocated. The caller parses bytes [start, split) into the top rows of
    the result, without the time column. The split is the body's end,
    unless two CPUs are usable (``_usable_cpus``), the body is at least
    ``CSV_PARALLEL_BYTES`` and a helper can be started (``_Helpers``): then
    it is the first line start at or after the byte midpoint, and the helper
    parses the rest at the same time, checks its rows, which end at row
    ``samples``, against the grid, and writes their count, then their state
    columns, to its file, which the caller reads into the bottom rows. The
    result stands only if the counts add up to ``samples`` and the helper
    exited with code 0.

    ``fh.tell()`` is the byte offset unless a decoder state is pending (a
    larger value leaves the body too short). Every read is an ``os.pread``,
    so fh's offset stays where it is.
    """
    fd = fh.fileno()
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):  # a pipe, say: no size, no pread
        return None
    start, stop = fh.tell(), info.st_size
    longest = CSV_FIELD_CHARS * width
    body = stop - start
    if not 2 * width * samples <= body <= (longest + 1) * samples:
        return None
    cpus = _usable_cpus() if body >= CSV_PARALLEL_BYTES else []
    split = stop
    if cpus:
        mid = (start + stop) // 2
        cut = os.pread(fd, longest + 1, mid - 1).find(b"\n")  # from the byte before mid
        if 0 <= cut < stop - mid:
            split = mid + cut
    states = np.empty((samples, width - 1))

    def parse_bottom(out):  # in the helper
        chunks = list(_span_chunks(fd, split, stop, width))
        rows = sum(map(len, chunks))
        row = samples - rows
        for data in chunks:
            _check_grid(data, row, samples, dt)
            row += len(data)
        out.write(rows.to_bytes(8, "little"))
        for data in chunks:
            out.write(np.ascontiguousarray(data[:, 1:]))

    try:
        with _Helpers(cpus) as helpers:
            if split < stop and not helpers.start(0, parse_bottom):
                split = stop
            top = 0
            for data in _span_chunks(fd, start, split, width):
                _check_grid(data, top, samples, dt)
                states[top : top + len(data)] = data[:, 1:]
                top += len(data)
            if split == stop:
                return states if top == samples else None
            bottom = helpers.result(0)
            if (
                bottom is not None
                and top + int.from_bytes(bottom.read(8), "little") == samples
                and bottom.readinto(states[top:]) == states[top:].nbytes
            ):
                return states
    except (ValueError, OSError):  # the line scan reads the body
        pass
    return None


def read_trajectory_csv(path, g: Graph, cfg: SimConfig) -> Trajectory:
    """Read a trajectory CSV back; validates the header against the graph
    and the time column against the grid ``simulate`` writes for cfg:
    exactly t_k = k dt for k = 0..round(t_final / dt).

    The run-size budget applies first (``_step_count``), as in
    ``simulate``: a scenario too large to run is rejected before the file
    is opened. The header is read up to its expected length plus
    ``CSV_FIELD_CHARS`` characters, and each body row up to
    ``CSV_FIELD_CHARS`` characters a field, so no line is read whole
    however long it is. ``_read_body`` reads the body in byte pieces of at
    least one such row and parses it a chunk at a time, on one CPU or two,
    into an array of the state columns only, so the read holds the states
    plus about one chunk of lines. A body it does not accept is read again
    as text by ``_scan_csv_rows``: that names the first bad row, or accepts
    what ``float`` accepts, and the grid check below names a wrong count or
    time. The scan stops one row past the grid's last, so a file that is
    too long costs one row more than the grid to reject."""
    samples = _step_count(g, cfg) + 1
    n = g.n
    width = 1 + 3 * n
    header = ",".join(_csv_columns(n))
    with open(path, "r", encoding="utf-8") as fh:
        try:
            line = fh.readline(len(header) + CSV_FIELD_CHARS)
            cut = len(line) == len(header) + CSV_FIELD_CHARS and line[-1] != "\n"
            if cut or line.strip() != header:
                raise ScenarioError(f"trajectory CSV header does not match graph with n={n}")
            states = _read_body(fh, samples, width, cfg.dt)
            if states is not None:
                return Trajectory(states, g, cfg)
            data = _scan_csv_rows(fh, width, samples + 1)
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"trajectory CSV is not UTF-8 text ({exc.reason})") from None
    if not len(data):
        raise ScenarioError("trajectory CSV has no samples")
    traj = Trajectory(data[:, 1:], g, cfg)
    times = data[:, 0]
    if not (len(times) == samples and np.array_equal(times, traj.times)):
        count = f"more than {samples}" if len(times) > samples else len(times)
        raise ScenarioError(
            f"trajectory CSV time grid ({count} samples, t from {float(times[0])!r} to "
            f"{float(times[-1])!r}) is not the scenario's: t_k = k * {cfg.dt!r} for "
            f"k = 0..round({cfg.t_final!r} / {cfg.dt!r})"
        )
    return traj
