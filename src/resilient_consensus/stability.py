"""Spectral verification of the adaptive closed loop and trajectory checks.

In the agreement coordinates xi = (z, x_tilde, w_tilde), where
z_i = x_hat_0 - x_hat_i (i = 1..n-1) are emulator differences, the closed
loop is dxi/dt = M xi with the block-triangular

    M = [[A1, [A2  0]],      A1 = L[0, 1:] - L[1:, 1:],
         [0,  E      ]],     A2 = Adj[0] - Adj[1:],
                             E  = [[-Delta, -I], [alpha I, 0]].

A1 and A2 are differences of rows of the Laplacian and the adjacency
matrix: since L 1 = 0 the differences close on themselves. The spectral
abscissa of M certifies exponential stability. The quadratic polynomial
lam^2 I + lam Delta + alpha I is the characteristic polynomial of E; its
inertia must be (0, 0, 2n).

Because M is block-triangular and E decouples per agent, its spectrum has
the closed form

    spec(M) = {-lambda_k(L) : k = 2..n}  U  {roots of lam^2 + d_i lam + alpha : i = 0..n-1},

which ``closed_form_spectrum`` computes from the graph's one symmetric
Laplacian eigensolve and 2n scalar quadratic roots. It lives in
``dynamics``, beside the closed loop whose RK4 preflight uses it, and is
exported here too. Run reports (``scenario.build_run_report``) and the
RK4 step-size preflight (``dynamics.simulate``) use only the closed form.
``verify_theorem`` reports the closed form and cross-checks it against
the one dense nonsymmetric eigensolve of M that the toolkit makes: the
optimal (min-sum) matching distance between the two is the decomposition
residual, and the dense eigenvalues matched to the roots of E give the
observed quadratic inertia.

The matching (``spectral.spectrum_matching``) groups the closed-form
values into clusters of equal values and sends each dense eigenvalue to
its nearest cluster. The residual and the observed inertia are then the
Hungarian assignment's bit for bit when every cluster receives exactly
its multiplicity, the largest matched distance is below half the smallest
gap between clusters, and no cluster holds both an agreement mode and a
root of E. Otherwise, as at a Jordan chain or at near-repeated Laplacian
eigenvalues, ``scipy.optimize.linear_sum_assignment`` solves it. So
``verify`` imports no scipy module on typical inputs.

Trajectory-side checks cover the energy function
E = 0.5 x_tilde'x_tilde + w_tilde'w_tilde/(2 alpha) (nonincreasing, with
dE/dt = -x_tilde' Delta x_tilde), the transient bound
||x_tilde||_2 <= ||w_tilde(0)||_2 / sqrt(alpha), the boundedness of the
emulator centroid and the decay rate of ||xi||. They read one pass over
the trajectory, ``error_sums``: xi is formed a block of rows at a time in
one reused buffer, its row-0 values read, and it is squared in place for
the per-sample sums every check needs. A run report calls it once and
passes the sums to the per-check code (``_perturbation_bound``,
``_energy``, ``_centroid_drift``, ``_decay_rate``). The public checks
(``check_perturbation_bound``, ``check_energy_decay``,
``centroid_analysis``, ``fit_decay_rate``) call the same two layers, so
no reported value has a second code path; only the residuals that no
report prints, of dE/dt and of the centroid's rate, read ``error_series``
for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, MatrixShapeError, ScenarioError
from .dynamics import (
    ADAPTIVE,
    ERROR_BLOCK_VALUES,
    Trajectory,
    _check_lengths,
    _closed_form_modes,
    closed_form_spectrum,  # noqa: F401 - defined beside the closed loop, exported here
    error_series,
    read_scalar,
)
from .graph import Graph, adjacency_matrix, is_connected, laplacian
from .spectral import (
    Inertia,
    Spectrum,
    assemble_block_triangular,
    eigenvalues,
    inertia_identities,
    inertia_of_values,
    spectrum_matching,
)

DEFAULT_SPECTRAL_TOL = 1e-8

#: ``fit_decay_rate`` fits the samples with ||xi|| between these multiples
#: of ||xi(0)||, where the slowest mode dominates.
DECAY_WINDOW = (1e-8, 1e-2)


@dataclass(frozen=True)
class AgreementTransform:
    """Change of coordinates to (pairwise differences from agent 0, sum)."""

    t_matrix: np.ndarray
    t_inverse: np.ndarray


@dataclass(frozen=True)
class AugmentedSystem:
    """The (3n-1)-dimensional closed-loop matrix M and its building blocks."""

    m_matrix: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    alpha: float


@dataclass(frozen=True)
class StabilityReport:
    spectrum: Spectrum
    spectral_abscissa: float
    theorem_verdict: bool
    decomposition_residual: float
    quadratic_inertia_predicted: Inertia
    quadratic_inertia_observed: Inertia | None
    tol: float
    decomposition_residual_tol: float | None = None


def build_transform(n: int) -> AgreementTransform:
    """Transform matrix: rows 0..n-2 map x to x_0 - x_i, last row sums.

    A reference for the closed-form blocks of ``reduced_blocks``.
    """
    if n < 2:
        raise MatrixShapeError("transform needs n >= 2")
    t = np.zeros((n, n))
    t[:, 0] = 1.0
    t[np.arange(n - 1), np.arange(1, n)] = -1.0
    t[n - 1, :] = 1.0
    t_inv = np.linalg.inv(t)
    if np.max(np.abs(t @ t_inv - np.eye(n))) > 1e-10:
        raise MatrixShapeError("transform inverse failed the round-trip check")
    return AgreementTransform(t_matrix=t, t_inverse=t_inv)


def reduced_blocks(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Blocks A1 = L[0, 1:] - L[1:, 1:] and A2 = Adj[0] - Adj[1:].

    They are the leading (n-1)x(n-1) block of -T L T^-1 and the first n-1
    rows of T Adj for the transform T of ``build_transform``: the sum row
    and column vanish because 1'L = 0 and L 1 = 0.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("reduced blocks require a connected graph")
    lap = laplacian(g)
    adj = adjacency_matrix(g)
    return lap[0, 1:] - lap[1:, 1:], adj[0] - adj[1:]


def build_m(g: Graph, alpha: float) -> AugmentedSystem:
    """Assemble the augmented closed-loop matrix M = [[A1, [A2 0]], [0, E]]."""
    alpha = read_scalar(alpha, "alpha", positive=True)
    a1, a2 = reduced_blocks(g)
    b = np.hstack([a2, np.zeros((g.n - 1, g.n))])
    m = assemble_block_triangular(a1, b, error_block(g, alpha))
    return AugmentedSystem(m_matrix=m, a1=a1, a2=a2, alpha=alpha)


def error_block(g: Graph, alpha: float) -> np.ndarray:
    """The decoupled (x_tilde, w_tilde) dynamics [[-Delta, -I], [alpha I, 0]],
    built as one float 2n x 2n array. The top block row is negated whole,
    so its zeros are -0.0, as in -Delta and -I: the sign of a zero steers
    LAPACK's Householder reflections, and with +0.0 there the dense
    eigenvalues of M changed in their last bits on 81 of 180 test inputs."""
    n = g.n
    e = np.zeros((2 * n, 2 * n))
    i = np.arange(n)
    e[i, i] = g.degrees
    e[i, n + i] = 1.0
    np.negative(e[:n], out=e[:n])
    e[n + i, i] = alpha
    return e


def verify_theorem(g: Graph, alpha: float) -> StabilityReport:
    """Spectral stability certificate for the adaptive closed loop.

    The spectrum, abscissa and verdict come from ``closed_form_spectrum``;
    the verdict is true iff every eigenvalue has real part below
    -``DEFAULT_SPECTRAL_TOL``.
    Cross-check: one dense eigensolve of M, matched to the closed form.
    The largest matched distance is the decomposition residual, and the
    dense eigenvalues matched to the roots of E give the observed inertia
    of lam^2 I + lam Delta + alpha I, against the (0, 0, 2n) that the
    inertia identities predict. The dense solve resolves the real parts
    -d/2 only below alpha of about (d / (2 dim eps))^2, 2e29 on p2; where
    its error reaches the smallest |Re| of the roots of E the observed
    inertia is None, and the verdict, from the closed form, stands.

    The decomposition residual is the error of the dense solve, since the
    closed form is exact. Where M has a Jordan chain of length j the dense
    eigenvalue is off by about (eps ||M||_inf)^(1/j), so the residual can
    exceed 1e-7 on a valid input: at alpha = d^2/4 a root of E is double
    (j = 2), and an agreement mode lambda_k = d/2 equal to it makes j = 3.
    ``decomposition_residual_tol`` is max(1e-7, 10 (eps ||M||_inf)^(1/j))
    with j read off the closed form, so the report says whether the
    residual is within what the dense solve can resolve.
    """
    alpha = read_scalar(alpha, "alpha", positive=True)
    agreement, error_roots = _closed_form_modes(g, alpha)
    closed = np.concatenate([agreement, error_roots])
    spectrum = Spectrum(closed)
    m = build_m(g, alpha).m_matrix
    dense = eigenvalues(m).eigenvalues
    pairs, residual = spectrum_matching(dense, closed, split=len(agreement))
    d = g.degrees
    chain = 1 + bool(np.any(d * d == 4 * alpha))
    roots = np.fromiter(set(error_roots.tolist()), complex)  # one pair per degree
    chain += bool(np.any(np.abs(agreement[:, None] - roots) <= 1e-9))
    scale = np.finfo(float).eps * np.max(np.sum(np.abs(m), axis=1))
    residual_tol = max(1e-7, 10.0 * float(scale) ** (1.0 / chain))
    # lam^2 I + lam Delta + alpha I has exact diagonal coefficients (ones,
    # degrees >= 1, alpha > 0), so the prediction needs no tolerance. The
    # dense roots are counted against the dense solve's own error, about
    # dim eps times the norm of the balanced M that LAPACK solves, which is
    # of the order of the spectral radius here.
    ones = np.ones(g.n)
    dense_tol = len(dense) * np.finfo(float).eps * float(np.max(np.abs(dense)))
    observed = None
    if dense_tol < np.min(np.abs(error_roots.real)):
        observed = inertia_of_values(dense[pairs >= len(agreement)], dense_tol)
    return StabilityReport(
        spectrum=spectrum,
        spectral_abscissa=spectrum.abscissa,
        theorem_verdict=bool(spectrum.abscissa < -DEFAULT_SPECTRAL_TOL),
        decomposition_residual=residual,
        quadratic_inertia_predicted=inertia_identities(ones, g.degrees, alpha * ones, 0.0),
        quadratic_inertia_observed=observed,
        tol=DEFAULT_SPECTRAL_TOL,
        decomposition_residual_tol=residual_tol,
    )


@dataclass(frozen=True)
class ErrorSums:
    """What the trajectory checks read of a run, from ``error_sums``: per
    sample, ||x_tilde||^2, ||w_tilde||^2, ||xi|| and the emulator centroid
    c_hat = sum_i x_hat_i, plus ||w_tilde(0)|| and whether x_tilde(0) is zero
    (to 1e-12)."""

    x_tilde_sq: np.ndarray
    w_tilde_sq: np.ndarray
    xi_norm: np.ndarray
    centroid: np.ndarray
    w_tilde0_norm: float
    x_tilde0_zero: bool


def error_sums(traj: Trajectory, w: np.ndarray) -> ErrorSums:
    """The agreement coordinates xi = (z, x_tilde, w_tilde) of every sample,
    formed for a block of rows of at most ``ERROR_BLOCK_VALUES`` values at a
    time in one reused buffer, and squared in place after the row-0 values
    are read; each sum is one row reduction of a block into a per-sample
    series. The numpy operations per row are those of ``np.linalg.norm``
    and of sums over ``error_series``, so every value has the same bits."""
    w = np.asarray(w, dtype=float)
    n, rows = traj.graph.n, len(traj.states)
    _check_lengths(traj.graph, w)
    x, x_hat, w_hat = traj.x, traj.x_hat, traj.w_hat
    block = max(1, ERROR_BLOCK_VALUES // (3 * n - 1))
    buffer = np.empty((min(block, rows), 3 * n - 1))
    x_tilde_sq, w_tilde_sq, xi_sq = np.empty((3, rows))
    for k in range(0, rows, block):
        end = min(k + block, rows)
        xi = buffer[: end - k]
        z, x_t, w_t = xi[:, : n - 1], xi[:, n - 1 : 2 * n - 1], xi[:, 2 * n - 1 :]
        np.subtract(x_hat[k:end, :1], x_hat[k:end, 1:], out=z)
        np.subtract(x[k:end], x_hat[k:end], out=x_t)
        np.subtract(w_hat[k:end], w, out=w_t)
        if k == 0:
            w_tilde0_norm = float(np.linalg.norm(w_t[0]))
            x_tilde0_zero = bool(np.allclose(x_t[0], 0.0, atol=1e-12))
        np.square(xi, out=xi)
        np.add.reduce(x_t, axis=1, out=x_tilde_sq[k:end])
        np.add.reduce(w_t, axis=1, out=w_tilde_sq[k:end])
        np.add.reduce(xi, axis=1, out=xi_sq[k:end])
    return ErrorSums(
        x_tilde_sq=x_tilde_sq,
        w_tilde_sq=w_tilde_sq,
        xi_norm=np.sqrt(xi_sq, out=xi_sq),
        centroid=np.sum(x_hat, axis=1),
        w_tilde0_norm=w_tilde0_norm,
        x_tilde0_zero=x_tilde0_zero,
    )


def _energy(s: ErrorSums, alpha: float) -> np.ndarray:
    return 0.5 * s.x_tilde_sq + s.w_tilde_sq / (2.0 * alpha)


def _max_increase(e: np.ndarray) -> float:
    return float(np.max(np.diff(e))) if len(e) > 1 else 0.0


def check_energy_decay(
    traj: Trajectory, w: np.ndarray, alpha: float
) -> tuple[float, np.ndarray]:
    """Monotonicity and derivative check of the energy along a trajectory.

    Returns the largest per-step energy increase (should be ~0 up to
    integration error) and the residual series between the forward
    difference of E and the analytic rate -x_tilde' Delta x_tilde
    (trapezoid-averaged across the step, so the residual is O(dt^2)).
    """
    e = _energy(error_sums(traj, w), alpha)
    x_t, _ = error_series(traj, w)
    deg = traj.graph.degrees.astype(float)
    rate = -np.sum(deg[None, :] * x_t * x_t, axis=1)
    forward = np.diff(e) / traj.config.dt
    midpoint_rate = 0.5 * (rate[:-1] + rate[1:])
    return _max_increase(e), np.abs(forward - midpoint_rate)


def check_perturbation_bound(
    traj: Trajectory, w: np.ndarray, alpha: float
) -> tuple[float, float, bool]:
    """Measured sup ||x_tilde||_2 against the bound ||w_tilde(0)||_2/sqrt(alpha).

    Returns (sup, bound, assumption_ok); assumption_ok is False when the
    run starts with a nonzero emulator mismatch, which the bound's
    derivation excludes. Flagged, not failed.
    """
    return _perturbation_bound(error_sums(traj, w), alpha)


def _perturbation_bound(s: ErrorSums, alpha: float) -> tuple[float, float, bool]:
    # sqrt is monotone and correctly rounded: the sqrt of the largest sum is
    # the largest of the per-sample norms
    sup = float(np.sqrt(np.max(s.x_tilde_sq)))
    return sup, float(s.w_tilde0_norm / np.sqrt(alpha)), s.x_tilde0_zero


@dataclass(frozen=True)
class CentroidAnalysis:
    c_series: np.ndarray
    sup_abs: float
    derivative_residual: float
    tail_drift: float
    final_agreement_gap: float


def centroid_analysis(traj: Trajectory, w: np.ndarray) -> CentroidAnalysis:
    """Emulator-centroid behavior: c_hat = sum of emulator states.

    Its rate is sum_i d_i x_tilde_i; since the mismatch decays
    exponentially, c_hat converges and the agreement value equals its
    limit divided by n.
    """
    c = error_sums(traj, w).centroid
    x_t, _ = error_series(traj, w)
    deg = traj.graph.degrees.astype(float)
    rate = np.sum(deg[None, :] * x_t, axis=1)
    forward = np.diff(c) / traj.config.dt
    midpoint = 0.5 * (rate[:-1] + rate[1:])
    deriv_residual = float(np.max(np.abs(forward - midpoint))) if len(c) > 1 else 0.0
    tail_drift, gap = _centroid_drift(traj, c)
    return CentroidAnalysis(
        c_series=c,
        sup_abs=float(np.max(np.abs(c))),
        derivative_residual=deriv_residual,
        tail_drift=tail_drift,
        final_agreement_gap=gap,
    )


def _centroid_drift(traj: Trajectory, c: np.ndarray) -> tuple[float, float]:
    """|c_hat(t_final) - c_hat(t_final / 2)| and the gap between the final
    agreement value and c_hat(t_final) / n."""
    tail_drift = abs(float(c[-1] - c[len(c) // 2]))
    final_agreement = float(np.mean(traj.x[-1]))
    return tail_drift, abs(final_agreement - float(c[-1]) / traj.graph.n)


def fit_decay_rate(traj: Trajectory, w: np.ndarray) -> float:
    """Least-squares slope of log ||xi(t)|| over the late-decay window
    ``DECAY_WINDOW``."""
    if traj.config.protocol != ADAPTIVE:
        raise ScenarioError("decay-rate fit applies to adaptive runs")
    return _decay_rate(traj, error_sums(traj, w).xi_norm)


def _decay_rate(traj: Trajectory, norms: np.ndarray) -> float:
    n0 = norms[0]
    if n0 == 0.0:
        raise ScenarioError("initial transformed error is zero; nothing to fit")
    lo, hi = DECAY_WINDOW[0] * n0, DECAY_WINDOW[1] * n0
    mask = (norms >= lo) & (norms <= hi)
    if np.sum(mask) < 2:
        raise ScenarioError("decay window is empty; run is too short")
    t = traj.times[mask]
    y = np.log(norms[mask])
    slope = np.polyfit(t, y, 1)[0]
    return float(slope)
