"""Reference math that the tests compare the package's output against.

No command runs these: the per-agent protocol laws, which the dense
closed loop ``y' = A y + b`` of ``test_dynamics`` is checked against, the
assembled (3n-1) x (3n-1) closed-loop matrix M, whose dense spectrum
acceptance criterion 4 compares with the closed form, and the
block-triangular determinant identity of acceptance criterion 2.
"""

import numpy as np

from resilient_consensus.dynamics import _check_lengths, _closed_form_modes, read_scalar
from resilient_consensus.errors import MatrixShapeError
from resilient_consensus.graph import Graph, adjacency_matrix, degree_matrix, laplacian
from resilient_consensus.spectral import (
    Spectrum,
    _require_square,
    inertia_identities,
    inertia_of_values,
    spectrum_matching,
)
from resilient_consensus.stability import (
    DEFAULT_SPECTRAL_TOL,
    AugmentedSystem,
    StabilityReport,
    error_block,
    reduced_blocks,
)


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


def assemble_block_triangular(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Assemble M = [[A, B], [0, D]]."""
    a = _require_square(a, "A")
    d = _require_square(d, "D")
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0], d.shape[0]):
        raise MatrixShapeError(
            f"B must be {a.shape[0]}x{d.shape[0]}, got {b.shape}"
        )
    p, q = a.shape[0], d.shape[0]
    m = np.zeros((p + q, p + q))
    m[:p, :p] = a
    m[:p, p:] = b
    m[p:, p:] = d
    return m


def build_m(g: Graph, alpha: float) -> AugmentedSystem:
    """Assemble the augmented closed-loop matrix M = [[A1, [A2 0]], [0, E]]."""
    alpha = read_scalar(alpha, "alpha", positive=True)
    a1, a2 = reduced_blocks(g)
    b = np.hstack([a2, np.zeros((g.n - 1, g.n))])
    m = assemble_block_triangular(a1, b, error_block(g, alpha))
    return AugmentedSystem(m_matrix=m, a1=a1, a2=a2, alpha=alpha)


def dense_certificate(g: Graph, alpha: float) -> StabilityReport:
    """The stability certificate cross-checked on the assembled M, as
    ``verify_theorem`` made it before it solved M block by block: one dense
    eigensolve of M, matched to the closed form; the dense values matched
    to the roots of E give the observed inertia, counted against
    dim eps max |lambda| with dim = 3n - 1. The printed tolerance is left
    out (None)."""
    alpha = read_scalar(alpha, "alpha", positive=True)
    agreement, error_roots = _closed_form_modes(g, alpha)
    closed = np.concatenate([agreement, error_roots])
    spectrum = Spectrum(closed)
    dense = np.linalg.eigvals(build_m(g, alpha).m_matrix)
    pairs, residual = spectrum_matching(dense, closed, split=len(agreement))
    dense_tol = len(dense) * np.finfo(float).eps * float(np.max(np.abs(dense)))
    observed = None
    if dense_tol < np.min(np.abs(error_roots.real)):
        observed = inertia_of_values(dense[pairs >= len(agreement)], dense_tol)
    ones = np.ones(g.n)
    return StabilityReport(
        spectrum=spectrum,
        spectral_abscissa=spectrum.abscissa,
        theorem_verdict=bool(spectrum.abscissa < -DEFAULT_SPECTRAL_TOL),
        decomposition_residual=residual,
        quadratic_inertia_predicted=inertia_identities(ones, g.degrees, alpha * ones, 0.0),
        quadratic_inertia_observed=observed,
        tol=DEFAULT_SPECTRAL_TOL,
    )


def determinant(a: np.ndarray) -> float:
    """Determinant via pivoted LU elimination."""
    a = _require_square(a)
    return float(np.linalg.det(a))


def block_triangular_det_check(a, b, d) -> tuple[float, float, float]:
    """Both sides of det([[A,B],[0,D]]) = det(A)det(D), and their difference.

    The left side is a direct pivoted elimination on the assembled matrix,
    independent of the factored right side.
    """
    m = assemble_block_triangular(a, b, d)
    det_m = determinant(m)
    det_ad = determinant(a) * determinant(d)
    return det_m, det_ad, abs(det_m - det_ad)
