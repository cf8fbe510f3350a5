"""Dense real-matrix spectral machinery.

Eigenvalues, inertia counts of eigenvalue sets, and the inertia of a
quadratic matrix polynomial Z(lam) = A lam^2 + B lam + C with
positive-definite B, predicted by the inertia identities and observed on
its companion linearization.

Dense eigensolves are delegated to LAPACK (Hessenberg reduction + shifted
QR), via numpy.

``spectrum_matching`` pairs two eigenvalue multisets by the min-sum
assignment on pairwise moduli, solved by ``scipy.optimize``'s
``linear_sum_assignment`` on the full cost matrix. No command calls it:
the tests' references and the benchmark's traced replay match a dense
solve of the assembled closed-loop matrix with it, while ``verify``
pairs each solved block with its own part of the closed form
(``stability.verify_theorem``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolationError, MatrixShapeError

#: Condition number above which the companion linearization warns.
CONDITION_WARN_THRESHOLD = 1e12


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue multiset, descending by real part, ties by imag part.

    Construction sorts the values into that order, and turns signed zeros
    into 0.0 so that equal spectra print alike.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues) + 0.0
        object.__setattr__(self, "eigenvalues", vals[np.lexsort((vals.imag, -vals.real))])

    def __len__(self):
        return len(self.eigenvalues)

    @property
    def abscissa(self) -> float:
        """Maximum real part."""
        return float(np.max(self.eigenvalues.real))


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue counts by sign of real part, with algebraic multiplicity."""

    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def total(self) -> int:
        return self.n_plus + self.n_zero + self.n_minus


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixShapeError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise MatrixShapeError(f"{name} has non-finite entries")
    return a


def eigenvalues(a: np.ndarray) -> Spectrum:
    """Full spectrum of a square real matrix."""
    a = _require_square(a)
    return Spectrum(np.linalg.eigvals(a))


def default_zero_tol(a: np.ndarray) -> float:
    """Zero-real-part tolerance scaled by the matrix's max row sum."""
    a = np.asarray(a, dtype=float)
    return 1e-9 * max(1.0, float(np.max(np.sum(np.abs(a), axis=1))))


def inertia_of_values(vals: np.ndarray, tol: float) -> Inertia:
    """Count eigenvalue real parts against a +-tol band around zero."""
    re = np.asarray(vals).real
    return Inertia(
        n_plus=int(np.sum(re > tol)),
        n_zero=int(np.sum(np.abs(re) <= tol)),
        n_minus=int(np.sum(re < -tol)),
    )


def companion_matrix(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Companion linearization [[0, I], [-A^-1 C, -A^-1 B]] of A lam^2 + B lam + C."""
    a = _require_square(a, "A")
    b = _require_square(b, "B")
    c = _require_square(c, "C")
    n = a.shape[0]
    if b.shape[0] != n or c.shape[0] != n:
        raise MatrixShapeError("A, B, C must share one dimension")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or abs(np.linalg.det(a)) == 0.0:
        raise HypothesisViolationError("leading coefficient A is singular")
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"leading coefficient A is ill-conditioned (cond={cond:.3g})",
            RuntimeWarning,
            stacklevel=2,
        )
    ainv_c = np.linalg.solve(a, c)
    ainv_b = np.linalg.solve(a, b)
    top = np.hstack([np.zeros((n, n)), np.eye(n)])
    bottom = np.hstack([-ainv_c, -ainv_b])
    return np.vstack([top, bottom])


def quadratic_eigenvalues(a, b, c) -> Spectrum:
    """The 2n roots of det(A lam^2 + B lam + C) = 0."""
    return eigenvalues(companion_matrix(a, b, c))


def quadratic_zero_tol(a, b, c) -> float:
    """Zero-real-part tolerance for Z(lam) = A lam^2 + B lam + C."""
    return max(default_zero_tol(_require_square(m, name)) for m, name in zip((a, b, c), "ABC"))


def _symmetric_eigenvalues(a: np.ndarray, name: str, tol: float) -> np.ndarray:
    if not np.allclose(a, a.T, rtol=0.0, atol=tol):
        raise HypothesisViolationError(f"{name} is not symmetric")
    return np.linalg.eigvalsh(a)


def inertia_identities(a_vals, b_vals, c_vals, tol: float) -> Inertia:
    """Inertia of Z(lam) = A lam^2 + B lam + C from the eigenvalues of
    symmetric A and C and of B's symmetric part, by the inertia identities

        pi+(Z) = pi-(A) + pi-(C),
        pi-(Z) = pi+(A) + pi+(C),
        pi0(Z) = pi0(C),

    which hold when B's symmetric part is positive-definite. For diagonal
    coefficients the eigenvalues are the diagonals, and no eigensolve is
    needed.
    """
    if not np.min(b_vals) > tol:
        raise HypothesisViolationError("middle coefficient B is not positive-definite")
    in_a = inertia_of_values(a_vals, tol)
    in_c = inertia_of_values(c_vals, tol)
    return Inertia(
        n_plus=in_a.n_minus + in_c.n_minus,
        n_zero=in_c.n_zero,
        n_minus=in_a.n_plus + in_c.n_plus,
    )


def predicted_quadratic_inertia(a, b, c, tol: float) -> Inertia:
    """Inertia of Z(lam) = A lam^2 + B lam + C by ``inertia_identities``,
    from symmetric eigensolves of A, C and B's symmetric part."""
    a, b, c = (_require_square(m, name) for m, name in zip((a, b, c), "ABC"))
    return inertia_identities(
        _symmetric_eigenvalues(a, "leading coefficient A", tol),
        np.linalg.eigvalsh(0.5 * (b + b.T)),
        _symmetric_eigenvalues(c, "constant coefficient C", tol),
        tol,
    )


def quadratic_inertia(a, b, c, tol: float | None = None) -> tuple[Inertia, Inertia]:
    """Predicted vs observed inertia of Z(lam) = A lam^2 + B lam + C.

    The prediction is ``predicted_quadratic_inertia``; the observation
    comes from the companion linearization, which also needs a nonsingular
    A. Both are returned for the caller to compare.
    """
    if tol is None:
        tol = quadratic_zero_tol(a, b, c)
    predicted = predicted_quadratic_inertia(a, b, c, tol)
    observed = inertia_of_values(quadratic_eigenvalues(a, b, c).eigenvalues, tol)
    return predicted, observed


def spectrum_matching(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal matching between two eigenvalue multisets.

    The min-sum (Hungarian) assignment on pairwise moduli. Returns
    ``pairs``, with ``left[i]`` matched to ``right[pairs[i]]``, and the
    largest matched pair distance. Sets must have equal cardinality. The
    N x N cost matrix and the O(N^3) solve are for reference inputs only.
    """
    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    if left.shape != right.shape:
        raise MatrixShapeError(
            f"spectra differ in size: {left.shape} vs {right.shape}"
        )
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(left[:, None] - right[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cols, (float(np.max(cost[rows, cols])) if len(rows) else 0.0)


def spectrum_matching_distance(left: np.ndarray, right: np.ndarray) -> float:
    """Optimal-matching multiset distance: the largest matched pair distance
    of ``spectrum_matching``."""
    return spectrum_matching(left, right)[1]
