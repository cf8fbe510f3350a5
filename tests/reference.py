"""Reference math that the tests compare the package's output against.

No command runs these: the per-agent protocol laws, which the dense
closed loop ``y' = A y + b`` of ``test_dynamics`` is checked against, and
the block-triangular determinant identity of acceptance criterion 2.
"""

import numpy as np

from resilient_consensus.dynamics import _check_lengths
from resilient_consensus.graph import Graph, adjacency_matrix, degree_matrix, laplacian
from resilient_consensus.spectral import _require_square, assemble_block_triangular


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
