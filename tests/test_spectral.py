import numpy as np
import pytest

from resilient_consensus import (
    Inertia,
    degree_matrix,
    eigenvalues,
    laplacian,
    quadratic_inertia,
    quadratic_eigenvalues,
    random_connected_graph,
    spectrum_matching_distance,
)
from resilient_consensus.errors import HypothesisViolationError, MatrixShapeError
from resilient_consensus.spectral import (
    companion_matrix,
    default_zero_tol,
    inertia_of_values,
)

from reference import assemble_block_triangular, block_triangular_det_check, determinant


def as_multiset(vals):
    return np.sort_complex(np.asarray(vals, dtype=complex))


class TestEigenvalues:
    def test_diagonal(self):
        spec = eigenvalues(np.diag([1.0, -2.0, 0.0]))
        assert np.allclose(as_multiset(spec.eigenvalues), [-2.0, 0.0, 1.0])

    def test_rotation(self):
        # characteristic polynomial l^2 + 1
        spec = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(as_multiset(spec.eigenvalues), [-1j, 1j])

    def test_k3_laplacian_vs_charpoly_oracle(self, k3):
        lap = laplacian(k3)
        # oracle: roots of the characteristic polynomial via its companion
        # form; the double root limits the oracle's accuracy to ~sqrt(eps)
        coeffs = np.poly(lap)
        oracle = np.roots(coeffs)
        spec = eigenvalues(lap)
        assert spectrum_matching_distance(spec.eigenvalues, oracle) < 1e-6
        assert np.allclose(as_multiset(spec.eigenvalues), [0.0, 3.0, 3.0])

    def test_ordering(self):
        spec = eigenvalues(np.diag([3.0, -1.0, 5.0]))
        assert np.allclose(spec.eigenvalues.real, [5.0, 3.0, -1.0])

    def test_symmetric_input_real_spectrum(self, rng):
        a = rng.normal(size=(6, 6))
        spec = eigenvalues(a + a.T)
        assert np.max(np.abs(spec.eigenvalues.imag)) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(MatrixShapeError):
            eigenvalues(np.zeros((2, 3)))

    def test_conjugate_symmetry(self, rng):
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            vals = eigenvalues(a).eigenvalues
            assert spectrum_matching_distance(vals, np.conj(vals)) < 1e-8

    def test_trace_and_det_consistency(self, rng):
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            vals = eigenvalues(a).eigenvalues
            tr = float(np.trace(a))
            assert abs(np.sum(vals).real - tr) < 1e-7 * max(1.0, abs(tr))
            det = determinant(a)
            assert abs(np.prod(vals).real - det) < 1e-6 * max(1.0, abs(det))


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert determinant(np.diag([2.0, 3.0])) == pytest.approx(6.0)

    def test_singular(self):
        assert determinant(np.array([[1.0, 2.0], [2.0, 4.0]])) == pytest.approx(0.0)


class TestInertia:
    def test_mixed_signs(self):
        assert inertia_of_values(np.array([1.0, -2.0, 0.0]), 1e-9) == Inertia(1, 1, 1)

    def test_hurwitz(self):
        vals = eigenvalues(np.diag([-1.0, -3.0])).eigenvalues
        assert inertia_of_values(vals, 1e-9) == Inertia(0, 0, 2)

    def test_purely_imaginary(self):
        # eigenvalues +-i have zero real part
        vals = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]])).eigenvalues
        assert inertia_of_values(vals, 1e-9) == Inertia(0, 2, 0)

    def test_counts_sum_to_dimension(self, rng):
        a = rng.normal(size=(7, 7))
        assert inertia_of_values(eigenvalues(a).eigenvalues, default_zero_tol(a)).total == 7


class TestBlockTriangularDeterminant:
    def test_scalar_blocks(self):
        det_m, det_ad, res = block_triangular_det_check([[2.0]], [[5.0]], [[3.0]])
        assert det_m == pytest.approx(6.0)
        assert det_ad == pytest.approx(6.0)
        assert res < 1e-12

    def test_identity_blocks(self, rng):
        b = rng.normal(size=(2, 2))
        det_m, det_ad, res = block_triangular_det_check(np.eye(2), b, np.eye(2))
        assert det_m == pytest.approx(1.0)
        assert res < 1e-12

    def test_random_blocks_against_direct_elimination(self, rng):
        for _ in range(200):
            p = int(rng.integers(1, 6))
            q = int(rng.integers(1, 6))
            a = rng.normal(size=(p, p))
            b = rng.normal(size=(p, q))
            d = rng.normal(size=(q, q))
            det_m, det_ad, res = block_triangular_det_check(a, b, d)
            assert res <= 1e-9 * max(1.0, abs(det_m))

    def test_assembly_layout(self):
        m = assemble_block_triangular(2 * np.eye(2), np.ones((2, 1)), [[5.0]])
        assert np.array_equal(m, [[2, 0, 1], [0, 2, 1], [0, 0, 5]])

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixShapeError):
            block_triangular_det_check(np.eye(2), np.ones((3, 2)), np.eye(2))


class TestQuadraticEigenvalues:
    def test_scalar_double_root(self):
        # l^2 + 2l + 1 = (l+1)^2
        spec = quadratic_eigenvalues([[1.0]], [[2.0]], [[1.0]])
        assert np.allclose(as_multiset(spec.eigenvalues), [-1.0, -1.0], atol=1e-7)

    def test_scalar_pm_one(self):
        # l^2 = 1
        spec = quadratic_eigenvalues([[1.0]], [[0.0]], [[-1.0]])
        assert np.allclose(as_multiset(spec.eigenvalues), [-1.0, 1.0])

    def test_decoupled_2x2(self):
        # per-agent quadratic l^2 + l + 1, roots (-1 +- i sqrt(3))/2, twice
        spec = quadratic_eigenvalues(np.eye(2), np.eye(2), np.eye(2))
        expected = np.array(
            [(-1 - 1j * np.sqrt(3)) / 2, (-1 + 1j * np.sqrt(3)) / 2] * 2
        )
        assert spectrum_matching_distance(spec.eigenvalues, expected) < 1e-8

    def test_companion_layout(self):
        comp = companion_matrix(np.eye(1), [[2.0]], [[3.0]])
        assert np.array_equal(comp, [[0.0, 1.0], [-3.0, -2.0]])

    def test_singular_leading_coefficient(self):
        with pytest.raises(HypothesisViolationError):
            quadratic_eigenvalues([[0.0]], [[1.0]], [[1.0]])

    def test_ill_conditioned_warns(self):
        a = np.diag([1.0, 1e-14])
        with pytest.warns(RuntimeWarning):
            companion_matrix(a, np.eye(2), np.eye(2))


class TestQuadraticInertia:
    def test_degree_matrix_family(self, rng):
        # A = I, B = Delta(g), C = alpha I: all 2n roots strictly stable
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(2, 11)), rng)
            for alpha in (0.1, 1.0, 10.0):
                predicted, observed = quadratic_inertia(
                    np.eye(g.n), degree_matrix(g), alpha * np.eye(g.n)
                )
                assert predicted == Inertia(0, 0, 2 * g.n)
                assert observed == predicted

    def test_scalar_sign_split_positive_c_negative(self):
        # l^2 + 2l - 1 has roots -1 +- sqrt(2): one positive, one negative
        predicted, observed = quadratic_inertia([[1.0]], [[2.0]], [[-1.0]])
        assert predicted == Inertia(1, 0, 1)
        assert observed == predicted

    def test_scalar_negative_leading(self):
        # -l^2 + l + 1 has roots (1 +- sqrt(5))/2: one of each sign
        predicted, observed = quadratic_inertia([[-1.0]], [[1.0]], [[1.0]])
        assert predicted == Inertia(1, 0, 1)
        assert observed == predicted

    def test_indefinite_b_rejected(self):
        with pytest.raises(HypothesisViolationError):
            quadratic_inertia(np.eye(2), np.diag([1.0, -1.0]), np.eye(2))

    def test_nonsymmetric_coefficients_rejected(self):
        # the inertia identities need symmetric A and C
        skew = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(HypothesisViolationError):
            quadratic_inertia(skew, np.eye(2), np.eye(2))
        with pytest.raises(HypothesisViolationError):
            quadratic_inertia(np.eye(2), np.eye(2), skew)

    def test_singular_a_rejected(self):
        with pytest.raises(HypothesisViolationError):
            quadratic_inertia(np.zeros((2, 2)), np.eye(2), np.eye(2))


class TestSpectrumMatchingDistance:
    def test_identical(self):
        vals = np.array([1.0 + 1j, -2.0, 0.5])
        assert spectrum_matching_distance(vals, vals[::-1]) == 0.0

    def test_known_offset(self):
        assert spectrum_matching_distance([1.0, 2.0], [1.0, 2.5]) == pytest.approx(0.5)

    def test_size_mismatch(self):
        with pytest.raises(MatrixShapeError):
            spectrum_matching_distance([1.0], [1.0, 2.0])
