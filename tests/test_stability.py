import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from resilient_consensus import (
    ADAPTIVE,
    Inertia,
    SimConfig,
    Spectrum,
    Trajectory,
    adjacency_matrix,
    build_run_report,
    build_transform,
    centroid_analysis,
    check_energy_decay,
    check_perturbation_bound,
    closed_form_spectrum,
    complete_graph,
    degree_matrix,
    eigenvalues,
    error_block,
    fit_decay_rate,
    from_edge_list,
    laplacian,
    laplacian_spectrum,
    path_graph,
    quadratic_inertia,
    random_connected_graph,
    reduced_blocks,
    simulate,
    spectrum_matching_distance,
    verify_theorem,
)
from resilient_consensus.dynamics import _closed_form_modes
from resilient_consensus.spectral import _cluster_matching, inertia_of_values, spectrum_matching
from resilient_consensus.scenario import stability_report_dict
from resilient_consensus.stability import _energy, error_sums
from resilient_consensus.errors import (
    DisconnectedGraphError,
    MatrixShapeError,
    ScenarioError,
)

from reference import build_m, dense_certificate


def run_adaptive(g, w, alpha=1.0, dt=0.001, t_final=20.0, x0=None, **kw):
    cfg = SimConfig(
        protocol=ADAPTIVE,
        dt=dt,
        t_final=t_final,
        x0=np.zeros(g.n) if x0 is None else np.asarray(x0, dtype=float),
        alpha=alpha,
        **kw,
    )
    return simulate(g, cfg, np.asarray(w, dtype=float))


class TestTransform:
    def test_n2_explicit(self):
        tr = build_transform(2)
        assert np.array_equal(tr.t_matrix, [[1.0, -1.0], [1.0, 1.0]])
        assert np.allclose(tr.t_inverse, [[0.5, 0.5], [-0.5, 0.5]])

    def test_ones_maps_to_sum_row(self):
        for n in (2, 5, 9):
            tr = build_transform(n)
            assert np.allclose(tr.t_matrix @ np.ones(n), [0.0] * (n - 1) + [n])

    def test_consensus_state(self):
        tr = build_transform(4)
        y = tr.t_matrix @ (2.5 * np.ones(4))
        assert np.allclose(y, [0.0, 0.0, 0.0, 10.0])

    @pytest.mark.parametrize("n", [2, 10, 50, 200])
    def test_inverse_round_trip(self, n):
        tr = build_transform(n)
        assert np.max(np.abs(tr.t_matrix @ tr.t_inverse - np.eye(n))) < 1e-10

    def test_n1_rejected(self):
        with pytest.raises(MatrixShapeError):
            build_transform(1)


class TestReducedBlocks:
    def test_p2(self, p2):
        # T L T^-1 = diag(2, 0); negated and reduced gives [-2]
        a1, a2 = reduced_blocks(p2)
        assert np.allclose(a1, [[-2.0]])
        assert a2.shape == (1, 2)

    def test_k3_spectrum(self, k3):
        a1, _ = reduced_blocks(k3)
        assert np.allclose(np.sort(np.linalg.eigvals(a1).real), [-3.0, -3.0])

    def test_a1_carries_nonzero_laplacian_modes(self, rng):
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(2, 11)), rng)
            a1, _ = reduced_blocks(g)
            spec_a1 = np.linalg.eigvals(a1)
            spec_neg_l = np.linalg.eigvals(-laplacian(g))
            d = spectrum_matching_distance(
                np.concatenate([spec_a1, [0.0]]), spec_neg_l
            )
            assert d < 1e-8

    def test_disconnected_rejected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            reduced_blocks(g)

    def test_closed_form_matches_transform(self, rng):
        # A1 and A2 are the leading blocks of -T L T^-1 and T Adj
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(2, 31)), rng)
            n = g.n
            tr = build_transform(n)
            a1, a2 = reduced_blocks(g)
            full = -tr.t_matrix @ laplacian(g) @ tr.t_inverse
            assert np.max(np.abs(a1 - full[: n - 1, : n - 1])) <= 1e-12
            assert np.max(np.abs(a2 - (tr.t_matrix @ adjacency_matrix(g))[: n - 1])) <= 1e-12


class TestBuildM:
    def test_p2_spectrum(self, p2):
        # A1 = [-2]; the error block decouples per agent into l^2 + l + 1
        aug = build_m(p2, 1.0)
        assert aug.m_matrix.shape == (5, 5)
        r = (-1 + 1j * np.sqrt(3)) / 2
        expected = np.array([-2.0, r, np.conj(r), r, np.conj(r)])
        d = spectrum_matching_distance(
            eigenvalues(aug.m_matrix).eigenvalues, expected
        )
        assert d < 1e-8

    def test_block_layout(self, k3):
        aug = build_m(k3, 2.0)
        n = 3
        m = aug.m_matrix
        assert np.array_equal(m[: n - 1, : n - 1], aug.a1)
        assert np.array_equal(m[: n - 1, n - 1 : 2 * n - 1], aug.a2)
        assert np.array_equal(m[: n - 1, 2 * n - 1 :], np.zeros((n - 1, n)))
        assert np.array_equal(m[n - 1 : 2 * n - 1, : n - 1], np.zeros((n, n - 1)))
        assert np.array_equal(m[n - 1 : 2 * n - 1, 2 * n - 1 :], -np.eye(n))
        # bottom band: exactly alpha I and zeros
        assert np.array_equal(m[2 * n - 1 :, n - 1 : 2 * n - 1], 2.0 * np.eye(n))
        assert np.array_equal(m[2 * n - 1 :, 2 * n - 1 :], np.zeros((n, n)))

    def test_spectrum_decomposes(self, rng):
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(2, 11)), rng)
            for alpha in (0.1, 1.0, 10.0):
                aug = build_m(g, alpha)
                whole = eigenvalues(aug.m_matrix).eigenvalues
                parts = np.concatenate(
                    [
                        np.linalg.eigvals(aug.a1),
                        np.linalg.eigvals(error_block(g, alpha)),
                    ]
                )
                assert spectrum_matching_distance(whole, parts) < 1e-8

    def test_error_block_is_one_array(self):
        # [[-Delta, -I], [alpha I, 0]] is one float 2n x 2n array, built
        # without n x n blocks to stack
        g = path_graph(1000)
        g.degrees
        tracemalloc.start()
        try:
            e = error_block(g, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * (2 * g.n) ** 2
        n = g.n
        assert np.array_equal(e[:n, :n], -np.diag(g.degrees.astype(float)))
        assert np.array_equal(e[:n, n:], -np.eye(n))
        assert np.array_equal(e[n:, :n], 2.0 * np.eye(n))
        assert not e[n:, n:].any()

    def test_nonpositive_alpha_rejected(self, p2):
        with pytest.raises(ScenarioError):
            build_m(p2, 0.0)

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf"), True, "abc"])
    def test_bad_alpha_rejected(self, p2, alpha):
        for fn in (build_m, closed_form_spectrum, verify_theorem):
            with pytest.raises(ScenarioError):
                fn(p2, alpha)


def dense_tolerance(g, alpha, m):
    """How far a dense eigensolve of M may sit from its exact spectrum.

    An eigenvalue with a Jordan chain of length j moves by about
    (eps ||M||)^(1/j) under the solver's backward error. In M the chain
    length is at most the chain in A1 (1: A1 is similar to -L on the
    complement of 1) plus the chain in E (2 at a double root alpha = d^2/4,
    else 1), and A1 adds to it only where an agreement mode equals a root
    of E. A factor of 10 covers the constant.
    """
    d = g.degrees.astype(float)
    disc = np.sqrt((d * d / 4 - alpha).astype(complex))
    roots = np.concatenate([-d / 2 + disc, -d / 2 - disc])
    agreement = -laplacian_spectrum(g)[1:]
    chain = 2 if np.any(d * d == 4 * alpha) else 1
    chain += int(np.any(np.abs(agreement[:, None] - roots[None, :]) <= 1e-9))
    scale = np.finfo(float).eps * np.max(np.sum(np.abs(m), axis=1))
    return max(1e-7, 10.0 * scale ** (1.0 / chain))


class TestClosedFormSpectrum:
    def test_p2(self, p2):
        # -lambda_2 = -2, and l^2 + l + 1 once per agent
        r = (-1 + 1j * np.sqrt(3)) / 2
        spec = closed_form_spectrum(p2, 1.0).eigenvalues
        assert spectrum_matching_distance(spec, [-2.0, r, np.conj(r), r, np.conj(r)]) < 1e-15

    def test_spectrum_order(self, k3):
        spec = closed_form_spectrum(k3, 10.0).eigenvalues
        assert np.array_equal(spec, Spectrum(spec[::-1]).eigenvalues)
        assert np.all(np.diff(spec.real) <= 0)

    def test_small_root_without_cancellation(self, p2):
        # alpha << d^2: the slow root is -alpha/d (1 + alpha/d^2 + ...)
        spec = closed_form_spectrum(p2, 1e-12).eigenvalues
        assert spec[0].real == pytest.approx(-1e-12, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 1.0),
        alpha=st.floats(1e-3, 1e3),
    )
    def test_matches_dense_eigensolve(self, n, seed, density, alpha):
        # the drawn gain and every double-root gain d^2/4, where E is defective
        g = random_connected_graph(n, np.random.default_rng(seed), density)
        for a in [alpha, *(d * d / 4.0 for d in set(g.degrees.tolist()))]:
            m = build_m(g, a).m_matrix
            dense = np.linalg.eigvals(m)
            dist = spectrum_matching_distance(closed_form_spectrum(g, a).eigenvalues, dense)
            assert dist <= dense_tolerance(g, a, m)
            rep = verify_theorem(g, a)
            assert rep.decomposition_residual <= rep.decomposition_residual_tol


def hungarian(left, right, split):
    """Reference for ``spectrum_matching``: the matched ``right`` value of
    each ``left`` value, the largest matched distance, and the ``left``
    values matched into ``right[split:]``, by linear_sum_assignment."""
    cost = np.abs(left[:, None] - right[None, :])
    rows, cols = linear_sum_assignment(cost)
    return right[cols], float(np.max(cost[rows, cols])), left[cols >= split]


def certificate_inputs(g, alpha, whole=True):
    """Computed eigenvalues of M, the closed form, and the closed form's
    count of agreement modes. ``whole``: a dense solve of the assembled M,
    which is off by up to 1e-5 at a Jordan chain. Else the block solves
    that ``verify_theorem`` matches: eig(A1) and the 2x2 diagonal blocks
    [[-d_i, -1], [alpha, 0]] of the error block E, taken from E."""
    agreement, error_roots = _closed_form_modes(g, alpha)
    if whole:
        solved = np.linalg.eigvals(build_m(g, alpha).m_matrix)
    else:
        agent = np.arange(g.n)[:, None] + np.array([0, g.n])
        blocks = error_block(g, alpha)[agent[:, :, None], agent[:, None, :]]
        solved = np.concatenate(
            [np.linalg.eigvals(reduced_blocks(g)[0]), np.linalg.eigvals(blocks).ravel()]
        )
    return solved.astype(complex), np.concatenate([agreement, error_roots]), len(agreement)


class TestClusterMatching:
    """The cluster path of ``spectrum_matching`` gives the Hungarian result
    bit for bit where it applies, and refuses where it cannot."""

    def assert_hungarian(self, left, right, split):
        """spectrum_matching equals the reference; returns whether the
        cluster path took it."""
        fast = _cluster_matching(left, right, split)
        pairs, residual = spectrum_matching(left, right, split=split)
        matched, ref_residual, ref_error_side = hungarian(left, right, split)
        assert residual == ref_residual
        assert np.array_equal(np.sort_complex(left[pairs >= split]), np.sort_complex(ref_error_side))
        tol = 1e-9
        assert inertia_of_values(left[pairs >= split], tol) == inertia_of_values(ref_error_side, tol)
        if fast is not None:
            assert np.array_equal(pairs, fast[0]) and residual == fast[1]
            assert np.array_equal(right[pairs], matched)
        return fast is not None

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 1.0),
        alpha=st.floats(1e-3, 1e3),
    )
    def test_property_inputs(self, n, seed, density, alpha):
        # the inputs of TestClosedFormSpectrum.test_matches_dense_eigensolve,
        # solved whole and block by block; the latter is verify's residual
        g = random_connected_graph(n, np.random.default_rng(seed), density)
        for a in [alpha, *(d * d / 4.0 for d in set(g.degrees.tolist()))]:
            self.assert_hungarian(*certificate_inputs(g, a))
            blocks = certificate_inputs(g, a, whole=False)
            self.assert_hungarian(*blocks)
            assert verify_theorem(g, a).decomposition_residual == spectrum_matching(*blocks)[1]

    def test_acceptance_grid(self):
        # the graphs and gains of criteria 1 and 4 in test_acceptance.py
        rng = np.random.default_rng(12345)
        graphs = [random_connected_graph(int(rng.integers(2, 13)), rng) for _ in range(100)]
        for whole in (True, False):
            fast = [
                self.assert_hungarian(*certificate_inputs(g, alpha, whole))
                for g in graphs
                for alpha in (0.1, 1.0, 10.0)
            ]
            assert sum(fast) >= 0.5 * len(fast)

    def test_jordan_chain_falls_back(self):
        # path 0-1-2: d_1 = 2 and lambda_2 = 1 = d_1 / 2, so at alpha = d_1^2 / 4
        # -1 is a double root of E and an agreement mode: a chain of length 3
        args = certificate_inputs(path_graph(3), 1.0)
        assert _cluster_matching(*args) is None
        assert not self.assert_hungarian(*args)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_graphs(self, n):
        # lambda = n with multiplicity n - 1: eigvalsh returns it bit-equal
        # (cluster path) or spread over a few ulps (fallback), by platform
        for alpha in (0.1, 1.0, (n - 1) ** 2 / 4.0):
            self.assert_hungarian(*certificate_inputs(complete_graph(n), alpha))

    def test_complete_graph_falls_back(self):
        # eigvalsh may return the (n-1)-fold Laplacian eigenvalue n of a
        # complete graph as values a few ulps apart, closer together than the
        # dense solve's error; whether it does for a given n depends on the
        # LAPACK build, so the cluster path must refuse for some n in 4..8,
        # and always for such values built by hand
        fallbacks = [
            _cluster_matching(*certificate_inputs(complete_graph(n), 1.0)) is None
            for n in range(4, 9)
        ]
        assert any(fallbacks)
        right = np.array([-5.0, np.nextafter(-5.0, 0), np.nextafter(-5.0, -10), -2.0], dtype=complex)
        left = np.array([-5.0 + 3e-15, -5.0 - 2e-15, -5.0 + 1e-15j, -2.0 - 1e-15], dtype=complex)
        assert _cluster_matching(left, right, None) is None
        assert not self.assert_hungarian(left, right, 4)

    def test_mixed_cluster_falls_back(self):
        # -1 is both an agreement mode (index 0) and a root of E (index 1):
        # which dense value goes to which side is the Hungarian's choice
        right = np.array([-1.0, -1.0, -3.0], dtype=complex)
        left = np.array([-1.0 + 1e-12, -1.0 - 1e-12, -3.0], dtype=complex)
        assert _cluster_matching(left, right, None) is not None
        assert _cluster_matching(left, right, 1) is None
        assert not self.assert_hungarian(left, right, 1)

    def test_count_mismatch_falls_back(self):
        # both dense values lie nearest -1, but -1 has multiplicity 1
        right = np.array([-1.0, -2.0], dtype=complex)
        left = np.array([-1.1, -0.9], dtype=complex)
        assert _cluster_matching(left, right, None) is None
        assert not self.assert_hungarian(left, right, 1)


class TestVerifyTheorem:
    def test_p2(self, p2):
        rep = verify_theorem(p2, 1.0)
        assert rep.theorem_verdict
        assert rep.spectral_abscissa == pytest.approx(-0.5, abs=1e-9)

    def test_quadratic_inertia_matches(self, rng):
        g = random_connected_graph(6, rng)
        for alpha in (0.1, 1.0, 10.0):
            rep = verify_theorem(g, alpha)
            assert rep.quadratic_inertia_predicted == Inertia(0, 0, 2 * g.n)
            assert rep.quadratic_inertia_observed == rep.quadratic_inertia_predicted

    @pytest.mark.parametrize("n", [2, 6, 15])
    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0, 10.0, 1e3])
    def test_observed_inertia_equals_companion(self, rng, n, alpha):
        # spec(E) gives the inertia the companion linearization gives
        g = random_connected_graph(n, rng)
        rep = verify_theorem(g, alpha)
        eye = np.eye(n)
        predicted, observed = quadratic_inertia(eye, degree_matrix(g), alpha * eye)
        assert rep.quadratic_inertia_predicted == predicted
        assert rep.quadratic_inertia_observed == observed

    def test_one_nonsymmetric_eigensolve(self, k3, monkeypatch):
        # verify_theorem cross-checks with eig(A1) and one batched solve of
        # the n 2x2 blocks of E, never eig(M); a run report makes none
        import resilient_consensus.spectral as spectral

        w = np.array([1.0, 0.0, 0.0])
        traj = run_adaptive(k3, w, t_final=1.0)
        shapes = []
        for name in ("eig", "eigvals"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda a, solve=solve: shapes.append(a.shape) or solve(a)
            )
        monkeypatch.setattr(spectral, "companion_matrix", None)
        verify_theorem(k3, 1.0)
        assert shapes == [(2, 2), (3, 2, 2)]
        shapes.clear()
        build_run_report(traj, w)
        assert shapes == []

    @pytest.mark.parametrize(
        "n, edges",
        [
            # path 0-1-2: lambda_2 = 1 = d_1 / 2
            (3, [(0, 1), (1, 2)]),
            # lambda_k = 1 = d / 2 for the degree-2 agents; a dense solve of
            # the assembled M missed the chain's eigenvalue by 8.7e-6 with
            # OpenBLAS on x86-64
            (7, [(0, 5), (1, 5), (2, 3), (2, 4), (2, 5), (4, 6), (5, 6)]),
        ],
    )
    def test_residual_within_printed_tolerance_at_jordan_chain(self, n, edges):
        # at alpha = d^2 / 4 with an agreement mode lambda_k = d / 2, M has a
        # Jordan chain of length 3, but no single solve does: A1 is
        # diagonalizable and the double root lives in a 2x2 block of E. The
        # residual is within criterion 4's 1e-7, and the printed tolerance
        # is the j = 2 one, from ||E_i||_inf = max(d_i + 1, alpha)
        g = from_edge_list(n, edges)
        rep = verify_theorem(g, 1.0)
        assert rep.decomposition_residual <= 1e-7 < rep.decomposition_residual_tol
        norm = max(float(np.max(g.degrees)) + 1.0, 1.0)
        assert rep.decomposition_residual_tol == 10.0 * (np.finfo(float).eps * norm) ** 0.5

    def test_residual_tolerance_off_chains(self, p2, k3):
        assert verify_theorem(p2, 1.0).decomposition_residual_tol == 1e-7
        assert verify_theorem(k3, 10.0).decomposition_residual_tol == 1e-7

    @pytest.mark.parametrize("block, observed", [(2, Inertia(0, 0, 6)), (3, Inertia(6, 0, 0))])
    def test_cross_check_observes_the_dense_solve(self, k3, monkeypatch, block, observed):
        # the solve of A1 (a 2-d array) or of the 2x2 blocks of E (a 3-d
        # stack) shifted right by 10 shows in the residual, and the latter in
        # the observed inertia, while the closed-form verdict stands
        solve = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: solve(a) + 10.0 * (a.ndim == block))
        rep = verify_theorem(k3, 10.0)  # spec(M): -3 twice, -1 +- 3i thrice each
        assert rep.theorem_verdict
        assert rep.decomposition_residual == pytest.approx(10.0)
        assert rep.quadratic_inertia_predicted == Inertia(0, 0, 6)
        assert rep.quadratic_inertia_observed == observed

    def test_no_certificate_matrix_allocated(self):
        # the blocks are solved on their own: the largest arrays are the n x n
        # adjacency, the (n-1)^2 A1 and the (n-1) x n A2, never the 8 (3n-1)^2
        # bytes of M (9.0 x 8 n^2 at n = 400)
        n = 400
        g = random_connected_graph(n, np.random.default_rng(1))
        g.degrees
        tracemalloc.start()
        try:
            rep = verify_theorem(g, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.theorem_verdict
        assert peak < 4 * 8 * n * n

    @pytest.mark.parametrize("alpha", [1e-3, 0.25, 1.0, 10.0, 1e16, 1e300])
    @pytest.mark.parametrize("graph", ["p2", "k3", "random"])
    def test_report_equals_dense_certificate(self, request, graph, alpha):
        # the spectrum, abscissa, verdict and both inertia fields print as
        # they did when the cross-check solved the assembled M
        if graph == "random":
            g = random_connected_graph(9, np.random.default_rng(2024))
        else:
            g = request.getfixturevalue(graph)
        fields = (
            "spectrum",
            "spectral_abscissa",
            "theorem_verdict",
            "quadratic_inertia_predicted",
            "quadratic_inertia_observed",
        )
        blocks = stability_report_dict(verify_theorem(g, alpha))
        dense = stability_report_dict(dense_certificate(g, alpha))
        assert {k: blocks[k] for k in fields} == {k: dense[k] for k in fields}

    def test_stable_for_all_tested_gains(self, rng):
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(2, 11)), rng)
            for alpha in (0.1, 1.0, 10.0):
                assert verify_theorem(g, alpha).theorem_verdict

    def test_disconnected_is_precondition_error(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            verify_theorem(g, 1.0)


def energy(x_tilde, w_tilde, alpha):
    """E = 0.5 ||x_tilde||^2 + ||w_tilde||^2 / (2 alpha) at one sample, as
    the run report forms it: through ``error_sums`` on a one-row trajectory
    with x = x_tilde, x_hat = 0, w_hat = w_tilde and w = 0."""
    n = len(x_tilde)
    cfg = SimConfig(protocol=ADAPTIVE, dt=1.0, t_final=1.0, x0=x_tilde, alpha=alpha)
    states = np.concatenate([x_tilde, np.zeros(n), w_tilde])[None, :]
    sums = error_sums(Trajectory(states, complete_graph(n), cfg), np.zeros(n))
    return float(_energy(sums, cfg.alpha)[0])


class TestEnergy:
    def test_zero(self):
        assert energy(np.zeros(3), np.zeros(3), 1.0) == 0.0

    def test_substitution(self):
        assert energy(np.zeros(2), np.array([1.0, 0.0]), 2.0) == pytest.approx(0.25)
        assert energy(np.array([1.0, 2.0]), np.zeros(2), 2.0) == pytest.approx(2.5)

    def test_initial_value_with_zero_mismatch(self, rng):
        w_t0 = rng.normal(size=4)
        alpha = 3.0
        assert energy(np.zeros(4), w_t0, alpha) == pytest.approx(
            np.linalg.norm(w_t0) ** 2 / (2 * alpha)
        )

    def test_nonpositive_alpha_rejected(self):
        # alpha enters through SimConfig, which rejects it before any energy
        with pytest.raises(ScenarioError):
            energy(np.zeros(2), np.zeros(2), -1.0)


class TestEnergyDecay:
    def test_undisturbed_energy_identically_zero(self, p2):
        traj = run_adaptive(p2, [0.0, 0.0], x0=[1.0, -1.0], t_final=5.0)
        max_inc, residual = check_energy_decay(traj, np.zeros(2), 1.0)
        assert max_inc <= 1e-15
        assert np.max(residual) < 1e-12

    def test_p2_monotone(self, p2):
        traj = run_adaptive(p2, [1.0, 0.0], t_final=20.0)
        max_inc, _ = check_energy_decay(traj, np.array([1.0, 0.0]), 1.0)
        assert max_inc <= 1e-9

    def test_derivative_residual_is_second_order(self, p2):
        w = np.array([1.0, 0.0])

        def max_residual(dt):
            traj = run_adaptive(p2, w, dt=dt, t_final=5.0)
            _, residual = check_energy_decay(traj, w, 1.0)
            return np.max(residual)

        r1, r2 = max_residual(0.01), max_residual(0.005)
        assert r2 <= r1 / 4.0 * 1.5


class TestPerturbationBound:
    def test_bound_value(self, p2):
        traj = run_adaptive(p2, [1.0, 0.0], alpha=4.0, t_final=10.0)
        sup, bound, ok = check_perturbation_bound(traj, np.array([1.0, 0.0]), 4.0)
        assert bound == pytest.approx(0.5)
        assert ok
        assert sup <= bound + 1e-9

    def test_zero_disturbance(self, p2):
        traj = run_adaptive(p2, [0.0, 0.0], x0=[1.0, 2.0], t_final=5.0)
        sup, bound, _ = check_perturbation_bound(traj, np.zeros(2), 1.0)
        assert sup <= 1e-12 and bound == 0.0

    def test_alpha_sweep_monotone_bounds(self, p2):
        w = np.array([1.0, 0.0])
        bounds, sups = [], []
        for alpha in (0.5, 1.0, 2.0, 4.0):
            traj = run_adaptive(p2, w, alpha=alpha, t_final=20.0)
            sup, bound, _ = check_perturbation_bound(traj, w, alpha)
            assert sup <= bound + 1e-9
            bounds.append(bound)
            sups.append(sup)
        # bound halves per 4x alpha
        assert bounds[2] == pytest.approx(bounds[0] / 2.0)
        assert np.all(np.diff(bounds) < 0)

    def test_nonzero_initial_mismatch_flagged(self, p2):
        traj = run_adaptive(
            p2, [1.0, 0.0], x0=[1.0, 0.0], x_hat0=[0.0, 0.0], t_final=5.0
        )
        _, _, ok = check_perturbation_bound(traj, np.array([1.0, 0.0]), 1.0)
        assert not ok


class TestCentroid:
    def test_undisturbed_constant(self, p2):
        traj = run_adaptive(p2, [0.0, 0.0], x0=[1.0, 3.0], t_final=10.0)
        cen = centroid_analysis(traj, np.zeros(2))
        assert np.max(np.abs(cen.c_series - 4.0)) < 1e-10

    def test_long_run_converges(self, p2):
        traj = run_adaptive(p2, [1.0, 0.0], t_final=60.0)
        cen = centroid_analysis(traj, np.array([1.0, 0.0]))
        assert cen.tail_drift <= 1e-6
        assert cen.final_agreement_gap <= 1e-5
        assert np.isfinite(cen.sup_abs)

    def test_derivative_matches_weighted_mismatch(self, path4, rng):
        w = rng.normal(size=4)
        traj = run_adaptive(path4, w, dt=0.001, t_final=3.0, x0=rng.normal(size=4))
        cen = centroid_analysis(traj, w)
        assert cen.derivative_residual < 1e-4

    def test_larger_alpha_smaller_centroid_shift(self, p2):
        w = np.array([1.0, 0.0])
        x0 = np.array([1.0, -1.0])
        shifts = []
        for alpha in (1.0, 4.0, 16.0):
            traj = run_adaptive(p2, w, alpha=alpha, x0=x0, t_final=80.0)
            cen = centroid_analysis(traj, w)
            shifts.append(abs(cen.c_series[-1] - np.sum(x0)))
        assert shifts[0] > shifts[1] > shifts[2]


class TestDecayRate:
    def test_p2_matches_abscissa(self, p2):
        traj = run_adaptive(p2, [1.0, 0.0], t_final=60.0)
        rate = fit_decay_rate(traj, np.array([1.0, 0.0]))
        abscissa = verify_theorem(p2, 1.0).spectral_abscissa
        assert abs(rate - abscissa) <= 0.2 * abs(abscissa)

    def test_scaling_invariance(self, p2):
        w1 = np.array([0.1, 0.0])
        w2 = np.array([1.0, 0.0])
        r1 = fit_decay_rate(run_adaptive(p2, w1, t_final=60.0), w1)
        r2 = fit_decay_rate(run_adaptive(p2, w2, t_final=60.0), w2)
        assert abs(r1 - r2) <= 0.05 * abs(r1)

    def test_rate_negative_for_stable_system(self, k3, rng):
        w = rng.normal(size=3)
        traj = run_adaptive(k3, w, t_final=40.0)
        assert fit_decay_rate(traj, w) < 0.0

    def test_short_run_rejected(self, p2):
        traj = run_adaptive(p2, [1.0, 0.0], t_final=1.0)
        with pytest.raises(ScenarioError):
            fit_decay_rate(traj, np.array([1.0, 0.0]))
