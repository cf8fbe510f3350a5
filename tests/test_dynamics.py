import faulthandler
import os
import signal
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from resilient_consensus import dynamics
from resilient_consensus import (
    ADAPTIVE,
    NOMINAL,
    SimConfig,
    Trajectory,
    adjacency_matrix,
    build_run_report,
    closed_form_spectrum,
    consensus_error,
    default_t_final,
    error_series,
    laplacian,
    random_connected_graph,
    read_trajectory_csv,
    simulate,
    write_trajectory_csv,
)
from resilient_consensus.errors import (
    ConsensusToolkitError,
    DisconnectedGraphError,
    MatrixShapeError,
    NumericalBlowupError,
    ScenarioError,
)
from resilient_consensus.graph import from_edge_list, path_graph
from resilient_consensus.stability import DECAY_WINDOW, _energy, error_sums

from reference import adaptive_control, emulator_derivative, nominal_control


def adaptive_cfg(n, alpha=1.0, dt=0.001, t_final=10.0, x0=None, **kw):
    return SimConfig(
        protocol=ADAPTIVE,
        dt=dt,
        t_final=t_final,
        x0=np.zeros(n) if x0 is None else np.asarray(x0, dtype=float),
        alpha=alpha,
        **kw,
    )


def nominal_cfg(n, dt=0.001, t_final=10.0, x0=None):
    return SimConfig(
        protocol=NOMINAL,
        dt=dt,
        t_final=t_final,
        x0=np.zeros(n) if x0 is None else np.asarray(x0, dtype=float),
    )


class TestControls:
    def test_nominal_p2(self, p2):
        assert np.allclose(nominal_control(p2, [1.0, -1.0]), [-2.0, 2.0])

    def test_nominal_consensus_equilibrium(self, rng):
        g = random_connected_graph(7, rng)
        assert np.allclose(nominal_control(g, 3.7 * np.ones(7)), 0.0)

    def test_nominal_k3(self, k3):
        assert np.allclose(nominal_control(k3, [1.0, 0.0, 0.0]), [-2.0, 1.0, 1.0])

    def test_adaptive_zero_estimate_is_nominal(self, k3):
        x = np.array([0.3, -1.0, 2.0])
        assert np.allclose(
            adaptive_control(k3, x, np.zeros(3)), nominal_control(k3, x)
        )

    def test_adaptive_p2(self, p2):
        assert np.allclose(adaptive_control(p2, [0.0, 0.0], [1.0, 0.0]), [-1.0, 0.0])

    def test_perfect_estimate_cancels_disturbance(self, path4, rng):
        # with w_hat = w the closed loop is the undisturbed dynamics
        w = rng.normal(size=4)
        x = rng.normal(size=4)
        u = adaptive_control(path4, x, w)
        assert np.allclose(u + w, nominal_control(path4, x))

    def test_dimension_mismatch(self, p2):
        with pytest.raises(MatrixShapeError):
            nominal_control(p2, [1.0, 2.0, 3.0])


class TestEmulator:
    def test_consensus_fixed_point(self, path4):
        c = 2.5 * np.ones(4)
        assert np.allclose(emulator_derivative(path4, c, c), 0.0)

    def test_p2_substitution(self, p2):
        assert np.allclose(
            emulator_derivative(p2, [1.0, -1.0], [0.0, 0.0]), [-1.0, 1.0]
        )

    def test_laplacian_identity(self, k3, rng):
        # -Delta x_hat + A x == -L x_hat + A (x - x_hat)
        x = rng.normal(size=3)
        x_hat = rng.normal(size=3)
        lhs = emulator_derivative(k3, x, x_hat)
        rhs = -laplacian(k3) @ x_hat + adjacency_matrix(k3) @ (x - x_hat)
        assert np.allclose(lhs, rhs)


def closed_loop(g, cfg, w):
    """The closed loop y' = A y + b of the configured protocol in the
    stacked state y = (x, x_hat, w_hat), as dense arrays: the reference
    that ``simulate``'s routes in error coordinates are checked against.

        A = [[-L,       0,        -I],      (adaptive; the nominal A keeps
             [Adj,      -Delta,    0],       only the -L block)
             [alpha I,  -alpha I,  0]],   b = (w, 0, 0)
    """
    n = g.n
    adj = adjacency_matrix(g)
    deg = np.diag(g.degrees.astype(float))
    a = np.zeros((3 * n, 3 * n))
    a[:n, :n] = adj - deg
    if cfg.protocol == ADAPTIVE:
        eye = np.eye(n)
        a[:n, 2 * n :] = -eye
        a[n : 2 * n, :n] = adj
        a[n : 2 * n, n : 2 * n] = -deg
        a[2 * n :, :n] = cfg.alpha * eye
        a[2 * n :, n : 2 * n] = -cfg.alpha * eye
    return a, np.concatenate([np.asarray(w, dtype=float), np.zeros(2 * n)])


def rk4_reference(g, cfg, w, steps):
    """Classical RK4, stage by stage, on the dense y' = A y + b from cfg.y0:
    a (steps + 1) x 3n array of stacked states."""
    a, b = closed_loop(g, cfg, w)
    h = cfg.dt
    y = np.empty((steps + 1, 3 * g.n))
    y[0] = cfg.y0
    for k in range(steps):
        k1 = a @ y[k] + b
        k2 = a @ (y[k] + h / 2 * k1) + b
        k3 = a @ (y[k] + h / 2 * k2) + b
        k4 = a @ (y[k] + h * k3) + b
        y[k + 1] = y[k] + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def assert_routes_match_reference(g, cfg, w):
    """Both routes of ``simulate``, the map and the stages (forced by
    MAX_MAP_NODES = 0), stay within 1e-12 of each row's max-norm (at
    least 1) of ``rk4_reference``."""
    steps = round(cfg.t_final / cfg.dt)
    ref = rk4_reference(g, cfg, w, steps)
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=1))
    for max_nodes in (dynamics.MAX_MAP_NODES, 0):
        with mock.patch.object(dynamics, "MAX_MAP_NODES", max_nodes):
            states = simulate(g, cfg, w).states
        assert np.all(np.max(np.abs(states - ref), axis=1) <= 1e-12 * scale)


def closed_loop_derivative(g, cfg, w, x, x_hat, w_hat):
    """(x', x_hat', w_hat') from the one closed-loop operator y' = A y + b."""
    a, b = closed_loop(g, cfg, w)
    dy = a @ np.concatenate([x, x_hat, w_hat]) + b
    return np.split(dy, 3)


def reference_run_report(traj, w):
    """The run report from the per-check formulas: x_tilde and w_tilde from
    ``error_series`` for each check, xi as the ``hstack`` of
    (z, x_tilde, w_tilde) and ``np.linalg.norm`` per row; the reference that
    ``build_run_report``'s one pass over xi is checked against. Returns the
    report and, for an adaptive run, its energy and ||xi|| series (else
    None), which the printed values can round away."""
    cfg, g = traj.config, traj.graph
    report = {
        "protocol": cfg.protocol,
        "n": g.n,
        "dt": cfg.dt,
        "t_final": float(traj.times[-1]),
        "consensus_error_final": consensus_error(traj.x[-1]),
        "final_agreement": float(np.mean(traj.x[-1])),
        "what_error_inf_final": float(np.max(np.abs(traj.w_hat[-1] - w))),
    }
    if cfg.protocol != ADAPTIVE:
        return report, None
    alpha = cfg.alpha
    x_t, w_t = error_series(traj, w)
    sup = float(np.max(np.linalg.norm(x_t, axis=1)))
    bound = float(np.linalg.norm(w_t[0]) / np.sqrt(alpha))
    x_t, w_t = error_series(traj, w)
    energy = 0.5 * np.sum(x_t * x_t, axis=1) + np.sum(w_t * w_t, axis=1) / (2.0 * alpha)
    max_inc = float(np.max(np.diff(energy))) if len(energy) > 1 else 0.0
    c = np.sum(traj.x_hat, axis=1)
    x_t, w_t = error_series(traj, w)
    z = traj.x_hat[:, :1] - traj.x_hat[:, 1:]
    norms = np.linalg.norm(np.hstack([z, x_t, w_t]), axis=1)
    lo, hi = DECAY_WINDOW[0] * norms[0], DECAY_WINDOW[1] * norms[0]
    mask = (norms >= lo) & (norms <= hi)
    rate = None
    if norms[0] != 0.0 and np.sum(mask) >= 2:
        rate = float(np.polyfit(traj.times[mask], np.log(norms[mask]), 1)[0])
    abscissa = closed_form_spectrum(g, alpha).abscissa
    report.update(
        {
            "alpha": alpha,
            "sup_xtilde": sup,
            "perturbation_bound": bound,
            "perturbation_bound_holds": bool(sup <= bound + 1e-9),
            "perturbation_assumption_ok": bool(np.allclose(x_t[0], 0.0, atol=1e-12)),
            "energy_max_increase": max_inc,
            "energy_nonincreasing": bool(max_inc <= 1e-9),
            "centroid_drift": abs(float(c[-1] - c[len(c) // 2])),
            "centroid_agreement_gap": abs(float(np.mean(traj.x[-1])) - float(c[-1]) / g.n),
            "decay_rate_fit": rate,
            "spectral_abscissa": abscissa,
            "stability_verdict": bool(abscissa < -1e-8),
        }
    )
    return report, {"energy": energy, "xi_norm": norms}


class TestSystemDerivative:
    def test_equilibrium(self, path4, rng):
        w = rng.normal(size=4)
        c = 1.2 * np.ones(4)
        dx, dx_hat, dw_hat = closed_loop_derivative(path4, adaptive_cfg(4), w, c, c, w.copy())
        assert np.allclose(dx, 0.0)
        assert np.allclose(dx_hat, 0.0)
        assert np.allclose(dw_hat, 0.0)

    def test_p2_substitution(self, p2):
        dx, dx_hat, dw_hat = closed_loop_derivative(
            p2, adaptive_cfg(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.zeros(2), np.zeros(2)
        )
        assert np.allclose(dx, [0.0, 1.0])
        assert np.allclose(dx_hat, [0.0, 1.0])
        assert np.allclose(dw_hat, [1.0, 0.0])

    def test_undisturbed_adaptive_matches_nominal(self, k3):
        x0 = np.array([1.0, -2.0, 0.5])
        w = np.zeros(3)
        ta = simulate(k3, adaptive_cfg(3, x0=x0, t_final=5.0), w)
        tn = simulate(k3, nominal_cfg(3, x0=x0, t_final=5.0), w)
        assert np.max(np.abs(ta.x - tn.x)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(1e-3, 1e3),
    )
    def test_operator_matches_protocol_laws(self, n, seed, alpha):
        # the one closed-loop operator agrees with the per-block laws
        rng = np.random.default_rng(seed)
        g = random_connected_graph(n, rng)
        x, x_hat, w_hat, w = rng.normal(size=(4, n))
        cfg = adaptive_cfg(n, alpha=alpha)
        dx, dx_hat, dw_hat = closed_loop_derivative(g, cfg, w, x, x_hat, w_hat)
        np.testing.assert_allclose(dx, adaptive_control(g, x, w_hat) + w, atol=1e-12)
        np.testing.assert_allclose(dx_hat, emulator_derivative(g, x, x_hat), atol=1e-12)
        np.testing.assert_allclose(dw_hat, alpha * (x - x_hat), atol=1e-12 * alpha)
        dx, dx_hat, dw_hat = closed_loop_derivative(g, nominal_cfg(n), w, x, x_hat, w_hat)
        np.testing.assert_allclose(dx, nominal_control(g, x) + w, atol=1e-12)
        assert np.array_equal(dx_hat, np.zeros(n))
        assert np.array_equal(dw_hat, np.zeros(n))


class TestSimulate:
    def test_p2_nominal_analytic(self, p2):
        # closed form from the Laplacian eigendecomposition:
        # x(t) = [exp(-2t), -exp(-2t)] for x0 = [1, -1]
        traj = simulate(p2, nominal_cfg(2, x0=[1.0, -1.0], t_final=10.0), np.zeros(2))
        expected = np.exp(-2.0 * traj.times)
        assert np.max(np.abs(traj.x[:, 0] - expected)) < 1e-10
        assert np.max(np.abs(traj.x[:, 1] + expected)) < 1e-10
        assert consensus_error(traj.x[-1]) < 1e-6

    def test_nominal_reaches_average_consensus(self, rng):
        g = random_connected_graph(6, rng)
        x0 = rng.normal(size=6)
        traj = simulate(
            g, nominal_cfg(6, x0=x0, t_final=default_t_final(g)), np.zeros(6)
        )
        assert consensus_error(traj.x[-1]) < 1e-6
        assert abs(np.mean(traj.x[-1]) - np.mean(x0)) < 1e-9

    def test_p2_adaptive_recovery_vs_fine_reference(self, p2):
        w = np.array([1.0, 0.0])
        cfg = adaptive_cfg(2, dt=0.01, t_final=30.0)
        traj = simulate(p2, cfg, w)
        ref = simulate(p2, adaptive_cfg(2, dt=0.0001, t_final=30.0), w)
        assert np.max(np.abs(traj.x[-1] - ref.x[-1])) < 1e-8
        assert np.max(np.abs(traj.w_hat[-1] - w)) < 1e-6
        assert consensus_error(traj.x[-1]) < 1e-6

    def test_centroid_conserved_nominal_undisturbed(self, rng):
        g = random_connected_graph(5, rng)
        x0 = rng.normal(size=5)
        traj = simulate(g, nominal_cfg(5, x0=x0, t_final=10.0), np.zeros(5))
        sums = np.sum(traj.x, axis=1)
        assert np.max(np.abs(sums - sums[0])) < 1e-10

    def test_consensus_equilibrium_is_fixed_point(self, path4, rng):
        w = rng.normal(size=4)
        c = -0.7
        cfg = adaptive_cfg(
            4,
            x0=c * np.ones(4),
            x_hat0=c * np.ones(4),
            w_hat0=w.copy(),
            t_final=5.0,
        )
        traj = simulate(path4, cfg, w)
        assert np.max(np.abs(traj.x - c)) < 1e-12
        assert np.max(np.abs(traj.w_hat - w[None, :])) < 1e-12

    def test_fourth_order_convergence(self, p2):
        # halving dt should shrink terminal error by about 2^4
        w = np.array([1.0, -0.5])
        ref = simulate(p2, adaptive_cfg(2, dt=0.0005, t_final=2.0, x0=[1.0, 0.0]), w)

        def terminal_error(dt):
            t = simulate(p2, adaptive_cfg(2, dt=dt, t_final=2.0, x0=[1.0, 0.0]), w)
            return np.max(np.abs(t.x[-1] - ref.x[-1]))

        e1, e2 = terminal_error(0.1), terminal_error(0.05)
        assert 10.0 < e1 / e2 < 22.0

    def test_nominal_disturbed_keeps_disagreement(self, p2):
        # steady disagreement pinv(L) w: the motivation for the adaptive law
        w = np.array([1.0, -1.0])
        traj = simulate(p2, nominal_cfg(2, x0=[0.0, 0.0], t_final=20.0), w)
        late = traj.times >= 5.0
        errs = np.array([consensus_error(x) for x in traj.x[late]])
        assert np.all(errs >= 0.9)

    def test_disconnected_rejected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            simulate(g, nominal_cfg(4, t_final=1.0), np.zeros(4))

    def test_invalid_config(self):
        with pytest.raises(ScenarioError):
            SimConfig(protocol=ADAPTIVE, dt=0.001, t_final=1.0, x0=np.zeros(2))
        with pytest.raises(ScenarioError):
            SimConfig(protocol=NOMINAL, dt=-0.1, t_final=1.0, x0=np.zeros(2))


class TestIntegrationPaths:
    """``simulate`` integrates with the map in error coordinates, marched
    in blocks by repeated squaring, when n <= MAX_MAP_NODES and
    steps >= n^3 / MAP_BREAK_EVEN, else with the four sparse stages."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(1e-3, 1e3),
        protocol=st.sampled_from([NOMINAL, ADAPTIVE]),
        frac=st.floats(0.05, 1.0),
    )
    def test_map_matches_stages(self, n, seed, alpha, protocol, frac):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(n, rng)
        x0, w = rng.normal(size=(2, n))
        # |mu| <= max(2 d_max, sqrt(alpha)) for every mode of A, and RK4 is
        # stable on the left half of the disc |z| <= 2.5
        dt = frac * 2.5 / max(2.0 * np.max(g.degrees), np.sqrt(alpha))
        if protocol == ADAPTIVE:
            cfg = adaptive_cfg(n, alpha=alpha, dt=dt, t_final=100 * dt, x0=x0)
        else:
            cfg = nominal_cfg(n, dt=dt, t_final=100 * dt, x0=x0)
        assert_routes_match_reference(g, cfg, w)

    @pytest.mark.parametrize(
        "n, steps",
        [
            (10, 1),
            (10, 2),
            (10, 3),
            # blocks of 32 rows after doubling: the last block is full at 63
            # steps and partial (1 or 2 rows) at 64 and 65
            (10, 63),
            (10, 64),
            (10, 65),
            (10, 1023),
            (10, 1024),
            (10, 1025),
            (10, 4000),  # a long horizon: blocks of 2048 rows
            (2, 3000),
            (50, 20),  # no squaring pays: one matvec per step
        ],
    )
    def test_blocked_map_matches_stages(self, n, steps):
        rng = np.random.default_rng(n)
        g = random_connected_graph(n, rng)
        x0, w = rng.normal(size=(2, n))
        dt = 1.0 / max(2.0 * np.max(g.degrees), np.sqrt(2.0))
        assert_routes_match_reference(g, adaptive_cfg(n, alpha=2.0, dt=dt, t_final=steps * dt, x0=x0), w)

    @pytest.mark.parametrize(
        "n, steps, path",
        [
            # the break-even n^3 / MAP_BREAK_EVEN: below one step up to
            # n = 32, 6.6 steps at n = 60, 30.5 at n = 100, 103 at n = 150,
            # 512 at n = MAX_MAP_NODES = 256
            (2, 3, "map"),
            (50, 15, "map"),
            (60, 1, "stages"),
            (60, 6, "stages"),
            (60, 7, "map"),
            (100, 11, "stages"),
            (100, 30, "stages"),
            (100, 31, "map"),
            (150, 450, "map"),
            (dynamics.MAX_MAP_NODES, 511, "stages"),
            (dynamics.MAX_MAP_NODES, 512, "map"),
            # n just above MAX_MAP_NODES, with twice the break-even steps
            (dynamics.MAX_MAP_NODES + 1, 1024, "stages"),
        ],
    )
    def test_rule_picks_path(self, monkeypatch, n, steps, path):
        # the stages make four CSR matvecs per step; the map makes none
        matvecs = []

        class CountingCsr(sparse.csr_matrix):
            def __matmul__(self, other):
                if np.ndim(other) == 1:
                    matvecs.append(1)
                return super().__matmul__(other)

        build = dynamics._neg_laplacian
        monkeypatch.setattr(dynamics, "_neg_laplacian", lambda g: CountingCsr(build(g)))
        g = path_graph(n)
        simulate(g, nominal_cfg(n, dt=0.01, t_final=0.01 * steps, x0=np.arange(n)), np.ones(n))
        assert len(matvecs) == (4 * steps if path == "stages" else 0)

    def test_stage_csr_built_once_per_graph(self, count_builds):
        # -L's CSR arrays come from the graph's cache: one build for two runs
        calls = count_builds("neg_laplacian_csr")
        n = dynamics.MAX_MAP_NODES + 1
        g = path_graph(n)
        for _ in range(2):
            simulate(g, nominal_cfg(n, dt=0.01, t_final=0.02, x0=np.arange(n)), np.ones(n))
        assert calls == [n]

    @pytest.mark.parametrize("route", ["map", "stages"])
    def test_working_memory(self, route):
        # tracemalloc's peak during simulate, beyond the trajectory, after a
        # first run has warmed the graph's cached arrays and the imports
        n, steps = (dynamics.MAX_MAP_NODES, 512) if route == "map" else (1000, 2000)
        g = path_graph(n)
        cfg = adaptive_cfg(n, t_final=0.001 * steps, x0=np.linspace(-1.0, 1.0, n))
        w = np.ones(n)
        simulate(g, cfg, w)
        tracemalloc.start()
        try:
            traj = simulate(g, cfg, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (steps + 1, 3 * n)
        if route == "map":
            bound = 8e6
        else:
            # the stage march's Horner shifts and their temporary (2 x 3
            # blocks of ERROR_BLOCK_VALUES values), and -L in CSR form with
            # what builds it (8 words per nonzero); the non-finite scan's
            # buffer is one block of bytes, and a temporary of steps x n
            # values does not fit
            nnz = n + 2 * (n - 1)
            bound = 8 * 6 * dynamics.ERROR_BLOCK_VALUES + 64 * nnz
            assert bound < 8 * steps * n
        assert peak - traj.states.nbytes < bound

    @pytest.mark.parametrize("row", [0, 5, 30_000, 49_999, None])
    def test_non_finite_scan_finds_first_bad_row(self, row):
        # 3 columns: the scan's blocks hold 21845 rows, so rows 30000 and
        # 49999 lie in the second and in the last, partial, block
        out = np.ones((50_000, 3))
        if row is not None:
            out[row, 1] = np.nan
            out[row + 1 :: 7, 2] = np.inf
        assert dynamics._first_non_finite_row(out) == row

    @pytest.mark.parametrize(
        "x0, steps, t",
        [
            (1.7e308, 2, 0.1),  # map: the first step overflows
            (1.7e308, 20, 0.1),  # map: the same sample
            (1.0e308, 5, 0.5),  # map: x grows by about w dt per step
            (1.0e308, 20, 0.5),  # map: the same sample
        ],
    )
    def test_blowup_reports_first_non_finite_sample(self, p2, x0, steps, t):
        cfg = adaptive_cfg(2, dt=0.1, t_final=0.1 * steps, x0=[x0, x0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy floating-point warning
            with pytest.raises(NumericalBlowupError) as err:
                simulate(p2, cfg, np.array([1.7e308, 1.7e308]))
        assert err.value.t == t

    @pytest.mark.parametrize("graph", ["p2", "path4", "random"])
    def test_preflight_and_map_share_one_polynomial(self, graph, request):
        # the eigenvalues of one step R(dt B) are those of its diagonal
        # blocks: R(-dt lambda_k) of P_xx, over every Laplacian eigenvalue,
        # and R(dt mu) of the G_i, over the roots of E; the preflight's
        # gains are |R(dt mu)| over spec(M), which lacks only lambda_1 = 0
        if graph == "random":
            g = random_connected_graph(7, np.random.default_rng(3))
        else:
            g = request.getfixturevalue(graph)
        cfg = adaptive_cfg(g.n, alpha=2.0, dt=0.05)
        gain = np.append(1.0, dynamics._check_rk4_step(g, cfg))
        cols = dynamics._rk4_row_map(g, cfg.alpha, cfg.dt)
        gains = dynamics._rk4_error_gains(g, cfg.alpha, cfg.dt)
        blocks = [np.linalg.eigvals(cols[: g.n].T)]
        blocks += [np.linalg.eigvals(gains[:, :, i]) for i in range(g.n)]
        assert np.abs(np.sort(np.abs(np.concatenate(blocks))) - np.sort(gain)).max() <= 1e-10

    def test_stage_path_blowup_time(self, p2, monkeypatch):
        # 5 steps on p2 take the map; without it the stages name the same sample
        monkeypatch.setattr(dynamics, "MAX_MAP_NODES", 0)
        cfg = adaptive_cfg(2, dt=0.1, t_final=0.5, x0=[1.0e308, 1.0e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBlowupError) as err:
                simulate(p2, cfg, np.array([1.7e308, 1.7e308]))
        assert err.value.t == 0.5

    @pytest.mark.parametrize("max_nodes", [dynamics.MAX_MAP_NODES, 0])
    def test_overflowing_initial_error_reported_at_first_step(self, p2, monkeypatch, max_nodes):
        # x0 - x_hat0 overflows, but row 0 is the given, finite state on
        # either route (the map, and the stages forced by max_nodes = 0)
        monkeypatch.setattr(dynamics, "MAX_MAP_NODES", max_nodes)
        cfg = adaptive_cfg(2, dt=0.1, t_final=1.0, x0=[1.7e308, 0.0], x_hat0=np.array([-1.7e308, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBlowupError) as err:
                simulate(p2, cfg, np.zeros(2))
        assert err.value.t == 0.1

    @pytest.mark.parametrize("dt, steps", [(0.001, 2000), (0.0002, 3000)])
    def test_blowup_inside_a_block_matches_per_step_map(self, p2, dt, steps):
        # the blocked map names the first non-finite row of the per-step map,
        # z <- R z one step at a time in error coordinates, converted to y;
        # that row is odd, so it lies inside a block of m >= 2 rows (blocks
        # start at 1, 2, 4, .., m, then at multiples of m)
        row = {2000: 487, 3000: 2431}[steps]
        cfg = adaptive_cfg(2, dt=dt, t_final=dt * steps, x0=[1.0e308, 1.0e308])
        w = np.array([1.7e308, 1.7e308])
        cols = dynamics._rk4_row_map(p2, cfg.alpha, dt)
        gains = dynamics._rk4_error_gains(p2, cfg.alpha, dt)
        z = np.empty((steps + 1, 6))
        z[0] = np.concatenate([cfg.x0, cfg.x0 - cfg.x_hat0, cfg.w_hat0 - w])
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps):
                z[k + 1, :2] = z[k] @ cols
                z[k + 1, 2:4] = gains[0, 0] * z[k, 2:4] + gains[0, 1] * z[k, 4:]
                z[k + 1, 4:] = gains[1, 0] * z[k, 2:4] + gains[1, 1] * z[k, 4:]
            ref = np.concatenate([z[:, :2], z[:, :2] - z[:, 2:4], z[:, 4:] + w], axis=1)
        blown = ~np.isfinite(ref).all(axis=1)
        assert int(np.argmax(blown)) == row and row % 2 == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBlowupError) as err:
                simulate(p2, cfg, w)
        assert err.value.t == row * dt


class TestErrorSeries:
    def test_zero_mismatch(self, p2):
        traj = simulate(p2, adaptive_cfg(2, x0=[1.0, -1.0], t_final=1.0), np.zeros(2))
        x_t, w_t = error_series(traj, np.zeros(2))
        assert np.max(np.abs(x_t)) < 1e-12
        assert np.max(np.abs(w_t)) < 1e-12

    def test_error_dynamics_finite_difference(self, path4, rng):
        # d(x_tilde)/dt = -Delta x_tilde - w_tilde, checked by central difference
        w = rng.normal(size=4)
        dt = 0.001
        traj = simulate(path4, adaptive_cfg(4, dt=dt, t_final=2.0, x0=rng.normal(size=4)), w)
        x_t, w_t = error_series(traj, w)
        deg = path4.degrees.astype(float)
        central = (x_t[2:] - x_t[:-2]) / (2.0 * dt)
        analytic = -deg[None, :] * x_t[1:-1] - w_t[1:-1]
        assert np.max(np.abs(central - analytic)) < 10.0 * dt**2


class TestRunReport:
    @pytest.mark.parametrize(
        "case",
        ["nominal", "adaptive", "mismatch", "too_short", "zero_xi", "two_rows", "random"],
    )
    def test_one_pass_matches_per_check_formulas(self, path4, rng, case):
        n, w = 4, rng.normal(size=4)
        cfg = adaptive_cfg(n, alpha=2.5, dt=0.01, t_final=40.0, x0=rng.normal(size=n))
        runs = [(path4, cfg, w)]
        if case == "nominal":
            runs = [(path4, nominal_cfg(n, dt=0.01, x0=cfg.x0), w)]
        elif case == "mismatch":  # perturbation_assumption_ok is false
            runs = [(path4, replace(cfg, x_hat0=rng.normal(size=n), w_hat0=rng.normal(size=n)), w)]
        elif case == "too_short":  # decay_rate_fit is None
            runs = [(path4, replace(cfg, t_final=1.0), w)]
        elif case == "zero_xi":  # ||xi(0)|| = 0: nothing to fit
            runs = [(path4, replace(cfg, x0=np.ones(n), x_hat0=None), np.zeros(n))]
        elif case == "two_rows":
            runs = [(path4, replace(cfg, t_final=cfg.dt), w)]
        elif case == "random":
            runs = []
            for _ in range(4):
                g = random_connected_graph(int(rng.integers(2, 12)), rng)
                run_cfg = adaptive_cfg(g.n, alpha=rng.uniform(0.3, 5.0), dt=0.01, t_final=30.0,
                                       x0=rng.normal(size=g.n), w_hat0=rng.normal(size=g.n))
                runs.append((g, run_cfg, rng.normal(size=g.n)))
        for g, run_cfg, w_run in runs:
            traj = simulate(g, run_cfg, w_run)
            report = build_run_report(traj, w_run)
            ref, series = reference_run_report(traj, w_run)
            assert report == ref
            assert {k: type(v) for k, v in report.items()} == {k: type(v) for k, v in ref.items()}
            if series is not None:  # the shared one pass, as the checks read it
                sums = error_sums(traj, w_run)
                assert np.array_equal(_energy(sums, run_cfg.alpha), series["energy"])
                assert np.array_equal(sums.xi_norm, series["xi_norm"])
            if case == "mismatch":
                assert report["perturbation_assumption_ok"] is False
            if case in ("too_short", "zero_xi", "two_rows"):
                assert report["decay_rate_fit"] is None
            elif case in ("adaptive", "mismatch"):
                assert report["decay_rate_fit"] is not None

    def test_working_memory(self):
        # tracemalloc's peak during the report: a few series of steps + 1
        # values and one block of xi above the trajectory; a
        # (steps + 1) x (3n - 1) array of xi does not fit
        n, steps = 100, 20_000
        g = path_graph(n)
        w = np.ones(n)
        traj = simulate(g, adaptive_cfg(n, t_final=0.001 * steps, x0=np.linspace(-1.0, 1.0, n)), w)
        build_run_report(traj, w)
        tracemalloc.start()
        try:
            build_run_report(traj, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * traj.states.nbytes


class TestConsensusError:
    def test_consensus(self):
        assert consensus_error(3.0 * np.ones(5)) == 0.0

    def test_pair(self):
        assert consensus_error(np.array([1.0, -1.0])) == 2.0

    def test_translation_invariant(self, rng):
        x = rng.normal(size=6)
        assert consensus_error(x) == pytest.approx(consensus_error(x + 17.0))


P2_HEADER = "t,x_0,x_1,xhat_0,xhat_1,what_0,what_1\n"
CSV_FIELDS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " ", "nan", "-nan", "inf", "1_0", "0x1p3", "1e400", " 1.0 ", "\x00", "\u0661"]),
    st.text(max_size=4),
)
ROW_ENDS = ["\n", "\r\n", "\r", "\n\n", " \n"]


def replace_field(fields, patch):
    """fields with fields[k] = field for patch = (k, field), or unchanged."""
    if patch is None:
        return fields
    k, field = patch
    return fields[:k] + [field] + fields[k + 1 :]


def csv_rows(t_column: bool):
    """Rows of fuzzed fields, each with a fuzzed line end. With
    ``t_column`` there are at least two; row k is the time k * 0.1 and six
    floats, one of which may be replaced by a fuzzed field. Without it,
    rows may have any fields and also run together."""
    if t_column:
        floats = st.lists(st.floats().map(repr), min_size=6, max_size=6)
        patch = st.one_of(st.none(), st.tuples(st.integers(0, 5), CSV_FIELDS))
        fields = st.builds(replace_field, floats, patch)
        ends = st.sampled_from(ROW_ENDS)
    else:
        fields = st.lists(CSV_FIELDS, max_size=8)
        ends = st.sampled_from(ROW_ENDS + [""])
    rows = st.lists(st.tuples(fields, ends), min_size=2 if t_column else 0, max_size=4)
    return rows.map(
        lambda rows: [
            ",".join(([repr(k * 0.1)] if t_column else []) + fields) + end
            for k, (fields, end) in enumerate(rows)
        ]
    )


class TestTrajectoryCsv:
    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.one_of(
            st.binary(max_size=200),
            st.text(max_size=200).map(str.encode),
            st.binary(max_size=100).map(P2_HEADER.encode().__add__),
            csv_rows(t_column=False).map(lambda rows: (P2_HEADER + "".join(rows)).encode()),
        ),
        steps=st.sampled_from([1, 2]),
    )
    def test_fuzzed_file_raises_only_typed_errors(self, tmp_path_factory, raw, steps):
        path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
        path.write_bytes(raw)
        cfg = adaptive_cfg(2, dt=0.1, t_final=0.1 * steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                read_trajectory_csv(path, path_graph(2), cfg)
            except ConsensusToolkitError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(rows=csv_rows(t_column=True))
    def test_c_parse_reads_what_the_line_scan_reads(self, tmp_path_factory, rows):
        # the reader (numpy's C parser a chunk at a time, with the scan as
        # its fallback) and the line-by-line float() scan alone give the
        # same error message or the same bits, at the default chunk size
        # and at one row a chunk
        path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
        path.write_bytes((P2_HEADER + "".join(rows)).encode())
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            try:
                expected = dynamics._scan_csv_rows(fh, 7, len(rows) + 1)[:, 1:].tobytes()
            except ScenarioError as exc:
                expected = str(exc)
        cfg = adaptive_cfg(2, dt=0.1, t_final=0.1 * (len(rows) - 1))
        for chunk_values in (dynamics.CSV_CHUNK_VALUES, 7):
            with mock.patch.object(dynamics, "CSV_CHUNK_VALUES", chunk_values):
                try:
                    got = read_trajectory_csv(path, path_graph(2), cfg).states.tobytes()
                except ScenarioError as exc:
                    got = str(exc)
            assert got == expected

    def test_round_trip(self, p2, tmp_path):
        w = np.array([1.0, 0.0])
        traj = simulate(p2, adaptive_cfg(2, dt=0.01, t_final=1.0), w)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path, p2, traj.config)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.x, traj.x)
        assert np.array_equal(back.x_hat, traj.x_hat)
        assert np.array_equal(back.w_hat, traj.w_hat)

    def test_repr_bytes_and_bit_exact_read(self, p2, tmp_path):
        # a directly built trajectory with signed zero, a subnormal, huge,
        # tiny and inexact values: every field is repr(float(v)), and reading
        # the file back restores every bit
        values = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, -1.7e308]
        cfg = adaptive_cfg(2, dt=0.1, t_final=0.1)
        traj = Trajectory(np.array([values, values[::-1]]), p2, cfg)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        rows = [[k * cfg.dt, *row] for k, row in enumerate([values, values[::-1]])]
        expected = "t,x_0,x_1,xhat_0,xhat_1,what_0,what_1\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in rows
        )
        assert path.read_bytes() == expected.encode()
        back = read_trajectory_csv(path, p2, cfg)
        assert back.states.tobytes() == traj.states.tobytes()
        assert back.times.tobytes() == traj.times.tobytes()

    def test_fallback_scan_working_memory(self, tmp_path):
        # one field written 1_0, which float() reads and numpy's C parser
        # rejects, sends the body to the line scan: its tracemalloc peak
        # stays near the one array it returns, where a list of float lists
        # took over five times that
        g = path_graph(10)
        cfg = adaptive_cfg(10, t_final=10.0, x0=np.linspace(-1.0, 1.0, 10))
        traj = simulate(g, cfg, np.ones(10))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        header, first, rest = path.read_text().split("\n", 2)
        fields = first.split(",")
        fields[1] = "1_0"  # x_0 at t = 0
        path.write_text("\n".join([header, ",".join(fields), rest]))
        expected = traj.states.copy()
        expected[0, 0] = 10.0
        tracemalloc.start()
        try:
            back = read_trajectory_csv(path, g, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.states.tobytes() == expected.tobytes()
        assert peak < 1.5 * back.states.nbytes

    def test_chunked_read_working_memory(self, tmp_path, usable_cpus):
        # a one-process read of 9.6 MB of states (n = 10, 40 001 rows)
        # holds the states and about one chunk: numpy's whole-body parse
        # peaked at 1.16 x the states, and kept the time column alive
        usable_cpus(1)
        n, dt, rows = 10, 0.001, 40_001
        row = np.random.default_rng(5).standard_normal(3 * n)
        fields = "".join(f",{v!r}" for v in row.tolist())
        path = tmp_path / "traj.csv"
        with open(path, "w") as fh:
            fh.write(",".join(dynamics._csv_columns(n)) + "\n")
            fh.writelines(f"{t!r}{fields}\n" for t in (np.arange(rows) * dt).tolist())
        cfg = adaptive_cfg(n, dt=dt, t_final=dt * (rows - 1))
        tracemalloc.start()
        try:
            back = read_trajectory_csv(path, path_graph(n), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.states.nbytes >= 9_600_000
        assert np.array_equal(back.states, np.broadcast_to(row, (rows, 3 * n)))
        assert peak < 1.1 * back.states.nbytes
        assert back.states.base is None

    def test_header_without_line_end_not_read_whole(self, p2, tmp_path):
        # an 8 MB first line with no line end: the header is read up to
        # its expected length plus CSV_FIELD_CHARS characters, and rejected
        path = tmp_path / "traj.csv"
        path.write_text("t,x_0,x_1,xhat_0,xhat_1,what_0,what_1" + ",0.0" * 2_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match="^trajectory CSV header does not match graph with n=2$"):
                read_trajectory_csv(path, p2, adaptive_cfg(2, dt=0.1, t_final=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.02 * path.stat().st_size

    def test_header_padded_past_the_bound_does_not_match(self, p2, tmp_path):
        # a header line more than CSV_FIELD_CHARS characters longer than
        # expected is cut where the bound ends, and does not match; one
        # that reaches the bound with its line end is read whole
        cfg = adaptive_cfg(2, dt=0.1, t_final=0.1)
        header = "t,x_0,x_1,xhat_0,xhat_1,what_0,what_1"
        path = tmp_path / "traj.csv"
        field = dynamics.CSV_FIELD_CHARS
        for pad, ok in [(field - 2, True), (field - 1, True), (field, False)]:
            path.write_text(header + " " * pad + "\n0.0,0,0,0,0,0,0\n0.1,0,0,0,0,0,0\n")
            if ok:
                assert read_trajectory_csv(path, p2, cfg).states.shape == (2, 6)
            else:
                with pytest.raises(ScenarioError, match="^trajectory CSV header does not match graph with n=2$"):
                    read_trajectory_csv(path, p2, cfg)

    @pytest.mark.parametrize("row", [2, 5])
    def test_long_row_not_read_whole(self, p2, tmp_path, row):
        # one 8 MB body row: rows are read up to CSV_FIELD_CHARS characters
        # a field, and the first longer one is named
        cfg = adaptive_cfg(2, dt=0.1, t_final=1.0)
        lines = [f"{k * 0.1!r},0.0,0.0,0.0,0.0,0.0,0.0\n" for k in range(11)]
        lines[row - 2] = lines[row - 2][:-1] + ",0.0" * 2_000_000 + "\n"
        path = tmp_path / "traj.csv"
        path.write_text("t,x_0,x_1,xhat_0,xhat_1,what_0,what_1\n" + "".join(lines))
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError) as exc:
                read_trajectory_csv(path, p2, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        longest = 7 * dynamics.CSV_FIELD_CHARS
        assert str(exc.value) == f"trajectory CSV row {row} is longer than {longest} characters"
        assert peak < 0.02 * path.stat().st_size

    def test_row_of_the_longest_length_read(self, p2, tmp_path):
        # a last row of exactly CSV_FIELD_CHARS characters a field (leading
        # zeros) is read like any other, with or without a line end; one
        # character more is too long
        cfg = adaptive_cfg(2, dt=0.1, t_final=0.1)
        longest = 7 * dynamics.CSV_FIELD_CHARS
        path = tmp_path / "traj.csv"
        for extra in [0, 1]:
            last = "0.1,0.0,0.0,0.0,0.0,0.0,"
            last += "0" * (longest + extra - len(last) - 3) + "1.0"
            for end in ["\n", ""]:
                path.write_text(f"t,x_0,x_1,xhat_0,xhat_1,what_0,what_1\n0.0,0,0,0,0,0,0\n{last}{end}")
                if extra:
                    with pytest.raises(ScenarioError, match=f"^trajectory CSV row 3 is longer than {longest} "):
                        read_trajectory_csv(path, p2, cfg)
                else:
                    assert read_trajectory_csv(path, p2, cfg).states[1, -1] == 1.0

    def test_header_mismatch(self, p2, k3, tmp_path):
        traj = simulate(p2, adaptive_cfg(2, dt=0.01, t_final=0.1), np.zeros(2))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        with pytest.raises(ScenarioError):
            read_trajectory_csv(path, k3, traj.config)


class TestParallelCsvWriter:
    """The writer's helpers: two forked processes that write one half of
    the rows each to a temporary file, which the caller appends."""

    SPECIAL = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, -1.7e308]

    @pytest.fixture(autouse=True)
    def deadline(self):
        # a writer that deadlocks ends the run with a traceback, not a hang
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    @pytest.fixture
    def traj(self, p2):
        # seven chunks and a part, holding the special values of
        # test_repr_bytes_and_bit_exact_read in the first, middle and last rows
        rows = 7 * (dynamics.CSV_CHUNK_VALUES // 7) + 100
        states = np.random.default_rng(7).standard_normal((rows, 6)) * 1e3
        states[0], states[-1], states[rows // 2] = self.SPECIAL, self.SPECIAL[::-1], self.SPECIAL
        return Trajectory(states, p2, adaptive_cfg(2, dt=0.1, t_final=0.1 * (rows - 1)))

    @pytest.fixture
    def temporary_files(self, monkeypatch, tmp_path):
        """The temporary files the writer creates, in an empty TMPDIR."""
        files, make = [], tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmpdir"))
        (tmp_path / "tmpdir").mkdir()
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda: files.append(make()) or files[-1])
        return files

    @staticmethod
    def expected(traj):
        # the one-row-at-a-time writer: every field is repr(float(v))
        lines = [",".join(["t"] + [f"{c}_{i}" for c in ("x", "xhat", "what") for i in range(2)])]
        lines += [",".join(map(repr, [float(t), *y])) for t, y in zip(traj.times, traj.states.tolist())]
        return ("\n".join(lines) + "\n").encode()

    @staticmethod
    def set_cpus(monkeypatch, cpus, log=None):
        """Make the writer see `cpus` usable CPUs (None: no affinity call).
        Every affinity call is appended to `log` as "pid cpus", and none
        changes a real CPU set."""
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
            return
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(dynamics, "CPU_MAX_PATH", os.path.join(os.devnull, "cpu.max"))

        def pin(pid, cpus):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {sorted(cpus)}\n")

        monkeypatch.setattr(os, "sched_setaffinity", pin, raising=False)

    @staticmethod
    def caller_rows(monkeypatch, fail=None):
        """The (start, stop) row ranges the calling process formats with
        ``_write_csv_rows``; a helper formats its half with
        ``_write_csv_chunks``. With fail = (half, how), the helper of that
        half writes part of its rows and then exits with code 1 ("exit")
        or is killed ("kill")."""
        calls, caller = [], os.getpid()
        write_rows, write_chunks = dynamics._write_csv_rows, dynamics._write_csv_chunks

        def recording(traj, start, stop, fh):
            if os.getpid() == caller:
                calls.append((start, stop))
            write_rows(traj, start, stop, fh)

        def failing(traj, start, stop, fh, repr_rows):
            if fail is not None and (start > 0) == fail[0]:
                write_chunks(traj, start, (start + stop) // 2, fh, repr_rows)
                fh.flush()
                if fail[1] == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(1)
            write_chunks(traj, start, stop, fh, repr_rows)

        monkeypatch.setattr(dynamics, "_write_csv_rows", recording)
        monkeypatch.setattr(dynamics, "_write_csv_chunks", failing)
        return calls

    @staticmethod
    def record_kills(monkeypatch):
        kills, kill = [], os.kill
        monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append(pid) or kill(pid, sig))
        return kills

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [None, 1, 2, 3])
    def test_bytes_independent_of_cpu_count(self, monkeypatch, tmp_path, traj, temporary_files, cpus):
        log = tmp_path / "affinity.log"
        self.set_cpus(monkeypatch, cpus, log)
        calls = self.caller_rows(monkeypatch)
        kills = self.record_kills(monkeypatch)
        firsts, first = [], dynamics._cpu_after_caller
        monkeypatch.setattr(dynamics, "_cpu_after_caller", lambda cpus: firsts.append(first(cpus)) or firsts[-1])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == self.expected(traj)
        rows = len(traj.states)
        if cpus is None or cpus == 1:  # the caller writes every row and forks nothing
            assert calls == [(0, rows)] and not temporary_files and not log.exists() and not firsts
        else:  # two helpers, each pinned to its own CPU; the caller formats no row and never pins
            assert calls == [] and len(temporary_files) == 2
            pins = sorted(line.split(" ", 1) for line in log.read_text().splitlines())
            assert len({pid for pid, _ in pins}) == 2 and str(os.getpid()) not in {pid for pid, _ in pins}
            assert sorted(cpu for _, cpu in pins) == sorted(f"[{(firsts[0] + i) % cpus}]" for i in (0, 1))
        assert kills == [] and all(f.closed for f in temporary_files)
        assert not os.listdir(tempfile.tempdir)
        self.assert_no_child_left()
        back = read_trajectory_csv(path, traj.graph, traj.config)
        assert back.states.tobytes() == traj.states.tobytes()

    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="one usable CPU"
    )
    def test_first_helper_cpu_follows_the_callers(self, monkeypatch):
        # the first helper's CPU is the one after the caller's, so that it
        # does not take the caller's CPU while the caller forks the second;
        # where /proc cannot be read, the process id sets the offset
        before = os.sched_getaffinity(0)
        cpus = sorted(before)
        try:
            for k, cpu in enumerate(cpus):
                os.sched_setaffinity(0, {cpu})
                assert dynamics._cpu_after_caller(cpus) == k + 1
        finally:
            os.sched_setaffinity(0, before)

        def no_proc(*args, **kwargs):
            raise FileNotFoundError("/proc/self/stat")

        monkeypatch.setattr(dynamics, "open", no_proc, raising=False)
        assert dynamics._cpu_after_caller(cpus) == os.getpid()

    @pytest.mark.parametrize("how", ["exit", "kill"])
    @pytest.mark.parametrize("half", [0, 1])
    def test_failed_helper_half_formatted_by_caller(self, monkeypatch, tmp_path, traj, half, how):
        # a helper that exits 1 partway, or is killed: the caller formats
        # that half itself, and only that one
        self.set_cpus(monkeypatch, 2, tmp_path / "affinity.log")
        calls = self.caller_rows(monkeypatch, fail=(half, how))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == self.expected(traj)
        rows = len(traj.states)
        assert calls == [[(0, rows // 2), (rows // 2, rows)][half]]
        self.assert_no_child_left()

    @pytest.mark.parametrize("failure", ["no directory", "device full", "interrupt"])
    def test_helpers_reaped_on_failure(self, monkeypatch, tmp_path, traj, temporary_files, failure):
        self.set_cpus(monkeypatch, 2, tmp_path / "affinity.log")
        path = tmp_path / "missing" / "traj.csv"
        error = OSError
        if failure == "device full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            path = "/dev/full"
        elif failure == "interrupt":  # Ctrl-C while the caller waits for the first helper
            path, error = tmp_path / "traj.csv", KeyboardInterrupt
            waits, wait = [], os.waitpid

            def interrupted(pid, options):
                waits.append(pid)
                if len(waits) == 1:
                    raise KeyboardInterrupt
                return wait(pid, options)

            monkeypatch.setattr(os, "waitpid", interrupted)
        with pytest.raises(error):
            write_trajectory_csv(traj, path)
        self.assert_no_child_left()
        assert len(temporary_files) == 2 and all(f.closed for f in temporary_files)
        assert not os.listdir(tempfile.tempdir)

    def test_helpers_reaped_by_the_system(self, monkeypatch, tmp_path, traj):
        # with SIGCHLD ignored the kernel reaps the helpers, and waitpid
        # finds none left: the caller formats both halves, and never
        # signals a pid the system reaped
        self.set_cpus(monkeypatch, 2, tmp_path / "affinity.log")
        calls = self.caller_rows(monkeypatch)
        kills = self.record_kills(monkeypatch)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            write_trajectory_csv(traj, tmp_path / "traj.csv")
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert (tmp_path / "traj.csv").read_bytes() == self.expected(traj)
        rows = len(traj.states)
        assert calls == [(0, rows // 2), (rows // 2, rows)] and kills == []

    def test_no_signal_to_helpers_the_system_reaped(self, monkeypatch, tmp_path, traj):
        # with SIGCHLD ignored, helpers that are done are reaped by the
        # system; a caller that fails after that signals none of them, as
        # their pids may be reused
        self.set_cpus(monkeypatch, 2, tmp_path / "affinity.log")
        kills = self.record_kills(monkeypatch)
        path = tmp_path / "missing" / "traj.csv"

        def late_open(file, *args, **kwargs):
            if file == path:
                time.sleep(2)  # the helpers are done and gone by now
            return open(file, *args, **kwargs)

        monkeypatch.setattr(dynamics, "open", late_open, raising=False)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            with pytest.raises(FileNotFoundError):
                write_trajectory_csv(traj, path)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert kills == []

    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="one usable CPU"
    )
    @pytest.mark.parametrize("fails", [False, True])
    def test_real_affinity_restored(self, monkeypatch, tmp_path, traj, fails):
        # on the real CPU set: helpers write every row, and the caller's
        # CPU set after the write, successful or not, is the one before it
        before = os.sched_getaffinity(0)
        calls = self.caller_rows(monkeypatch)
        path = tmp_path / ("missing/traj.csv" if fails else "traj.csv")
        try:
            write_trajectory_csv(traj, path)
        except FileNotFoundError:
            assert fails
        else:
            assert path.read_bytes() == self.expected(traj)
            assert calls == []
        assert os.sched_getaffinity(0) == before
        self.assert_no_child_left()

    def test_affinity_changed_during_write_is_kept(self, monkeypatch, tmp_path, traj):
        # a CPU set given to the caller while it waits (as by taskset -p)
        # is the only affinity change the caller sees
        log = tmp_path / "affinity.log"
        self.set_cpus(monkeypatch, 4, log)
        wait = os.waitpid

        def moved(pid, options):
            os.sched_setaffinity(0, {2, 3})
            return wait(pid, options)

        monkeypatch.setattr(os, "waitpid", moved)
        write_trajectory_csv(traj, tmp_path / "traj.csv")
        caller = [cpus for pid, cpus in (line.split(" ", 1) for line in log.read_text().splitlines())
                  if pid == str(os.getpid())]
        assert caller == ["[2, 3]", "[2, 3]"]
        assert (tmp_path / "traj.csv").read_bytes() == self.expected(traj)
        self.assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_working_memory(self, monkeypatch, tmp_path, p2, cpus):
        # tracemalloc's peak in the caller while it writes 64 chunks: it
        # holds one row of floats and text, or one piece of a helper's
        # file, at a time, under two chunks of CSV text; the times of all
        # rows as floats (0.5 MB here) do not fit
        self.set_cpus(monkeypatch, cpus, tmp_path / "affinity.log")
        monkeypatch.setattr(dynamics, "CSV_CHUNK_VALUES", 7 * 2**8)
        rows = 64 * 2**8
        states = np.random.default_rng(3).standard_normal((rows, 6))
        traj = Trajectory(states, p2, adaptive_cfg(2, dt=0.1, t_final=0.1 * (rows - 1)))
        path = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size / 64


#: (n, extra edge probability, dt, steps) of the benchmark's workloads
#: small-long, mid-wide and large-cert.
WORKLOAD_SHAPES = {
    "small-long": (10, 0.3, 0.016, 2500),
    "mid-wide": (120, 0.05, 0.001, 500),
    "large-cert": (200, 0.05, 0.001, 100),
}


class TestParallelCsvReader:
    """The reader's two halves: the caller parses the first half of the
    body while one forked helper parses the second and pipes its rows back;
    any doubt sends the body to the line scan."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        # a reader that deadlocks ends the run with a traceback, not a hang
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    @pytest.fixture
    def halves(self, monkeypatch):
        """For each call of ``_read_body``, the pair (forked, accepted):
        whether it forked a helper, and whether it read the body rather
        than leave it to the line scan. The halves read a body where both
        hold."""
        results, forks = [], []
        read, fork = dynamics._read_body, dynamics._fork_helper

        def forking(*args):
            forks.append(args)
            return fork(*args)

        def recording(*args):
            forks.clear()
            states = read(*args)
            results.append((bool(forks), states is not None))
            return states

        monkeypatch.setattr(dynamics, "_fork_helper", forking)
        monkeypatch.setattr(dynamics, "_read_body", recording)
        return results

    @staticmethod
    def read_both(usable_cpus, path, g, cfg):
        """The states read with one usable CPU and with two, as bytes, or
        the message of the ``ScenarioError`` raised."""
        out = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            try:
                out.append(read_trajectory_csv(path, g, cfg).states.tobytes())
            except ScenarioError as exc:
                out.append(str(exc))
        return out

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        n=st.integers(2, 4),
        rows=st.integers(2, 40),
        dt=st.sampled_from([0.1, 0.001, 1e-4, 0.3]),
    )
    def test_paths_bit_identical_on_random_grids(self, tmp_path_factory, usable_cpus, halves, data, n, rows, dt):
        # any floats, inf, nan, -0.0 and subnormals included, in rows of
        # any chunk size below the grid: both paths give the same bits, and
        # the halves read every such body with a line start at or after its
        # byte midpoint
        values = data.draw(st.lists(st.floats(), min_size=rows * 3 * n, max_size=rows * 3 * n))
        states = np.array(values).reshape(rows, 3 * n)
        per_chunk = data.draw(st.integers(1, rows - 1))
        cfg = adaptive_cfg(n, dt=dt, t_final=dt * (rows - 1))
        if round(cfg.t_final / dt) != rows - 1:
            return
        g = path_graph(n)
        path = tmp_path_factory.getbasetemp() / "random.csv"
        usable_cpus(1, chunk_values=per_chunk * (1 + 3 * n))
        write_trajectory_csv(Trajectory(states, g, cfg), path)
        halves.clear()
        one, two = self.read_both(usable_cpus, path, g, cfg)
        assert isinstance(one, bytes) and one == two
        body = path.read_bytes().split(b"\n", 1)[1]
        split = body[:-1].rfind(b"\n") + 1 >= len(body) // 2  # the last line starts there
        assert halves == [(False, True), (split, True)]  # one CPU, then two
        self.assert_no_child_left()

    @pytest.mark.parametrize(
        "workload, pieces, last_end",
        [pytest.param(w, "as written", "\n", id=w) for w in sorted(WORKLOAD_SHAPES)]
        + [
            pytest.param(w, p, end, id=f"{w}-{p}-{'with' if end else 'no'} last line end")
            for w in sorted(WORKLOAD_SHAPES)
            for p in ("end at a row end", "end a byte short", "one row long")
            for end in ("\n", "")
        ],
    )
    def test_paths_bit_identical_on_workload_shaped_runs(self, tmp_path, usable_cpus, halves, workload, pieces, last_end):
        # the body as written; and with its rows padded to one odd length L,
        # a last row of exactly CSV_FIELD_CHARS characters a field, with or
        # without its line end, and a chunk size whose pieces of 2
        # CSV_CHUNK_VALUES bytes end exactly at a row end (4 L bytes) or one
        # byte short of one (3 L - 1), or take one longest row and its line
        # end (one value a chunk): one CPU and two read the bits the line
        # scan reads, and neither leaves the body to it
        n, p, dt, steps = WORKLOAD_SHAPES[workload]
        rng = np.random.default_rng(1)
        g = random_connected_graph(n, rng, extra_edge_prob=p)
        cfg = adaptive_cfg(n, dt=dt, t_final=dt * steps, x0=rng.uniform(-1.0, 1.0, n))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(simulate(g, cfg, rng.uniform(-1.0, 1.0, n)), path)
        if pieces != "as written":
            width = 1 + 3 * n
            size = 25 * width  # L: a row of reprs of 24 characters or fewer, padded, and its line end
            longest = dynamics.CSV_FIELD_CHARS * width
            header, *rows = path.read_text().splitlines()
            rows = [row.rjust(size - 1) for row in rows[:-1]] + [rows[-1].rjust(longest)]
            path.write_text("\n".join([header, *rows]) + last_end)
            chunk_values = {"end at a row end": 2 * size, "end a byte short": (3 * size - 1) // 2, "one row long": 1}
            usable_cpus(1, chunk_values=chunk_values[pieces])
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            expected = dynamics._scan_csv_rows(fh, 1 + 3 * n, steps + 2)[:, 1:].tobytes()
        one, two = self.read_both(usable_cpus, path, g, cfg)
        assert one == two == expected
        assert halves == [(False, True), (True, True)]
        self.assert_no_child_left()

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=csv_rows(t_column=True))
    def test_fuzzed_rows_same_with_one_cpu_and_two(self, tmp_path_factory, usable_cpus, rows):
        # the rows of test_c_parse_reads_what_the_line_scan_reads, at one
        # row a chunk: the same message or the same bits either way
        path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
        path.write_bytes((P2_HEADER + "".join(rows)).encode())
        cfg = adaptive_cfg(2, dt=0.1, t_final=0.1 * (len(rows) - 1))
        with mock.patch.object(dynamics, "CSV_CHUNK_VALUES", 7):
            one, two = self.read_both(usable_cpus, path, path_graph(2), cfg)
        assert one == two
        self.assert_no_child_left()

    @pytest.fixture
    def long_csv(self, p2, tmp_path):
        """A valid 2001-row p2 trajectory CSV and its config."""
        cfg = adaptive_cfg(2, dt=0.01, t_final=20.0, x0=[1.0, -1.0])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(simulate(p2, cfg, np.array([1.0, 0.0])), path)
        return path, cfg

    def test_rows_repeated_at_the_split_rejected(self, tmp_path, usable_cpus, halves, p2):
        # rows of one length, t = 0..59 then t = 40..99, against a grid of
        # 100 rows: the split falls between the two runs, and each half's
        # times fit the grid (rows 0..59, and 40..99 counted from the end),
        # but their counts add up to 120, so the halves reject the body, as
        # the one-process parse does, and the line scan names it
        cfg = adaptive_cfg(2, dt=1.0, t_final=99.0)
        rows = [f"{k:05d}.0,0.0,0.0,0.0,0.0,0.0,{k:05d}.0\n" for k in [*range(60), *range(40, 100)]]
        path = tmp_path / "traj.csv"
        path.write_text("t,x_0,x_1,xhat_0,xhat_1,what_0,what_1\n" + "".join(rows))
        outcomes = []
        for cpus in (1, 2):
            usable_cpus(cpus, chunk_values=7 * 10)
            with pytest.raises(ScenarioError) as exc:
                read_trajectory_csv(path, p2, cfg)
            outcomes.append(str(exc.value))
        assert outcomes[0] == outcomes[1] and "(more than 100 samples" in outcomes[0]
        assert halves == [(False, False), (True, False)]
        self.assert_no_child_left()

    @pytest.mark.parametrize("how", ["exit", "kill", "raise"])
    def test_failed_helper_falls_back(self, monkeypatch, usable_cpus, halves, p2, long_csv, how):
        # a helper that exits 1, is killed or raises once it has parsed its
        # half: the body is read again by the line scan, with the same bits
        path, cfg = long_csv
        usable_cpus(1)
        expected = read_trajectory_csv(path, p2, cfg).states.tobytes()
        caller, chunks = os.getpid(), dynamics._span_chunks

        def failing(*args):
            yield from chunks(*args)
            if os.getpid() != caller:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif how == "exit":
                    os._exit(1)
                raise ValueError("helper failed")

        monkeypatch.setattr(dynamics, "_span_chunks", failing)
        usable_cpus(2)
        halves.clear()
        assert read_trajectory_csv(path, p2, cfg).states.tobytes() == expected
        assert halves == [(True, False)]  # the helper's failure is seen
        self.assert_no_child_left()

    def test_helper_killed_when_the_callers_half_fails(self, monkeypatch, usable_cpus, p2, long_csv):
        # a field numpy rejects in the first row ends the caller's half at
        # once: the helper, still parsing, is killed and reaped, and the
        # line scan reads the field
        path, cfg = long_csv
        text = path.read_text()
        header, first, rest = text.split("\n", 2)
        path.write_text("\n".join([header, "0" + first.replace("1.0", "1_0", 1), rest]))
        caller, chunks = os.getpid(), dynamics._span_chunks

        def slow(*args):  # the helper is slow to start
            if os.getpid() != caller:
                time.sleep(2)
            yield from chunks(*args)

        monkeypatch.setattr(dynamics, "_span_chunks", slow)
        kills, kill = [], os.kill
        monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append(pid) or kill(pid, sig))
        usable_cpus(2)
        back = read_trajectory_csv(path, p2, cfg)
        assert back.states[0, 0] == 10.0 and len(kills) == 1
        self.assert_no_child_left()

    def test_interrupt_kills_and_reaps_the_helper(self, monkeypatch, usable_cpus, p2, long_csv):
        path, cfg = long_csv
        caller, check = os.getpid(), dynamics._check_grid

        def interrupted(data, row, samples, dt):
            if os.getpid() == caller and row > 0:
                raise KeyboardInterrupt
            check(data, row, samples, dt)

        monkeypatch.setattr(dynamics, "_check_grid", interrupted)
        usable_cpus(2, chunk_values=7 * 100)
        with pytest.raises(KeyboardInterrupt):
            read_trajectory_csv(path, p2, cfg)
        self.assert_no_child_left()

    def test_body_under_the_threshold_read_by_one_process(self, monkeypatch, usable_cpus, halves, p2, long_csv):
        # a body of CSV_PARALLEL_BYTES or more takes the halves; one byte
        # less stays in one process
        path, cfg = long_csv
        body = len(path.read_bytes().split(b"\n", 1)[1])
        usable_cpus(2)
        for threshold in (body, body + 1):
            monkeypatch.setattr(dynamics, "CSV_PARALLEL_BYTES", threshold)
            read_trajectory_csv(path, p2, cfg)
        assert halves == [(True, True), (False, True)]

    def test_state_columns_only(self, usable_cpus, halves, p2, long_csv):
        # with two CPUs and with one, the read returns the 3n state columns
        # in an array of their own, which does not keep the time column
        path, cfg = long_csv
        for cpus in (2, 1):
            usable_cpus(cpus)
            states = read_trajectory_csv(path, p2, cfg).states
            assert states.base is None and states.flags.c_contiguous and states.shape == (2001, 6)
        assert halves == [(True, True), (False, True)]

    @pytest.mark.parametrize(
        "cpu_max, cpus, expected",
        [
            (None, 4, [0, 1, 2, 3]),  # no file: no quota
            ("max 100000\n", 4, [0, 1, 2, 3]),
            ("200000 100000\n", 4, [0, 1, 2, 3]),
            ("150000 100000\n", 4, [0, 1, 2, 3]),  # 1.5 CPUs, rounded up to 2
            ("100000 100000\n", 4, []),
            ("50000 100000\n", 4, []),
            ("garbage\n", 4, [0, 1, 2, 3]),  # unreadable: no quota
            ("100000 0\n", 4, [0, 1, 2, 3]),
            ("max 100000\n", 1, []),
        ],
    )
    def test_usable_cpus_capped_by_cgroup_quota(self, monkeypatch, tmp_path, cpu_max, cpus, expected):
        path = tmp_path / "cpu.max"
        if cpu_max is not None:
            path.write_text(cpu_max)
        monkeypatch.setattr(dynamics, "CPU_MAX_PATH", str(path))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert dynamics._usable_cpus() == expected

    def test_no_fork_under_a_one_cpu_quota(self, monkeypatch, tmp_path, usable_cpus, p2, long_csv):
        # with 4 CPUs in the mask and a quota of one, neither the writer
        # nor the reader forks, and both give the same bytes and bits
        path, cfg = long_csv
        usable_cpus(4)
        (tmp_path / "cpu.max").write_text("100000 100000\n")
        monkeypatch.setattr(dynamics, "CPU_MAX_PATH", str(tmp_path / "cpu.max"))
        forks = []
        monkeypatch.setattr(dynamics, "_fork_helper", lambda *args: forks.append(args))
        traj = read_trajectory_csv(path, p2, cfg)
        write_trajectory_csv(traj, tmp_path / "again.csv")
        assert forks == [] and (tmp_path / "again.csv").read_bytes() == path.read_bytes()
