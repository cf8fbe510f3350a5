"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria are property- and oracle-based at desk scale (n up to 12). The
adaptive benchmark runs (path, cycle, complete graphs, n in 3..8, all
agents disturbed) are shared across the trajectory criteria via a
module-scoped fixture.
"""

import time

import numpy as np
import pytest

from resilient_consensus import (
    ADAPTIVE,
    Inertia,
    NOMINAL,
    SimConfig,
    centroid_analysis,
    check_energy_decay,
    check_perturbation_bound,
    complete_graph,
    consensus_error,
    cycle_graph,
    degree_matrix,
    fit_decay_rate,
    laplacian_spectrum,
    quadratic_inertia,
    path_graph,
    random_connected_graph,
    simulate,
    verify_theorem,
)

from reference import block_triangular_det_check

GRID_SEED = 12345
RUN_SEED = 67890
ALPHA_GRID = (0.1, 1.0, 10.0)


def report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} — {name}")
    assert ok, name


def grid_graphs():
    """100 seeded random connected graphs, n in [2, 12]."""
    rng = np.random.default_rng(GRID_SEED)
    return [random_connected_graph(int(rng.integers(2, 13)), rng) for _ in range(100)]


def benchmark_graphs():
    out = []
    for n in range(3, 9):
        out.append(("path", path_graph(n)))
        out.append(("cycle", cycle_graph(n)))
        out.append(("complete", complete_graph(n)))
    return out


@pytest.fixture(scope="module")
def adaptive_runs():
    """Adaptive recovery runs: all agents misbehaving, alpha = 1,
    horizon 40 / |spectral abscissa|."""
    rng = np.random.default_rng(RUN_SEED)
    runs = []
    for name, g in benchmark_graphs():
        n = g.n
        w = rng.uniform(-1.0, 1.0, n)
        w[np.abs(w) < 0.1] += 0.25  # keep every agent misbehaving
        x0 = rng.uniform(-1.0, 1.0, n)
        abscissa = verify_theorem(g, 1.0).spectral_abscissa
        cfg = SimConfig(
            protocol=ADAPTIVE,
            dt=0.01,
            t_final=40.0 / abs(abscissa),
            x0=x0,
            alpha=1.0,
        )
        runs.append((f"{name}{n}", g, w, simulate(g, cfg, w), abscissa))
    return runs


def test_criterion_1_theorem_verification():
    t0 = time.perf_counter()
    ok = True
    for g in grid_graphs():
        for alpha in ALPHA_GRID:
            rep = verify_theorem(g, alpha)
            ok = ok and rep.spectral_abscissa < -1e-8
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(f"1 theorem: abscissa(M) < -1e-8 on grid ({elapsed:.2f}s)", ok)


def test_criterion_2_block_triangular_determinant():
    rng = np.random.default_rng(GRID_SEED)
    ok = True
    for _ in range(200):
        p = int(rng.integers(1, 6))
        q = int(rng.integers(1, 6))
        a = rng.normal(size=(p, p))
        b = rng.normal(size=(p, q))
        d = rng.normal(size=(q, q))
        det_m, _, res = block_triangular_det_check(a, b, d)
        ok = ok and res <= 1e-8 * max(1.0, abs(det_m))
    report("2 det([[A,B],[0,D]]) = det(A)det(D), 200 assemblies", ok)


def test_criterion_3_quadratic_inertia():
    ok = True
    for g in grid_graphs():
        n = g.n
        for alpha in ALPHA_GRID:
            predicted, observed = quadratic_inertia(
                np.eye(n), degree_matrix(g), alpha * np.eye(n)
            )
            ok = ok and predicted == Inertia(0, 0, 2 * n) == observed
    report("3 inertia of l^2 I + l Delta + alpha I is (0, 0, 2n)", ok)


def test_criterion_4_spectrum_decomposition():
    ok = True
    for g in grid_graphs():
        for alpha in ALPHA_GRID:
            rep = verify_theorem(g, alpha)
            ok = ok and rep.decomposition_residual <= 1e-7
    report("4 spec(M) = spec(A1) U spec(error block), residual <= 1e-7", ok)


def test_criterion_5_undisturbed_consensus():
    rng = np.random.default_rng(RUN_SEED)
    ok = True
    for name, g in benchmark_graphs():
        n = g.n
        x0 = rng.uniform(-1.0, 1.0, n)
        t_final = 20.0 / laplacian_spectrum(g)[1]
        cfg = SimConfig(protocol=NOMINAL, dt=0.005, t_final=t_final, x0=x0)
        traj = simulate(g, cfg, np.zeros(n))
        ok = ok and consensus_error(traj.x[-1]) <= 1e-6
        ok = ok and abs(np.mean(traj.x[-1]) - np.mean(x0)) <= 1e-6
    report("5 undisturbed consensus to mean(x0) at T = 20/lambda_2", ok)


def test_criterion_6_resilient_recovery(adaptive_runs):
    ok = True
    for name, g, w, traj, _ in adaptive_runs:
        ok = ok and np.max(np.abs(traj.w_hat[-1] - w)) <= 1e-4
        ok = ok and consensus_error(traj.x[-1]) <= 1e-4
    report("6 adaptive recovery: estimate and consensus errors <= 1e-4", ok)


def test_criterion_7_energy_decay(adaptive_runs):
    ok = True
    for name, g, w, traj, _ in adaptive_runs:
        max_inc, _ = check_energy_decay(traj, w, 1.0)
        ok = ok and max_inc <= 1e-9
    # Richardson check on P2: the dE/dt residual is O(dt^2)
    g = path_graph(2)
    w = np.array([1.0, 0.0])

    def max_residual(dt):
        cfg = SimConfig(protocol=ADAPTIVE, dt=dt, t_final=10.0, x0=np.zeros(2), alpha=1.0)
        _, residual = check_energy_decay(simulate(g, cfg, w), w, 1.0)
        return np.max(residual)

    r1, r2 = max_residual(0.01), max_residual(0.005)
    ok = ok and r2 <= (r1 / 4.0) * 1.5
    report("7 energy nonincreasing; dE/dt residual O(dt^2)", ok)


def test_criterion_8_perturbation_bound():
    g = path_graph(2)
    w = np.array([1.0, 0.0])
    ok = True
    for alpha in (0.5, 1.0, 2.0, 4.0):
        cfg = SimConfig(
            protocol=ADAPTIVE, dt=0.001, t_final=40.0, x0=np.zeros(2), alpha=alpha
        )
        traj = simulate(g, cfg, w)
        sup, bound, assumption_ok = check_perturbation_bound(traj, w, alpha)
        ok = ok and assumption_ok and sup <= bound + 1e-9
    report("8 sup ||x_tilde|| <= ||w|| / sqrt(alpha) across alpha grid", ok)


def test_criterion_9_decay_rate_fit():
    ok = True
    for g in (path_graph(2), complete_graph(3)):
        w = np.full(g.n, 0.8)
        cfg = SimConfig(
            protocol=ADAPTIVE, dt=0.002, t_final=60.0, x0=np.zeros(g.n), alpha=1.0
        )
        traj = simulate(g, cfg, w)
        rate = fit_decay_rate(traj, w)
        abscissa = verify_theorem(g, 1.0).spectral_abscissa
        ok = ok and abs(rate - abscissa) <= 0.2 * abs(abscissa)
    report("9 fitted decay rate within 20% of spectral abscissa", ok)


def test_criterion_10_negative_control():
    g = path_graph(2)
    w = np.array([1.0, -1.0])
    cfg = SimConfig(protocol=NOMINAL, dt=0.005, t_final=20.0, x0=np.zeros(2))
    traj = simulate(g, cfg, w)
    late = traj.times >= 5.0
    errs = np.array([consensus_error(x) for x in traj.x[late]])
    report("10 nominal protocol keeps disagreement >= 0.9 for t >= 5", bool(np.all(errs >= 0.9)))


def test_criterion_11_centroid(adaptive_runs):
    ok = True
    for name, g, w, traj, _ in adaptive_runs:
        cen = centroid_analysis(traj, w)
        ok = ok and cen.tail_drift <= 1e-6
        ok = ok and cen.final_agreement_gap <= 1e-5
    report("11 centroid converges; agreement = lim c_hat / n", ok)
