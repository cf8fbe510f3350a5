"""Traced replay of the four CLI commands, layer by layer.

Each replay calls the same public functions, in the same order, as the
command in ``resilient_consensus.cli`` and the functions it relies on
(``verify_theorem``, ``build_m``, ``build_run_report``), and wraps every
call into a layer in a span. Spans live in memory and are written out when
the run ends. A span's layer is the part of its name before the first dot.

The replay copies the stages of those functions, so a change to them can
make it drift: ``cli.<command>.unattributed_s`` (untraced command time
minus the replay's top-level spans) and ``cli.replay_mismatches`` (replay
output differing from the command's output) show when it does.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from resilient_consensus.dynamics import (
    ADAPTIVE,
    consensus_error,
    error_series,
    read_trajectory_csv,
    simulate,
    write_trajectory_csv,
)
from resilient_consensus.errors import DisconnectedGraphError, ScenarioError
from resilient_consensus.graph import (
    adjacency_matrix,
    degree_matrix,
    is_connected,
    laplacian,
    laplacian_spectrum,
    load_edge_list,
)
from resilient_consensus.scenario import dump_report, load_scenario, stability_report_dict
from resilient_consensus.spectral import eigenvalues, quadratic_inertia, spectrum_matching_distance
from resilient_consensus.stability import (
    DEFAULT_SPECTRAL_TOL,
    AugmentedSystem,
    StabilityReport,
    build_transform,
    centroid_analysis,
    check_energy_decay,
    check_perturbation_bound,
    error_block,
    fit_decay_rate,
)

LAYERS = ("cli", "graph", "spectral", "dynamics", "stability", "scenario")


class Tracer:
    """In-memory spans: name, start, end, parent span, command id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.command: str | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "command": self.command,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# -- replays ---------------------------------------------------------------


def _load_graph(tr: Tracer, path):
    with tr.span("graph.parse"):
        g = load_edge_list(path)
    with tr.span("graph.connected"):
        if not is_connected(g):
            raise DisconnectedGraphError("graph not connected")
    return g


def _build_m(tr: Tracer, g, alpha: float) -> AugmentedSystem:
    with tr.span("stability.build_m"):
        with tr.span("graph.connected"):
            is_connected(g)
        n = g.n
        tf = build_transform(n)
        with tr.span("graph.laplacian"):
            lap = laplacian(g)
        a1 = (-tf.t_matrix @ lap @ tf.t_inverse)[: n - 1, : n - 1]
        with tr.span("graph.adjacency"):
            adj = adjacency_matrix(g)
        a2 = (tf.t_matrix @ adj)[: n - 1, :]
        with tr.span("graph.degree_matrix"):
            deg = degree_matrix(g)
        dim = 3 * n - 1
        m = np.zeros((dim, dim))
        m[: n - 1, : n - 1] = a1
        m[: n - 1, n - 1 : 2 * n - 1] = a2
        m[n - 1 : 2 * n - 1, n - 1 : 2 * n - 1] = -deg
        m[n - 1 : 2 * n - 1, 2 * n - 1 :] = -np.eye(n)
        m[2 * n - 1 :, n - 1 : 2 * n - 1] = alpha * np.eye(n)
        return AugmentedSystem(m_matrix=m, a1=a1, a2=a2, alpha=alpha)


def _verify_theorem(tr: Tracer, g, alpha: float, tol: float = DEFAULT_SPECTRAL_TOL):
    with tr.span("stability.verify_theorem"):
        with tr.span("graph.connected"):
            is_connected(g)
        aug = _build_m(tr, g, alpha)
        with tr.span("spectral.eig_m", dim=len(aug.m_matrix)):
            spec_m = eigenvalues(aug.m_matrix)
        with tr.span("spectral.eig_a1"):
            spec_a1 = eigenvalues(aug.a1).eigenvalues
        with tr.span("stability.error_block"):
            err = error_block(g, alpha)
        with tr.span("spectral.eig_error_block"):
            spec_err = eigenvalues(err).eigenvalues
        with tr.span("spectral.matching"):
            residual = spectrum_matching_distance(
                spec_m.eigenvalues, np.concatenate([spec_a1, spec_err])
            )
        n = g.n
        with tr.span("graph.degree_matrix"):
            deg = degree_matrix(g)
        with tr.span("spectral.quadratic_inertia"):
            predicted, observed = quadratic_inertia(np.eye(n), deg, alpha * np.eye(n))
        return StabilityReport(
            spectrum=spec_m,
            spectral_abscissa=spec_m.abscissa,
            theorem_verdict=bool(spec_m.abscissa < -tol),
            decomposition_residual=residual,
            quadratic_inertia_predicted=predicted,
            quadratic_inertia_observed=observed,
            tol=tol,
        )


def _run_report(tr: Tracer, traj, w) -> dict:
    with tr.span("scenario.report"):
        cfg, g = traj.config, traj.graph
        report = {
            "protocol": cfg.protocol,
            "n": g.n,
            "dt": cfg.dt,
            "t_final": float(traj.times[-1]),
            "consensus_error_final": consensus_error(traj.x[-1]),
            "final_agreement": float(np.mean(traj.x[-1])),
        }
        with tr.span("dynamics.error_series"):
            _, w_t = error_series(traj, w)
        report["what_error_inf_final"] = float(np.max(np.abs(w_t[-1])))
        if cfg.protocol != ADAPTIVE:
            return report
        alpha = cfg.alpha
        with tr.span("stability.bound"):
            sup, bound, assumption_ok = check_perturbation_bound(traj, w, alpha)
        with tr.span("stability.energy"):
            max_inc, _ = check_energy_decay(traj, w, alpha)
        with tr.span("stability.centroid"):
            cen = centroid_analysis(traj, w)
        stab = _verify_theorem(tr, g, alpha)
        with tr.span("stability.decay_fit"):
            try:
                rate = fit_decay_rate(traj, w)
            except ScenarioError:
                rate = None
        report.update(
            {
                "alpha": alpha,
                "sup_xtilde": sup,
                "perturbation_bound": bound,
                "perturbation_bound_holds": bool(sup <= bound + 1e-9),
                "perturbation_assumption_ok": assumption_ok,
                "energy_max_increase": max_inc,
                "energy_nonincreasing": bool(max_inc <= 1e-9),
                "centroid_drift": cen.tail_drift,
                "centroid_agreement_gap": cen.final_agreement_gap,
                "decay_rate_fit": rate,
                "spectral_abscissa": stab.spectral_abscissa,
                "stability_verdict": stab.theorem_verdict,
            }
        )
        return report


def _dump(tr: Tracer, report: dict, overridden: bool = False) -> str:
    with tr.span("scenario.dump"):
        if overridden:
            report["x_hat0_overridden"] = True
        return dump_report(report)


def _simulate(tr: Tracer, g, cfg, w):
    steps = int(round(cfg.t_final / cfg.dt))
    with tr.span("dynamics.simulate", steps=steps):
        return simulate(g, cfg, w)


def replay_verify(tr: Tracer, graph, alpha: float) -> str:
    g = _load_graph(tr, graph)
    rep = _verify_theorem(tr, g, alpha)
    with tr.span("scenario.dump"):
        return dump_report(stability_report_dict(rep))


def replay_simulate(tr: Tracer, graph, scenario, out) -> str:
    g = _load_graph(tr, graph)
    with tr.span("scenario.load"):
        sc = load_scenario(scenario, g)
    traj = _simulate(tr, g, sc.config, sc.w)
    with tr.span("dynamics.csv_write") as rec:
        write_trajectory_csv(traj, out)
    rec["bytes"] = out.stat().st_size
    return _dump(tr, _run_report(tr, traj, sc.w), sc.x_hat0_overridden)


def replay_analyze(tr: Tracer, graph, scenario, trajectory) -> str:
    g = _load_graph(tr, graph)
    with tr.span("scenario.load"):
        sc = load_scenario(scenario, g)
    with tr.span("dynamics.csv_read", bytes=trajectory.stat().st_size):
        traj = read_trajectory_csv(trajectory, g, sc.config)
    return _dump(tr, _run_report(tr, traj, sc.w), sc.x_hat0_overridden)


def replay_sweep(tr: Tracer, graph, scenario, alphas, out) -> str:
    alphas = sorted({float(a) for a in alphas})
    g = _load_graph(tr, graph)
    with tr.span("scenario.load"):
        sc = load_scenario(scenario, g)
    rows = []
    for alpha in alphas:
        traj = _simulate(tr, g, replace(sc.config, alpha=alpha), sc.w)
        report = _run_report(tr, traj, sc.w)
        rows.append(
            (
                alpha,
                report["sup_xtilde"],
                report["perturbation_bound"],
                report["centroid_drift"],
                report["decay_rate_fit"],
            )
        )
    with tr.span("cli.write_sweep_csv"):
        text = "alpha,sup_xtilde,bound,centroid_drift,decay_rate\n" + "".join(
            ",".join("" if v is None else repr(float(v)) for v in row) + "\n" for row in rows
        )
        out.write_text(text, encoding="utf-8")
    return text


def probe_spectrum(tr: Tracer, graph) -> None:
    """Time ``laplacian_spectrum`` on the workload graph. The commands do
    not call it here, because the scenarios fix ``t_final``; a scenario
    without it pays this cost on every command."""
    g = load_edge_list(graph)
    with tr.span("graph.spectrum"):
        laplacian_spectrum(g)


# -- per-layer metrics -------------------------------------------------------


def _dur(rec) -> float:
    return rec["end"] - rec["start"]


def layer_metrics(spans: list[dict], untraced: dict, n: int, edges: int, mismatches: int) -> dict:
    """Per-layer figures from the spans of a traced run.

    Timings of a named stage are medians over its calls; ``cli.<command>_s``
    is the untraced command time of the same run. ``<layer>.self_s``
    is the per-cycle total of the layer's self time (span duration minus
    the part its children cover), median over cycles. ``untraced`` maps
    each command id to the untraced wall time of the same command.
    """
    by_name: dict[str, list[dict]] = {}
    child_time = [0.0] * len(spans)
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)
        if rec["parent"] is not None:
            child_time[rec["parent"]] += _dur(rec)

    def med(name):
        return statistics.median(_dur(r) for r in by_name[name])

    out = {
        "graph.parse_s": med("graph.parse"),
        "graph.laplacian_s": med("graph.laplacian"),
        "graph.spectrum_s": med("graph.spectrum"),
        "graph.n": n,
        "graph.edges": edges,
        "spectral.eig_m_s": med("spectral.eig_m"),
        "spectral.eig_m_dim": by_name["spectral.eig_m"][0]["dim"],
        "spectral.eig_a1_s": med("spectral.eig_a1"),
        "spectral.eig_error_block_s": med("spectral.eig_error_block"),
        "spectral.quadratic_inertia_s": med("spectral.quadratic_inertia"),
        "spectral.matching_s": med("spectral.matching"),
        "dynamics.simulate_s": med("dynamics.simulate"),
        "dynamics.steps": by_name["dynamics.simulate"][0]["steps"],
        "dynamics.csv_write_s": med("dynamics.csv_write"),
        "dynamics.csv_read_s": med("dynamics.csv_read"),
        "dynamics.csv_bytes": by_name["dynamics.csv_write"][0]["bytes"],
        "stability.build_m_s": med("stability.build_m"),
        "stability.verify_theorem_s": med("stability.verify_theorem"),
        "stability.energy_s": med("stability.energy"),
        "stability.bound_s": med("stability.bound"),
        "stability.centroid_s": med("stability.centroid"),
        "stability.decay_fit_s": med("stability.decay_fit"),
        "scenario.load_s": med("scenario.load"),
        "scenario.report_s": med("scenario.report"),
        "scenario.dump_s": med("scenario.dump"),
    }
    out["dynamics.step_us"] = out["dynamics.simulate_s"] / out["dynamics.steps"] * 1e6
    out["dynamics.csv_write_mb_s"] = out["dynamics.csv_bytes"] / 1e6 / out["dynamics.csv_write_s"]
    out["dynamics.csv_read_mb_s"] = out["dynamics.csv_bytes"] / 1e6 / out["dynamics.csv_read_s"]

    # Self time per layer and cycle; the command id is "<cycle>:<command>".
    self_time: dict[str, dict[str, float]] = {}
    for rec in spans:
        if rec["command"] == "probe":
            continue
        cycle = rec["command"].split(":")[0]
        layer = rec["name"].split(".")[0]
        per_cycle = self_time.setdefault(layer, {})
        per_cycle[cycle] = per_cycle.get(cycle, 0.0) + _dur(rec) - child_time[rec["id"]]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = statistics.median(self_time[layer].values())

    roots = [r for r in spans if r["parent"] is None and r["name"].startswith("cli.")]
    for cmd in ("verify", "simulate", "analyze", "sweep"):
        mine = [r for r in roots if r["name"] == f"cli.{cmd}"]
        top = {r["id"]: 0.0 for r in mine}
        for rec in spans:
            if rec["parent"] in top:
                top[rec["parent"]] += _dur(rec)
        out[f"cli.{cmd}_s"] = statistics.median(untraced[r["command"]] for r in mine)
        out[f"cli.{cmd}.unattributed_s"] = statistics.median(
            untraced[r["command"]] - top[r["id"]] for r in mine
        )
        out[f"cli.{cmd}.trace_overhead_s"] = statistics.median(
            _dur(r) - untraced[r["command"]] for r in mine
        )
    out["cli.replay_mismatches"] = mismatches
    return out
