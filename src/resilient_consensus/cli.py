"""Command-line front-end.

Subcommands:
    simulate  run a scenario, write the trajectory CSV, print the run report
    verify    spectral stability certificate for a graph and gain
    sweep     repeat a scenario over a list of gains, write a summary CSV
    analyze   recompute the run report from a stored trajectory CSV

Exit codes: 0 success, 1 input error (including a command-line usage
error), 2 verification failure, 3 numerical failure. All output is
deterministic for identical inputs.

The argument parser is built once per process and reused by every
``main`` call: parsing reads it and never changes it, and each call gets a
fresh namespace, so in-process callers pay its construction once.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from dataclasses import replace

from .dynamics import (
    ADAPTIVE,
    read_trajectory_csv,
    simulate,
    write_trajectory_csv,
)
from .errors import (
    ConsensusToolkitError,
    DisconnectedGraphError,
    NumericalBlowupError,
)
from .graph import is_connected, load_edge_list
from .scenario import (
    build_run_report,
    dump_report,
    parse_scenario,
    read_scenario,
    stability_report_dict,
)
from .stability import verify_theorem

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


def _load_graph(path):
    if path is None:
        raise ConsensusToolkitError("no graph file given (use --graph or the scenario's graph:)")
    g = load_edge_list(path)
    if not is_connected(g):
        raise DisconnectedGraphError("graph not connected")
    return g


def _load_inputs(args):
    """Graph and scenario; --graph overrides the scenario's graph: field."""
    raw = read_scenario(args.scenario)
    g = _load_graph(args.graph or raw.get("graph"))
    return g, parse_scenario(raw, g)


def _overrides(args) -> dict:
    """The --dt/--t-final values given on the command line, as config fields."""
    return {k: v for k, v in (("dt", args.dt), ("t_final", args.t_final)) if v is not None}


def _check_out(path: str) -> None:
    """Raise the ``OSError`` that opening the --out path for writing would
    raise where it is a directory, its directory is missing (or is not
    one) or is not writable, or it is a file that is not writable. Called
    before the first integration, so that such a path fails at once;
    nothing is created, and the file is opened only once the run has
    succeeded, so a run that fails later leaves none."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _print_report(report: dict, title: str) -> None:
    print(f"# {title}")
    sys.stdout.write(dump_report(report))


def cmd_simulate(args) -> int:
    g, sc = _load_inputs(args)
    _check_out(args.out)
    traj = simulate(g, replace(sc.config, **_overrides(args)), sc.w)
    report = build_run_report(traj, sc.w)  # first: a non-finite report leaves no CSV
    write_trajectory_csv(traj, args.out)
    if sc.x_hat0_overridden:
        report["x_hat0_overridden"] = True
    _print_report(report, f"run report ({args.scenario})")
    print(f"trajectory written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    report = verify_theorem(g, args.alpha)
    _print_report(stability_report_dict(report), f"stability report (alpha={args.alpha})")
    if not report.theorem_verdict:
        # an abscissa in (-tol, 0) is stable, but too close to 0 to certify
        if report.spectral_abscissa < 0:
            print(f"VERDICT: not certified at tol={report.tol:g}", file=sys.stderr)
        else:
            print("VERDICT: unstable (theorem contradiction)", file=sys.stderr)
        return EXIT_VERIFY
    print("VERDICT: exponentially stable")
    return EXIT_OK


def cmd_sweep(args) -> int:
    alphas = sorted({float(a) for a in args.alpha})
    if not alphas:
        raise ConsensusToolkitError("empty alpha list")
    g, sc = _load_inputs(args)
    if sc.config.protocol != ADAPTIVE:
        raise ConsensusToolkitError("sweep requires an adaptive scenario")
    _check_out(args.out)
    rows = []
    for alpha in alphas:
        traj = simulate(g, replace(sc.config, alpha=alpha, **_overrides(args)), sc.w)
        report = build_run_report(traj, sc.w)
        rows.append(
            (
                alpha,
                report["sup_xtilde"],
                report["perturbation_bound"],
                report["centroid_drift"],
                report["decay_rate_fit"],
            )
        )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha,sup_xtilde,bound,centroid_drift,decay_rate\n")
        for row in rows:
            fh.write(",".join("" if v is None else repr(float(v)) for v in row) + "\n")
    print(f"sweep written to {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    g, sc = _load_inputs(args)
    traj = read_trajectory_csv(args.trajectory, g, sc.config)
    report = build_run_report(traj, sc.w)
    if sc.x_hat0_overridden:
        report["x_hat0_overridden"] = True
    _print_report(report, f"run report ({args.trajectory})")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported as input errors (exit 1), not
    argparse's own exit 2, which here means a verification failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="resilient-consensus",
        description="Simulate and verify resilient consensus under constant disturbances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and write the trajectory")
    p_sim.add_argument("--graph", required=False, help="edge-list file")
    p_sim.add_argument("--scenario", required=True, help="scenario YAML")
    p_sim.add_argument("--out", required=True, help="trajectory CSV output path")
    p_sim.add_argument("--dt", type=float, default=None)
    p_sim.add_argument("--t-final", type=float, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="spectral stability certificate")
    p_ver.add_argument("--graph", required=True, help="edge-list file")
    p_ver.add_argument("--alpha", type=float, required=True)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="repeat a scenario over a gain list")
    p_sw.add_argument("--graph", required=False, help="edge-list file")
    p_sw.add_argument("--scenario", required=True, help="scenario YAML")
    p_sw.add_argument("--alpha", type=float, nargs="*", required=True)
    p_sw.add_argument("--out", required=True, help="sweep CSV output path")
    p_sw.add_argument("--dt", type=float, default=None)
    p_sw.add_argument("--t-final", type=float, default=None)
    p_sw.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="recompute the report from a stored CSV")
    p_an.add_argument("--trajectory", required=True, help="trajectory CSV")
    p_an.add_argument("--graph", required=False, help="edge-list file")
    p_an.add_argument("--scenario", required=True, help="scenario YAML")
    p_an.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalBlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConsensusToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
