"""Benchmark child process: runs one workload's commands back to back.

Started by ``run.py`` with the BLAS/OpenMP thread count pinned to 1. It
writes the workload inputs, computes the closed-form references, then runs
``verify``, ``simulate``, ``analyze`` and ``sweep`` through
``resilient_consensus.cli.main`` in a closed loop (one caller, each command
after the previous one returns) for at least ``--seconds`` seconds, after
one untimed warm-up cycle. Every fifth untraced cycle also times a fresh
interpreter running ``verify`` on ``demo/p2.txt`` (the set-up cost). Every
output is checked; a command that exits nonzero, raises, or fails a check
counts as failed. With ``--trace 1`` each command is followed by its
traced replay. The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import yaml  # noqa: E402

import checks  # noqa: E402
import replay as rp  # noqa: E402
import workloads  # noqa: E402
from resilient_consensus import cli  # noqa: E402

COMMANDS = ("verify", "simulate", "analyze", "sweep")
#: Cycles per set-up sample: a fresh interpreter takes about a second, so
#: timing one every cycle would leave little time for the commands.
SETUP_EVERY = 5
SETUP_ARGV = ["-m", "resilient_consensus.cli", "verify", "--graph", "demo/p2.txt", "--alpha", "1.0"]
#: Timed cycles made even when --seconds is already used up.
MIN_CYCLES = 3
#: A command faster than this is repeated and one sample is the mean per call.
MIN_SAMPLE_S = 0.1


class WorkloadRun:
    """Inputs, references and output checks of one workload in one directory."""

    def __init__(self, spec: workloads.Workload, seed: int, workdir: Path):
        self.inp = workloads.generate(spec, seed, workdir)
        self.spec = spec
        self.dir = workdir
        self.abscissa = workloads.closed_form_abscissa(self.inp, workloads.ALPHA)
        self.final_state = workloads.exact_final_state(self.inp, workloads.ALPHA)
        self.traj = workdir / "traj.csv"
        self.sweep_csv = workdir / "sweep.csv"
        g, sc = str(self.inp.graph_path), str(self.inp.scenario_path)
        alphas = [repr(a) for a in workloads.SWEEP_ALPHAS]
        self.argv = {
            "verify": ["verify", "--graph", g, "--alpha", repr(workloads.ALPHA)],
            "simulate": ["simulate", "--graph", g, "--scenario", sc, "--out", str(self.traj)],
            "analyze": ["analyze", "--graph", g, "--scenario", sc, "--trajectory", str(self.traj)],
            "sweep": ["sweep", "--graph", g, "--scenario", sc, "--alpha", *alphas,
                      "--out", str(self.sweep_csv)],
        }
        self.simulate_body = None

    def check(self, cmd: str, rc, stdout: str) -> list[str]:
        if cmd == "verify":
            return checks.check_verify(rc, stdout, self.abscissa, float(self.inp.degrees.max()))
        if cmd == "sweep":
            return checks.check_sweep(rc, self.sweep_csv)
        errors = [] if rc == 0 else [f"exit code {rc}"]
        body = checks.report_body(stdout)
        errors += checks.check_run_report(body)
        if cmd == "simulate":
            self.simulate_body = body
            errors += checks.check_trajectory(
                self.traj, self.inp.n, self.spec.steps, self.final_state
            )
        elif body != self.simulate_body:
            errors.append("analyze report differs from the simulate report")
        return errors


class Tally:
    """Commands attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, cmd: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{cmd}: {'; '.join(errors)}")


def run_command(argv: list[str]) -> tuple[object, str, float]:
    """cli.main(argv) with stdout captured: (exit code, stdout, seconds).

    An exception escaping the CLI is reported as the exit code
    ``"exception"`` and its traceback goes to stderr.
    """
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # noqa: BLE001 - any crash is a counted failure
        traceback.print_exc()
        rc = "exception"
    return rc, buf.getvalue(), time.perf_counter() - t0


def run_setup() -> tuple[int, str, float]:
    """A fresh interpreter running `verify` on demo/p2.txt: the fixed cost of
    one CLI invocation. Returns (exit code, stdout, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *SETUP_ARGV], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout, elapsed


def replay_command(tracer, wl: WorkloadRun, cmd: str) -> str:
    out = wl.dir / "replay"
    out.mkdir(exist_ok=True)
    graph, scenario = wl.inp.graph_path, wl.inp.scenario_path
    with tracer.span(f"cli.{cmd}"):
        if cmd == "verify":
            return rp.replay_verify(tracer, graph, workloads.ALPHA)
        if cmd == "simulate":
            return rp.replay_simulate(tracer, graph, scenario, out / "traj.csv")
        if cmd == "analyze":
            return rp.replay_analyze(tracer, graph, scenario, out / "traj.csv")
        return rp.replay_sweep(tracer, graph, scenario, workloads.SWEEP_ALPHAS, out / "sweep.csv")


def command_output(wl: WorkloadRun, cmd: str, stdout: str) -> str:
    """What the replay of cmd must reproduce from the command's output."""
    if cmd == "sweep":
        return wl.sweep_csv.read_text(encoding="utf-8")
    return checks.report_body(stdout)


def environment(spec: workloads.Workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "workload": spec.name,
        "seed": seed,
    }


def run(spec: workloads.Workload, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Path | None = None) -> dict:
    wl = WorkloadRun(spec, seed, workdir)
    tally = Tally()
    samples = {cmd: [] for cmd in ("setup", *COMMANDS)}
    tracer = None
    untraced: dict[str, float] = {}
    mismatches = 0
    if trace:
        tracer = rp.Tracer()

    # Warm-up (lazy imports, caches), checked but not timed. The last time
    # per call sets how many calls make the next sample of a command.
    per_call = {}
    for cmd in COMMANDS:
        rc, stdout, per_call[cmd] = run_command(wl.argv[cmd])
        tally.record(cmd, wl.check(cmd, rc, stdout))
    if not trace:
        rc, stdout, _ = run_setup()
        tally.record("setup", checks.check_setup(rc, stdout))

    start = time.perf_counter()
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() - start < seconds:
        if not trace and cycle % SETUP_EVERY == 0:
            rc, stdout, elapsed = run_setup()
            samples["setup"].append(elapsed)
            tally.record("setup", checks.check_setup(rc, stdout))
        for cmd in COMMANDS:
            gc.collect()  # garbage of the previous command is not charged to this one
            reps = max(1, math.ceil(MIN_SAMPLE_S / per_call[cmd]))
            total = 0.0
            for _ in range(reps):
                rc, stdout, elapsed = run_command(wl.argv[cmd])
                total += elapsed
                tally.record(cmd, wl.check(cmd, rc, stdout))
            elapsed = per_call[cmd] = total / reps
            samples[cmd].append(elapsed)
            if tracer is not None:
                tracer.command = f"{cycle}:{cmd}"
                untraced[tracer.command] = elapsed
                if replay_command(tracer, wl, cmd) != command_output(wl, cmd, stdout):
                    mismatches += 1
        if tracer is not None:
            tracer.command = "probe"
            rp.probe_spectrum(tracer, wl.inp.graph_path)
        cycle += 1

    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "cycles": cycle,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": {
            p.name: workloads.sha256(p) for p in (wl.inp.graph_path, wl.inp.scenario_path)
        },
        "env": environment(spec, seed),
    }
    if tracer is not None:
        result["layers"] = rp.layer_metrics(
            tracer.spans, untraced, wl.inp.n, len(wl.inp.edges), mismatches
        )
        tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path, help="where a traced run writes its spans (JSON lines)")
    args = p.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]
    result = run(spec, args.seed, args.seconds, bool(args.trace), args.workdir, args.spans)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
