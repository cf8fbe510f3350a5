"""Benchmark of the resilient-consensus CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload small-long --seed 1 --trace 0
    python3 perfbench/run.py --self-check

One run starts one child process (``worker.py``) with the BLAS/OpenMP
thread count pinned to 1. It generates the workload's inputs from the seed
and runs ``verify``, ``simulate``, ``analyze`` and ``sweep`` back to back
(a closed loop with one caller), checking every output.

With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s      wall time of a fresh interpreter running
                 ``verify --graph demo/p2.txt --alpha 1.0``
    <cmd>_s      warm in-process wall time of one ``cli.main`` call per command
    peak_rss_mb  peak resident memory of the child process
    error_rate   failed / attempted commands (printed; the JSON line carries
                 it as ``failed`` and ``attempted``)

Both timings are the 90th percentile of the run's samples (see
``slow_mode``); each sample of a command shorter than 0.1 s is the mean of
enough back-to-back calls to last 0.1 s.

With ``--trace 1`` each command is followed by a traced replay of its
stages (see ``replay.py``) and the run reports the per-layer metrics; the
spans are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def slow_mode(samples: list[float]) -> float:
    """90th percentile of a run's samples.

    On a shared host the time of one call can be bimodal: on a 2-vCPU
    virtual machine, calls ran up to about 1.8x faster in some windows of
    a run than in the rest. The median then depends on how much of a run
    fell in such windows and moved by up to 30 % between runs; the 90th
    percentile stays in the slower mode, which every run reaches.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def run_worker(args, workdir: Path, spans: Path) -> dict:
    result = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result), "--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the resilient-consensus CLI.")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true", help="check the benchmark's own checks")
    args = p.parse_args(argv)

    needed = ("BENCHMARK.json", "src/resilient_consensus/cli.py", "demo/p2.txt")
    missing = [f for f in needed if not (ROOT / f).is_file()]
    if missing:
        print(f"error: not a resilient-consensus checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.self_check:
        os.environ.update(child_env())
        import selfcheck

        return selfcheck.main()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error("--workload must name a workload of BENCHMARK.json")

    OUT.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))
    try:
        res = run_worker(args, workdir, OUT / f"spans-{tag}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"cycles {res['cycles']} (closed loop, 1 caller)")
    for name, digest in res["inputs"].items():
        print(f"input {name} sha256 {digest}")
    print("env " + " ".join(f"{k}={v}" for k, v in res["env"].items()))
    for msg in res["failures"]:
        print(f"FAILED {msg}")

    if args.trace == 0:
        wanted = spec["end_to_end"]
        metrics = {f"{cmd}_s": slow_mode(s) for cmd, s in res["samples"].items()}
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        for cmd, s in res["samples"].items():
            print(f"{cmd}_s samples {len(s)} min {min(s):.4f} max {max(s):.4f}")
    else:
        wanted = spec["per_layer"]
        metrics = res["layers"]
        print(f"spans written to {(OUT / f'spans-{tag}.jsonl').relative_to(ROOT)}")
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:14.6g} {unit}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"{'error_rate':34s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**summary, **{k: res[k] for k in ("env", "inputs", "samples", "cycles")}},
                   indent=1),
        encoding="utf-8",
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
