"""Self-check of the benchmark: its checks must catch wrong output.

    python3 perfbench/run.py --self-check

1. Every workload completes at its minimal size, untraced and traced, with
   no failure, and the traced run reports every per-layer metric.
2. A verify output whose abscissa is off by 1e-3 is a counted failure.
3. A truncated trajectory CSV is a counted failure both for the simulate
   check and for the analyze command that reads it.

Exits 0 when all of these hold, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
from pathlib import Path

import worker
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _expect(ok: bool, what: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return ok


def _minimal_runs(work: Path) -> bool:
    expected = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    ok = True
    for name, spec in workloads.WORKLOADS.items():
        for trace in (False, True):
            d = Path(tempfile.mkdtemp(prefix=f"self-{name}-", dir=work))
            res = worker.run(workloads.minimal(spec), 1, 0.0, trace, d, d / "spans.jsonl")
            ok &= _expect(
                res["failed"] == 0 and res["attempted"] > 0,
                f"{name} at minimal size, trace {int(trace)}: {res['attempted']} commands, "
                f"{res['failed']} failed {res['failures']}",
            )
        missing = expected - set(res["layers"])
        ok &= _expect(not missing, f"{name} traced run reports every per-layer metric {sorted(missing)}")
    return ok


def _injected_faults(work: Path) -> bool:
    d = Path(tempfile.mkdtemp(prefix="self-faults-", dir=work))
    wl = worker.WorkloadRun(workloads.minimal(workloads.WORKLOADS["small-long"]), 1, d)
    tally = worker.Tally()
    ok = True

    rc, out, _ = worker.run_command(wl.argv["verify"])
    ok &= _expect(not wl.check("verify", rc, out), "untouched verify output passes")
    value = float(re.search(r"^spectral_abscissa: (.*)$", out, re.MULTILINE).group(1))
    wrong = re.sub(r"^spectral_abscissa: .*$", f"spectral_abscissa: {value + 1e-3!r}", out,
                   flags=re.MULTILINE)
    tally.record("verify", wl.check("verify", rc, wrong))
    ok &= _expect(tally.failed == 1, "abscissa off by 1e-3 is a counted failure")

    rc, out, _ = worker.run_command(wl.argv["simulate"])
    ok &= _expect(not wl.check("simulate", rc, out), "untouched simulate output passes")
    data = wl.traj.read_bytes()
    wl.traj.write_bytes(data[: len(data) * 3 // 5])
    tally.record("simulate", wl.check("simulate", rc, out))
    ok &= _expect(tally.failed == 2, "truncated trajectory fails the simulate check")
    rc, out, _ = worker.run_command(wl.argv["analyze"])
    tally.record("analyze", wl.check("analyze", rc, out))
    ok &= _expect(tally.failed == 3, f"analyze of a truncated trajectory is a counted failure (exit {rc})")
    ok &= _expect(tally.attempted == 3, "three faulty outputs counted as three attempts")
    return ok


def main() -> int:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=work))
    try:
        ok = _minimal_runs(scratch) & _injected_faults(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1
