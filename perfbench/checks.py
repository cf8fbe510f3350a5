"""Output checks that any correct implementation passes.

Each check takes what a command produced and returns a list of failure
messages; an empty list means the output is correct. None of them pins the
seed implementation's last bits: the abscissa is compared with the closed
form, the final state with the exact solution of the linear closed loop.
"""

from __future__ import annotations

import math
import re

import numpy as np

from workloads import SWEEP_ALPHAS

SWEEP_HEADER = "alpha,sup_xtilde,bound,centroid_drift,decay_rate"
#: Abscissa tolerance per unit of the largest degree; eigenvalues of M
#: are O(max degree), and a dense nonsymmetric solve is accurate to a
#: small multiple of machine epsilon times that.
ABSCISSA_RTOL = 1e-6
#: Final-state tolerance per unit of the state's magnitude. RK4's global
#: error at the workloads' step sizes is below 1e-9.
STATE_RTOL = 1e-6
REPORT_FLAGS = ("stability_verdict", "perturbation_bound_holds", "energy_nonincreasing")


def report_body(stdout: str) -> str:
    """The YAML report a command printed, without its title and trailer."""
    lines = stdout.splitlines(keepends=True)
    body = [ln for ln in lines[1:] if not ln.startswith(("trajectory written", "VERDICT"))]
    return "".join(body)


def _field(body: str, key: str) -> str | None:
    m = re.search(rf"^{re.escape(key)}: (.*)$", body, re.MULTILINE)
    return m.group(1).strip() if m else None


def _exit(rc) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


def check_verify(rc, stdout: str, expected_abscissa: float, max_degree: float) -> list[str]:
    errors = _exit(rc)
    body = report_body(stdout)
    raw = _field(body, "spectral_abscissa")
    try:
        abscissa = float(raw)
    except (TypeError, ValueError):
        return errors + [f"no spectral_abscissa in verify output ({raw!r})"]
    tol = ABSCISSA_RTOL * (1.0 + max_degree)
    if not abs(abscissa - expected_abscissa) <= tol:
        errors.append(f"abscissa {abscissa!r} != closed form {expected_abscissa!r} (tol {tol:g})")
    if _field(body, "theorem_verdict") != "true":
        errors.append("theorem_verdict is not true")
    return errors


def check_setup(rc, stdout: str) -> list[str]:
    errors = _exit(rc)
    if "VERDICT: exponentially stable" not in stdout:
        errors.append("set-up verify on demo/p2.txt did not print the stable verdict")
    return errors


def check_run_report(body: str) -> list[str]:
    return [f"{k} is not true" for k in REPORT_FLAGS if _field(body, k) != "true"]


def check_trajectory(path, n: int, steps: int, expected_final: np.ndarray) -> list[str]:
    """Row count, width and final state of a trajectory CSV."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return [f"cannot read trajectory: {exc}"]
    if not data.endswith(b"\n"):
        return ["trajectory CSV does not end with a newline"]
    rows = data.count(b"\n") - 1
    if rows != steps + 1:
        return [f"trajectory has {rows} rows, expected {steps + 1}"]
    last = data[data.rfind(b"\n", 0, len(data) - 1) + 1 :].decode().strip().split(",")
    if len(last) != 1 + 3 * n:
        return [f"last trajectory row has {len(last)} fields, expected {1 + 3 * n}"]
    try:
        final = np.array([float(v) for v in last[1:]])
    except ValueError:
        return ["last trajectory row is not numeric"]
    err = float(np.max(np.abs(final - expected_final)))
    tol = STATE_RTOL * max(1.0, float(np.max(np.abs(expected_final))))
    if not err <= tol:
        return [f"final state differs from the exact solution by {err:.3g} (tol {tol:g})"]
    return []


def check_sweep(rc, path) -> list[str]:
    """Header, one row per gain, gains in order, every value finite and
    the transient bound respected. The decay-rate column may be empty:
    the program leaves it blank when the run is too short to fit."""
    errors = _exit(rc)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return errors + [f"cannot read sweep CSV: {exc}"]
    if not lines or lines[0] != SWEEP_HEADER:
        return errors + ["sweep CSV header mismatch"]
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != len(SWEEP_ALPHAS):
        return errors + [f"sweep CSV has {len(rows)} rows, expected {len(SWEEP_ALPHAS)}"]
    for alpha, row in zip(SWEEP_ALPHAS, rows):
        try:
            vals = [float(v) for v in row[:4]] + [float(v) for v in row[4:] if v]
        except ValueError:
            errors.append(f"sweep row {row} is not numeric")
            continue
        if len(row) != 5 or not all(math.isfinite(v) for v in vals):
            errors.append(f"sweep row {row} is not finite")
        elif vals[0] != alpha:
            errors.append(f"sweep row alpha {vals[0]} != {alpha}")
        elif not vals[1] <= vals[2] + 1e-9:
            errors.append(f"sweep row alpha={alpha}: sup {vals[1]} above bound {vals[2]}")
    return errors
