"""Scenario files and run reports.

A scenario is a YAML mapping with a versioned ``schema: 1`` field:

    schema: 1
    graph: path/to/graph.txt      # optional, relative to this file; --graph overrides
    protocol: adaptive            # or nominal
    alpha: 1.0                    # required for adaptive
    dt: 0.001                     # optional, default 0.001
    t_final: 20.0                 # optional, default 20 / lambda_2
    x0: [1.0, -1.0]
    x_hat0: [1.0, -1.0]           # optional, default x0
    w_hat0: [0.0, 0.0]            # optional, default zeros
    w: [1.0, 0.0]                 # optional, default zeros

RunReport is the machine-readable summary of a run; it is computed purely
from the sampled trajectory so that re-analyzing a stored CSV reproduces
the simulation-time report byte for byte.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ADAPTIVE,
    DEFAULT_DT,
    NOMINAL,
    SimConfig,
    Trajectory,
    consensus_error,
    default_t_final,
    read_scalar,
)
from .errors import NumericalBlowupError, ScenarioError
from .graph import Graph
from .stability import (
    DEFAULT_SPECTRAL_TOL,
    _centroid_drift,
    _decay_rate,
    _energy,
    _max_increase,
    _perturbation_bound,
    closed_form_spectrum,
    error_sums,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: config plus disturbance vector and graph path."""

    config: SimConfig
    w: np.ndarray
    graph_path: str | None = None
    x_hat0_overridden: bool = False


def _vector(raw, n: int | None, name: str) -> np.ndarray:
    """A list of finite numbers, of length n unless n is None."""
    if not isinstance(raw, (list, tuple)):
        raise ScenarioError(f"{name} must be a list of numbers")
    if n is not None and len(raw) != n:
        raise ScenarioError(f"{name} has length {len(raw)}, expected {n}")
    return np.array([read_scalar(v, f"{name}[{i}]") for i, v in enumerate(raw)], dtype=float)


def parse_scenario(raw: dict, g: Graph | None = None) -> Scenario:
    """Validate a scenario mapping against an (optional) graph."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must be a mapping")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"scenario schema must be {SCHEMA_VERSION}")
    protocol = raw.get("protocol")
    if protocol not in (NOMINAL, ADAPTIVE):
        raise ScenarioError(f"protocol must be {NOMINAL!r} or {ADAPTIVE!r}")
    if "x0" not in raw:
        raise ScenarioError("scenario requires x0")
    x0 = _vector(raw["x0"], None if g is None else g.n, "x0")
    n = len(x0)
    w = _vector(raw["w"], n, "w") if "w" in raw else np.zeros(n)
    x_hat0 = _vector(raw["x_hat0"], n, "x_hat0") if "x_hat0" in raw else None
    w_hat0 = _vector(raw["w_hat0"], n, "w_hat0") if "w_hat0" in raw else None
    if "t_final" in raw:
        t_final = raw["t_final"]
    elif g is not None:
        t_final = default_t_final(g)
    else:
        raise ScenarioError("t_final required when no graph is available")
    cfg = SimConfig(
        protocol=protocol,
        dt=raw.get("dt", DEFAULT_DT),
        t_final=t_final,
        x0=x0,
        alpha=raw.get("alpha") if protocol == ADAPTIVE else None,
        x_hat0=x_hat0,
        w_hat0=w_hat0,
    )
    overridden = x_hat0 is not None and not np.array_equal(x_hat0, x0)
    return Scenario(
        config=cfg,
        w=w,
        graph_path=raw.get("graph"),
        x_hat0_overridden=overridden,
    )


def read_scenario(path) -> dict:
    """The mapping in a scenario file, for ``parse_scenario``. A relative
    ``graph:`` path is resolved against the file's directory.

    PyYAML is imported here, not at module level: only scenarios are YAML
    input, so ``verify`` runs without it. libyaml's C parser is used when
    PyYAML was built with it, else the pure-Python one; both read the same
    mappings, and the C one is several times faster."""
    import yaml

    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=loader)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"cannot parse scenario {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ScenarioError(
                f"cannot read scenario {path}: not UTF-8 text ({exc.reason})"
            ) from None
        except ValueError as exc:  # an int over Python's digit limit
            raise ScenarioError(f"cannot parse scenario {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must be a mapping")
    if raw.get("graph") is not None:
        if not isinstance(raw["graph"], str):
            raise ScenarioError("graph must be a file path")
        raw["graph"] = os.path.join(os.path.dirname(path), raw["graph"])
    return raw


def load_scenario(path, g: Graph | None = None) -> Scenario:
    return parse_scenario(read_scenario(path), g)


def build_run_report(traj: Trajectory, w: np.ndarray) -> dict:
    """Machine-readable run summary, deterministic for a given trajectory.

    Every number in it is finite; ``decay_rate_fit`` is None when the run
    is too short to fit. A finite trajectory whose errors, energies or
    norms overflow raises ``NumericalBlowupError`` naming the non-finite
    values, and prints no numpy floating-point warning.

    An adaptive run's checks read one pass over the trajectory
    (``stability.error_sums``): the working memory above the trajectory is
    a few arrays of steps + 1 values, plus one block of the agreement
    coordinates xi of at most ``dynamics.ERROR_BLOCK_VALUES`` values.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = _run_report(traj, w)
    bad = tuple(
        k for k, v in sorted(report.items()) if isinstance(v, float) and not math.isfinite(v)
    )
    if bad:
        raise NumericalBlowupError(fields=bad)
    return report


def _run_report(traj: Trajectory, w: np.ndarray) -> dict:
    cfg = traj.config
    g = traj.graph
    report: dict = {
        "protocol": cfg.protocol,
        "n": g.n,
        "dt": cfg.dt,
        "t_final": float(traj.times[-1]),
        "consensus_error_final": consensus_error(traj.x[-1]),
        "final_agreement": float(np.mean(traj.x[-1])),
    }
    report["what_error_inf_final"] = float(np.max(np.abs(traj.w_hat[-1] - w)))
    if cfg.protocol == ADAPTIVE:
        alpha = cfg.alpha
        sums = error_sums(traj, w)
        sup, bound, assumption_ok = _perturbation_bound(sums, alpha)
        max_inc = _max_increase(_energy(sums, alpha))
        drift, gap = _centroid_drift(traj, sums.centroid)
        abscissa = closed_form_spectrum(g, alpha).abscissa
        try:
            rate = _decay_rate(traj, sums.xi_norm)
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
                "centroid_drift": drift,
                "centroid_agreement_gap": gap,
                "decay_rate_fit": rate,
                "spectral_abscissa": abscissa,
                "stability_verdict": bool(abscissa < -DEFAULT_SPECTRAL_TOL),
            }
        )
    return report


def stability_report_dict(report) -> dict:
    """StabilityReport as plain data for serialization."""
    eigs = report.spectrum.eigenvalues
    predicted, observed = report.quadratic_inertia_predicted, report.quadratic_inertia_observed
    return {
        "spectrum": [[v.real, v.imag] for v in eigs.tolist()],
        "spectral_abscissa": report.spectral_abscissa,
        "theorem_verdict": report.theorem_verdict,
        "decomposition_residual": report.decomposition_residual,
        "decomposition_residual_tol": report.decomposition_residual_tol,
        "quadratic_inertia_predicted": [predicted.n_plus, predicted.n_zero, predicted.n_minus],
        "quadratic_inertia_observed": (
            None if observed is None else [observed.n_plus, observed.n_zero, observed.n_minus]
        ),
        "tol": report.tol,
    }


#: Keys this emitter writes: short lower-case names, which SafeDumper writes
#: plain too. It quotes the YAML 1.1 words below, and writes a key of 128
#: characters or more as a complex ``? key``.
_PLAIN_KEY = re.compile(r"[a-z][a-z0-9_]{0,63}\Z")
_YAML11_WORDS = frozenset({"yes", "no", "on", "off", "true", "false", "null"})


def _scalar(v) -> str:
    """A report scalar as SafeDumper writes it; any other type raises."""
    t = type(v)
    if t is float:
        if v != v:
            return ".nan"
        if v in (math.inf, -math.inf):
            return ".inf" if v > 0 else "-.inf"
        s = repr(v).lower()
        # repr(1e16) is '1e+16', which YAML 1.1 does not read as a float
        return s.replace("e", ".0e", 1) if "e" in s and "." not in s else s
    if t is bool:
        return "true" if v else "false"
    if t is int:
        return repr(v)
    if v is None:
        return "null"
    if t is str and v in (NOMINAL, ADAPTIVE):
        return v
    raise TypeError(f"a report cannot hold {v!r} of type {t.__name__}")


def _block(v, first: str, rest: str, out: list, seen: set) -> None:
    """Append v as block-sequence lines: the first starts with ``first``,
    the others with ``rest``; a non-empty list nests as ``- - a``/``  - b``."""
    if type(v) is not list:
        out.append(first + _scalar(v))
        return
    if id(v) in seen:  # SafeDumper would write an &anchor and an *alias
        raise ValueError("a report lists the same list object twice")
    seen.add(id(v))
    if not v:
        out.append(first + "[]")
    for i, item in enumerate(v):
        _block(item, (rest if i else first) + "- ", rest + "  ", out, seen)


def dump_report(report: dict) -> str:
    """Deterministic YAML rendering of a report mapping.

    Writes the subset of YAML that reports use: one block mapping with
    sorted keys, whose values are floats, ints, bools, None, the protocol
    names and lists of these, nested to any depth (``[]`` when empty). The
    bytes are those of ``yaml.dump(report, Dumper=yaml.SafeDumper,
    sort_keys=True, default_flow_style=False)``, and of ``CSafeDumper``,
    which shares its representer: floats as ``repr(v).lower()`` with
    ``.0`` put before an ``e`` that has no ``.``, and ``.nan``, ``.inf``,
    ``-.inf``; ``true``, ``false``, ``null``; sequences not indented under
    their key. Types are checked exactly, as SafeDumper's representer
    does, so a numpy scalar, a tuple, any other string or a key that would
    need quoting raises instead of printing. PyYAML's representer is pure
    Python whichever dumper is used: it took 8.5 ms for a 599-mode
    spectrum, against 1.2 ms here (2-vCPU Xeon VM, Python 3.11), and this
    keeps PyYAML off ``verify``'s path.
    """
    if type(report) is not dict or not report:
        raise TypeError("a report is a non-empty dict")
    out: list[str] = []
    seen: set = set()
    for key in sorted(report):
        if type(key) is not str or not _PLAIN_KEY.match(key) or key in _YAML11_WORDS:
            raise ValueError(f"report key {key!r} is not a plain lower-case name")
        v = report[key]
        if type(v) is list and v:
            out.append(key + ":")
            _block(v, "", "", out, seen)
        else:
            _block(v, key + ": ", "", out, seen)
    out.append("")
    return "\n".join(out)
