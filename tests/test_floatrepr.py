"""``floatrepr.repr_rows`` against Python's ``repr``, byte for byte."""

import io
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from resilient_consensus import (
    SimConfig,
    dynamics,
    floatrepr,
    load_edge_list,
    load_scenario,
    random_connected_graph,
    simulate,
)

from test_dynamics import WORKLOAD_SHAPES

DEMO = Path(__file__).resolve().parent.parent / "demo"


def reference(block) -> bytes:
    return "".join(",".join(map(repr, r)) + "\n" for r in np.asarray(block).tolist()).encode()


def assert_repr(values, width=7):
    """repr_rows gives repr's bytes for values laid out in rows of width,
    the last row padded with zeros."""
    values = np.asarray(values, dtype=float).ravel()
    block = np.concatenate([values, np.zeros(-len(values) % width)]).reshape(-1, width)
    assert floatrepr.repr_rows(block) == reference(block)


@pytest.fixture
def fallbacks(monkeypatch):
    """The values repr_rows hands to its fallback, in a list."""
    seen, fallback = [], floatrepr._fallback
    monkeypatch.setattr(floatrepr, "_fallback", lambda value: seen.append(value) or fallback(value))
    return seen


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12), elements=st.floats()))
def test_any_floats(block):
    assert floatrepr.repr_rows(block) == reference(block)


def test_empty_blocks():
    assert floatrepr.repr_rows(np.zeros((0, 3))) == b""
    assert floatrepr.repr_rows(np.zeros((2, 0))) == b"\n\n"


def test_zeros_subnormals_and_specials(fallbacks):
    # every value here but the zeros goes to the fallback
    tiny = np.finfo(float).tiny
    subnormal = np.array([5e-324, 1e-323, tiny / 2, np.nextafter(tiny, 0), tiny, np.nextafter(tiny, 1)])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, np.finfo(float).max, np.finfo(float).min]
    assert_repr([*subnormal, *-subnormal, *special])
    assert len(fallbacks) == 2 * 6 + 6


def test_powers_of_two_and_neighbours():
    powers = 2.0 ** np.arange(-60, 71)
    assert_repr([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf), -powers])


def test_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-14, 20)])
    assert_repr([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf), -powers])


@pytest.mark.parametrize("digits", range(1, 18))
def test_decimals(digits):
    # 1-17 significant digits at decimal exponents from 1e-13 to 1e18,
    # written as decimals and as products
    rng = np.random.default_rng(digits)
    mantissas = rng.integers(10 ** (digits - 1), 10**digits, 40)
    values = [float(f"{m}e{e}") for m in mantissas.tolist() for e in range(-13 - digits, 19 - digits)]
    assert_repr(values + [m * 10.0**e for m in mantissas.tolist() for e in range(-13, 19 - digits)])


@pytest.mark.parametrize("dt", [1e-4, 0.001, 0.003, 0.01, 0.016, 0.05, 0.1, 0.7])
def test_time_grids(dt, fallbacks):
    assert_repr(np.arange(100_000) * dt)
    assert fallbacks == []


def assert_no_fallback(traj, fallbacks):
    """The helpers' chunked writer gives the bytes of the caller's one-row
    writer, and no value goes to the fallback."""
    rows, chunks = io.BytesIO(), io.BytesIO()
    dynamics._write_csv_rows(traj, 0, len(traj.states), rows)
    dynamics._write_csv_chunks(traj, 0, len(traj.states), chunks, floatrepr.repr_rows)
    assert chunks.getvalue() == rows.getvalue()
    assert fallbacks == []


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SHAPES))
def test_workload_shaped_runs_take_the_exact_path(workload, fallbacks):
    n, p, dt, steps = WORKLOAD_SHAPES[workload]
    rng = np.random.default_rng(1)
    g = random_connected_graph(n, rng, extra_edge_prob=p)
    cfg = SimConfig(protocol="adaptive", dt=dt, t_final=dt * steps, x0=rng.uniform(-1.0, 1.0, n), alpha=1.0)
    assert_no_fallback(simulate(g, cfg, rng.uniform(-1.0, 1.0, n)), fallbacks)


@pytest.mark.parametrize("t_final", [None, 1000.0], ids=["demo", "1e5 steps"])
def test_demo_runs_take_the_exact_path(t_final, fallbacks):
    # demo/adaptive_p2.yaml as it is, and run to t = 1000 (10^5 steps)
    g = load_edge_list(DEMO / "p2.txt")
    scenario = load_scenario(DEMO / "adaptive_p2.yaml", g)
    cfg = scenario.config if t_final is None else replace(scenario.config, t_final=t_final)
    assert_no_fallback(simulate(g, cfg, scenario.w), fallbacks)
