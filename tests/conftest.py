import os
from functools import cached_property

import numpy as np
import pytest

from resilient_consensus import Graph, complete_graph, dynamics, from_edge_list, path_graph

# Seed for every randomized test in the suite; printed so failures are
# reproducible with an explicit value.
SEED = 20260825


@pytest.fixture(scope="session", autouse=True)
def _announce_seed():
    print(f"\nrandomized tests use seed {SEED}")


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def p2():
    return from_edge_list(2, [(0, 1)])


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture
def star4():
    return from_edge_list(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def path4():
    return path_graph(4)


@pytest.fixture
def count_builds(monkeypatch):
    """count_builds(name) records each run of the body of the cached
    ``Graph`` property ``name``: one entry, the node count, per run."""

    def count(name: str) -> list:
        body = getattr(Graph, name).func
        calls = []
        prop = cached_property(lambda g: calls.append(g.n) or body(g))
        prop.__set_name__(Graph, name)
        monkeypatch.setattr(Graph, name, prop)
        return calls

    return count


@pytest.fixture
def usable_cpus(monkeypatch):
    """usable_cpus(count, chunk_values=None) makes the trajectory CSV writer
    and reader see ``count`` usable CPUs and no CPU quota, lets the reader
    take two CPUs for a body of any size, and, if given, sets chunks of
    ``chunk_values`` values. Pinning does nothing, so no real CPU set
    changes."""

    def set_cpus(count: int, chunk_values: int | None = None) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
        monkeypatch.setattr(dynamics, "CPU_MAX_PATH", os.path.join(os.devnull, "cpu.max"))
        monkeypatch.setattr(dynamics, "CSV_PARALLEL_BYTES", 0)
        if chunk_values is not None:
            monkeypatch.setattr(dynamics, "CSV_CHUNK_VALUES", chunk_values)

    return set_cpus
