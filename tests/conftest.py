from functools import cached_property

import numpy as np
import pytest

from resilient_consensus import Graph, complete_graph, from_edge_list, path_graph

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
