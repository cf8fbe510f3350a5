import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_consensus import (
    adjacency_matrix,
    complete_graph,
    cycle_graph,
    degree_matrix,
    from_edge_list,
    is_connected,
    laplacian,
    laplacian_spectrum,
    parse_edge_list,
    path_graph,
    random_connected_graph,
)
from resilient_consensus.errors import (
    DisconnectedGraphError,
    EdgeListParseError,
    NodeIndexError,
    SelfLoopError,
    TooFewNodesError,
)
from resilient_consensus.dynamics import MAX_TRAJECTORY_SAMPLES
from resilient_consensus.graph import MAX_NODES, format_edge_list, load_edge_list


def random_graphs(n_lo=2, n_hi=20):
    """Hypothesis strategy for arbitrary simple graphs (not nec. connected)."""

    @st.composite
    def build(draw):
        n = draw(st.integers(n_lo, n_hi))
        pairs = draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=2 * n,
            )
        )
        return from_edge_list(n, pairs)

    return build()


class TestFromEdgeList:
    def test_p2(self):
        g = from_edge_list(2, [(0, 1)])
        assert g.n == 2
        assert g.edges == frozenset({(0, 1)})

    def test_triangle(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_dedup_and_normalization(self):
        g = from_edge_list(3, [(1, 0), (0, 1), (0, 1)])
        assert g.edges == frozenset({(0, 1)})

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            from_edge_list(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(NodeIndexError):
            from_edge_list(3, [(0, 3)])

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodesError):
            from_edge_list(1, [])


class TestMatrices:
    def test_degree_p2(self, p2):
        assert np.array_equal(degree_matrix(p2), np.diag([1.0, 1.0]))

    def test_degree_k3(self, k3):
        assert np.array_equal(degree_matrix(k3), np.diag([2.0, 2.0, 2.0]))

    def test_degree_star(self, star4):
        assert np.array_equal(degree_matrix(star4), np.diag([3.0, 1.0, 1.0, 1.0]))

    @settings(max_examples=50, deadline=None)
    @given(random_graphs())
    def test_degrees_counted_once(self, g):
        # one read-only count per graph, equal to the per-edge loop
        ref = np.zeros(g.n, dtype=np.int64)
        for a, b in g.edges:
            ref[a] += 1
            ref[b] += 1
        assert np.array_equal(g.degrees, ref)
        assert g.degrees is g.degrees
        with pytest.raises(ValueError):
            g.degrees[0] = 1

    def test_adjacency_p2(self, p2):
        assert np.array_equal(adjacency_matrix(p2), [[0, 1], [1, 0]])

    def test_adjacency_k3(self, k3):
        assert np.array_equal(adjacency_matrix(k3), np.ones((3, 3)) - np.eye(3))

    def test_adjacency_star(self, star4):
        a = adjacency_matrix(star4)
        assert np.array_equal(a[0], [0, 1, 1, 1])
        assert np.array_equal(a, a.T)
        assert np.all(a[1:, 1:] == 0)

    def test_laplacian_p2(self, p2):
        assert np.array_equal(laplacian(p2), [[1, -1], [-1, 1]])

    def test_laplacian_k3(self, k3):
        assert np.array_equal(
            laplacian(k3), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        )

    @settings(max_examples=50, deadline=None)
    @given(random_graphs())
    def test_laplacian_identities(self, g):
        lap = laplacian(g)
        assert np.array_equal(lap, degree_matrix(g) - adjacency_matrix(g))
        assert np.array_equal(lap, lap.T)
        assert np.array_equal(lap @ np.ones(g.n), np.zeros(g.n))

    @settings(max_examples=50, deadline=None)
    @given(random_graphs())
    def test_neg_laplacian_csr_is_scipys_canonical_form(self, g):
        # the arrays built from the edge set are, entry order included, the
        # CSR of -L that scipy builds from the dense adjacency's nonzeros
        from scipy import sparse

        rows, cols = np.nonzero(adjacency_matrix(g))
        diag = np.arange(g.n)
        ij = (np.concatenate([rows, diag]), np.concatenate([cols, diag]))
        data = np.concatenate([np.ones(len(rows)), -g.degrees.astype(float)])
        ref = sparse.csr_matrix((data, ij), shape=(g.n, g.n))
        got = g.neg_laplacian_csr
        assert got is g.neg_laplacian_csr
        for a, b in zip(got, (ref.data, ref.indices, ref.indptr)):
            assert a.tobytes() == b.astype(a.dtype).tobytes()
            with pytest.raises(ValueError):
                a[0] = 1

    @pytest.mark.parametrize("build", [laplacian, degree_matrix])
    def test_one_dense_array_per_call(self, build):
        # one float n x n array per call, with the cached adjacency built
        # first (a diag, its float copy and a difference were three)
        g = path_graph(1000)
        adjacency_matrix(g)
        tracemalloc.start()
        try:
            build(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * g.n**2


class TestConnectivity:
    def test_p2_connected(self, p2):
        assert is_connected(p2)

    def test_two_components(self):
        assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_k3_connected(self, k3):
        assert is_connected(k3)

    @settings(max_examples=50, deadline=None)
    @given(random_graphs(n_hi=12))
    def test_traversal_agrees_with_fiedler_value(self, g):
        lam2 = np.sort(np.linalg.eigvalsh(laplacian(g)))[1]
        assert is_connected(g) == (lam2 > 1e-8)

    def test_too_few_edges_allocate_nothing(self):
        # a connected graph needs n - 1 edges; fewer answer before any
        # per-node allocation (without the count, the search peaks at about
        # 69 MB on this input)
        tracemalloc.start()
        try:
            connected = is_connected(from_edge_list(10**6, [(0, 1)]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not connected
        assert peak < 1_000_000

    def test_connected_graph_has_positive_degrees(self, rng):
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(2, 15)), rng)
            assert np.all(g.degrees >= 1)


class TestSpectrum:
    def test_p2(self, p2):
        # characteristic polynomial of [[1,-1],[-1,1]] is l(l-2)
        assert np.allclose(laplacian_spectrum(p2), [0.0, 2.0])

    def test_k3(self, k3):
        assert np.allclose(laplacian_spectrum(k3), [0.0, 3.0, 3.0])

    def test_zero_eigenvector_is_ones(self, rng):
        g = random_connected_graph(8, rng)
        lap = laplacian(g)
        assert np.allclose(lap @ np.ones(8), 0.0)
        spec = laplacian_spectrum(g)
        assert abs(spec[0]) < 1e-10
        assert spec[1] > 1e-8

    def test_disconnected_rejected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            laplacian_spectrum(g)


class TestComputedOncePerGraph:
    def test_cached_and_read_only(self, rng):
        g = random_connected_graph(6, rng)
        for get in (adjacency_matrix, laplacian_spectrum):
            assert get(g) is get(g)
            with pytest.raises(ValueError):
                get(g)[0] = 1.0

    def test_one_search_per_graph(self, count_builds, rng):
        calls = count_builds("connected")
        g = random_connected_graph(6, rng)
        for _ in range(3):
            assert is_connected(g)
            laplacian_spectrum(g)
        assert calls == [6]
        assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))
        assert calls == [6, 4]


class TestGenerators:
    def test_path(self):
        g = path_graph(4)
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_cycle(self):
        g = cycle_graph(4)
        assert len(g.edges) == 4 and is_connected(g)

    def test_complete(self):
        g = complete_graph(5)
        assert len(g.edges) == 10

    def test_random_connected(self, rng):
        for _ in range(30):
            g = random_connected_graph(int(rng.integers(2, 20)), rng)
            assert is_connected(g)


class TestEdgeListFormat:
    def test_round_trip(self, star4):
        assert parse_edge_list(format_edge_list(star4)) == star4

    def test_comments_and_blanks(self):
        text = "# star\n\n4 3\n0 1\n# middle\n0 2\n0 3\n"
        g = parse_edge_list(text)
        assert g.n == 4 and len(g.edges) == 3

    def test_bad_token_reports_line(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("3 1\n0 x\n")

    def test_self_loop_reports_line(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            parse_edge_list("3 2\n0 1\n2 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("3 2\n0 1\n")

    def test_empty_file(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("# nothing here\n")

    def test_extra_edges_counted_not_stored(self, tmp_path):
        # a header of 2 edges, then 10^5 edge lines: the lines are walked a
        # block at a time and 2 edges kept, so the peak is that of reading
        # the file; a list of every line and a tuple per edge took 41 x it
        path = tmp_path / "edges.txt"
        path.write_text("3 2\n" + "0 1\n" * 100_000)
        tracemalloc.start()
        try:
            with pytest.raises(EdgeListParseError, match="^line 1: header declares 2 edges but file has 100000$"):
                load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * path.stat().st_size

    @pytest.mark.parametrize("at", [8191, 8192, 8193])
    def test_line_numbers_across_blocks(self, at):
        # lines end wherever str.splitlines ends them, a \r\n counting once,
        # also at the end of the walk's first block of about 8 KB, where the
        # \r of a \r\n falls just before, at or just after byte 8192
        head = "3 2\n0 1\n1 2\n"
        ends = ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r\n"]
        text = head + "#" * (at - len(head)) + "\r\n" + "".join(f"# {k}{end}" for k, end in enumerate(ends * 50))
        text += "0 x\n"
        with pytest.raises(EdgeListParseError, match=f"^line {len(text.splitlines())}: non-integer token in '0 x'$"):
            parse_edge_list(text)


class TestNodeBudget:
    def test_budget_bounds_the_agreement_block_eigensolve(self):
        # verify's costliest step, the dense eigensolve of the (n-1)^2 block
        # A1, grows as n^3: twice the budget takes 8 times as long. No command
        # builds an array over n x n, far within the trajectory budget
        n = 2 * MAX_NODES
        with pytest.raises(EdgeListParseError, match=r"\(n-1\)\^2 agreement block grows as n\^3, to 8 times"):
            parse_edge_list(f"{n} {n - 1}\n")
        assert MAX_NODES**2 < MAX_TRAJECTORY_SAMPLES

    def test_header_over_budget_rejected_before_edges(self):
        n = MAX_NODES + 1
        message = (
            f"line 2: n={n} is over the node budget of {MAX_NODES}: the dense eigensolve of "
            f"the (n-1)^2 agreement block grows as n^3, to 1.001 times its time at the budget"
        )
        with pytest.raises(EdgeListParseError, match=f"^{re.escape(message)}$"):
            parse_edge_list(f"# header only\n{n} {n - 1}\n")

    def test_largest_budgeted_path_parses(self):
        n = MAX_NODES
        text = f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))
        assert parse_edge_list(text).n == n
