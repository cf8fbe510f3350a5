"""Undirected simple graphs and their Laplacian algebra.

Node indices are 0-based everywhere. Edges are stored order-normalized as
(min, max) tuples so equality and deduplication are deterministic. Graph
objects are immutable after construction and safe to share. What a graph
determines (degrees, adjacency, connectivity, Laplacian spectrum) is
computed once per graph, on first use, and returned read-only.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DisconnectedGraphError,
    EdgeListParseError,
    GraphValidationError,
    NodeIndexError,
    SelfLoopError,
    TooFewNodesError,
)

#: Largest node count an edge list may declare for a graph that can be
#: connected. The costliest step of any command is verify's dense
#: nonsymmetric eigensolve of the (n-1) x (n-1) agreement block A1, whose
#: time grows as n^3: 0.45-0.6 s at n = 1000 (one BLAS thread, 2-vCPU
#: x86-64 VM), so about 15-20 s at n = 3333. Its arrays, n x n at most,
#: stay far within the 10^8 values of ``dynamics.MAX_TRAJECTORY_SAMPLES``.
MAX_NODES = 3333

#: Characters an edge-list line may take, its line end not counted, against
#: about 10 for an edge at ``MAX_NODES``; a longer line, a comment too, is
#: rejected before it is read whole, so that ``/dev/zero`` fails at line 1.
#: Two blocks of the walk: a comment may still span a block's end.
EDGE_LIST_LINE_CHARS = 2**14

#: What ``str.splitlines`` ends a line at, besides "\r\n".
_LINE_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
#: Characters or bytes of the edge list read at a time.
_BLOCK = 2**13


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n-1."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Node degrees, counted once per graph; the array is read-only."""
        ends = np.fromiter((v for e in self.edges for v in e), dtype=np.int64)
        return _read_only(np.bincount(ends, minlength=self.n))

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Symmetric 0/1 adjacency matrix with zero diagonal, built once
        per graph; the array is read-only."""
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        return _read_only(a)

    @cached_property
    def neg_laplacian_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """-L = Adj - Delta in CSR form, as (data, indices, indptr), built
        once per graph from the edge set; the arrays are read-only. Each
        row holds its off-diagonal ones and its diagonal -d_i in ascending
        column order, the order of scipy's canonical CSR form."""
        ends = np.fromiter(
            (v for e in self.edges for v in e), dtype=np.int32, count=2 * len(self.edges)
        ).reshape(-1, 2)
        diag = np.arange(self.n, dtype=np.int32)
        rows = np.concatenate([ends[:, 0], ends[:, 1], diag])
        cols = np.concatenate([ends[:, 1], ends[:, 0], diag])
        data = np.concatenate([np.ones(2 * len(ends)), -self.degrees.astype(float)])
        order = np.lexsort((cols, rows))
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(self.degrees + 1, out=indptr[1:])
        return _read_only(data[order]), _read_only(cols[order]), _read_only(indptr)

    @cached_property
    def connected(self) -> bool:
        """Reachability of every node from node 0, searched once per graph.

        A connected graph has at least n - 1 edges, so fewer answer False
        before the search allocates anything of size n.
        """
        if len(self.edges) < self.n - 1:
            return False
        adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return all(seen)

    @cached_property
    def laplacian_eigenvalues(self) -> np.ndarray:
        """Ascending Laplacian eigenvalues, one symmetric eigensolve per
        graph; the array is read-only. Raises DisconnectedGraphError."""
        if not self.connected:
            raise DisconnectedGraphError("Laplacian spectrum ordering requires a connected graph")
        return _read_only(np.linalg.eigvalsh(laplacian(self)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _edge_error(i: int, j: int, n: int) -> GraphValidationError | None:
    """Why (i, j) is not an edge of a graph on n nodes, or None."""
    if i == j:
        return SelfLoopError(f"self-loop ({i},{j}) is not allowed")
    if not (0 <= i < n) or not (0 <= j < n):
        return NodeIndexError(f"edge ({i},{j}) out of range for n={n}")
    return None


def _too_few_nodes(n: int) -> TooFewNodesError:
    return TooFewNodesError(f"need at least 2 nodes, got n={n}")


def from_edge_list(n: int, edges) -> Graph:
    """Build a canonical Graph from an edge list.

    Duplicate edges are merged; (i, j) and (j, i) are the same edge.
    """
    if n < 2:
        raise _too_few_nodes(n)
    canon = set()
    for i, j in edges:
        if (exc := _edge_error(i, j, n)) is not None:
            raise exc
        canon.add((min(i, j), max(i, j)))
    return Graph(n=n, edges=frozenset(canon))


def degree_matrix(g: Graph) -> np.ndarray:
    """Diagonal matrix of node degrees, built as one float n x n array."""
    delta = np.zeros((g.n, g.n))
    delta.flat[:: g.n + 1] = g.degrees
    return delta


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix with zero diagonal (read-only)."""
    return g.adjacency


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian: degree matrix minus adjacency matrix, built as one
    float n x n array (0 - Adj, then the degrees added on the diagonal)."""
    lap = np.subtract(0.0, adjacency_matrix(g))
    lap.flat[:: g.n + 1] += g.degrees
    return lap


def is_connected(g: Graph) -> bool:
    """Whether every node is reachable from node 0."""
    return g.connected


def laplacian_spectrum(g: Graph) -> np.ndarray:
    """Ascending Laplacian eigenvalues of a connected graph (read-only).

    The first eigenvalue is 0 (eigenvector 1); the second is the algebraic
    connectivity and must be strictly positive.
    """
    return g.laplacian_eigenvalues


def _lines(blocks):
    """The lines that ``str.splitlines`` finds in the text the string blocks
    make in turn, each yielded once it ends (a \\r once the next character
    shows it is not the start of a \\r\\n), and the text after the last
    line end at the end. A line of more than ``EDGE_LIST_LINE_CHARS``
    characters raises ``EdgeListParseError`` at its line number, after the
    lines before it, as soon as that many are held, so the walk holds at
    most one such line and one block."""
    rest, lineno = "", 0
    for block in blocks:
        text = rest + block
        lines, rest = text.splitlines(), ""
        if text and (text[-1] == "\r" or text[-1] not in _LINE_ENDS):
            rest = lines.pop() + text[-1] if text[-1] == "\r" else lines.pop()
        if lines and max(map(len, lines)) > EDGE_LIST_LINE_CHARS:
            first = next(i for i, line in enumerate(lines) if len(line) > EDGE_LIST_LINE_CHARS)
            yield from lines[:first]
            raise _too_long(lineno + first + 1)
        yield from lines
        lineno += len(lines)
        if len(rest.removesuffix("\r")) > EDGE_LIST_LINE_CHARS:
            raise _too_long(lineno + 1)
    if rest:
        yield rest.removesuffix("\r")


def _too_long(lineno: int) -> EdgeListParseError:
    return EdgeListParseError(f"line longer than {EDGE_LIST_LINE_CHARS} characters", lineno)


def _decoded(fh):
    """The text of the binary file fh, decoded as strict UTF-8 a block at a
    time. Bytes that are not UTF-8 end it: the text before them comes
    first, so that an error on an earlier line is reported first, then
    ``EdgeListParseError`` at line 1 plus the count of b"\\n" before them."""
    decoder, newlines = codecs.getincrementaldecoder("utf-8")(), 0
    while True:
        block = fh.read(_BLOCK)
        try:
            text = decoder.decode(block, final=not block)
        except UnicodeDecodeError as exc:  # exc.object: the block after a partial character
            yield exc.object[: exc.start].decode("utf-8")
            line = newlines + exc.object.count(b"\n", 0, exc.start) + 1
            raise EdgeListParseError(f"not UTF-8 text ({exc.reason})", line) from None
        yield text
        if not block:
            return
        newlines += block.count(b"\n")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    First non-comment line is ``n m``; then m lines ``i j``. Lines starting
    with ``#`` are comments. Errors report 1-based line numbers. A header
    with n over ``MAX_NODES`` and at least n - 1 edges is rejected before
    the edges are read; fewer edges cannot connect the graph, which every
    command rejects without an n x n allocation. Lines are walked a block
    at a time (``_lines``), none longer than ``EDGE_LIST_LINE_CHARS``
    characters. Each of the first m edges is checked as it is
    read and added to one set as (min, max), so repeated edges take no
    memory; past the first m, edges are counted but not kept, so a file of
    too many edges is rejected in bounded memory. A wrong edge count is
    reported before the first bad edge, and n < 2 at that edge's line, or
    else at the header's.
    """
    return _parse(text[i : i + _BLOCK] for i in range(0, len(text), _BLOCK))


def _parse(blocks) -> Graph:
    """``parse_edge_list`` of the text that the string blocks make in turn."""
    header, canon, count, first_error = None, set(), 0, None
    for lineno, raw in enumerate(_lines(blocks), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected two integers, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer token in {line!r}", lineno) from None
        if header is None:
            if a > MAX_NODES and b >= a - 1:
                raise EdgeListParseError(
                    f"n={a} is over the node budget of {MAX_NODES}: the dense eigensolve of "
                    f"the (n-1)^2 agreement block grows as n^3, to {(a / MAX_NODES) ** 3:.4g} "
                    f"times its time at the budget",
                    lineno,
                )
            header = (a, b, lineno)
        else:
            if count < header[1] and first_error is None:
                if (exc := _edge_error(a, b, header[0])) is None:
                    canon.add((a, b) if a < b else (b, a))
                else:
                    first_error = (exc, lineno)
            count += 1
    if header is None:
        raise EdgeListParseError("empty edge-list file", 1)
    n, m, hline = header
    if count != m:
        raise EdgeListParseError(f"header declares {m} edges but file has {count}", hline)
    exc, lineno = first_error or (None, hline)
    if n < 2:
        exc = _too_few_nodes(n)
    if exc is not None:
        raise EdgeListParseError(str(exc), lineno) from exc
    return Graph(n=n, edges=frozenset(canon))


def load_edge_list(path) -> Graph:
    """``parse_edge_list`` of the file at path, read and decoded a block of
    about 8 KB at a time (``_decoded``), so a file is never held whole.
    Lines are checked in file order as they are read: a bad or too long
    line is reported before bytes further on that are not UTF-8."""
    with open(path, "rb") as fh:
        return _parse(_decoded(fh))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{i} {j}" for i, j in sorted(g.edges))
    return "\n".join(lines) + "\n"


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise TooFewNodesError("cycle needs n >= 3")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_connected_graph(n: int, rng: np.random.Generator, extra_edge_prob: float = 0.3) -> Graph:
    """Random connected graph: random spanning tree plus extra edges.

    Deterministic for a given generator state.
    """
    edges = []
    # random attachment tree over a random node ordering
    order = rng.permutation(n)
    for k in range(1, n):
        parent = order[int(rng.integers(0, k))]
        edges.append((int(order[k]), int(parent)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_edge_prob:
                edges.append((i, j))
    return from_edge_list(n, edges)
