"""Seeded workload inputs and the closed-form references the checks use.

Every input is made here from the workload name and the seed, with the
benchmark's own generator, so a change to the program's graph generator
cannot change a workload. The references (closed-form spectral abscissa,
exact solution of the linear closed loop) are computed from the same
generated data, independently of the program under test.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

#: Gain used by ``verify``, ``simulate`` and ``analyze``.
ALPHA = 1.0
#: Gains used by ``sweep``.
SWEEP_ALPHAS = (0.5, 1.0, 4.0)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    extra_edge_prob: float
    dt: float
    steps: int

    @property
    def t_final(self) -> float:
        return self.steps * self.dt


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-long", n=10, extra_edge_prob=0.3, dt=0.016, steps=2500),
        Workload("mid-wide", n=120, extra_edge_prob=0.05, dt=0.001, steps=500),
        Workload("large-cert", n=200, extra_edge_prob=0.05, dt=0.001, steps=100),
    )
}


def minimal(w: Workload) -> Workload:
    """A tiny instance of the workload: 4 agents, 20 steps."""
    return replace(w, n=4, steps=20)


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    edges: list
    degrees: np.ndarray
    x0: np.ndarray
    w: np.ndarray
    graph_path: Path
    scenario_path: Path

    @property
    def n(self) -> int:
        return self.workload.n


def _fmt(v: float) -> str:
    # Six decimals always carry a '.', so YAML reads them as floats.
    return f"{v:.6f}"


def generate(w: Workload, seed: int, directory: Path) -> Inputs:
    """Write the edge list and scenario for (workload, seed) into directory.

    The graph is a random attachment tree over a random node order plus
    each remaining pair with probability ``extra_edge_prob``, so it is
    always connected. Every agent gets a nonzero disturbance.
    """
    rng = random.Random(f"{w.name}:{seed}")
    n = w.n
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        parent = order[int(rng.random() * k)]
        a, b = order[k], parent
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < w.extra_edge_prob:
                edges.add((i, j))
    edges = sorted(edges)
    x0 = [float(_fmt(rng.uniform(-1.0, 1.0))) for _ in range(n)]
    dist = [
        float(_fmt(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5))) for _ in range(n)
    ]
    degrees = np.zeros(n)
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1

    graph_path = directory / "graph.txt"
    graph_path.write_text(
        f"{n} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges), encoding="utf-8"
    )
    scenario_path = directory / "scenario.yaml"
    scenario_path.write_text(
        "schema: 1\n"
        "protocol: adaptive\n"
        f"alpha: {_fmt(ALPHA)}\n"
        f"dt: {w.dt!r}\n"
        f"t_final: {_fmt(w.t_final)}\n"
        f"x0: [{', '.join(_fmt(v) for v in x0)}]\n"
        f"w: [{', '.join(_fmt(v) for v in dist)}]\n",
        encoding="utf-8",
    )
    return Inputs(
        workload=w,
        edges=edges,
        degrees=degrees,
        x0=np.array(x0),
        w=np.array(dist),
        graph_path=graph_path,
        scenario_path=scenario_path,
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def laplacian(inp: Inputs) -> np.ndarray:
    lap = np.diag(inp.degrees)
    for a, b in inp.edges:
        lap[a, b] = lap[b, a] = -1.0
    return lap


def closed_form_abscissa(inp: Inputs, alpha: float) -> float:
    """Largest real part of spec(M) = {-lambda_k(L), k >= 2} union the
    roots of lambda^2 + d_i lambda + alpha over the node degrees d_i."""
    lam2 = np.sort(np.linalg.eigvalsh(laplacian(inp)))[1]
    best = -lam2
    for d in set(inp.degrees.tolist()):
        disc = d * d - 4.0 * alpha
        root = (-d + math.sqrt(disc)) / 2.0 if disc >= 0 else -d / 2.0
        best = max(best, root)
    return float(best)


def exact_final_state(inp: Inputs, alpha: float) -> np.ndarray:
    """(x, x_hat, w_hat) at t_final for the linear closed loop y' = A y + b.

    With y = (x, x_hat, w_hat): x' = -L x - w_hat + w,
    x_hat' = -D x_hat + Adj x, w_hat' = alpha (x - x_hat). The affine term
    is carried as a constant extra coordinate so one matrix exponential
    action gives the exact solution.
    """
    from scipy.sparse import lil_matrix
    from scipy.sparse.linalg import expm_multiply

    n = inp.n
    a = lil_matrix((3 * n + 1, 3 * n + 1))
    for i in range(n):
        a[i, i] = -inp.degrees[i]
        a[i, 2 * n + i] = -1.0
        a[i, 3 * n] = inp.w[i]
        a[n + i, n + i] = -inp.degrees[i]
        a[2 * n + i, i] = alpha
        a[2 * n + i, n + i] = -alpha
    for p, q in inp.edges:
        a[p, q] = a[q, p] = 1.0
        a[n + p, q] = a[n + q, p] = 1.0
    y0 = np.concatenate([inp.x0, inp.x0, np.zeros(n), [1.0]])
    return expm_multiply(a.tocsr() * inp.workload.t_final, y0)[: 3 * n]
