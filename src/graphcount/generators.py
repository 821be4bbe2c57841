"""Deterministic constructions of named test graphs and random corpora.

All generators return canonical validated Graphs.  The two strongly regular
16-node graphs are built algebraically (board coordinates / Cayley connection
set) rather than from hand-copied edge lists, so their srg(16,6,2,2)
parameters can be verified independently.
"""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph, from_edges


def gen_cycle(length: int) -> Graph:
    """Single cycle on ``length`` nodes, length >= 3."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    return from_edges(length, [(i, (i + 1) % length) for i in range(length)])


def gen_path(n: int) -> Graph:
    """Path graph on n nodes (n-1 edges)."""
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def gen_complete(n: int) -> Graph:
    return from_edges(n, list(combinations(range(n), 2)))


def gen_star(leaves: int) -> Graph:
    """Star with center 0 and ``leaves`` leaf nodes."""
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def gen_cycle_pair(length: int) -> tuple[Graph, Graph]:
    """Two graphs on 2L nodes: two disjoint L-cycles, and one 2L-cycle.

    Both are 2-regular, hence indistinguishable by plain color refinement,
    but they have different L-cycle and L-path counts.
    """
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    two = from_edges(
        2 * length,
        [(i, (i + 1) % length) for i in range(length)]
        + [(length + i, length + (i + 1) % length) for i in range(length)],
    )
    one = gen_cycle(2 * length)
    return two, one


def gen_coned_cycles(length: int) -> tuple[Graph, Graph]:
    """Apex node 0 joined to every node of a 2L-cycle, resp. of two L-cycles.

    The two apexes get identical colors under per-root subgraph refinement,
    yet the first apex lies on (L+2)-cycles and the second does not.
    """
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    spokes = [(0, i) for i in range(1, 2 * length + 1)]
    ring = [(1 + i, 1 + (i + 1) % (2 * length)) for i in range(2 * length)]
    joined = from_edges(2 * length + 1, spokes + ring)
    half = [(1 + i, 1 + (i + 1) % length) for i in range(length)]
    other = [
        (1 + length + i, 1 + length + (i + 1) % length) for i in range(length)
    ]
    disjoint = from_edges(2 * length + 1, spokes + half + other)
    return joined, disjoint


def gen_rook4x4() -> Graph:
    """4x4 Rook's graph: cells of a 4x4 board, adjacent iff same row or column."""
    idx = lambda r, c: 4 * r + c
    edges = []
    for r in range(4):
        for c1, c2 in combinations(range(4), 2):
            edges.append((idx(r, c1), idx(r, c2)))
    for c in range(4):
        for r1, r2 in combinations(range(4), 2):
            edges.append((idx(r1, c), idx(r2, c)))
    return from_edges(16, edges)


def gen_shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    idx = lambda a, b: 4 * a + b
    edges = set()
    for a in range(4):
        for b in range(4):
            for da, db in conn:
                u, v = idx(a, b), idx((a + da) % 4, (b + db) % 4)
                if u < v:
                    edges.add((u, v))
    return from_edges(16, sorted(edges))


def gen_petersen() -> Graph:
    """Petersen graph as the Kneser graph K(5,2): 2-subsets, adjacent iff disjoint."""
    subsets = list(combinations(range(5), 2))
    pos = {s: i for i, s in enumerate(subsets)}
    edges = [
        (pos[a], pos[b])
        for a, b in combinations(subsets, 2)
        if not set(a) & set(b)
    ]
    return from_edges(10, edges)


def gen_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic per seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular simple graph via the pairing model, deterministic per seed.

    Re-draws the pairing until it is simple; for small d this succeeds after
    a few dozen attempts.
    """
    if n == 0:
        return from_edges(0, [])
    if n * d % 2 != 0:
        raise ValueError("n * d must be even")
    if d >= n:
        raise ValueError("degree must be smaller than node count")
    rng = random.Random(seed)
    stubs0 = [v for v in range(n) for _ in range(d)]
    for _ in range(10000):
        stubs = stubs0[:]
        rng.shuffle(stubs)
        seen: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in seen:
                ok = False
                break
            seen.add(key)
        if ok:
            return from_edges(n, sorted(seen))
    raise RuntimeError(f"failed to sample a simple {d}-regular graph on {n} nodes")
