"""Brute-force enumeration oracles for paths, cycles, walks, and graphlets.

Everything here is exhaustive search over explicit node tuples, kept fully
independent of the message-passing counting programs so the two routes can be
diffed.  Path/cycle enumeration is DFS with visited-set backtracking; each
cycle is canonicalized by its minimal node and traversal direction so that
equivalence is by edge set.  A complexity guard refuses graphs whose
enumeration bound ``max_degree**L * n`` exceeds a configurable budget.

``TWINS`` maps every counting kind (plus ``cycle7`` and ``cycle8``) to its
oracle twin, which returns the same ``CountReport`` as ``counting.count``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable

from .graph import Graph

DEFAULT_BUDGET = 10**9


class OracleBudgetError(RuntimeError):
    """Raised when the enumeration bound exceeds the configured budget."""


@dataclass(frozen=True)
class PathCounts:
    """Simple L-path counts: per starting node, per (start, end) pair, per graph."""

    length: int
    starts_at: tuple[int, ...]
    pairs: dict[tuple[int, int], int]
    graph_count: int


@dataclass(frozen=True)
class SubgraphCounts:
    """Cycle or graphlet counts: per marked node, and per graph."""

    kind: str
    per_node: tuple[int, ...]
    graph_count: int


@dataclass(frozen=True)
class PatternCounts:
    """Counts of (4-path, 2-path) endpoint-sharing pairs, split by overlap shape.

    p0 is the total number of pairs; p1, p2, p3 are the pairs whose 2-path
    midpoint coincides with the 4-path's second-last, middle, and second node
    respectively; p4 counts chordal 4-cycles with the node at an off-chord
    position (the double-counting correction pattern).  Disjoint pairs close
    into 6-cycles, two pairs per cycle:  p0 - p1 - p2 - p3 == 2 * C6.
    """

    p0: tuple[int, ...]
    p1: tuple[int, ...]
    p2: tuple[int, ...]
    p3: tuple[int, ...]
    p4: tuple[int, ...]


@dataclass(frozen=True)
class CountReport:
    """One kind's counts per node and per graph, with the 6-cycle patterns
    for cycle6; both ``counting.count`` and the ``TWINS`` return it."""

    kind: str
    node_counts: tuple[int, ...]
    graph_count: int
    patterns: PatternCounts | None = None


def _check_budget(g: Graph, length: int, budget: int) -> None:
    n = g.node_count
    dmax = max((g.degree(i) for i in range(n)), default=0)
    if dmax**length * n > budget:
        raise OracleBudgetError(
            f"enumeration bound {dmax}**{length} * {n} exceeds budget {budget}"
        )


def _paths_from(adj, start: int, length: int):
    """Yield every simple path of exactly ``length`` edges from start, as a
    tuple of the nodes after start."""
    n = len(adj)
    visited = bytearray(n)
    visited[start] = 1
    path: list[int] = []

    def rec(u: int, remaining: int):
        if remaining == 0:
            yield tuple(path)
            return
        for v in adj[u]:
            if not visited[v]:
                visited[v] = 1
                path.append(v)
                yield from rec(v, remaining - 1)
                path.pop()
                visited[v] = 0

    yield from rec(start, length)


def oracle_paths(g: Graph, length: int, budget: int = DEFAULT_BUDGET) -> PathCounts:
    """Exhaustive L-path counts for L in 2..6.

    ``starts_at[i]`` counts paths with endpoint i (enumerated from i), and
    ``graph_count`` counts each path once (from its smaller endpoint), so
    the identity 2 * graph_count == sum(starts_at) can be checked externally.
    """
    if not 2 <= length <= 6:
        raise ValueError(f"path length must be in 2..6, got {length}")
    _check_budget(g, length, budget)
    n = g.node_count
    starts = [0] * n
    pairs: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(n):
        for path in _paths_from(g.adjacency, i, length):
            end = path[-1]
            starts[i] += 1
            key = (i, end)
            pairs[key] = pairs.get(key, 0) + 1
            if i < end:
                total += 1
    return PathCounts(length, tuple(starts), pairs, total)


def oracle_path4_first_step(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> dict[tuple[int, int], dict[int, int]]:
    """For every ordered adjacent pair (i, j): counts of 4-paths i->j->..->k by k."""
    _check_budget(g, 4, budget)
    table: dict[tuple[int, int], dict[int, int]] = {
        (i, j): {} for i in range(g.node_count) for j in g.adjacency[i]
    }
    for i in range(g.node_count):
        for path in _paths_from(g.adjacency, i, 4):
            row = table[(i, path[0])]
            row[path[-1]] = row.get(path[-1], 0) + 1
    return table


def oracle_cycles(
    g: Graph, length: int, budget: int = DEFAULT_BUDGET
) -> SubgraphCounts:
    """Exhaustive simple L-cycle counts for L in 3..8, one count per edge set.

    Each cycle is enumerated exactly once: from its minimal node, in the
    direction whose first step is smaller than its last.
    """
    if not 3 <= length <= 8:
        raise ValueError(f"cycle length must be in 3..8, got {length}")
    _check_budget(g, length, budget)
    n = g.node_count
    adj = g.adjacency
    per_node = [0] * n
    total = 0
    nbr_sets = [g.neighbor_set(i) for i in range(n)]
    visited = bytearray(n)
    path: list[int] = []

    def rec(root: int, u: int, remaining: int):
        nonlocal total
        if remaining == 0:
            # close the cycle back to root; canonical direction only
            if root in nbr_sets[u] and path[0] < path[-1]:
                total += 1
                per_node[root] += 1
                for w in path:
                    per_node[w] += 1
            return
        for v in adj[u]:
            if v > root and not visited[v]:
                visited[v] = 1
                path.append(v)
                rec(root, v, remaining - 1)
                path.pop()
                visited[v] = 0

    for root in range(n):
        visited[root] = 1
        rec(root, root, length - 1)
        visited[root] = 0
    return SubgraphCounts(f"cycle{length}", tuple(per_node), total)


def oracle_walks(g: Graph, length: int, i: int, j: int) -> int:
    """Number of length-L walks from i to j (repeated nodes allowed)."""
    if length < 0:
        raise ValueError("walk length must be nonnegative")
    g._check_node(i)
    g._check_node(j)
    vec = [0] * g.node_count
    vec[i] = 1
    for _ in range(length):
        nxt = [0] * g.node_count
        for v, nbrs in enumerate(g.adjacency):
            acc = 0
            for u in nbrs:
                acc += vec[u]
            nxt[v] = acc
        vec = nxt
    return vec[j]


def oracle_closed_walks(g: Graph, length: int) -> tuple[int, ...]:
    return tuple(oracle_walks(g, length, i, i) for i in range(g.node_count))


# ---------------------------------------------------------------------------
# Size-4/5 graphlets, counted as subgraphs (equivalence by edge set) with a
# fixed marked node position per kind:
#   clique4             -- any clique node (all positions equivalent)
#   chordal_cycle       -- an off-chord node (degree 2 in the pattern)
#   tailed_triangle     -- the triangle node the tail is attached to
#   triangle_rectangle  -- the triangle node outside the rectangle
# Each oracle yields every occurrence once, as the tuple of its marked nodes.
# Each budget guard uses the depth of its loop nest: dmax**3 per node, and
# dmax**4 for triangle_rectangle.
# ---------------------------------------------------------------------------


def _tally(g: Graph, kind: str, occurrences) -> SubgraphCounts:
    per_node = [0] * g.node_count
    total = 0
    for marked in occurrences:
        total += 1
        for x in marked:
            per_node[x] += 1
    return SubgraphCounts(kind, tuple(per_node), total)


def _triangles(g: Graph):
    """Every triangle once, as (a, b, c) with a < b < c."""
    for a in range(g.node_count):
        for b in g.adjacency[a]:
            if b > a:
                for c in sorted(g.neighbor_set(a) & g.neighbor_set(b)):
                    if c > b:
                        yield a, b, c


def oracle_clique4(g: Graph, budget: int = DEFAULT_BUDGET) -> SubgraphCounts:
    _check_budget(g, 3, budget)
    nbr = g.neighbor_set
    return _tally(g, "clique4", (
        (a, b, c, d)
        for a, b, c in _triangles(g)
        for d in nbr(a) & nbr(b) & nbr(c)
        if d > c
    ))


def oracle_chordal_cycle(g: Graph, budget: int = DEFAULT_BUDGET) -> SubgraphCounts:
    """Diamonds (4-cycle plus one chord); marked position = off-chord node."""
    _check_budget(g, 3, budget)
    nbr = g.neighbor_set
    return _tally(g, "chordal_cycle", (
        pair
        for u in range(g.node_count)
        for v in g.adjacency[u]
        if v > u
        for pair in combinations(sorted(nbr(u) & nbr(v)), 2)
    ))


def oracle_tailed_triangle(g: Graph, budget: int = DEFAULT_BUDGET) -> SubgraphCounts:
    """Triangle plus a pendant edge; marked position = attachment node."""
    _check_budget(g, 3, budget)
    return _tally(g, "tailed_triangle", (
        (attach,)
        for tri in _triangles(g)
        for attach in tri
        for tail in g.adjacency[attach]
        if tail not in tri
    ))


def oracle_triangle_rectangle(g: Graph, budget: int = DEFAULT_BUDGET) -> SubgraphCounts:
    """Triangle and 4-cycle sharing one edge; marked position = the triangle
    node that is not on the 4-cycle."""
    _check_budget(g, 4, budget)
    nbr = g.neighbor_set
    return _tally(g, "triangle_rectangle", (
        (apex,)
        for a, b, c in _triangles(g)
        for apex, p, q in ((a, b, c), (b, a, c), (c, a, b))
        for w in g.adjacency[p]
        if w not in (a, b, c)
        for x in g.adjacency[q]
        if x not in (a, b, c) and x != w and x in nbr(w)
    ))


def oracle_cycle6_patterns(g: Graph, budget: int = DEFAULT_BUDGET) -> PatternCounts:
    """Directly enumerate the (4-path, 2-path) overlap patterns per node."""
    _check_budget(g, 4, budget)
    n = g.node_count
    p0 = [0] * n
    p1 = [0] * n
    p2 = [0] * n
    p3 = [0] * n
    for i in range(n):
        two_mids: dict[int, list[int]] = {}
        for m, k in _paths_from(g.adjacency, i, 2):
            two_mids.setdefault(k, []).append(m)
        for a, b, c, k in _paths_from(g.adjacency, i, 4):
            for m in two_mids.get(k, ()):
                p0[i] += 1
                if m == c:
                    p1[i] += 1
                elif m == b:
                    p2[i] += 1
                elif m == a:
                    p3[i] += 1
    p4 = oracle_chordal_cycle(g, budget).per_node
    return PatternCounts(tuple(p0), tuple(p1), tuple(p2), tuple(p3), p4)


_GRAPHLET_ORACLES = {
    "clique4": oracle_clique4,
    "chordal_cycle": oracle_chordal_cycle,
    "tailed_triangle": oracle_tailed_triangle,
    "triangle_rectangle": oracle_triangle_rectangle,
}


def oracle_graphlets(
    g: Graph, kind: str, budget: int = DEFAULT_BUDGET
) -> SubgraphCounts:
    if kind not in _GRAPHLET_ORACLES:
        raise ValueError(f"unknown graphlet kind {kind!r}")
    return _GRAPHLET_ORACLES[kind](g, budget)


# ---------------------------------------------------------------------------
# Oracle twins: one per counting kind, each returning the CountReport that
# ``counting.count`` returns for it.  Closed walks are a matrix power, not an
# enumeration, so their twin needs no budget.
# ---------------------------------------------------------------------------


def _path_twin(length: int, g: Graph, budget: int) -> CountReport:
    res = oracle_paths(g, length, budget)
    return CountReport(f"path{length}", res.starts_at, res.graph_count)


def _cycle_twin(length: int, g: Graph, budget: int) -> CountReport:
    res = oracle_cycles(g, length, budget)
    patterns = oracle_cycle6_patterns(g, budget) if length == 6 else None
    return CountReport(res.kind, res.per_node, res.graph_count, patterns)


def _graphlet_twin(kind: str, g: Graph, budget: int) -> CountReport:
    res = _GRAPHLET_ORACLES[kind](g, budget)
    return CountReport(kind, res.per_node, res.graph_count)


def _walk_twin(length: int, g: Graph, budget: int) -> CountReport:
    per_node = oracle_closed_walks(g, length)
    return CountReport(f"walk{length}", per_node, sum(per_node))


TWINS: dict[str, Callable[[Graph, int], CountReport]] = {
    **{f"path{n}": partial(_path_twin, n) for n in range(2, 5)},
    **{f"cycle{n}": partial(_cycle_twin, n) for n in range(3, 9)},
    **{kind: partial(_graphlet_twin, kind) for kind in _GRAPHLET_ORACLES},
    **{f"walk{n}": partial(_walk_twin, n) for n in range(1, 9)},
}
