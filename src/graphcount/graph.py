"""Immutable simple undirected graphs, validation, and edge-list / graph6 I/O.

Node ids are dense 0-based integers.  Adjacency lists are sorted tuples, so a
validated ``Graph`` is in canonical form and hashable/picklable.  Distances use
``None`` as the unreachable sentinel (never a large finite number), so
accidental arithmetic on an unreachable distance raises instead of silently
producing garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

UNREACHABLE = None

_G6_HEADER = ">>graph6<<"


class GraphFormatError(ValueError):
    """Raised when a graph file or string cannot be parsed."""


class GraphValidationError(ValueError):
    """Raised when parsed data violates the simple-graph invariants."""


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with optional integer node attributes.

    ``adjacency[i]`` is the sorted tuple of neighbors of node ``i``.  The
    structure is immutable after construction and safe to share across
    worker processes.
    """

    adjacency: tuple[tuple[int, ...], ...]
    node_attrs: tuple[tuple[int, ...], ...] | None = None
    _nbr_sets: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_nbr_sets", tuple(frozenset(nbrs) for nbrs in self.adjacency)
        )

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def neighbor_set(self, i: int) -> frozenset[int]:
        self._check_node(i)
        return self._nbr_sets[i]

    def degree(self, i: int) -> int:
        self._check_node(i)
        return len(self.adjacency[i])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._nbr_sets[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def _check_node(self, i: int) -> None:
        if not 0 <= i < len(self.adjacency):
            raise GraphValidationError(
                f"node index {i} out of range for graph with "
                f"{len(self.adjacency)} nodes"
            )


def from_edges(
    n: int,
    edges: Iterable[tuple[int, int]],
    node_attrs: Sequence[Sequence[int]] | None = None,
) -> Graph:
    """Build a validated canonical Graph from an edge iterable.

    Raises GraphValidationError on self-loops, duplicate edges, or indices
    out of range.
    """
    if n < 0:
        raise GraphValidationError(f"negative node count {n}")
    seen: set[tuple[int, int]] = set()
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphValidationError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphValidationError(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphValidationError(f"duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
        nbrs[u].append(v)
        nbrs[v].append(u)
    attrs = None
    if node_attrs is not None:
        if len(node_attrs) != n:
            raise GraphValidationError("node_attrs length does not match node count")
        attrs = tuple(tuple(int(x) for x in row) for row in node_attrs)
    return Graph(tuple(tuple(sorted(x)) for x in nbrs), attrs)


# ---------------------------------------------------------------------------
# Edge-list format: header line "N M", then M lines "u v" (0-based, u != v).
# ---------------------------------------------------------------------------


def parse_edgelist(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"malformed header line {lines[0]!r}, expected 'N M'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"malformed header line {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphFormatError(
            f"header declares {m} edges but file has {len(lines) - 1} edge lines"
        )
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"malformed edge line {ln!r}, expected 'u v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphFormatError(f"malformed edge line {ln!r}") from exc
    return from_edges(n, edges)


def format_edgelist(g: Graph) -> str:
    """Canonical serialization: sorted edges, one per line, u < v."""
    out = [f"{g.node_count} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_edgelist(g))


# ---------------------------------------------------------------------------
# graph6: read-only support for the de-facto 6-bit encoding (one graph per
# line, optional ">>graph6<<" header).
# ---------------------------------------------------------------------------


def parse_graph6(line: str) -> Graph:
    s = line.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if not s:
        raise GraphFormatError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise GraphFormatError(f"invalid graph6 character in {s!r}")
    if data[0] <= 62:
        n, data = data[0], data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        data = data[8:]
    else:
        raise GraphFormatError(f"truncated graph6 size prefix in {s!r}")
    nbits = n * (n - 1) // 2
    if len(data) != (nbits + 5) // 6:
        raise GraphFormatError(
            f"graph6 string has {len(data)} data bytes, expected {(nbits + 5) // 6}"
        )
    bits = []
    for b in data:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return from_edges(n, edges)


def iter_graph6(path: str | Path) -> Iterator[Graph]:
    """Yield every graph in a graph6 file (one per non-empty line)."""
    for line in Path(path).read_text().splitlines():
        if line.strip():
            yield parse_graph6(line)


def load_graph(path: str | Path, fmt: str = "edgelist") -> Graph:
    """Load a single graph from a file in the given format.

    For graph6 files with several graphs, the first one is returned; use
    iter_graph6 for the rest.
    """
    text = Path(path).read_text()
    if fmt == "edgelist":
        return parse_edgelist(text)
    if fmt == "graph6":
        for line in text.splitlines():
            if line.strip():
                return parse_graph6(line)
        raise GraphFormatError(f"no graph6 data in {path}")
    raise GraphFormatError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Basic algorithms and structural helpers.
# ---------------------------------------------------------------------------


def _bfs(g: Graph, source: int, hops: int | None = None) -> dict[int, int]:
    """Distances from source up to ``hops`` (all reachable when hops is None)."""
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier and (hops is None or d < hops):
        d += 1
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def shortest_path_distances(g: Graph, source: int) -> list[int | None]:
    """BFS distances from source; UNREACHABLE (None) marks other components."""
    g._check_node(source)
    dist: list[int | None] = [UNREACHABLE] * g.node_count
    for v, d in _bfs(g, source).items():
        dist[v] = d
    return dist


def permute(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel nodes: node i of g becomes node perm[i] of the result."""
    n = g.node_count
    if sorted(perm) != list(range(n)):
        raise GraphValidationError("perm is not a permutation of the node ids")
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    attrs = None
    if g.node_attrs is not None:
        rows: list[tuple[int, ...]] = [()] * n
        for i in range(n):
            rows[perm[i]] = g.node_attrs[i]
        attrs = rows
    return from_edges(n, edges, node_attrs=attrs)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """g1 next to g2, whose node ids are shifted up by g1.node_count."""
    if (g1.node_attrs is None) != (g2.node_attrs is None):
        raise GraphValidationError("node attributes on only one side of a union")
    off = g1.node_count
    edges = list(g1.edges()) + [(u + off, v + off) for u, v in g2.edges()]
    attrs = None if g1.node_attrs is None else g1.node_attrs + g2.node_attrs
    return from_edges(off + g2.node_count, edges, node_attrs=attrs)
