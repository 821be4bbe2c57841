"""Rooted-subgraph extraction: ego-networks, node deletion, and labelings.

A rooted subgraph keeps its parent-graph node ids plus a dense local
reindexing; message-passing programs run on local indices and results are
reported in parent ids.  Identifier indicators for the root (and branching
node, in pair mode) and for their neighborhoods are precomputed into the
label vectors, because refinement starts its colors from them.  Counting
extracts nothing: it runs its programs on the parent graph (see
``engine.RootedRun``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .graph import Graph, _bfs

LABELINGS = ("identity", "spd")


@dataclass(frozen=True)
class ExtractionPolicy:
    """Node-based extraction strategy: "ego" (with hop count) or "node_deletion"."""

    kind: str
    hops: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "ego":
            if self.hops is None or self.hops < 1:
                raise ValueError("ego extraction needs hops >= 1")
        elif self.kind == "node_deletion":
            if self.hops is not None:
                raise ValueError("node_deletion takes no hop count")
        else:
            raise ValueError(f"unknown extraction policy {self.kind!r}")


def ego(hops: int) -> ExtractionPolicy:
    return ExtractionPolicy("ego", hops)


def node_deletion() -> ExtractionPolicy:
    return ExtractionPolicy("node_deletion")


@dataclass(frozen=True)
class RootedSubgraph:
    """An extracted subgraph tied to a root (and optionally a branching node).

    ``nodes`` are parent ids in ascending order, ``adj`` is the local
    adjacency over positions in ``nodes``, and ``labels`` maps label names to
    per-local-node integer vectors.
    """

    root: int
    branching: int | None
    nodes: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]
    labels: dict[str, tuple[int, ...]]


def _induced_adj(g: Graph, nodes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    index = {p: i for i, p in enumerate(nodes)}
    return tuple([tuple([index[q] for q in g.adjacency[p] if q in index]) for p in nodes])


def _indicator(nodes: tuple[int, ...], marked) -> tuple[int, ...]:
    """1 at the positions of the marked parent ids found in sorted ``nodes``."""
    col = [0] * len(nodes)
    for p in marked:
        k = bisect_left(nodes, p)
        if k < len(nodes) and nodes[k] == p:
            col[k] = 1
    return tuple(col)


def _base_labels(g: Graph, nodes: tuple[int, ...], root: int) -> dict[str, tuple[int, ...]]:
    return {
        "is_root": _indicator(nodes, (root,)),
        "in_n_root": _indicator(nodes, g.adjacency[root]),
    }


def extract_rooted(
    g: Graph,
    root: int,
    policy: ExtractionPolicy,
    labeling: str = "identity",
) -> RootedSubgraph:
    """Extract one labeled rooted subgraph.

    node_deletion drops the root and its incident edges but keeps the root's
    identity recorded (its neighborhood indicator still marks the ex-neighbors,
    and ``root`` itself is stored on the result).
    """
    g._check_node(root)
    if policy.kind == "ego":
        dist = _bfs(g, root, policy.hops)
        nodes = tuple(sorted(dist))
    else:
        dist = None
        nodes = tuple(p for p in range(g.node_count) if p != root)
    labels = _base_labels(g, nodes, root)
    if labeling == "spd":
        if dist is None:  # node deletion keeps every other node
            dist = _bfs(g, root)
        labels["spd_root"] = tuple(dist.get(p, -1) for p in nodes)
    elif labeling != "identity":
        raise ValueError(f"unknown labeling {labeling!r}")
    return RootedSubgraph(
        root=root,
        branching=None,
        nodes=nodes,
        adj=_induced_adj(g, nodes),
        labels=labels,
    )


def with_branching(g: Graph, sub: RootedSubgraph, branching: int) -> RootedSubgraph:
    """Copy a rooted subgraph, additionally marking a branching neighbor."""
    if branching not in g.neighbor_set(sub.root):
        raise ValueError(
            f"branching node {branching} is not a neighbor of root {sub.root}"
        )
    labels = dict(sub.labels)
    labels["is_branch"] = _indicator(sub.nodes, (branching,))
    labels["in_n_branch"] = _indicator(sub.nodes, g.adjacency[branching])
    if "spd_root" in labels:
        # every subgraph node lies within max(spd_root) of the root, hence
        # within one hop more of the branching node
        dist = _bfs(g, branching, max(labels["spd_root"], default=0) + 1)
        labels["spd_branch"] = tuple(dist.get(p, -1) for p in sub.nodes)
    return RootedSubgraph(
        root=sub.root,
        branching=branching,
        nodes=sub.nodes,
        adj=sub.adj,
        labels=labels,
    )


def iter_bag_i2(
    g: Graph, hops: int, labeling: str = "identity"
) -> Iterator[RootedSubgraph]:
    """Stream the pair bag: one subgraph per ordered adjacent pair (root, branching).

    The pair subgraph's node set is the root's ego-network; only the labels
    change across branching choices, so the ego extraction is shared.
    """
    policy = ego(hops)
    for i in range(g.node_count):
        if not g.adjacency[i]:
            continue
        base = extract_rooted(g, i, policy, labeling)
        for j in g.adjacency[i]:
            yield with_branching(g, base, j)


def identity_labeled_graph(g: Graph, root: int) -> RootedSubgraph:
    """The whole graph as a rooted subgraph with only the root identifier.

    This is the reference strategy that subsumes the others: message-passing
    programs over it can reproduce ego-network membership and hop distances
    from the root identifier alone.
    """
    g._check_node(root)
    nodes = tuple(range(g.node_count))
    return RootedSubgraph(
        root=root,
        branching=None,
        nodes=nodes,
        adj=g.adjacency,
        labels=_base_labels(g, nodes, root),
    )
