"""Color refinement hierarchy: plain 1-WL, per-root subgraph refinement, and
pair (root, branching-neighbor) refinement, plus a graph-distinguishing harness.

Every method runs one pipeline.  Its bag gives each root its subgraphs: none
for ``wl1``, which refines the graph itself; one for ``subgraph_wl`` (the
ego-network of radius ``hops``, default 3, or the extraction ``policy``); one
pair subgraph per neighbor for ``i2_wl``, over the root's ego-network of
radius ``hops``, default 1.  Each subgraph is refined to stability from
initial colors holding the parent node's attributes (if any), then the
subgraph's labels.  The fold gives each node a key: its stable color
(``wl1``), its subgraph's stable color histogram (``subgraph_wl``), or the
sorted multiset of its pair histograms (``i2_wl``).  ``fingerprint``,
``node_colors``, ``distinguish`` and the partitions ``wl1`` / ``subgraph_wl``
/ ``i2_wl`` all read these node keys.

Two interchangeable kernels do the refining:

* an id kernel that assigns canonical small-integer colors (ranks of the
  sorted signatures, ranked jointly over all subgraphs of all graphs), used
  for the ``wl1`` partition and for exact joint comparisons of two graphs;
* a content-addressed hash kernel (fixed 128-bit blake2b), run one subgraph
  at a time, whose colors are comparable across separate runs and graphs.

Both iterate ``new_color = combine(old_color, sorted multiset of neighbor
colors)`` synchronously, and each subgraph (for ``wl1``, each graph) stops
as soon as one iteration no longer increases its own number of colors.  The
id kernel refines, round by round, only the subgraphs still gaining colors,
and numbers each round's signatures above every id issued before, so a
subgraph that stopped at one round shares no color with a subgraph that
stopped at another.  Two subgraphs thus get equal stable histograms exactly
when color refinement does not tell them apart.  Fingerprints of genuinely
different stable histograms could in principle collide in the hash kernel;
``distinguish(..., exact=True)`` re-checks with the collision-free id kernel.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .engine import ProgramError
from .extraction import (
    LABELINGS,
    ExtractionPolicy,
    RootedSubgraph,
    ego,
    extract_rooted,
    iter_bag_i2,
)
from .graph import Graph


@dataclass(frozen=True)
class ColorPartition:
    """Stable coloring: canonical per-element color ids and their histogram."""

    colors: tuple[int, ...]
    histogram: tuple[tuple[int, int], ...]
    rounds_to_stability: int


@dataclass(frozen=True)
class GraphFingerprint:
    method: str
    digest: str


# the hash kernel's hot loops call this directly, without a Python frame
_blake = partial(hashlib.blake2b, digest_size=16)


def _h(data: bytes) -> bytes:
    return _blake(data).digest()


# method -> default subgraph radius; subgraph_wl refines the ego-networks of
# radius hops unless given an extraction policy
_DEFAULT_HOPS = {"wl1": None, "subgraph_wl": 3, "i2_wl": 1}
METHODS = tuple(_DEFAULT_HOPS)
DEFAULT_POLICY = ego(_DEFAULT_HOPS["subgraph_wl"])


# ---------------------------------------------------------------------------
# Kernels.
# ---------------------------------------------------------------------------


def _ids_refine(units: Iterable[tuple], reduce: Callable) -> tuple[list, int]:
    """Canonical small-integer colors, ranked jointly over all units.

    Each round refines only the units whose color count grew in the round
    before, and numbers their signatures from above every id issued so far,
    so a unit frozen at one round shares no color with a unit that goes on.
    """
    units = list(units)
    adjs = [adj for _, adj, _ in units]
    inits = [keys for _, _, keys in units]
    table = {k: i for i, k in enumerate(sorted({k for row in inits for k in row}))}
    colors = [[table[k] for k in row] for row in inits]
    issued = len(table)
    distinct = [len(set(cs)) for cs in colors]
    active = [u for u, d in enumerate(distinct) if d]
    rounds = 0
    while active:
        sigs = [
            [(c, tuple(sorted(map(cs.__getitem__, nbrs)))) for c, nbrs in zip(cs, adjs[u])]
            for u in active
            for cs in (colors[u],)
        ]
        table = {
            s: issued + i for i, s in enumerate(sorted({s for row in sigs for s in row}))
        }
        issued += len(table)
        rounds += 1
        growing = []
        for u, row in zip(active, sigs):
            colors[u] = [table[s] for s in row]
            nd = len(set(row))
            if nd != distinct[u]:
                distinct[u] = nd
                growing.append(u)
        active = growing
        del sigs, table  # never hold two rounds' signatures at once
    return [(tag, reduce(cs)) for (tag, _, _), cs in zip(units, colors)], rounds


def _hash_refine(units: Iterable[tuple], reduce: Callable) -> tuple[list, int]:
    """Content-addressed colors, one unit at a time as the iterator yields them."""
    out = []
    rounds_max = 0
    for tag, adj, keys in units:
        colors = [_blake(repr(k).encode()).digest() for k in keys]
        distinct = len(set(colors))
        rounds = 0
        while distinct:
            prev = colors
            colors = [
                _blake(c + b"|" + b"".join(sorted(map(prev.__getitem__, nbrs)))).digest()
                for c, nbrs in zip(prev, adj)
            ]
            rounds += 1
            nd = len(set(colors))
            if nd == distinct:
                break
            distinct = nd
        out.append((tag, reduce(colors)))
        rounds_max = max(rounds_max, rounds)
    return out, rounds_max


def _hist_hash(colors: Sequence[bytes]) -> bytes:
    counts = sorted(Counter(colors).items())
    return _h(b"H:" + b",".join(c + b":%d" % n for c, n in counts))


class _Kernel(NamedTuple):
    # (tag, adjacency, initial keys) units, reduce -> (tag, reduce(stable
    # colors)) per unit in order, and the most rounds any unit took
    refine: Callable
    hist: Callable  # stable colors of one subgraph -> histogram
    multiset: Callable  # one root's histograms -> node key


_IDS = _Kernel(
    _ids_refine,
    lambda colors: tuple(sorted(Counter(colors).items())),
    lambda hists: tuple(sorted(hists)),
)
_HASH = _Kernel(
    _hash_refine,
    _hist_hash,
    lambda hists: _h(b"N:" + b",".join(sorted(hists))),
)


# ---------------------------------------------------------------------------
# The pipeline: bag -> stable colorings -> node keys.
# ---------------------------------------------------------------------------


def _init_keys(g: Graph, nodes: Sequence[int], labels: dict) -> list[tuple]:
    """Initial color keys: the parent node's attributes, then the labels."""
    names = sorted(labels)
    cols = [labels[name] for name in names]
    for name, col in zip(names, cols):
        # zip would silently stop at the shortest column
        if len(col) != len(nodes):
            raise ProgramError(
                f"label {name!r} has {len(col)} entries for {len(nodes)} nodes"
            )
    keys = list(zip(*cols)) if cols else [()] * len(nodes)
    if g.node_attrs is not None:
        return [(*g.node_attrs[p], *key) for p, key in zip(nodes, keys)]
    return keys if names else [(0,)] * len(nodes)


def _bag(g: Graph, method: str, policy, hops, labeling: str) -> Iterator[RootedSubgraph]:
    """Each root's subgraphs, streamed in root order (by ``map``, which adds
    no generator frame per subgraph)."""
    if method == "subgraph_wl":
        return map(
            extract_rooted, repeat(g), range(g.node_count), repeat(policy), repeat(labeling)
        )
    return iter_bag_i2(g, hops, labeling)


def _fold(method: str, kernel: _Kernel, per_root: list[list]) -> list:
    """Each root's key from the stable color histograms of its subgraphs."""
    if method == "subgraph_wl":
        return [hists[0] for hists in per_root]
    return [kernel.multiset(hists) for hists in per_root]


def _node_keys(
    graphs: Sequence[Graph],
    kernel: _Kernel,
    method: str,
    policy: ExtractionPolicy | None = None,
    hops: int | None = None,
    labeling: str = "identity",
) -> tuple[list[list], int]:
    """Per graph, one key per node; and the rounds to stability."""
    if method not in _DEFAULT_HOPS:
        raise ValueError(f"unknown refinement method {method!r}")
    if labeling not in LABELINGS:
        raise ValueError(f"unknown labeling {labeling!r}")
    if hops is None:
        hops = _DEFAULT_HOPS[method]
    if method == "wl1":
        units = [(None, g.adjacency, _init_keys(g, range(g.node_count), {})) for g in graphs]
        stable, rounds = kernel.refine(units, lambda colors: colors)
        return [colors for _, colors in stable], rounds
    if method == "subgraph_wl" and policy is None:
        policy = ego(hops)
    units = (
        ((gi, sub.root), sub.adj, _init_keys(g, sub.nodes, sub.labels))
        for gi, g in enumerate(graphs)
        for sub in _bag(g, method, policy, hops, labeling)
    )
    hists, rounds = kernel.refine(units, kernel.hist)
    per_root = [[[] for _ in range(g.node_count)] for g in graphs]
    for (gi, root), hist in hists:
        per_root[gi][root].append(hist)
    return [_fold(method, kernel, roots) for roots in per_root], rounds


def _partition(g: Graph, kernel: _Kernel, method: str, **kw) -> ColorPartition:
    keys, rounds = _node_keys([g], kernel, method, **kw)
    order = {k: i for i, k in enumerate(sorted(set(keys[0])))}
    colors = tuple(order[k] for k in keys[0])
    return ColorPartition(colors, tuple(sorted(Counter(colors).items())), rounds)


# ---------------------------------------------------------------------------
# Public entry points.  The wl1 partition numbers its classes by id-kernel
# colors, the subgraph partitions by hash-kernel node keys.
# ---------------------------------------------------------------------------


def wl1(g: Graph) -> ColorPartition:
    """Iterative (color, neighbor-color multiset) refinement to stability."""
    return _partition(g, _IDS, "wl1")


def subgraph_wl(
    g: Graph,
    policy: ExtractionPolicy = DEFAULT_POLICY,
    labeling: str = "identity",
) -> ColorPartition:
    return _partition(g, _HASH, "subgraph_wl", policy=policy, labeling=labeling)


def i2_wl(
    g: Graph, hops: int | None = None, labeling: str = "identity"
) -> ColorPartition:
    return _partition(g, _HASH, "i2_wl", hops=hops, labeling=labeling)


def node_colors(
    g: Graph,
    method: str,
    policy: ExtractionPolicy | None = None,
    hops: int | None = None,
    labeling: str = "identity",
) -> tuple[str, ...]:
    """Per-node color fingerprints comparable across graphs (hex strings)."""
    keys, _ = _node_keys([g], _HASH, method, policy, hops, labeling)
    return tuple(k.hex() for k in keys[0])


def fingerprint(
    g: Graph,
    method: str,
    policy: ExtractionPolicy | None = None,
    hops: int | None = None,
    labeling: str = "identity",
) -> GraphFingerprint:
    keys, _ = _node_keys([g], _HASH, method, policy, hops, labeling)
    return GraphFingerprint(method, _h(b"G:" + b",".join(sorted(keys[0]))).hex())


def distinguish(
    g1: Graph,
    g2: Graph,
    method: str = "wl1",
    policy: ExtractionPolicy | None = None,
    hops: int | None = None,
    labeling: str = "identity",
    exact: bool = False,
) -> bool:
    """True when the method's stable colorings separate the two graphs.

    The default path compares fingerprints; ``exact=True`` re-runs the
    refinement on both graphs with the id kernel, numbering colors jointly
    over both, and compares full histograms, removing any dependence on
    hash-collision luck.
    """
    if not exact:
        fp1 = fingerprint(g1, method, policy, hops, labeling)
        fp2 = fingerprint(g2, method, policy, hops, labeling)
        return fp1.digest != fp2.digest
    keys, _ = _node_keys([g1, g2], _IDS, method, policy, hops, labeling)
    return Counter(keys[0]) != Counter(keys[1])
