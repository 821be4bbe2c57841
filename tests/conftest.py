"""Shared test helpers: a graph6 encoder (write-side oracle for the read-only
parser), deterministic random corpora, and two reference programs that
rebuild ego-network membership and hop distances from the root identifier."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from graphcount import engine
from graphcount.generators import gen_random
from graphcount.graph import Graph, from_edges


def to_graph6(g: Graph) -> str:
    """Independent graph6 encoder (n <= 62) used to cross-check the parser."""
    n = g.node_count
    assert n <= 62
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def small_random_graphs(count: int = 10, max_n: int = 14) -> list[Graph]:
    graphs = []
    for seed in range(count):
        rng = random.Random(1000 + seed)
        n = rng.randint(4, max_n)
        p = rng.choice((0.2, 0.35, 0.5))
        graphs.append(gen_random(n, p, seed))
    return graphs


def random_permutation(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


@pytest.fixture(scope="session")
def unit_corpus() -> list[Graph]:
    """Small deterministic mixed corpus for module-level equivalence tests."""
    graphs = []
    for n, p in ((8, 0.2), (8, 0.4), (12, 0.2), (12, 0.4)):
        for seed in range(4):
            graphs.append(gen_random(n, p, seed))
    return graphs


def all_graphs_up_to(n_max: int):
    """Every labeled simple graph on up to n_max nodes (small n only)."""
    for n in range(n_max + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield from_edges(n, edges)


_HEXAGON = [(i, (i + 1) % 6) for i in range(6)]
_CHORDS = [
    p for p in combinations(range(6), 2) if p not in _HEXAGON and p[::-1] not in _HEXAGON
]


def exhaustive_graphs():
    """Every labeled graph on at most five nodes, plus the 512 six-node
    graphs that contain the cycle 0-1-2-3-4-5 (every chord subset)."""
    yield from all_graphs_up_to(5)
    for mask in range(1 << len(_CHORDS)):
        yield from_edges(6, _HEXAGON + [c for b, c in enumerate(_CHORDS) if mask >> b & 1])


def ego_mask_program(hops: int) -> engine.MPProgram:
    """K rounds of reachability propagation from the root identifier.

    The final state component is 1 exactly on nodes within ``hops`` of the
    root, i.e. the ego-network membership mask.
    """
    layer = engine.Layer(
        message=(engine.Nbr(0),),
        update=(engine.IsPos(engine.Self(0) + engine.Msg(0)),),
    )
    return engine.MPProgram(
        name=f"ego-mask-{hops}",
        init=(engine.LSelf("is_root"),),
        layers=(layer,) * hops,
    )


def spd_label_program(hops: int) -> engine.MPProgram:
    """K rounds of (visited, distance) propagation from the root identifier.

    After round t, nodes first reached at round t hold distance t; the final
    states equal the hop distances of all nodes within ``hops`` of the root
    (component 1), with component 0 as the reached mask.
    """
    layers = []
    for t in range(1, hops + 1):
        visited = engine.IsPos(engine.Self(0) + engine.Msg(0))
        newly = engine.IsZero(engine.Self(0)) * engine.IsPos(engine.Msg(0))
        dist = engine.Self(1) + engine.Const(t) * newly
        layers.append(engine.Layer(message=(engine.Nbr(0),), update=(visited, dist)))
    return engine.MPProgram(
        name=f"spd-labels-{hops}",
        init=(engine.LSelf("is_root"), engine.Const(0)),
        layers=tuple(layers),
    )
