"""Shared test helpers: a graph6 encoder (write-side oracle for the read-only
parser), deterministic random corpora, two reference programs that rebuild
ego-network membership and hop distances from the root identifier, and a
dense reference interpreter for message-passing programs."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import pytest

from graphcount import engine
from graphcount.generators import gen_random
from graphcount.graph import Graph, from_edges


def to_graph6(g: Graph) -> str:
    """Independent graph6 encoder (n < 2**18) used to cross-check the parser:
    up to 62 nodes the size is one byte, above it "~" and three bytes of 6
    bits each, high first."""
    n = g.node_count
    assert n < 1 << 18
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    size = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    chars = [chr(x + 63) for x in size]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


# Edge-list inputs that are not graphs, and the error parsing one raises.
BAD_EDGELISTS = {
    "": "empty edge-list input",
    " \n\n": "empty edge-list input",
    "nonsense\n": "malformed header line",
    "3 x\n": "malformed header line",
    "2.0 1\n0 1\n": "malformed header line",
    "2 1\n0 1 9\n": "malformed edge line",
    "2 1\n0 b\n": "malformed edge line",
    "3 2\n0 1\n": "declares",
}
# graph6 files that hold no graph, and the error loading one raises.
BAD_GRAPH6_FILES = {
    "": "no graph6 data",
    "\n \n": "no graph6 data",
    ">>graph6<<\n": "empty graph6 string",
}


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


_OPERATORS = {engine.Add: "+", engine.Sub: "-", engine.Mul: "*"}


def _row_source(e) -> str:
    """Python source of an expression over node rows, written independently
    of the engine's compiler: ``H[node][component]``, ``L[name][node]``, with
    ``k`` the receiving node and ``l`` the sending one."""
    kind = type(e)
    if kind is engine.Const:
        return repr(e.value)
    if kind in (engine.Self, engine.Nbr):
        return f"H[{'k' if kind is engine.Self else 'l'}][{e.index}]"
    if kind is engine.Msg:
        return f"M[{e.index}]"
    if kind in (engine.LSelf, engine.LNbr):
        return f"L[{e.name!r}][{'k' if kind is engine.LSelf else 'l'}]"
    if kind is engine.IsZero:
        return f"int({_row_source(e.a)} == 0)"
    if kind is engine.IsPos:
        return f"int({_row_source(e.a)} > 0)"
    return f"({_row_source(e.a)} {_OPERATORS[kind]} {_row_source(e.b)})"


@lru_cache(maxsize=256)
def _row_functions(prog) -> tuple:
    """Per step (init first), one function per message and per update."""

    def functions(exprs):
        return [eval(f"lambda k, l, H, L, M: {_row_source(e)}") for e in exprs]

    steps = [engine.Layer((), prog.init), *prog.layers]
    return tuple((functions(x.message), functions(x.update)) for x in steps)


def reference_states(prog, adjacency, labels) -> list[list[tuple]]:
    """A dense interpreter, independent of the engine's generated kernels:
    per step (init first), the state of ``prog`` as one row per node, every
    step evaluated at every node and on every edge."""
    n = len(adjacency)
    (_, init), *layers = _row_functions(prog)
    H = [tuple(f(k, None, (), labels, ()) for f in init) for k in range(n)]
    states = [H]
    for messages, updates in layers:
        new = []
        for k in range(n):
            M = [0] * len(messages)
            for l in adjacency[k]:
                for i, f in enumerate(messages):
                    M[i] += f(k, l, H, labels, ())
            new.append(tuple(f(k, None, H, labels, M) for f in updates))
        H = new
        states.append(H)
    return states


def assert_states_match_ego(states, ego_states, nodes, dist, steps, within, where=()):
    """On every node within a step's radius of the root, each column the
    step computes, as ``states`` holds it on the parent graph (per step, one
    list per column), equals that of the extracted subgraph whose parent ids
    are ``nodes`` (``ego_states``: per step, one row per node); on every
    other node it is 0.  ``dist`` holds each node's distance from the root
    (None when unreachable) and ``within`` each step's radius."""
    at = {p: k for k, p in enumerate(nodes)}
    for s, (step, radius, ego_state) in enumerate(zip(steps, within, ego_states)):
        for c, source in enumerate(step.copies):
            if source is None:
                want = [
                    ego_state[at[p]][c] if d is not None and d <= radius else 0
                    for p, d in enumerate(dist)
                ]
                assert states[s][c] == want, (*where, s, c)


# The label layout of every rooted kernel: the four identifiers, sorted.
ROOTED_LAYOUT = ("in_n_branch", "in_n_root", "is_branch", "is_root")


def branches(adjacency, root, prog, readouts):
    """The branching nodes of ``root``'s bag in a rooted run: the root's
    neighbors when ``prog`` or a readout weight reads a branch identifier,
    else None alone."""
    read = engine.required_labels(prog) | {r.weight for r in readouts}
    return adjacency[root] if read & {"is_branch", "in_n_branch"} else (None,)
