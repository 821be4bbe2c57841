"""Acceptance suite.

Each test enforces one top-level criterion at its stated tolerance (exact
integer equality unless the criterion itself says otherwise) and prints one
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they go by.  The random corpus is the pinned one: n in {8,12,16,20},
p in {0.2,0.4}, 25 seeds each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import pytest

from conftest import random_permutation
from graphcount import counting, oracle
from graphcount.bench import run_bench
from graphcount.counting import count
from graphcount.extraction import node_deletion
from graphcount.generators import (
    gen_complete,
    gen_coned_cycles,
    gen_cycle,
    gen_cycle_pair,
    gen_petersen,
    gen_random,
    gen_random_regular,
    gen_rook4x4,
    gen_shrikhande,
)
from graphcount.graph import Graph, permute
from graphcount.refinement import (
    DEFAULT_POLICY,
    distinguish,
    fingerprint,
    node_colors,
    wl1,
)

CORPUS_NS = (8, 12, 16, 20)
CORPUS_PS = (0.2, 0.4)
CORPUS_SEEDS = tuple(range(25))

PATH_KINDS = ("path2", "path3", "path4")
CYCLE_KINDS = ("cycle3", "cycle4", "cycle5", "cycle6")
GRAPHLET_KINDS = ("clique4", "chordal_cycle", "tailed_triangle", "triangle_rectangle")
ALL_KINDS = PATH_KINDS + CYCLE_KINDS + GRAPHLET_KINDS


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def named_graphs() -> list[tuple[str, Graph]]:
    graphs = [
        ("K3", gen_complete(3)),
        ("K4", gen_complete(4)),
        ("Petersen", gen_petersen()),
        ("Rook4x4", gen_rook4x4()),
        ("Shrikhande", gen_shrikhande()),
    ]
    graphs += [(f"C{n}", gen_cycle(n)) for n in range(3, 9)]
    for length in (3, 4, 5):
        joined, disjoint = gen_coned_cycles(length)
        graphs.append((f"coned{length}-joined", joined))
        graphs.append((f"coned{length}-disjoint", disjoint))
    return graphs


@dataclass
class GraphData:
    tag: str
    graph: Graph
    reports: dict
    twins: dict
    oracle_paths: dict


def _evaluate(tag: str, g: Graph) -> GraphData:
    reports = {kind: count(kind, g) for kind in ALL_KINDS}
    twins = {kind: oracle.TWINS[kind](g, oracle.DEFAULT_BUDGET) for kind in ALL_KINDS}
    opaths = {L: oracle.oracle_paths(g, L) for L in (2, 3, 4)}
    return GraphData(tag, g, reports, twins, opaths)


@pytest.fixture(scope="session")
def corpus_data() -> list[GraphData]:
    data = []
    for n in CORPUS_NS:
        for p in CORPUS_PS:
            for seed in CORPUS_SEEDS:
                tag = f"G({n},{p},{seed})"
                data.append(_evaluate(tag, gen_random(n, p, seed)))
    for tag, g in named_graphs():
        data.append(_evaluate(tag, g))
    return data


def test_criterion_1_oracle_equivalence(corpus_data):
    t0 = time.perf_counter()
    bad = []
    for d in corpus_data:
        for kind in ALL_KINDS:
            if d.reports[kind] != d.twins[kind]:
                bad.append((d.tag, kind))
    dt = time.perf_counter() - t0
    _report(
        1,
        not bad,
        f"program == oracle for {len(ALL_KINDS)} kinds on "
        f"{len(corpus_data)} graphs, exact ({dt:.1f}s of checks)"
        + (f"; first mismatches {bad[:3]}" if bad else ""),
    )


def test_criterion_2_six_cycle_decomposition(corpus_data):
    bad = []
    for d in corpus_data:
        rep = d.reports["cycle6"]
        pat = d.twins["cycle6"].patterns
        for name in ("p0", "p1", "p2", "p3", "p4"):
            if getattr(rep.patterns, name) != getattr(pat, name):
                bad.append((d.tag, name))
            if any(v < 0 for v in getattr(rep.patterns, name)):
                bad.append((d.tag, name, "negative"))
        for i in range(d.graph.node_count):
            closed = (
                rep.patterns.p0[i]
                - rep.patterns.p1[i]
                - rep.patterns.p2[i]
                - rep.patterns.p3[i]
            )
            # each 6-cycle through i closes exactly two (4-path, 2-path)
            # pairs, so the pattern balance is twice the cycle count and
            # never negative
            if closed < 0 or closed != 2 * rep.node_counts[i]:
                bad.append((d.tag, "identity", i))
    _report(
        2,
        not bad,
        "pattern counts match direct enumerators and "
        "#0-#1-#2-#3 == 2*C6 >= 0 node-by-node"
        + (f"; first mismatches {bad[:3]}" if bad else ""),
    )


def test_criterion_3_node_level_negative_result():
    t0 = time.perf_counter()
    ok = True
    for length in (3, 4, 5):
        joined, disjoint = gen_coned_cycles(length)
        for policy in (DEFAULT_POLICY, node_deletion()):
            cj = node_colors(joined, "subgraph_wl", policy)
            cd = node_colors(disjoint, "subgraph_wl", policy)
            ok &= cj[0] == cd[0]
        joined_count = oracle.oracle_cycles(joined, length + 2).per_node[0]
        disjoint_count = oracle.oracle_cycles(disjoint, length + 2).per_node[0]
        ok &= joined_count == 2 * length and disjoint_count == 0
    dt = time.perf_counter() - t0
    _report(
        3,
        ok and dt < 1.0,
        f"coned-cycle apexes share subgraph-refinement colors while "
        f"(L+2)-cycle counts are 2L vs 0, L in 3..5 ({dt:.2f}s < 1s)",
    )


def test_criterion_4_graph_level_negative_result():
    t0 = time.perf_counter()
    rook, shr = gen_rook4x4(), gen_shrikhande()
    same_digest = (
        fingerprint(rook, "subgraph_wl").digest
        == fingerprint(shr, "subgraph_wl").digest
    )
    r8 = oracle.oracle_cycles(rook, 8).graph_count
    s8 = oracle.oracle_cycles(shr, 8).graph_count
    dt = time.perf_counter() - t0
    _report(
        4,
        same_digest and r8 != s8 and dt < 5.0,
        f"subgraph-refinement digests equal on Rook/Shrikhande while "
        f"8-cycle counts differ ({r8} vs {s8}, {dt:.2f}s < 5s)",
    )


def test_criterion_5_positive_separation():
    t0 = time.perf_counter()
    rook, shr = gen_rook4x4(), gen_shrikhande()
    separated = distinguish(rook, shr, "i2_wl", hops=1)
    separated_exact = distinguish(rook, shr, "i2_wl", hops=1, exact=True)
    dt = time.perf_counter() - t0
    _report(
        5,
        separated and separated_exact and dt < 5.0,
        f"pair refinement with 1-hop subgraphs separates Rook from "
        f"Shrikhande ({dt:.2f}s < 5s)",
    )


def test_criterion_6_plain_refinement_limits():
    ok = True
    details = []
    for length in (3, 4, 5, 6):
        two, one = gen_cycle_pair(length)
        hist_equal = wl1(two).histogram == wl1(one).histogram
        cyc2 = oracle.oracle_cycles(two, length).graph_count
        cyc1 = oracle.oracle_cycles(one, length).graph_count
        if length <= 6:
            path2c = oracle.oracle_paths(two, min(length, 6)).graph_count
            path1c = oracle.oracle_paths(one, min(length, 6)).graph_count
        sep = distinguish(two, one, "subgraph_wl")
        ok &= hist_equal and cyc2 != cyc1 and path2c != path1c and sep
        details.append(f"L={length}:{cyc2}vs{cyc1}")
    _report(
        6,
        ok,
        "cycle pairs: identical wl1 histograms, different L-cycle/L-path "
        f"counts ({', '.join(details)}), separated by subgraph refinement",
    )


def test_criterion_7_walks_are_not_paths(corpus_data):
    from graphcount.graph import from_edges

    paw = from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    walks = [oracle.oracle_walks(paw, 4, i, i) for i in range(4)]
    cycles = oracle.oracle_cycles(paw, 4).per_node
    witness = all(w > 0 for w in walks) and cycles == (0, 0, 0, 0)
    dominated = True
    for d in corpus_data:
        for L in (2, 3, 4):
            for (i, j), c in d.oracle_paths[L].pairs.items():
                if oracle.oracle_walks(d.graph, L, i, j) < c:
                    dominated = False
    _report(
        7,
        witness and dominated,
        "paw graph has closed 4-walks at every node but zero 4-cycles; "
        "walk counts dominate path counts pointwise on the corpus",
    )


def test_criterion_8_aggregation_identities(corpus_data):
    ok = True
    for d in corpus_data:
        for L in (3, 4, 5, 6):
            rep = d.reports[f"cycle{L}"]
            total = sum(rep.node_counts)
            ok &= total == L * rep.graph_count
            ok &= total % L == 0
        for L in (2, 3, 4):
            rep = d.reports[f"path{L}"]
            total = sum(rep.node_counts)
            ok &= total == 2 * rep.graph_count
            ok &= total % 2 == 0
    _report(
        8,
        ok,
        "C(L-cycle,G) = sum/L for L=3..6 and C(L-path,G) = sum/2 for L=2..4, "
        "exactly, with zero remainders on the whole corpus",
    )


def test_criterion_9_permutation_equivariance():
    ok = True
    methods = (
        ("wl1", {}),
        ("subgraph_wl", {}),
        ("i2_wl", {"hops": 2}),
    )
    for trial in range(50):
        n = 8 + (trial % 5)
        g = gen_random(n, 0.3 + 0.02 * (trial % 6), seed=900 + trial)
        perm = random_permutation(n, seed=300 + trial)
        gp = permute(g, perm)
        for kind in ALL_KINDS:
            base = count(kind, g).node_counts
            moved = count(kind, gp).node_counts
            ok &= all(moved[perm[i]] == base[i] for i in range(n))
        for method, kw in methods:
            ok &= (
                fingerprint(g, method, **kw).digest
                == fingerprint(gp, method, **kw).digest
            )
    _report(
        9,
        ok,
        "50 random (graph, permutation) pairs: all counting programs "
        "equivariant, all refinement digests invariant",
    )


def test_criterion_10_near_linear_scaling():
    t0 = time.perf_counter()
    rows = run_bench(sizes=(1000, 2000, 4000), degree=4, kind="cycle6", seed=7)
    dt = time.perf_counter() - t0
    ratios = [r.ratio for r in rows[1:]]
    ok = all(1.6 <= r <= 2.6 for r in ratios) and dt < 300.0
    _report(
        10,
        ok,
        f"cycle6 wall time on 4-regular graphs, N=1000/2000/4000: doubling "
        f"ratios {[f'{r:.2f}' for r in ratios]} within [1.6, 2.6], "
        f"total {dt:.1f}s < 300s",
    )


# Mean node evaluations per root (nodes summed over every step of every
# subgraph), per kind, on criterion 10's ladder: the work of a count grows
# with N only through the number of roots.
_WORK_PER_ROOT = {"path4": (215.0, 240.0), "cycle6": (260.0, 285.0)}


def test_criterion_10_work_per_root_is_flat():
    evaluated = []

    def hook(j, steps):
        evaluated.append(sum(len(nodes) for _, nodes in steps))

    means = {}
    real = counting._rooted_run
    counting._rooted_run = partial(real, hook=hook)
    try:
        for kind in _WORK_PER_ROOT:
            for n in (1000, 2000, 4000):
                evaluated.clear()
                count(kind, gen_random_regular(n, 4, 7))
                means[kind, n] = sum(evaluated) / n
    finally:
        counting._rooted_run = real
    ok = all(
        low <= means[kind, n] <= high
        for kind, (low, high) in _WORK_PER_ROOT.items()
        for n in (1000, 2000, 4000)
    )
    _report(
        10,
        ok,
        "node evaluations per root on 4-regular graphs, N=1000/2000/4000: "
        + ", ".join(f"{kind} {means[kind, n]:.1f}" for kind, n in means)
        + f" within {_WORK_PER_ROOT}",
    )
