import hashlib
import random

import pytest

from conftest import random_permutation
from graphcount import refinement
from graphcount.extraction import ego, node_deletion
from graphcount.generators import (
    gen_complete,
    gen_coned_cycles,
    gen_cycle,
    gen_cycle_pair,
    gen_path,
    gen_random,
    gen_random_regular,
    gen_rook4x4,
    gen_shrikhande,
    gen_star,
)
from graphcount.graph import disjoint_union, from_edges, permute
from graphcount.oracle import oracle_cycles
from graphcount.refinement import (
    DEFAULT_POLICY,
    METHODS,
    ColorPartition,
    distinguish,
    fingerprint,
    i2_wl,
    node_colors,
    subgraph_wl,
    wl1,
)


def test_wl1_color_classes():
    assert len(wl1(gen_cycle(6)).histogram) == 1
    star = wl1(gen_star(4))
    assert len(star.histogram) == 2
    assert sorted(n for _, n in star.histogram) == [1, 4]
    path = wl1(gen_path(5))
    assert len(path.histogram) == 3


def test_wl1_stability_bound():
    for seed in range(5):
        g = gen_random(12, 0.3, seed)
        part = wl1(g)
        assert part.rounds_to_stability <= max(1, g.node_count)


def test_refinement_never_coarsens():
    # step the refinement signature by hand: the number of classes is
    # non-decreasing round over round because a node's own color is part of
    # its signature
    for seed in range(4):
        g = gen_random(11, 0.35, seed)
        colors = [0] * g.node_count
        prev_classes = 1
        for _ in range(g.node_count + 1):
            sigs = [
                (colors[k], tuple(sorted(colors[l] for l in g.adjacency[k])))
                for k in range(g.node_count)
            ]
            table = {s: i for i, s in enumerate(sorted(set(sigs)))}
            colors = [table[s] for s in sigs]
            classes = len(table)
            assert classes >= prev_classes
            if classes == prev_classes:
                break
            prev_classes = classes


def test_wl1_cannot_separate_cycle_pairs():
    for length in (3, 4, 5, 6):
        two, one = gen_cycle_pair(length)
        assert wl1(two).histogram == wl1(one).histogram
        assert not distinguish(two, one, "wl1")
        assert not distinguish(two, one, "wl1", exact=True)


def test_subgraph_wl_separates_cycle_pairs():
    for length in (3, 4, 5, 6):
        two, one = gen_cycle_pair(length)
        assert distinguish(two, one, "subgraph_wl")
        assert distinguish(two, one, "subgraph_wl", exact=True)
        assert distinguish(two, one, "subgraph_wl", policy=node_deletion())
        assert distinguish(two, one, "subgraph_wl", labeling="spd")


def test_subgraph_wl_blind_to_coned_cycle_apexes():
    # the apex (node 0) gets the same subgraph-refinement color in both
    # graphs under every extraction policy, yet its cycle counts differ
    for length in (3, 4, 5):
        joined, disjoint = gen_coned_cycles(length)
        for policy in (DEFAULT_POLICY, node_deletion()):
            cj = node_colors(joined, "subgraph_wl", policy)
            cd = node_colors(disjoint, "subgraph_wl", policy)
            assert cj[0] == cd[0]
            # the ring nodes do refine apart (their triangle counts differ),
            # so only the apex pair is blind
            assert cj[1] != cd[1]
        assert oracle_cycles(joined, length + 2).per_node[0] == 2 * length
        assert oracle_cycles(disjoint, length + 2).per_node[0] == 0


def test_rook_vs_shrikhande_hierarchy():
    rook, shr = gen_rook4x4(), gen_shrikhande()
    assert not distinguish(rook, shr, "wl1")
    assert not distinguish(rook, shr, "subgraph_wl")
    assert not distinguish(rook, shr, "subgraph_wl", exact=True)
    assert distinguish(rook, shr, "i2_wl", hops=1)
    assert distinguish(rook, shr, "i2_wl", hops=1, exact=True)
    assert (
        fingerprint(rook, "subgraph_wl").digest
        == fingerprint(shr, "subgraph_wl").digest
    )


def test_isomorphic_graphs_never_distinguished():
    rng = random.Random(7)
    for seed in range(6):
        g = gen_random(rng.randint(6, 12), 0.4, seed)
        perm = random_permutation(g.node_count, seed + 50)
        gp = permute(g, perm)
        for method, kw in (
            ("wl1", {}),
            ("subgraph_wl", {}),
            ("subgraph_wl", {"policy": node_deletion()}),
            ("i2_wl", {"hops": 2}),
        ):
            assert not distinguish(g, gp, method, **kw)
            assert not distinguish(g, gp, method, exact=True, **kw)


def test_refinement_hierarchy_on_counterexample_corpus():
    pairs = []
    for length in (3, 4, 5, 6):
        pairs.append(gen_cycle_pair(length))
    for length in (3, 4, 5):
        pairs.append(gen_coned_cycles(length))
    pairs.append((gen_rook4x4(), gen_shrikhande()))
    g = gen_random(10, 0.35, 17)
    pairs.append((g, permute(g, random_permutation(10, 3))))
    pairs.append((gen_star(4), gen_path(5)))
    pairs.append((gen_complete(4), gen_cycle(4)))
    for g1, g2 in pairs:
        w = distinguish(g1, g2, "wl1")
        s = distinguish(g1, g2, "subgraph_wl")
        i = distinguish(g1, g2, "i2_wl", hops=3)
        assert (not w) or s, "wl1 separated a pair subgraph_wl missed"
        assert (not s) or i, "subgraph_wl separated a pair i2_wl missed"
        # digest comparison and exact joint refinement must agree
        assert s == distinguish(g1, g2, "subgraph_wl", exact=True)
        assert i == distinguish(g1, g2, "i2_wl", hops=3, exact=True)


def test_digest_determinism():
    g = gen_random(12, 0.4, 23)
    for method, kw in (("wl1", {}), ("subgraph_wl", {}), ("i2_wl", {"hops": 2})):
        a = fingerprint(g, method, **kw).digest
        b = fingerprint(g, method, **kw).digest
        assert a == b
        assert len(a) == 32  # 128-bit hex


def test_frozen_wl1_digest_value():
    # regression pin so the digest algorithm itself stays stable across runs
    # and platforms (value computed once from the fixed hash construction)
    assert fingerprint(gen_cycle(6), "wl1").digest == "2ed7e039d2e82d889756fde6b34a3610"


# Frozen per-node colors and digests of the subgraph methods.  Each entry is
# (fingerprint digest, number of distinct node colors, 64-bit blake2b of the
# node colors joined by commas in node order).
_PIN_GRAPHS = {
    "rook": gen_rook4x4(),
    "shrikhande": gen_shrikhande(),
    "coned4-joined": gen_coned_cycles(4)[0],
    "coned4-disjoint": gen_coned_cycles(4)[1],
    "random9": gen_random(9, 0.4, 31),
}
_PIN_CONFIGS = {
    "subgraph_wl-ego3": ("subgraph_wl", {"policy": ego(3)}),
    "subgraph_wl-deletion-spd": (
        "subgraph_wl", {"policy": node_deletion(), "labeling": "spd"}
    ),
    "i2_wl-h1": ("i2_wl", {"hops": 1}),
    "i2_wl-h2": ("i2_wl", {"hops": 2}),
    "i2_wl-h1-spd": ("i2_wl", {"hops": 1, "labeling": "spd"}),
}
_PINNED = {
    ("rook", "subgraph_wl-ego3"): ("f9a44a0e01e120e3e7886348583a8eb0", 1, "e5fac87c9d1c6cc2"),
    ("rook", "subgraph_wl-deletion-spd"): ("93c63ad851ba22c7bb4995103a795c14", 1, "c01e371230cd42b1"),
    ("rook", "i2_wl-h1"): ("cd6dcd1a80dc33218d1b48ba993adbb8", 1, "9b9e8d0d890cb61b"),
    ("rook", "i2_wl-h2"): ("123e919c7c8e1cf6d9fe2706c5074d82", 1, "a0ffd4de831dbead"),
    ("rook", "i2_wl-h1-spd"): ("3470b3e58612786b9447a2d0d8b07982", 1, "109d8724e2884b21"),
    ("shrikhande", "subgraph_wl-ego3"): ("f9a44a0e01e120e3e7886348583a8eb0", 1, "e5fac87c9d1c6cc2"),
    ("shrikhande", "subgraph_wl-deletion-spd"): ("93c63ad851ba22c7bb4995103a795c14", 1, "c01e371230cd42b1"),
    ("shrikhande", "i2_wl-h1"): ("7532e8f91e03d888bdd6f06c89084872", 1, "e3f894754fa9cf6c"),
    ("shrikhande", "i2_wl-h2"): ("b7fb0f15aecf4a688c260e61a35998ef", 1, "6a75a8af7c636012"),
    ("shrikhande", "i2_wl-h1-spd"): ("f5ac2583b0dbcead6f65cd0ef7949cc1", 1, "46e64c8090456f7e"),
    ("coned4-joined", "subgraph_wl-ego3"): ("ee5044ae8f191bbcd47f807c4644412e", 2, "1f263f184b64ec6d"),
    ("coned4-joined", "subgraph_wl-deletion-spd"): ("3c35c4456d349a98c3fbb3a94cf8e370", 2, "c72294c98c099cdc"),
    ("coned4-joined", "i2_wl-h1"): ("6a524ffd81e9999ffbd13ae83b554f6d", 2, "e4f6755553d37c50"),
    ("coned4-joined", "i2_wl-h2"): ("d30832fe15a30bb3e3a5cb6142103160", 2, "da96d0f7c1f4d3b6"),
    ("coned4-joined", "i2_wl-h1-spd"): ("521dbf9633a42f3cdc774f97d7707152", 2, "344f7c0ac021c550"),
    ("coned4-disjoint", "subgraph_wl-ego3"): ("32770e198c48db38722df6258f23ba4a", 2, "35573f665f049a52"),
    ("coned4-disjoint", "subgraph_wl-deletion-spd"): ("d2dfc81d15919f37f92a99d3c704afe8", 2, "76ed6d1cf414b460"),
    ("coned4-disjoint", "i2_wl-h1"): ("a52df04c1536ec621f64d87d0412d58c", 2, "7970565410aaddc0"),
    ("coned4-disjoint", "i2_wl-h2"): ("adc9c786d10d5873b89eda452d2f4be2", 2, "d8a38e5cb786127a"),
    ("coned4-disjoint", "i2_wl-h1-spd"): ("f15a8fcf34d481a3e79056225da92cbf", 2, "1de77049707fd340"),
    ("random9", "subgraph_wl-ego3"): ("93c066499f94b998f14e5d6a1c7f9cb5", 6, "e3a1c578437e2117"),
    ("random9", "subgraph_wl-deletion-spd"): ("9797a6746775c880bc943597462e4425", 6, "590f232389756f8c"),
    ("random9", "i2_wl-h1"): ("95746a5555cbf0bd9a2994cb03fd49ad", 6, "e27b3a818446b0bf"),
    ("random9", "i2_wl-h2"): ("b40218555ca34bb1f58743df27400ed5", 6, "50dc9ab586aeac0b"),
    ("random9", "i2_wl-h1-spd"): ("6c435369a07c62031b6cc0db797fd4e0", 6, "42afd6b0682aad76"),
}
_PINNED_WL1 = {
    "rook": "85522c8cc744880f38696a836f819e22",
    "shrikhande": "85522c8cc744880f38696a836f819e22",
    "coned4-joined": "3bd2ea66159acce3ed6e7baad7cb9676",
    "coned4-disjoint": "3bd2ea66159acce3ed6e7baad7cb9676",
    "random9": "8fba15eb4c9efb2b9ae093eb2cf5e8e8",
}


def _uniform(n, rounds):
    return ColorPartition((0,) * n, ((0, n),), rounds)


# (wl1, subgraph_wl with its defaults, i2_wl with hops=1)
_PINNED_PARTITIONS = {
    "rook": (_uniform(16, 1), _uniform(16, 1), _uniform(16, 1)),
    "shrikhande": (_uniform(16, 1), _uniform(16, 1), _uniform(16, 2)),
    "coned4-joined": (
        ColorPartition((1,) + (0,) * 8, ((0, 8), (1, 1)), 2),
        ColorPartition((1,) + (0,) * 8, ((0, 8), (1, 1)), 3),
        ColorPartition((0,) + (1,) * 8, ((0, 1), (1, 8)), 3),
    ),
    "coned4-disjoint": (
        ColorPartition((1,) + (0,) * 8, ((0, 8), (1, 1)), 2),
        ColorPartition((1,) + (0,) * 8, ((0, 8), (1, 1)), 2),
        ColorPartition((0,) + (1,) * 8, ((0, 1), (1, 8)), 2),
    ),
    "random9": (
        ColorPartition(
            (5, 3, 4, 4, 0, 5, 2, 3, 1),
            ((0, 1), (1, 1), (2, 1), (3, 2), (4, 2), (5, 2)),
            3,
        ),
        ColorPartition(
            (4, 2, 1, 1, 3, 4, 0, 2, 5),
            ((0, 1), (1, 2), (2, 2), (3, 1), (4, 2), (5, 1)),
            3,
        ),
        ColorPartition(
            (5, 4, 2, 2, 3, 5, 1, 4, 0),
            ((0, 1), (1, 1), (2, 2), (3, 1), (4, 2), (5, 2)),
            2,
        ),
    ),
}


def test_frozen_subgraph_digests_node_colors_and_partitions():
    for (name, config), want in _PINNED.items():
        g = _PIN_GRAPHS[name]
        method, kw = _PIN_CONFIGS[config]
        colors = node_colors(g, method, **kw)
        check = hashlib.blake2b(",".join(colors).encode(), digest_size=8).hexdigest()
        got = (fingerprint(g, method, **kw).digest, len(set(colors)), check)
        assert got == want, (name, config)
    for name, digest in _PINNED_WL1.items():
        assert fingerprint(_PIN_GRAPHS[name], "wl1").digest == digest, name
    for name, want in _PINNED_PARTITIONS.items():
        g = _PIN_GRAPHS[name]
        assert (wl1(g), subgraph_wl(g), i2_wl(g, hops=1)) == want, name


def test_partition_is_relabeling_invariant():
    g = gen_random(9, 0.4, 31)
    perm = random_permutation(9, 8)
    gp = permute(g, perm)
    p1, p2 = wl1(g), wl1(gp)
    assert p1.histogram == p2.histogram
    for i in range(9):
        assert p2.colors[perm[i]] == p1.colors[i]


def test_i2_wl_with_isolated_nodes_and_empty_graph():
    g = from_edges(3, [(0, 1)])
    part = i2_wl(g, hops=1)
    assert len(part.colors) == 3
    empty = from_edges(0, [])
    assert i2_wl(empty, hops=1).colors == ()
    assert wl1(empty).histogram == ()


def test_unknown_method_rejected():
    g = gen_cycle(4)
    with pytest.raises(ValueError):
        distinguish(g, g, "wl7")
    with pytest.raises(ValueError):
        fingerprint(g, "wl7")


@pytest.mark.parametrize("method", ["subgraph_wl", "i2_wl"])
@pytest.mark.parametrize("n", [0, 3])
def test_unknown_labeling_rejected_without_edges(n, method):
    # a graph without edges extracts no subgraph that would check the labeling
    g = from_edges(n, [])
    with pytest.raises(ValueError, match="unknown labeling 'bogus'"):
        fingerprint(g, method, labeling="bogus")
    with pytest.raises(ValueError, match="unknown labeling 'bogus'"):
        distinguish(g, g, method, labeling="bogus", exact=True)


def test_wl1_blind_to_cycle_length_but_subgraph_wl_not():
    # every node of K3 + C4 is degree 2, so plain refinement sees one class;
    # rooted-subgraph colors separate the components
    u = disjoint_union(gen_cycle(3), gen_cycle(4))
    assert len(wl1(u).histogram) == 1
    colors = node_colors(u, "subgraph_wl")
    assert len(set(colors)) == 2
    assert len(set(colors[:3])) == 1 and len(set(colors[3:])) == 1


def test_node_attributes_seen_by_every_method():
    # the pair differs only in one node attribute, so each method must see
    # it, or the hierarchy breaks on attributed graphs
    a = from_edges(2, [(0, 1)], node_attrs=[(1,), (2,)])
    b = from_edges(2, [(0, 1)], node_attrs=[(1,), (1,)])
    for method in METHODS:
        assert distinguish(a, b, method), method
        assert distinguish(a, b, method, exact=True), method
        assert not distinguish(a, permute(a, [1, 0]), method), method
        assert not distinguish(a, permute(a, [1, 0]), method, exact=True), method


def test_exact_colors_of_different_rounds_never_collide():
    # wl1 stops the two graphs at different rounds, and the ids the later
    # round hands out would repeat the earlier graph's stable histogram if
    # every round numbered its colors from zero
    g1 = from_edges(5, [(0, 1), (0, 2)])
    g2 = from_edges(5, [(0, 2), (0, 4), (1, 2), (1, 3)])
    assert (wl1(g1).rounds_to_stability, wl1(g2).rounds_to_stability) == (2, 3)
    assert distinguish(g1, g2, "wl1")
    assert distinguish(g1, g2, "wl1", exact=True)


def _lockstep_refine(units, reduce):
    """Reference joint id kernel: every unit refines in lockstep until the
    color count over all units stops growing, so each unit runs as many
    rounds as the slowest one."""
    units = list(units)
    adjs = [adj for _, adj, _ in units]
    inits = [keys for _, _, keys in units]
    table = {k: i for i, k in enumerate(sorted({k for row in inits for k in row}))}
    colors = [[table[k] for k in row] for row in inits]
    distinct = len({c for row in colors for c in row})
    rounds = 0
    while distinct:
        sigs = [
            [(cs[k], tuple(sorted(cs[l] for l in nbrs))) for k, nbrs in enumerate(adj)]
            for adj, cs in zip(adjs, colors)
        ]
        table = {s: i for i, s in enumerate(sorted({s for row in sigs for s in row}))}
        colors = [[table[s] for s in row] for row in sigs]
        rounds += 1
        nd = len({c for row in colors for c in row})
        if nd == distinct:
            break
        distinct = nd
    return [(tag, reduce(cs)) for (tag, _, _), cs in zip(units, colors)], rounds


_DIFFERENTIAL_METHODS = (
    ("wl1", {}),
    ("subgraph_wl", {"policy": ego(2)}),
    ("subgraph_wl", {"policy": node_deletion()}),
    ("subgraph_wl", {"policy": ego(2), "labeling": "spd"}),
    ("i2_wl", {"hops": 1}),
    ("i2_wl", {"hops": 2}),
    ("i2_wl", {"hops": 1, "labeling": "spd"}),
)


def _attributed(n, seed):
    g = gen_random(n, 0.35, seed)
    rng = random.Random(seed)
    return from_edges(n, g.edges(), node_attrs=[(rng.randrange(2),) for _ in range(n)])


def _differential_pairs():
    pairs = [gen_cycle_pair(length) for length in range(3, 8)]
    pairs += [gen_coned_cycles(length) for length in range(3, 7)]
    pairs.append((gen_rook4x4(), gen_shrikhande()))
    for n in range(10, 25, 2):
        pairs.append((gen_random_regular(n, 3, n), gen_random_regular(n, 3, n + 1)))
    for seed in range(6):
        n = 6 + seed
        g = _attributed(n, seed)
        pairs.append((g, _attributed(n, seed + 100)))
        pairs.append((g, permute(g, random_permutation(n, seed))))
    return pairs


def _exact_verdicts_and_wl1(pairs):
    verdicts = [
        distinguish(g1, g2, method, exact=True, **kw)
        for g1, g2 in pairs
        for method, kw in _DIFFERENTIAL_METHODS
    ]
    return verdicts, [(wl1(g1), wl1(g2)) for g1, g2 in pairs]


def test_per_subgraph_stopping_matches_the_lockstep_joint_kernel(monkeypatch):
    pairs = _differential_pairs()
    got = _exact_verdicts_and_wl1(pairs)
    with monkeypatch.context() as m:
        m.setattr(refinement, "_IDS", refinement._IDS._replace(refine=_lockstep_refine))
        want = _exact_verdicts_and_wl1(pairs)
    assert got == want
    # every method both separates and fails to separate some of the pairs
    k = len(_DIFFERENTIAL_METHODS)
    assert all({True, False} == set(got[0][j::k]) for j in range(k))
