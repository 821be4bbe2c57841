import pytest

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
    gen_star,
)
from graphcount.graph import Graph
from graphcount.oracle import oracle_cycles, oracle_paths
from graphcount.refinement import wl1


def strongly_regular_parameters(g: Graph) -> tuple[int, int, int, int] | None:
    """Return (n, d, lambda, mu) when g is strongly regular, else None."""
    n = g.node_count
    if n == 0:
        return None
    degs = {g.degree(i) for i in range(n)}
    if len(degs) != 1:
        return None
    d = degs.pop()
    lams, mus = set(), set()
    for u in range(n):
        for v in range(u + 1, n):
            common = len(g.neighbor_set(u) & g.neighbor_set(v))
            (lams if g.has_edge(u, v) else mus).add(common)
    if len(lams) > 1 or len(mus) > 1:
        return None
    return (n, d, lams.pop() if lams else 0, mus.pop() if mus else 0)


def test_gen_cycle():
    k3 = gen_cycle(3)
    assert k3.adjacency == gen_complete(3).adjacency
    hexagon = gen_cycle(6)
    assert all(hexagon.degree(i) == 2 for i in range(6))
    assert oracle_cycles(gen_cycle(8), 8).graph_count == 1
    with pytest.raises(ValueError):
        gen_cycle(2)


def test_cycle_pair_counts_differ():
    two, one = gen_cycle_pair(3)
    assert oracle_cycles(two, 3).graph_count == 2
    assert oracle_cycles(one, 3).graph_count == 0
    # 5-paths need 6 distinct nodes, so the two C5s have none
    two5, one5 = gen_cycle_pair(5)
    assert oracle_paths(two5, 5).graph_count == 0
    assert oracle_paths(one5, 5).graph_count == 10


def test_cycle_pair_same_wl1_histogram():
    two, one = gen_cycle_pair(4)
    assert wl1(two).histogram == wl1(one).histogram


def test_coned_cycles_structure():
    joined, disjoint = gen_coned_cycles(3)
    for g in (joined, disjoint):
        assert g.node_count == 7
        assert g.degree(0) == 6
        assert all(g.degree(i) == 3 for i in range(1, 7))
    assert oracle_cycles(joined, 5).per_node[0] == 6
    assert oracle_cycles(disjoint, 5).per_node[0] == 0
    j4, d4 = gen_coned_cycles(4)
    assert oracle_cycles(j4, 6).per_node[0] == 8
    assert oracle_cycles(d4, 6).per_node[0] == 0


def test_rook_and_shrikhande_are_srg_16_6_2_2():
    rook, shr = gen_rook4x4(), gen_shrikhande()
    for g in (rook, shr):
        assert g.node_count == 16
        assert g.edge_count == 48
        assert strongly_regular_parameters(g) == (16, 6, 2, 2)


def test_rook_and_shrikhande_single_wl_class():
    for g in (gen_rook4x4(), gen_shrikhande()):
        assert len(wl1(g).histogram) == 1
    assert wl1(gen_rook4x4()).histogram == wl1(gen_shrikhande()).histogram


def test_rook_and_shrikhande_not_isomorphic_by_8_cycles():
    r8 = oracle_cycles(gen_rook4x4(), 8)
    s8 = oracle_cycles(gen_shrikhande(), 8)
    assert r8.graph_count != s8.graph_count
    assert (r8.graph_count, s8.graph_count) == (11952, 11688)


def test_local_common_neighbor_structure():
    # The neighborhood of every Rook's vertex is two triangles, so the two
    # common neighbors of any edge are adjacent; the Shrikhande neighborhoods
    # are 6-cycles, so they never are.  This asymmetry is what the pair
    # refinement exploits.
    def edges_with_adjacent_commons(g):
        hits = 0
        for u, v in g.edges():
            common = sorted(g.neighbor_set(u) & g.neighbor_set(v))
            if any(g.has_edge(a, b) for a in common for b in common if a < b):
                hits += 1
        return hits

    rook, shr = gen_rook4x4(), gen_shrikhande()
    assert edges_with_adjacent_commons(rook) == rook.edge_count
    assert edges_with_adjacent_commons(shr) == 0


def test_petersen():
    pet = gen_petersen()
    assert (pet.node_count, pet.edge_count) == (10, 15)
    assert strongly_regular_parameters(pet) == (10, 3, 0, 1)
    five = oracle_cycles(pet, 5)
    assert five.graph_count == 12
    assert set(five.per_node) == {6}


def test_gen_random():
    assert gen_random(0, 0.5, 3).node_count == 0
    k20 = gen_random(20, 1.0, 1)
    assert k20.edge_count == 190
    a = gen_random(15, 0.3, 42)
    b = gen_random(15, 0.3, 42)
    assert a.adjacency == b.adjacency
    assert gen_random(15, 0.3, 43).adjacency != a.adjacency
    with pytest.raises(ValueError):
        gen_random(5, 1.5, 0)


def test_gen_random_regular():
    g = gen_random_regular(50, 4, 0)
    assert all(g.degree(i) == 4 for i in range(50))
    assert gen_random_regular(50, 4, 0).adjacency == g.adjacency
    assert gen_random_regular(0, 4, 0).node_count == 0
    with pytest.raises(ValueError):
        gen_random_regular(5, 3, 0)  # odd stub count
    for n in (0, 4):  # not an edgeless graph
        with pytest.raises(ValueError, match="degree must be >= 0, got -2"):
            gen_random_regular(n, -2, 0)


def test_gen_star():
    assert (gen_star(0).node_count, gen_star(3).edge_count) == (1, 3)
    for leaves in (-1, -3):  # not a graph of leaves + 1 nodes
        with pytest.raises(ValueError, match=f"leaf count must be >= 0, got {leaves}"):
            gen_star(leaves)


def test_generators_canonical():
    for g in (gen_rook4x4(), gen_shrikhande(), gen_star(4), gen_cycle(7)):
        for nbrs in g.adjacency:
            assert list(nbrs) == sorted(nbrs)
