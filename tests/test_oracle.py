import pytest

from conftest import small_random_graphs
from graphcount.generators import (
    gen_complete,
    gen_cycle,
    gen_path,
    gen_petersen,
    gen_random,
    gen_rook4x4,
    gen_shrikhande,
)
from graphcount.graph import from_edges, permute
from graphcount.oracle import (
    OracleBudgetError,
    oracle_chordal_cycle,
    oracle_clique4,
    oracle_cycle6_patterns,
    oracle_cycles,
    oracle_graphlets,
    oracle_path4_first_step,
    oracle_paths,
    oracle_tailed_triangle,
    oracle_triangle_rectangle,
    oracle_walks,
)

PAW = from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
DIAMOND = from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def test_path_counts_examples():
    assert oracle_paths(gen_path(5), 4).starts_at == (1, 0, 0, 0, 1)
    assert oracle_paths(gen_complete(3), 2).starts_at == (2, 2, 2)
    assert oracle_paths(gen_cycle(6), 5).starts_at == (2,) * 6
    with pytest.raises(ValueError):
        oracle_paths(gen_path(3), 7)


def test_cycle_counts_examples():
    c6 = oracle_cycles(gen_cycle(6), 6)
    assert c6.graph_count == 1
    assert c6.per_node == (1,) * 6
    k4 = oracle_cycles(gen_complete(4), 3)
    assert k4.graph_count == 4
    assert k4.per_node == (3, 3, 3, 3)
    with pytest.raises(ValueError):
        oracle_cycles(gen_cycle(6), 9)


def test_rook_vs_shrikhande_8_cycles_differ():
    assert (
        oracle_cycles(gen_rook4x4(), 8).graph_count
        != oracle_cycles(gen_shrikhande(), 8).graph_count
    )


def test_petersen_five_cycles():
    res = oracle_cycles(gen_petersen(), 5)
    assert res.graph_count == 12
    assert res.per_node == (6,) * 10


def test_walk_examples():
    assert oracle_walks(gen_complete(3), 2, 0, 0) == 2
    assert oracle_walks(gen_cycle(4), 3, 0, 0) == 0
    assert oracle_walks(gen_path(2), 4, 0, 0) == 1


def test_walks_dominate_paths():
    for g in small_random_graphs(count=6):
        for length in (2, 3, 4):
            paths = oracle_paths(g, length).pairs
            for (i, j), c in paths.items():
                assert oracle_walks(g, length, i, j) >= c


def test_graphlet_examples():
    assert oracle_clique4(gen_complete(4)).per_node == (1, 1, 1, 1)
    assert oracle_tailed_triangle(PAW).per_node == (1, 0, 0, 0)
    assert oracle_chordal_cycle(DIAMOND).per_node == (1, 0, 0, 1)
    assert oracle_chordal_cycle(DIAMOND).graph_count == 1
    tri_rect = from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (4, 2)])
    assert oracle_triangle_rectangle(tri_rect).per_node == (1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        oracle_graphlets(PAW, "pentagon")


def test_cycle_and_path_aggregation_identities():
    for g in small_random_graphs(count=8):
        for length in (3, 4, 5, 6):
            res = oracle_cycles(g, length)
            assert sum(res.per_node) == length * res.graph_count
        for length in (2, 3, 4):
            res = oracle_paths(g, length)
            assert sum(res.starts_at) == 2 * res.graph_count


def test_counts_invariant_under_automorphism():
    # vertex-transitive graphs must have uniform per-node counts
    for g in (gen_cycle(8), gen_complete(5), gen_rook4x4()):
        for length in (3, 4, 6):
            assert len(set(oracle_cycles(g, length).per_node)) == 1
    g = gen_random(10, 0.4, 11)
    perm = [9, 0, 8, 1, 7, 2, 6, 3, 5, 4]
    gp = permute(g, perm)
    base = oracle_cycles(g, 5).per_node
    permuted = oracle_cycles(gp, 5).per_node
    for i in range(10):
        assert permuted[perm[i]] == base[i]


def test_pattern_identity_closes_six_cycles():
    for g in small_random_graphs(count=8):
        pat = oracle_cycle6_patterns(g)
        c6 = oracle_cycles(g, 6).per_node
        for i in range(g.node_count):
            closed = pat.p0[i] - pat.p1[i] - pat.p2[i] - pat.p3[i]
            assert closed == 2 * c6[i]
            assert closed >= 0


def test_path4_first_step_table():
    table = oracle_path4_first_step(gen_cycle(5))
    assert table[(0, 1)] == {4: 1}
    assert table[(0, 4)] == {1: 1}


def test_budget_guard():
    k20 = gen_complete(20)
    with pytest.raises(OracleBudgetError):
        oracle_cycles(k20, 8)
    # a raised budget lets the same call proceed on a smaller graph
    assert oracle_cycles(gen_complete(6), 6, budget=10**7).graph_count > 0


def test_graphlet_budget_guard():
    k6 = gen_complete(6)  # n = 6, dmax = 5
    bounds = {
        "clique4": 6 * 5**3,
        "chordal_cycle": 6 * 5**3,
        "tailed_triangle": 6 * 5**3,
        "triangle_rectangle": 6 * 5**4,
    }
    for kind, bound in bounds.items():
        with pytest.raises(OracleBudgetError):
            oracle_graphlets(k6, kind, budget=bound - 1)
        assert oracle_graphlets(k6, kind, budget=bound) == oracle_graphlets(k6, kind)
