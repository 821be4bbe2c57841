"""Exhaustive checks on every small labelled graph.

Counting: program-vs-oracle agreement on every labelled graph on at most five
nodes, plus the 512 six-node graphs that contain the cycle 0-1-2-3-4-5 (every
chord subset), so each 6-cycle pattern shape occurs with every possible set
of chords.

Refinement: on every pair of labelled graphs on at most four nodes, digest
and exact verdicts agree and the wl1 => subgraph_wl => i2_wl hierarchy holds.
"""

from conftest import all_graphs_up_to, exhaustive_graphs, random_permutation
from graphcount import oracle
from graphcount.counting import _PLANS, count, count_path4_edge
from graphcount.graph import permute
from graphcount.refinement import METHODS, distinguish


def test_every_small_graph_matches_the_oracles():
    checked = 0
    for g in exhaustive_graphs():
        for kind in _PLANS:
            assert count(kind, g) == oracle.TWINS[kind](g, oracle.DEFAULT_BUDGET), (kind, g)
        assert count_path4_edge(g, hops=4) == oracle.oracle_path4_first_step(g), g
        checked += 1
    assert checked == 1100 + 512


def test_every_small_pair_keeps_the_refinement_hierarchy():
    graphs = list(all_graphs_up_to(4))
    assert len(graphs) == 76
    pairs = 0
    for a, g1 in enumerate(graphs):
        gp = permute(g1, random_permutation(g1.node_count, a))
        for method in METHODS:
            assert not distinguish(g1, gp, method, hops=3), (method, g1)
            assert not distinguish(g1, gp, method, hops=3, exact=True), (method, g1)
        for g2 in graphs[a + 1 :]:
            verdicts = []
            for method in METHODS:
                d = distinguish(g1, g2, method, hops=3)
                assert d == distinguish(g1, g2, method, hops=3, exact=True), (method, g1, g2)
                verdicts.append(d)
            # wl1 => subgraph_wl => i2_wl: no True before a False
            assert verdicts == sorted(verdicts), (g1, g2)
            pairs += 1
    assert pairs == 2850
