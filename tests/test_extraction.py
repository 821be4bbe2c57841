import pytest

from conftest import ego_mask_program, small_random_graphs, spd_label_program
from graphcount import engine
from graphcount.extraction import (
    ExtractionPolicy,
    ego,
    extract_rooted,
    identity_labeled_graph,
    iter_bag_i2,
    node_deletion,
    with_branching,
)
from graphcount.generators import gen_complete, gen_cycle, gen_path, gen_random, gen_star
from graphcount.graph import GraphValidationError, disjoint_union, from_edges, shortest_path_distances


def test_policy_validation():
    with pytest.raises(ValueError):
        ego(0)
    with pytest.raises(ValueError):
        ExtractionPolicy("node_deletion", hops=2)


def test_ego_on_triangle():
    sub = extract_rooted(gen_complete(3), 0, ego(1))
    assert sub.nodes == (0, 1, 2)
    assert sub.labels["is_root"] == (1, 0, 0)
    assert sub.labels["in_n_root"] == (0, 1, 1)


def test_ego_spd_labels():
    sub = extract_rooted(gen_path(4), 0, ego(2), labeling="spd")
    assert sub.nodes == (0, 1, 2)
    assert sub.labels["spd_root"] == (0, 1, 2)


def test_node_deletion_star():
    sub = extract_rooted(gen_star(4), 0, node_deletion())
    assert sub.nodes == (1, 2, 3, 4)
    assert sub.adj == ((), (), (), ())
    assert sub.labels["is_root"] == (0, 0, 0, 0)
    assert sub.labels["in_n_root"] == (1, 1, 1, 1)


def test_ego_does_not_cross_components():
    g = disjoint_union(gen_cycle(3), gen_cycle(4))
    sub = extract_rooted(g, 0, ego(5))
    assert sub.nodes == (0, 1, 2)


def test_bag_subgraph_mpnn():
    bag = [extract_rooted(gen_complete(3), i, ego(1)) for i in range(3)]
    assert [s.root for s in bag] == [0, 1, 2]
    assert all(len(s.nodes) == 3 for s in bag)
    c6bag = [extract_rooted(gen_cycle(6), i, ego(2)) for i in range(6)]
    for s in c6bag:
        assert len(s.nodes) == 5
        degs = sorted(len(r) for r in s.adj)
        assert degs == [1, 1, 2, 2, 2]  # a 5-node path
    assert list(iter_bag_i2(from_edges(0, []), 1)) == []


def test_bag_i2_cardinality_and_order():
    g = gen_random(10, 0.4, 2)
    bag = list(iter_bag_i2(g, 2))
    assert len(bag) == 2 * g.edge_count
    pairs = [(s.root, s.branching) for s in bag]
    assert pairs == sorted(pairs)
    k3bag = list(iter_bag_i2(gen_complete(3), 1))
    assert len(k3bag) == 6


def test_i2_full_cycle_subgraph():
    for s in iter_bag_i2(gen_cycle(6), 3):
        assert len(s.nodes) == 6
        assert sum(s.labels["is_root"]) == 1
        assert sum(s.labels["is_branch"]) == 1


def test_pair_label_invariants():
    g = gen_random(12, 0.35, 4)
    for sub in iter_bag_i2(g, 2):
        i, j = sub.root, sub.branching
        assert j in g.neighbor_set(i)
        li = sub.nodes.index(i)
        lj = sub.nodes.index(j)
        assert sub.labels["is_root"][li] == 1
        assert sub.labels["is_branch"][lj] == 1
        assert sub.labels["in_n_root"][lj] == 1
        assert sub.labels["in_n_branch"][li] == 1


def test_invalid_root_and_branching():
    g = gen_path(3)
    with pytest.raises(GraphValidationError):
        extract_rooted(g, 7, ego(1))
    base = extract_rooted(g, 0, ego(2))
    with pytest.raises(ValueError, match="not a neighbor"):
        with_branching(g, base, 2)


def test_identity_labels_subsume_other_strategies():
    # Programs over the identity-labeled full graph reproduce each policy's
    # derived data: the ego mask, the hop distances, and the deletion mask.
    for g in small_random_graphs(count=6, max_n=16):
        for root in range(0, g.node_count, 3):
            full = identity_labeled_graph(g, root)
            spd = shortest_path_distances(g, root)
            for k in (1, 2, 3):
                mask = engine.run_program(full, ego_mask_program(k))[0]
                ego_nodes = set(extract_rooted(g, root, ego(k)).nodes)
                assert [bool(m) for m in mask] == [
                    i in ego_nodes for i in range(g.node_count)
                ]
                states = engine.run_program(full, spd_label_program(k))
                for i, (visited, dist) in enumerate(zip(*states)):
                    if spd[i] is not None and spd[i] <= k:
                        assert (visited, dist) == (1, spd[i])
                    else:
                        assert visited == 0
            deletion_mask = [1 - v for v in full.labels["is_root"]]
            kept = [i for i, m in enumerate(deletion_mask) if m]
            assert tuple(kept) == extract_rooted(g, root, node_deletion()).nodes


def test_spd_labeling_for_pairs():
    g = gen_cycle(6)
    base = extract_rooted(g, 0, ego(3), labeling="spd")
    sub = with_branching(g, base, 1)
    assert sub.labels["spd_root"] == (0, 1, 2, 3, 2, 1)
    assert sub.labels["spd_branch"] == (1, 0, 1, 2, 3, 2)


def test_spd_labels_are_graph_distances():
    # the pair BFS stops one hop past the root's farthest subgraph node
    for g in small_random_graphs(count=4, max_n=12):
        for hops in (1, 2):
            for sub in iter_bag_i2(g, hops, labeling="spd"):
                for name, src in (("spd_root", sub.root), ("spd_branch", sub.branching)):
                    dist = shortest_path_distances(g, src)
                    assert sub.labels[name] == tuple(dist[p] for p in sub.nodes)


def test_edge_attr_rows_match_graph():
    g0 = gen_random(14, 0.35, 8)
    attrs = {(u, v): 3 * u + v for u, v in g0.edges() if (u + v) % 3}
    g = from_edges(g0.node_count, g0.edges(), edge_attrs=attrs)
    for u, v in g.edges():
        assert g.edge_attr(u, v) == g.edge_attr(v, u) == attrs.get((u, v))
    for root in range(g.node_count):
        for sub in (extract_rooted(g, root, ego(2)), identity_labeled_graph(g, root)):
            for k, p in enumerate(sub.nodes):
                want = [g.edge_attr(p, sub.nodes[q]) or 0 for q in sub.adj[k]]
                assert list(sub.edge_attrs[k]) == want
    assert g.edge_attr(0, 0) is None


def _assert_indicators(g, sub):
    marks = (("is_root", "in_n_root", sub.root), ("is_branch", "in_n_branch", sub.branching))
    for is_x, in_n_x, x in marks:
        if is_x in sub.labels:
            assert sub.labels[is_x] == tuple(1 if p == x else 0 for p in sub.nodes)
            nbrs = g.neighbor_set(x)
            assert sub.labels[in_n_x] == tuple(1 if p in nbrs else 0 for p in sub.nodes)


def test_indicator_labels_match_set_membership():
    # isolated nodes (the 30-node graphs at p=0.05 have several) exercise
    # roots and subgraphs without neighbors
    graphs = [gen_random(30, 0.05, seed) for seed in range(3)] + small_random_graphs(4)
    assert any(not row for g in graphs for row in g.adjacency)
    for g in graphs:
        for root in range(g.node_count):
            _assert_indicators(g, identity_labeled_graph(g, root))
            for labeling in ("identity", "spd"):
                for policy in (ego(1), ego(2), node_deletion()):
                    sub = extract_rooted(g, root, policy, labeling)
                    _assert_indicators(g, sub)
                    for j in g.adjacency[root]:
                        _assert_indicators(g, with_branching(g, sub, j))
