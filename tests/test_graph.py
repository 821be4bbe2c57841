import random

import pytest

from conftest import (
    BAD_EDGELISTS,
    BAD_GRAPH6_FILES,
    all_graphs_up_to,
    small_random_graphs,
    to_graph6,
)
from graphcount.generators import gen_cycle, gen_random, gen_rook4x4, gen_star
from graphcount.graph import (
    GraphFormatError,
    GraphValidationError,
    disjoint_union,
    format_edgelist,
    from_edges,
    load_graph,
    parse_edgelist,
    parse_graph6,
    permute,
    shortest_path_distances,
)


def test_parse_triangle():
    g = parse_edgelist("3 3\n0 1\n1 2\n2 0\n")
    assert g.node_count == 3
    assert [g.degree(i) for i in range(3)] == [2, 2, 2]
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))


def test_self_loop_rejected():
    with pytest.raises(GraphValidationError, match="self-loop"):
        parse_edgelist("2 1\n0 0\n")


def test_duplicate_edge_rejected():
    with pytest.raises(GraphValidationError, match="duplicate"):
        parse_edgelist("3 2\n0 1\n1 0\n")


def test_index_out_of_range_rejected():
    with pytest.raises(GraphValidationError, match="out of range"):
        parse_edgelist("2 1\n0 5\n")


def test_malformed_lines_rejected():
    for text, message in BAD_EDGELISTS.items():
        with pytest.raises(GraphFormatError, match=message):
            parse_edgelist(text)


def test_graph6_file_without_a_graph_rejected(tmp_path):
    path = tmp_path / "none.g6"
    for text, message in BAD_GRAPH6_FILES.items():
        path.write_text(text)
        with pytest.raises(GraphFormatError, match=message):
            load_graph(path, "graph6")


def test_graph6_matches_edgelist_for_k3():
    g6 = parse_graph6("Bw")
    el = parse_edgelist("3 3\n0 1\n1 2\n2 0\n")
    assert g6.adjacency == el.adjacency


def test_graph6_header_stripped():
    assert parse_graph6(">>graph6<<Bw").adjacency == parse_graph6("Bw").adjacency


def test_graph6_cross_check_all_graphs_up_to_5_nodes():
    # round-trip every labeled graph on <= 5 nodes through an independent
    # encoder and the parser
    n_checked = 0
    for g in all_graphs_up_to(5):
        parsed = parse_graph6(to_graph6(g))
        assert parsed.adjacency == g.adjacency
        n_checked += 1
    assert n_checked == 1 + 1 + 2 + 8 + 64 + 1024


@pytest.mark.parametrize("n, p", [(63, 0.1), (64, 0.1), (300, 0.02)])
def test_graph6_round_trips_four_byte_sizes(n, p):
    # from 63 nodes on the size is "~" and three more bytes
    g = gen_random(n, p, n)
    text = to_graph6(g)
    assert text[0] == "~" and ord(text[1]) - 63 <= 62
    assert parse_graph6(text).adjacency == g.adjacency


def test_graph6_rejects_garbage():
    with pytest.raises(GraphFormatError, match="0 data bytes, expected 1"):
        parse_graph6("B")  # truncated data section
    with pytest.raises(GraphFormatError, match="invalid graph6 character"):
        parse_graph6("B!")  # "!" lies below "?", and strip() keeps it
    for prefix in ("~", "~??"):
        with pytest.raises(GraphFormatError, match="truncated graph6 size prefix"):
            parse_graph6(prefix)
    # K2 is "A_": the last data byte is padded with zeros
    assert parse_graph6("A_").edge_count == 1
    with pytest.raises(GraphFormatError, match="padding"):
        parse_graph6("Ao")


def test_degrees():
    assert gen_star(4).degree(0) == 4
    rook = gen_rook4x4()
    assert {rook.degree(i) for i in range(16)} == {6}
    with pytest.raises(GraphValidationError):
        rook.degree(16)


def test_shortest_path_distances():
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert shortest_path_distances(path, 0) == [0, 1, 2, 3]
    two_edges = from_edges(4, [(0, 1), (2, 3)])
    assert shortest_path_distances(two_edges, 0) == [0, 1, None, None]
    assert shortest_path_distances(gen_cycle(6), 0) == [0, 1, 2, 3, 2, 1]


def test_unreachable_sentinel_refuses_arithmetic():
    two_edges = from_edges(4, [(0, 1), (2, 3)])
    d = shortest_path_distances(two_edges, 0)[2]
    with pytest.raises(TypeError):
        _ = d + 1


def test_roundtrip_canonical():
    text = "4 3\n2 3\n0 1\n1 2\n"
    canonical = format_edgelist(parse_edgelist(text))
    assert canonical == "4 3\n0 1\n1 2\n2 3\n"
    assert format_edgelist(parse_edgelist(canonical)) == canonical


def test_handshake_identity():
    for g in small_random_graphs():
        assert sum(g.degree(i) for i in range(g.node_count)) == 2 * g.edge_count


def test_spd_triangle_inequality():
    rng = random.Random(5)
    for seed in range(10):
        g = gen_random(rng.randint(4, 12), 0.35, seed)
        dists = [shortest_path_distances(g, s) for s in range(g.node_count)]
        for a in range(g.node_count):
            for b in range(g.node_count):
                for c in range(g.node_count):
                    ab, bc, ac = dists[a][b], dists[b][c], dists[a][c]
                    if ab is not None and bc is not None:
                        assert ac is not None and ac <= ab + bc


def test_permute_and_union():
    g = gen_cycle(5)
    gp = permute(g, [4, 3, 2, 1, 0])
    assert sorted(gp.degree(i) for i in range(5)) == [2] * 5
    u = disjoint_union(g, gen_star(3))
    assert u.node_count == 9
    assert u.edge_count == g.edge_count + 3
    with pytest.raises(GraphValidationError):
        permute(g, [0, 0, 1, 2, 3])


def test_permute_and_union_keep_attributes():
    e = from_edges(3, [(0, 1), (1, 2)], node_attrs=[[5], [6], [7]])
    p = permute(e, [2, 1, 0])
    assert p.node_attrs == ((7,), (6,), (5,))
    f = from_edges(2, [(0, 1)], node_attrs=[[1], [2]])
    u = disjoint_union(e, f)
    assert u.node_attrs == ((5,), (6,), (7,), (1,), (2,))
    plain = from_edges(2, [(0, 1)])
    assert disjoint_union(plain, plain).node_attrs is None
    with pytest.raises(GraphValidationError):
        disjoint_union(e, plain)


def test_empty_graph():
    g = parse_edgelist("0 0\n")
    assert g.node_count == 0
    assert format_edgelist(g) == "0 0\n"


def test_node_and_edge_attrs_validated():
    g = from_edges(3, [(0, 1)], node_attrs=[[1], [2], [3]])
    assert g.node_attrs == ((1,), (2,), (3,))
    with pytest.raises(GraphValidationError):
        from_edges(2, [(0, 1)], node_attrs=[[1]])
