import pytest

from conftest import random_permutation, small_random_graphs
from graphcount import engine as E
from graphcount.counting import PROG_P3, PROG_PATH2, _walk_program
from graphcount.extraction import ego, extract_bag_subgraph_mpnn, extract_rooted, identity_labeled_graph
from graphcount.generators import gen_complete, gen_cycle, gen_path, gen_star
from graphcount.graph import disjoint_union, from_edges, permute
from graphcount.oracle import oracle_paths


def test_path2_program_examples():
    # leaves of a star have degree 1, so the center collects nothing
    assert E.run(PROG_PATH2, gen_star(4).adjacency, {})[0][0] == 0
    assert E.run(PROG_PATH2, gen_path(3).adjacency, {})[0][0] == 1


def test_three_path_program_on_c5():
    g = gen_cycle(5)
    sub = extract_rooted(g, 0, ego(3))
    states = E.run_program(sub, PROG_P3)
    by_parent = {sub.nodes[k]: h[-1] for k, h in enumerate(states)}
    # antipodal-ish targets reachable by one 3-path per direction
    assert by_parent[2] == 1
    assert by_parent[3] == 1
    orc = oracle_paths(g, 3)
    for k in range(5):
        assert by_parent[k] == orc.pairs.get((0, k), 0)


def test_constant_zero_program():
    prog = E.MPProgram("zero", init=(E.Const(0),), layers=())
    bag = extract_bag_subgraph_mpnn(gen_cycle(5), ego(1))
    rows = [E.apply_readout(sub, E.run_program(sub, prog), E.Readout(0)) for sub in bag]
    assert rows == [0] * 5


def test_disjoint_union_locality():
    g1, g2 = gen_cycle(5), gen_complete(4)
    u = disjoint_union(g1, g2)
    def run_all(g):
        return [E.run(PROG_PATH2, g.adjacency, {})[i][0] for i in range(g.node_count)]
    assert run_all(u) == run_all(g1) + run_all(g2)


def test_permutation_equivariance():
    for g in small_random_graphs(count=5):
        perm = random_permutation(g.node_count, seed=g.node_count)
        gp = permute(g, perm)
        base = [E.run(PROG_PATH2, g.adjacency, {})[i][0] for i in range(g.node_count)]
        permuted = [E.run(PROG_PATH2, gp.adjacency, {})[i][0] for i in range(g.node_count)]
        for i in range(g.node_count):
            assert permuted[perm[i]] == base[i]


def test_determinism():
    g = gen_cycle(9)
    sub = extract_rooted(g, 0, ego(3))
    a = E.run_program(sub, PROG_P3)
    b = E.run_program(sub, PROG_P3)
    assert a == b


def test_arbitrary_precision_states():
    # walk counts on K12 grow geometrically and stay exact
    prog = E.MPProgram(
        "walk-40",
        init=(E.LSelf("is_root"),),
        layers=(E.Layer(message=(E.Nbr(0),), update=(E.Msg(0),)),) * 40,
    )
    sub = identity_labeled_graph(gen_complete(12), 0)
    val = E.run_program(sub, prog)[0][0]
    assert val > 2**100  # far beyond any fixed-width integer


def test_missing_label_error():
    prog = E.MPProgram(
        "needs-branch",
        init=(E.LSelf("is_branch"),),
        layers=(),
    )
    sub = extract_rooted(gen_cycle(4), 0, ego(1))
    with pytest.raises(E.MissingLabelError, match="is_branch"):
        E.run_program(sub, prog)


def test_width_and_context_validation():
    bad_msg_index = E.MPProgram(
        "bad-msg",
        init=(),
        layers=(E.Layer(message=(E.Const(1),), update=(E.Msg(1),)),),
    )
    with pytest.raises(E.ProgramError, match="message select"):
        E.run(bad_msg_index, ((),), {})
    nbr_in_update = E.MPProgram(
        "bad-ctx",
        init=(E.Const(0),),
        layers=(E.Layer(message=(), update=(E.Nbr(0),)),),
    )
    with pytest.raises(E.ProgramError, match="message expressions"):
        E.run(nbr_in_update, ((),), {})
    bad_state = E.MPProgram(
        "bad-state",
        init=(),
        layers=(E.Layer(message=(), update=(E.Self(0),)),),
    )
    with pytest.raises(E.ProgramError, match="state select"):
        E.run(bad_state, ((),), {})


def test_edge_attributes_in_messages():
    g = from_edges(
        3, [(0, 1), (1, 2), (0, 2)], edge_attrs={(0, 1): 5, (1, 2): 7, (0, 2): 11}
    )
    prog = E.MPProgram(
        "edge-weight-sum",
        init=(),
        layers=(E.Layer(message=(E.EdgeAttr(),), update=(E.Msg(0),)),),
    )
    sub = identity_labeled_graph(g, 0)
    assert [h[0] for h in E.run_program(sub, prog)] == [16, 12, 18]


def test_exact_div():
    assert E.exact_div(12, 3) == 4
    with pytest.raises(ArithmeticError):
        E.exact_div(13, 3)


def test_program_text_serialization():
    text = E.program_text(PROG_P3)
    lines = text.splitlines()
    assert lines[0] == "program three-paths-from-root"
    assert lines[1].startswith("  init: h0 = self.in_n_root")
    assert len([ln for ln in lines if ln.startswith("  layer")]) == 2
    assert "sum_nbr" in lines[2]


def test_edge_attr_reads_zero_without_edge_attributes():
    prog = E.MPProgram(
        "ea", (E.Const(1),), (E.Layer((E.EdgeAttr(),), (E.Msg(0),)),)
    )
    assert E.run(prog, ((1,), (0,)), {}) == [(0,), (0,)]
    sub = extract_rooted(gen_cycle(4), 0, ego(1))
    assert E.run_program(sub, prog) == [(0,)] * len(sub.nodes)


def test_label_and_weight_lengths_must_match():
    prog = E.MPProgram("root", (E.LSelf("is_root"),), ())
    adjacency = ((1,), (0,))
    for column in ((1,), (1, 0, 0)):
        with pytest.raises(E.ProgramError, match="is_root"):
            E.run(prog, adjacency, {"is_root": column})
    sub = extract_rooted(gen_cycle(4), 0, ego(1))
    states = E.run_program(sub, prog)
    assert E.apply_readout(sub, states, E.Readout(0, "in_n_root")) == 0
    with pytest.raises(E.ProgramError, match="in_n_root"):
        E.apply_readout(sub, states[:-1], E.Readout(0, "in_n_root"))


def test_equal_programs_share_one_compile_cache_entry():
    a, b = _walk_program(4), _walk_program(4)
    assert a is not b and a == b and hash(a) == hash(b)
    adjacency = gen_path(3).adjacency
    labels = {"is_root": (1, 0, 0)}
    E.run(a, adjacency, labels)
    size = len(E._COMPILE_CACHE)
    E.run(b, adjacency, labels)
    assert len(E._COMPILE_CACHE) == size
    assert sum(1 for key in E._COMPILE_CACHE if key == (a, ("is_root",))) == 1


def test_empty_graph_without_labels():
    assert E.run(PROG_PATH2, (), {}) == []
