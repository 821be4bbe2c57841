from pathlib import Path

import pytest

from conftest import random_permutation, small_random_graphs
from graphcount import engine as E
from graphcount.counting import PROG_P3, PROG_PATH2, _PLANS, _walk_program
from graphcount.extraction import (
    ego,
    ego_mask_program,
    extract_bag_subgraph_mpnn,
    extract_rooted,
    identity_labeled_graph,
    spd_label_program,
)
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


class _Unknown(E.Expr):
    """An expression node the engine does not know."""


def _one_layer(message, update, init=(E.Const(0),)):
    return E.MPProgram("bad", init=init, layers=(E.Layer(message, update),))


@pytest.mark.parametrize(
    "prog, error, message",
    [
        (_one_layer((), (E.Nbr(0),)), E.ProgramError,
         "neighbor state is only visible in message expressions"),
        (_one_layer((), (E.LNbr("is_root"),)), E.ProgramError,
         "neighbor labels are only visible in message expressions"),
        (_one_layer((), (E.EdgeAttr(),)), E.ProgramError,
         "edge attributes are only visible in message expressions"),
        (_one_layer((E.Msg(0),), (E.Msg(0),)), E.ProgramError,
         "message sums are only visible in update expressions"),
        (E.MPProgram("bad", init=(E.Msg(0),), layers=()), E.ProgramError,
         "message sums are only visible in update expressions"),
        (E.MPProgram("bad", init=(E.Self(0),), layers=()), E.ProgramError,
         "state select 0 out of width 0"),
        (_one_layer((), (E.Self(1),)), E.ProgramError, "state select 1 out of width 1"),
        (_one_layer((), (E.Self(0),), init=()), E.ProgramError,
         "state select 0 out of width 0"),
        (_one_layer((E.Nbr(2),), (E.Msg(0),)), E.ProgramError,
         "state select 2 out of width 1"),
        (_one_layer((E.Const(1),), (E.Msg(1),)), E.ProgramError,
         "message select 1 out of width 1"),
        (_one_layer((), (E.Const(1) + _Unknown(),)), E.ProgramError,
         "unknown expression node _Unknown"),
        (_one_layer((E.Const(1),), ()), E.ProgramError,
         "layer update must produce at least one component"),
        (
            E.MPProgram(
                "needs",
                init=(E.LSelf("b"), E.LSelf("a")),
                layers=(E.Layer((E.LNbr("c"),), (E.Msg(0),)),),
            ),
            E.MissingLabelError,
            "program 'needs' needs labels ['a', 'b', 'c'] not provided by this "
            "subgraph (has ['is_root'])",
        ),
    ],
    ids=[
        "nbr-in-update", "lnbr-in-update", "edge-attr-in-update", "msg-in-message",
        "msg-in-init", "self-in-init", "self-out-of-width", "self-over-empty-init",
        "nbr-out-of-width", "msg-out-of-width", "unknown-node", "empty-update",
        "missing-labels",
    ],
)
def test_width_and_context_validation(prog, error, message):
    with pytest.raises(error) as info:
        E.run(prog, ((),), {"is_root": (1,)})
    assert type(info.value) is error
    assert str(info.value) == message


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


def _audited_programs():
    plans = {spec.program.name: spec.program for spec in _PLANS.values()}
    return [*plans.values(), ego_mask_program(2), spd_label_program(2)]


_FROZEN_TEXT = {
    block.split("\n", 1)[0]: block
    for block in (Path(__file__).parent / "program_text.txt").read_text().split("\n\n")
}


@pytest.mark.parametrize("prog", _audited_programs(), ids=lambda p: p.name)
def test_program_text_is_frozen(prog):
    assert E.program_text(prog) == _FROZEN_TEXT[f"program {prog.name}"].rstrip("\n")


def test_frozen_program_text_covers_every_program():
    assert sorted(_FROZEN_TEXT) == sorted(f"program {p.name}" for p in _audited_programs())


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
