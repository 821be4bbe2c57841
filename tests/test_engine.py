import random
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import Phase, example, find, given, reject, settings
from hypothesis import strategies as st

from conftest import (
    _row_source,
    assert_states_match_ego,
    ego_mask_program,
    random_permutation,
    reference_states,
    small_random_graphs,
    spd_label_program,
)
from graphcount import engine as E
from graphcount.counting import PROG_P3, _PLANS, _walk_program, count
from graphcount.extraction import ego, extract_rooted, identity_labeled_graph, with_branching
from graphcount.generators import (
    gen_complete,
    gen_cycle,
    gen_path,
    gen_random,
    gen_star,
)
from graphcount.graph import disjoint_union, permute, shortest_path_distances
from graphcount.oracle import oracle_paths

# Plain two-round neighbor aggregation over a whole graph, without labels:
# h_i = sum over neighbors of (deg - 1), the number of 2-paths from i.
PROG_PATH2 = E.MPProgram(
    name="path2-endpoints",
    init=(),
    layers=(
        E.Layer(message=(E.Const(1),), update=(E.Msg(0),)),
        E.Layer(message=(E.Nbr(0) - E.Const(1),), update=(E.Msg(0),)),
    ),
)


def test_path2_program_examples():
    # leaves of a star have degree 1, so the center collects nothing
    assert E.run(PROG_PATH2, gen_star(4).adjacency, {})[0][0] == 0
    assert E.run(PROG_PATH2, gen_path(3).adjacency, {})[0][0] == 1


def test_three_path_program_on_c5():
    g = gen_cycle(5)
    sub = extract_rooted(g, 0, ego(3))
    states = E.run_program(sub, PROG_P3)
    by_parent = {sub.nodes[k]: v for k, v in enumerate(states[-1])}
    # antipodal-ish targets reachable by one 3-path per direction
    assert by_parent[2] == 1
    assert by_parent[3] == 1
    orc = oracle_paths(g, 3)
    for k in range(5):
        assert by_parent[k] == orc.pairs.get((0, k), 0)


def test_constant_zero_program():
    prog = E.MPProgram("zero", init=(E.Const(0),), layers=())
    bag = [extract_rooted(gen_cycle(5), i, ego(1)) for i in range(5)]
    rows = [E.apply_readout(sub, E.run_program(sub, prog), E.Readout(0)) for sub in bag]
    assert rows == [0] * 5


def test_disjoint_union_locality():
    g1, g2 = gen_cycle(5), gen_complete(4)
    u = disjoint_union(g1, g2)
    def run_all(g):
        return [E.run(PROG_PATH2, g.adjacency, {})[0][i] for i in range(g.node_count)]
    assert run_all(u) == run_all(g1) + run_all(g2)


def test_permutation_equivariance():
    for g in small_random_graphs(count=5):
        perm = random_permutation(g.node_count, seed=g.node_count)
        gp = permute(g, perm)
        base = [E.run(PROG_PATH2, g.adjacency, {})[0][i] for i in range(g.node_count)]
        permuted = [E.run(PROG_PATH2, gp.adjacency, {})[0][i] for i in range(g.node_count)]
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
        "nbr-in-update", "lnbr-in-update", "msg-in-message",
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
    return [*plans.values(), PROG_PATH2, ego_mask_program(2), spd_label_program(2)]


_FROZEN_TEXT = {
    block.split("\n", 1)[0]: block
    for block in (Path(__file__).parent / "program_text.txt").read_text().split("\n\n")
}


@pytest.mark.parametrize("prog", _audited_programs(), ids=lambda p: p.name)
def test_program_text_is_frozen(prog):
    assert E.program_text(prog) == _FROZEN_TEXT[f"program {prog.name}"].rstrip("\n")


def test_frozen_program_text_covers_every_program():
    assert sorted(_FROZEN_TEXT) == sorted(f"program {p.name}" for p in _audited_programs())


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
        E.apply_readout(sub, (states[0][:-1],), E.Readout(0, "in_n_root"))


def test_equal_programs_share_one_compile_cache_entry():
    a, b = _walk_program(4), _walk_program(4)
    assert a is not b and a == b and hash(a) == hash(b)
    adjacency = gen_path(3).adjacency
    labels = {"is_root": (1, 0, 0)}
    E.run(a, adjacency, labels)
    size = len(E._KERNELS)
    E.run(b, adjacency, labels)
    assert len(E._KERNELS) == size
    assert sum(1 for key in E._KERNELS if key[:2] == (a, ("is_root",))) == 1


def test_empty_graph_without_labels():
    assert E.run(PROG_PATH2, (), {}) == ([],)


# Steps (0 is init) that have a witness, and so run over the nodes where one
# of their sources is nonzero, per audited program.  Every plan step does;
# the whole-graph path2 program's layers do not, as their messages are
# Const(1) and Nbr(0) - 1.
_SPARSE_STEPS = {
    "path2-endpoints": [0],
    "two-paths-from-root": [0, 1],
    "three-paths-from-root": [0, 1, 2],
    "four-paths-root-branch": [0, 1, 2],
    "triangle-rectangle": [0, 1, 2, 3],
    "four-cliques": [0, 1],
    "chordal-cycles": [0, 1],
    "tailed-triangles": [0, 1],
    "six-cycle-patterns": [0, 1, 2, 3, 4],
    **{f"walks-{n}": list(range(n + 1)) for n in range(1, 9)},
    "ego-mask-2": [0, 1, 2],
    "spd-labels-2": [0, 1, 2],
}


@pytest.mark.parametrize("prog", _audited_programs(), ids=lambda p: p.name)
def test_vanishing_steps_are_frozen(prog):
    steps = E._walk(prog, {})
    sparse = [i for i, step in enumerate(steps) if step.sources is not None]
    assert sparse == _SPARSE_STEPS[prog.name]


# Per plan at its own radius: the radius each step (init first) is cut to
# around the root, "-" for none.
_PLAN_RADII = {
    "path2": "- -",
    "path3": "- - -",
    "path4": "- - -",
    "cycle3": "- 1",
    "cycle4": "- - 1",
    "cycle5": "- 2 1",
    "cycle6": "- 2 - 2 -",
    "tailed_triangle": "- -",
    "chordal_cycle": "- -",
    "clique4": "- -",
    "triangle_rectangle": "- 2 1 -",
    "walk1": "- 0",
    "walk2": "- - 0",
    "walk3": "- - 1 0",
    "walk4": "- - - 1 0",
    "walk5": "- - - 2 1 0",
    "walk6": "- - - - 2 1 0",
    "walk7": "- - - - 3 2 1 0",
    "walk8": "- - - - - 3 2 1 0",
}


def _cuts(spec, hops):
    layout = E._ROOTED_LABELS[spec.mode == "pair"]
    _, cuts = E._radii(spec.program, layout, hops, spec.readouts)
    return " ".join("-" if cut is None else str(cut) for cut in cuts)


@pytest.mark.parametrize("kind", sorted(_PLAN_RADII))
def test_plan_radii_are_frozen(kind):
    spec = _PLANS[kind]
    assert _cuts(spec, spec.hops) == _PLAN_RADII[kind]
    assert _cuts(spec, spec.hops + 1) == _PLAN_RADII[kind]


def test_frozen_plan_radii_cover_every_rooted_plan():
    assert sorted(_PLAN_RADII) == sorted(_PLANS)


# Per plan at its own radius and one more: whether each step (init first)
# scatters its messages from their senders ("s") or pulls them at each node
# it computes ("p"), "-" for a step without messages.
_PLAN_SCATTERS = {
    "path2": "- s",
    "path3": "- s s",
    "path4": "- s s",
    "cycle3": "- p",
    "cycle4": "- s p",
    "cycle5": "- p p",
    "cycle6": "- p s p -",
    "tailed_triangle": "- p",
    "chordal_cycle": "- p",
    "clique4": "- p",
    "triangle_rectangle": "- p p -",
    "walk1": "- p",
    "walk2": "- s p",
    "walk3": "- s p p",
    "walk4": "- s s p p",
    "walk5": "- s s p p p",
    "walk6": "- s s s p p p",
    "walk7": "- s s s p p p p",
    "walk8": "- s s s s p p p p",
}


def _scatters(spec, hops):
    layout = E._ROOTED_LABELS[spec.mode == "pair"]
    _, cuts = E._radii(spec.program, layout, hops, spec.readouts)
    return " ".join(
        "-" if not step.messages else "s" if E._scatters(step, cut) else "p"
        for step, cut in zip(E._steps(spec.program, layout), cuts)
    )


@pytest.mark.parametrize("kind", sorted(_PLAN_SCATTERS))
def test_plan_scatters_are_frozen(kind):
    spec = _PLANS[kind]
    assert _scatters(spec, spec.hops) == _PLAN_SCATTERS[kind]
    assert _scatters(spec, spec.hops + 1) == _PLAN_SCATTERS[kind]
    assert sorted(_PLAN_SCATTERS) == sorted(_PLAN_RADII)


# Per plan at its own radius and one more, in a kernel without a hook: how
# each readout is summed: as its column's messages are scattered or pulled
# ("s"), at the nodes of its weight label ("w"), in the loop that computes
# its column ("l"), or from a stored column ("c").
_PLAN_FUSED = {
    "path2": "s",
    "path3": "s",
    "path4": "s",
    "cycle3": "w",
    "cycle4": "w",
    "cycle5": "w",
    "cycle6": "l s l l c l l",
    "tailed_triangle": "l",
    "chordal_cycle": "l",
    "clique4": "l",
    "triangle_rectangle": "l",
    **{f"walk{n}": "w" for n in range(1, 9)},
}
def _fused(spec, hops):
    layout = E._ROOTED_LABELS[spec.mode == "pair"]
    _, cuts = E._radii(spec.program, layout, hops, spec.readouts)
    plan = E._fusion(E._steps(spec.program, layout), cuts, spec.readouts)
    how = {
        x: "s" if c in sent else "w" if mode == "weight" else "l"
        for mode, fused, sent in plan for c, xs in fused.items() for x in xs
    }
    return " ".join(how.get(x, "c") for x in range(len(spec.readouts)))


@pytest.mark.parametrize("kind", sorted(_PLAN_FUSED))
def test_plan_fused_readouts_are_frozen(kind):
    spec = _PLANS[kind]
    assert _fused(spec, spec.hops) == _PLAN_FUSED[kind]
    assert _fused(spec, spec.hops + 1) == _PLAN_FUSED[kind]
    assert sorted(_PLAN_FUSED) == sorted(_PLAN_RADII)


# Per plan at its own radius and one more, in a kernel without a hook on a
# graph of 32 nodes or more: the node list each step (init first, steps
# apart by "|") computes each of its columns over, in column order.  i and
# j are the root and the branching node, N(x) the neighbors of x, "+" a
# union, "&B<d>" cuts the whole list to the ball of radius d around the
# root, B<d> is that ball; ">" marks a column whose messages are sent, "-"
# one computed nowhere, "()" a step that computes no column.
_PLAN_NODES = {
    "path2": "() | >",
    "path3": "N(i) | N(N(i)) | >",
    "path4": "N(j) | N(N(j)) | >",
    "cycle3": "() | N(i)",
    "cycle4": "N(i) | N(N(i)) | N(i)",
    "cycle5": "N(j) | N(N(j))&B2 | N(i)",
    "cycle6": "N(j) N(i) | N(N(i))&B2 N(j)+N(i) N(j) | N(N(j)) | N(j)+N(N(i))&B2 > "
    "| N(N(i))&B2 N(j) N(j) N(j) N(i)",
    "tailed_triangle": "N(i) | N(i)",
    "chordal_cycle": "N(i) | N(j)",
    "clique4": "N(i) | N(i)",
    "triangle_rectangle": "N(j) | N(N(j))&B2 | N(i) | N(i)",
    "walk1": "i | i",
    "walk2": "i | N(i) | i",
    "walk3": "i | N(i) | B1 | i",
    "walk4": "i | N(i) | N(N(i)) | B1 | i",
    "walk5": "i | N(i) | N(N(i)) | N(N(N(i)))&B2 | B1 | i",
    "walk6": "i | N(i) | N(N(i)) | N(N(N(i))) | N(N(N(N(i))))&B2 | B1 | i",
    "walk7": "i | N(i) | N(N(i)) | N(N(N(i))) | N(N(N(N(i))))&B3 | N(N(N(N(N(i))))&B3)&B2 "
    "| B1 | i",
    "walk8": "i | N(i) | N(N(i)) | N(N(N(i))) | N(N(N(N(i)))) | N(N(N(N(N(i)))))&B3 "
    "| N(N(N(N(N(N(i)))))&B3)&B2 | B1 | i",
}
_LIST_TEXT = {"is_root": "i", "in_n_root": "N(i)", "is_branch": "j", "in_n_branch": "N(j)"}


def _list_text(nodes, layout):
    if type(nodes) is str:
        if nodes.startswith("_U"):
            return _LIST_TEXT[layout[int(nodes[2:])]]
        return {"_all": "all", "set()": "{}"}.get(nodes, nodes[1:])
    near, here, cut = nodes
    parts = [f"N({'+'.join(_list_text(x, layout) for x in near)})"] if near else []
    parts += [_list_text(x, layout) for x in here]
    return "+".join(parts) + ("" if cut is None else f"&B{cut}")


def _hook_free_layout(prog, readouts, branching, hops):
    """The walked steps, their cuts, their fusion plan, the units of each
    step of the kernel without a hook on a graph of 32 nodes or more, and
    the node list off which each computed column is 0."""
    layout = E._ROOTED_LABELS[branching]
    _, cuts = E._radii(prog, layout, hops, readouts)
    steps = E._steps(prog, layout)
    plan = E._fusion(steps, cuts, readouts)
    index = {name: i for i, name in enumerate(layout)}
    units, slot = E._layout(steps, cuts, plan, False, index, readouts)
    return steps, cuts, plan, units, slot


def _node_lists(spec, hops):
    branching = spec.mode == "pair"
    layout = E._ROOTED_LABELS[branching]
    steps, _, _, units, _ = _hook_free_layout(spec.program, spec.readouts, branching, hops)
    text = []
    for step, step_units in zip(steps, units):
        where = {
            c: ">" if nodes is None else _list_text(nodes, layout)
            for nodes, columns in step_units for c in columns
        }
        columns = [where.get(c, "-") for c, src in enumerate(step.copies) if src is None]
        text.append(" ".join(columns) or "()")
    return " | ".join(text)


@pytest.mark.parametrize("kind", sorted(_PLAN_NODES))
def test_plan_node_lists_are_frozen(kind):
    spec = _PLANS[kind]
    assert _node_lists(spec, spec.hops) == _PLAN_NODES[kind]
    assert _node_lists(spec, spec.hops + 1) == _PLAN_NODES[kind]
    assert sorted(_PLAN_NODES) == sorted(_PLAN_RADII)


def test_a_second_count_compiles_and_analyses_nothing(monkeypatch):
    kinds = sorted(_PLANS)
    for kind in kinds:
        count(kind, gen_random(40, 0.1, 1))

    def refuse(*args):
        raise AssertionError("analysed again")

    monkeypatch.setattr(E, "_walk", refuse)
    monkeypatch.setattr(E, "_generate", refuse)
    for kind in kinds:  # the same size class: 32 nodes or more
        count(kind, gen_random(45, 0.1, 2))
    for prog, layout, cuts, small, readouts, hooked in E._KERNELS:
        assert type(prog) is E.MPProgram and type(small) is bool and type(hooked) is bool
        assert type(layout) is tuple and all(type(name) is str for name in layout)
        assert cuts is None or type(cuts) is tuple and len(cuts) == len(prog.layers) + 1
        assert readouts is None or type(readouts) is tuple
    for prog, layout, hops, readouts in E._RADII:
        assert type(prog) is E.MPProgram and type(layout) is tuple
        assert type(hops) is int and type(readouts) is tuple


def test_count_compiles_only_hook_free_kernels(monkeypatch):
    monkeypatch.setattr(E, "_KERNELS", {})
    for kind in sorted(_PLANS):
        count(kind, gen_random(40, 0.1, 1))
    assert len(E._KERNELS) == len(_PLANS)
    assert not any(hooked for *_, hooked in E._KERNELS)


def test_plans_reading_beyond_their_radius_are_refused():
    # in_n_branch reaches two hops, so at radius 1 a node on the rim would
    # hear from neighbors outside the subgraph
    prog = E.MPProgram("too-far", (), (E.Layer((E.LNbr("in_n_branch"),), (E.Msg(0),)),))
    with pytest.raises(E.ProgramError, match="reads beyond subgraph radius 1"):
        E.RootedRun(prog, (), 1, (E.Readout(0),), True)
    E.RootedRun(prog, (), 2, (E.Readout(0),), True)
    # a weighted readout needs the column only on the weight's support
    E.RootedRun(prog, (), 1, (E.Readout(0, "is_root"),), True)


def test_copied_components_are_passed_through():
    prog = E.MPProgram(
        "copies",
        (E.LSelf("is_root"),),
        (
            E.Layer((), (E.Self(0), E.Self(0) + 1)),
            E.Layer((), (E.Self(1), E.Self(0), E.Self(0))),
        ),
    )
    state = E.run(prog, ((1,), (0,)), {"is_root": (1, 0)})
    assert state == ([2, 1], [1, 0], [1, 0])
    assert state[1] is state[2]  # one column, passed through twice


def _step_nodes(prog, adjacency, labels):
    """The node set each step of ``prog`` runs over in ``E.run``, as the
    kernel's hook sees it."""
    seen = []
    real = E._kernel

    def observed(*key):
        kernel = real(*key)
        return lambda *args: kernel(*args[:-1], lambda j, steps: seen.extend(n for _, n in steps))

    E._kernel = observed
    try:
        state = E.run(prog, adjacency, labels)
    finally:
        E._kernel = real
    return state, seen


def test_sparse_rule():
    walks = _walk_program(3)
    path = gen_path(40).adjacency
    root = tuple(int(k == 20) for k in range(40))
    state, seen = _step_nodes(walks, path, {"is_root": root})
    assert state[0] == [0] * 17 + [1, 0, 3, 0, 3, 0, 1] + [0] * 16
    # the root, then each layer the neighbors of the one before
    assert [sorted(s) for s in seen] == [[20], [19, 21], [18, 20, 22], [17, 19, 21, 23]]
    # however many nodes are live
    wide = tuple(int(k < 10) for k in range(40))
    assert [len(s) for s in _step_nodes(walks, path, {"is_root": wide})[1]] == [10, 11, 12, 13]
    # in a graph under 32 nodes, every node, unless the step has one source,
    # read at the node itself, whose node list it can take as it is
    small = gen_path(31).adjacency
    _, seen = _step_nodes(walks, small, {"is_root": (1,) + (0,) * 30})
    assert seen == [[0]] + [range(31)] * 3
    # a step with no witness runs over every node
    _, seen = _step_nodes(PROG_PATH2, path, {})
    assert seen[1:] == [range(40)] * 2


# ---------------------------------------------------------------------------
# Differential tests: the generated kernels against a dense reference
# interpreter, on random programs over every node type.
# ---------------------------------------------------------------------------


_LABELS = ("a", "is_root", "mark")


def _exprs(state_w: int, ctx: str, msg_w: int = 0, labels=_LABELS):
    leaves = [
        st.builds(E.Const, st.sampled_from((0, 0, 1, 2, -1))),
        st.builds(E.LSelf, st.sampled_from(labels)),
    ]
    if state_w:
        leaves.append(st.builds(E.Self, st.integers(0, state_w - 1)))
    if ctx == "message":
        leaves += [st.builds(E.LNbr, st.sampled_from(labels))]
        if state_w:
            leaves.append(st.builds(E.Nbr, st.integers(0, state_w - 1)))
    if msg_w:
        leaves.append(st.builds(E.Msg, st.integers(0, msg_w - 1)))
    return st.recursive(
        st.one_of(leaves),
        lambda sub: st.one_of(
            st.builds(E.Add, sub, sub),
            st.builds(E.Sub, sub, sub),
            st.builds(E.Mul, sub, sub),
            st.builds(E.IsZero, sub),
            st.builds(E.IsPos, sub),
        ),
        max_leaves=4,
    )


@st.composite
def _programs(draw):
    width = draw(st.integers(1, 3))
    # an init gated on the root or on a few marked nodes leaves few live
    # nodes, so vanishing layers run sparse, from columns of unlike support
    gate = st.sampled_from((None, "is_root", "mark"))
    gates = draw(st.lists(gate, min_size=width, max_size=width))
    exprs = draw(st.lists(_exprs(0, "init"), min_size=width, max_size=width))
    init = tuple(e if g is None else E.LSelf(g) * e for g, e in zip(gates, exprs))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        messages = draw(st.lists(_exprs(width, "message"), max_size=3))
        new_width = draw(st.integers(1, 3))
        update = _exprs(width, "update", len(messages))
        updates = draw(st.lists(update, min_size=new_width, max_size=new_width))
        if draw(st.booleans()):
            # gate every expression on a state column, so the layer vanishes
            column = st.integers(0, width - 1)
            messages = [E.Nbr(draw(column)) * e for e in messages]
            updates = [E.Self(draw(column)) * e for e in updates]
        layers.append(E.Layer(tuple(messages), tuple(updates)))
        width = new_width
    return E.MPProgram("random", init, tuple(layers))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    _programs(),
    st.integers(40, 60),
    st.sampled_from((0.04, 0.08, 0.2)),
    st.integers(0, 2**32),
)
def test_engine_matches_reference_interpreter(prog, n, p, seed):
    rng = random.Random(seed)
    adjacency = gen_random(n, p, seed).adjacency
    root = rng.randrange(n)
    marked = set(rng.sample(range(n), 3))
    labels = {
        "a": tuple(rng.randint(-1, 2) for _ in range(n)),
        "is_root": tuple(int(k == root) for k in range(n)),
        "mark": tuple(int(k in marked) for k in range(n)),
    }
    rows = reference_states(prog, adjacency, labels)[-1]
    assert E.run(prog, adjacency, labels) == tuple(map(list, zip(*rows)))


def _node_types(e):
    yield type(e)
    if type(e) in E._OPERATORS:
        for f in fields(e):
            yield from _node_types(getattr(e, f.name))


def test_reference_and_strategies_cover_every_node_type():
    # the differential tests check a node type only if the reference
    # interpreter has a form for it and the strategies can draw it
    sample = {"int": 1, "str": "a", "Expr": E.Const(2)}
    drawn = st.one_of(_exprs(2, "message"), _exprs(2, "update", 1))
    unshrunk = settings(derandomize=True, phases=[Phase.generate])
    for kind in (*E._LEAVES, *E._OPERATORS):
        assert isinstance(_row_source(kind(*(sample[f.type] for f in fields(kind)))), str)
        find(drawn, lambda e: kind in set(_node_types(e)), settings=unshrunk)


@st.composite
def _rooted_plans(draw):
    """A random program for a rooted run, with its readouts.  Each init is
    gated on an identity label, and most messages and every update on a read
    at the sender, the receiver or both, so that most programs have bounded
    reach and most steps a witness.  Most layers sum every message in one
    update, or one message times a receiver-side coefficient, so that many
    steps scatter.  Half the last layers send one gated message and take the
    second form, which every readout reads, so that many readouts can be
    summed as the messages are sent.  Half the other last layers gate each
    update on a label (column 0 on in_n_branch in a pair plan), so that a
    column can be nonzero where its label reaches past the radius."""
    branching = draw(st.booleans())
    names = E._ROOTED_LABELS[branching]
    label = st.sampled_from(names)
    width = draw(st.integers(1, 3))
    init = tuple(E.LSelf(draw(label)) * draw(_exprs(0, "init", 0, names)) for _ in range(width))
    layers = []
    depth = draw(st.integers(1, 3))
    for layer in range(depth):
        sent = layer == depth - 1 and draw(st.booleans())
        column = st.integers(0, width - 1)
        sender = st.one_of(st.builds(E.Nbr, column), st.builds(E.LNbr, label))
        receiver = st.one_of(st.builds(E.Self, column), st.builds(E.LSelf, label))
        message = _exprs(width, "message", 0, names)
        messages = []
        for _ in range(1 if sent else draw(st.integers(0, 3))):
            e = draw(message)
            gating = ("sender", "receiver", "both", "both", "none")[: 5 - sent]
            gate = draw(st.sampled_from(gating))
            if gate == "both":  # nonzero where either end is
                e = draw(sender) * e + draw(receiver) * draw(message)
            elif gate != "none":
                e = draw(sender if gate == "sender" else receiver) * e
            messages.append(e)
        gates = [receiver]
        if messages:
            gates.append(st.builds(E.Msg, st.integers(0, len(messages) - 1)))
        update = _exprs(width, "update", len(messages), names)
        coef = _exprs(width, "update", 0, names)
        width = draw(st.integers(1, 3))
        gated = layer == depth - 1 and not sent and draw(st.booleans())
        updates = [
            (E.LSelf(names[c % len(names)]) if gated else draw(st.one_of(gates))) * draw(update)
            for c in range(width)
        ]
        form = "coef" if sent else "any" if gated else draw(
            st.sampled_from(("any", "sum", "sum", "coef", "coef"))
        )
        if messages and form == "sum":
            updates[0] = sum(map(E.Msg, range(1, len(messages))), E.Msg(0))
        elif messages and form == "coef":
            # 1 - coef has no witness, so the message's bounds the column
            factor = 1 - draw(coef) if sent else draw(receiver) * draw(coef)
            updates[0] = factor * E.Msg(draw(st.integers(0, len(messages) - 1)))
        layers.append(E.Layer(tuple(messages), tuple(updates)))
    component = st.just(0) if sent else st.integers(0, width - 1)
    weight = st.sampled_from((None, *names))
    readouts = tuple(
        E.Readout(draw(component), draw(weight)) for _ in range(draw(st.integers(1, 3)))
    )
    return branching, E.MPProgram("random-rooted", init, tuple(layers)), readouts


def _assert_rooted_run_matches(g, sample, branching, prog, readouts, hops):
    """Every root's readout rows from a ``RootedRun`` without a hook equal
    those of one with a hook, and at the ``sample`` roots these equal the
    reference interpreter's on the extracted egos, whose per-step states
    the hook sees on the parent graph within each step's radius.  Raises
    ProgramError for a plan that reads beyond the radius."""
    adjacency = g.adjacency
    seen = {}

    def record(j, states):
        if watched:
            seen[j] = [[list(column) for column in state] for state, _ in states]

    runner = E.RootedRun(prog, adjacency, hops, readouts, branching, record)
    # without a hook, readout-only columns are summed where they are computed
    plain = E.RootedRun(prog, adjacency, hops, readouts, branching)
    layout = E._ROOTED_LABELS[branching]
    steps = E._steps(prog, layout)
    within, _ = E._radii(prog, layout, hops, readouts)
    for i in range(g.node_count):
        watched = i in sample
        seen.clear()
        rows = runner.rows(i)
        assert plain.rows(i) == rows, (hops, i)
        if not watched:
            continue
        base = extract_rooted(g, i, ego(hops))
        dist = shortest_path_distances(g, i)
        want = []
        for j in adjacency[i] if branching else (None,):
            sub = base if j is None else with_branching(g, base, j)
            states = reference_states(prog, sub.adj, sub.labels)
            assert_states_match_ego(seen[j], states, sub.nodes, dist, steps, within, (i, j))
            weights = [sub.labels.get(r.weight, (1,) * len(sub.nodes)) for r in readouts]
            want.append(tuple(
                sum(row[r.component] * w for row, w in zip(states[-1], weight))
                for r, weight in zip(readouts, weights)
            ))
        assert rows == want, (hops, i)


# A pair plan whose readouts are summed as its last step scatters: its
# message is nonzero from the root's neighbors and at the branching node, so
# the kernel sends it from the first and pulls it at the second, times a
# coefficient at the receiver.
_SCATTER_SUMMED = E.MPProgram(
    "scatter-summed",
    (E.LSelf("in_n_root") * 2, E.LSelf("is_branch")),
    (
        E.Layer(
            (E.Nbr(0) * E.LNbr("in_n_branch") + E.Self(1) * E.Nbr(0),),
            ((1 - E.Self(0)) * E.Msg(0),),
        ),
    ),
)


# A pair plan whose last column is nonzero on every neighbor of the branching
# node: at radius 1 the rim of those lies beyond the radius, so the column
# cannot be summed at the label's nodes.
_PAST_THE_RADIUS = E.MPProgram(
    "past-the-radius",
    (E.LSelf("is_branch") * 1,),
    (E.Layer((E.Nbr(0),), (E.LSelf("in_n_branch") * (1 - E.LSelf("is_root")),)),),
)


# Hand-written pair plans for the node-list rules of kernels without a hook
# (engine._layout), which every radius 1-3 and every readout weight uses:
# layer 2 of the first pulls a message for one column and not for the
# other, over unlike node lists, and the column of layer 1 they both read
# is computed only over those two lists; layer 1 of the second is cut and
# sends its second column from the root alone.  The third would send its
# second column from the root's neighbors, past its cut at radius 1, so
# there it must pull it.
_DEMAND_LISTS = E.MPProgram(
    "demand-lists",
    (E.LSelf("is_root"), E.LSelf("in_n_root")),
    (
        E.Layer((), (E.Self(0) + E.Self(1) + E.LSelf("is_branch"), E.Self(1))),
        E.Layer(
            (E.Nbr(1),),
            (E.LSelf("in_n_root") * E.Self(0) * E.Msg(0), E.LSelf("is_root") * E.Self(0)),
        ),
        E.Layer((E.Nbr(0), E.Nbr(1)), (E.LSelf("is_root") * (E.Msg(0) + E.Msg(1)),)),
    ),
)


def _sent(sender):
    return E.MPProgram(
        f"sent-from-{sender}",
        (E.LSelf("in_n_root"),),
        (
            E.Layer(
                (E.Nbr(0), E.LNbr(sender) * E.Nbr(0)),
                (E.Msg(0), (1 - E.LSelf("is_branch")) * E.Msg(1)),
            ),
            E.Layer((E.Nbr(0),), (E.LSelf("is_root") * E.Msg(0), E.Self(1))),
        ),
    )


_RULE_PLANS = (
    (True, _DEMAND_LISTS, (E.Readout(0),)),
    (True, _sent("is_root"), (E.Readout(0), E.Readout(1))),
    (True, _sent("in_n_root"), (E.Readout(0), E.Readout(1))),
)


def _rules(branching, prog, readouts, hops):
    """The node-list rules a kernel without a hook uses: 1, a step that
    pulls messages computes its columns over unlike node lists; 2, a column
    is computed over its readers' node lists instead of its own; 3, a cut
    step sends a column's messages."""
    steps, cuts, plan, units, slot = _hook_free_layout(prog, readouts, branching, hops)
    used = set()
    for s, (step, cut, (mode, _, _), step_units) in enumerate(zip(steps, cuts, plan, units)):
        lists = {nodes for nodes, _ in step_units if nodes is not None}
        if step.messages and len(lists) > 1:
            used.add(1)
        if mode == "nodes" and not E._scatters(step, cut) and any(
            nodes not in (None, slot[s, c]) for nodes, columns in step_units for c in columns
        ):
            used.add(2)
        if cut is not None and any(nodes is None for nodes, _ in step_units):
            used.add(3)
    return used


@pytest.mark.parametrize("hops", [1, 2, 3])
@pytest.mark.parametrize("weight", [None, *E._ROOTED_LABELS[True]])
def test_hand_written_plans_use_every_node_list_rule(hops, weight):
    used = set()
    for branching, prog, readouts in _RULE_PLANS:
        for alike in (readouts, tuple(E.Readout(r.component, weight) for r in readouts)):
            used |= _rules(branching, prog, alike, hops)
    assert used == {1, 2, 3}
    spec = _PLANS["cycle6"]  # and so does the 6-cycle plan
    assert _rules(True, spec.program, spec.readouts, spec.hops) == {1, 2, 3}


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    _rooted_plans(),
    st.integers(40, 60),
    st.sampled_from((0.04, 0.08)),
    st.integers(0, 2**32),
)
@example((True, _PAST_THE_RADIUS, (E.Readout(0, "in_n_branch"),)), 40, 0.08, 3)
@example((True, _SCATTER_SUMMED, (E.Readout(0), E.Readout(0, "in_n_branch"))), 40, 0.08, 9)
@example(_RULE_PLANS[0], 40, 0.08, 5)
@example(_RULE_PLANS[1], 48, 0.08, 6)
@example(_RULE_PLANS[2], 44, 0.08, 8)
@example((True, _PLANS["cycle6"].program, _PLANS["cycle6"].readouts), 40, 0.1, 7)
def test_rooted_runs_match_the_reference_on_extracted_egos(plan, n, p, seed):
    # Each plan runs at every radius 1-3 it can, as drawn and with every
    # readout weighted by each label in turn: a weight label's nodes may lie
    # beyond the radius (in_n_branch's do at radius 1).
    branching, prog, readouts = plan
    rng = random.Random(seed)
    g = gen_random(n, p, seed)
    sample = set(rng.sample(range(n), 4))
    radii = []
    for hops in (1, 2, 3):
        for weight in (False, *E._ROOTED_LABELS[branching]):
            alike = readouts if weight is False else tuple(
                E.Readout(r.component, weight) for r in readouts
            )
            try:  # the reference only for the readouts as drawn
                _assert_rooted_run_matches(
                    g, sample if weight is False else (), branching, prog, alike, hops
                )
            except E.ProgramError as error:
                assert "reads beyond subgraph radius" in str(error)
                continue
            radii.append(hops)
    if not radii:
        reject()
