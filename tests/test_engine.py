import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ego_mask_program,
    random_permutation,
    small_random_graphs,
    spd_label_program,
)
from graphcount import engine as E
from graphcount.counting import PROG_P3, PROG_PATH2, _PLANS, _walk_program
from graphcount.extraction import ego, extract_rooted, identity_labeled_graph
from graphcount.generators import (
    gen_complete,
    gen_cycle,
    gen_path,
    gen_random,
    gen_star,
)
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
    assert E.run_program(sub, prog)[0] == [16, 12, 18]


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
    assert E.run(prog, ((1,), (0,)), {}) == ([0, 0],)
    sub = extract_rooted(gen_cycle(4), 0, ego(1))
    assert E.run_program(sub, prog) == ([0] * len(sub.nodes),)


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
    size = len(E._COMPILE_CACHE)
    E.run(b, adjacency, labels)
    assert len(E._COMPILE_CACHE) == size
    assert sum(1 for key in E._COMPILE_CACHE if key == (a, ("is_root",))) == 1


def test_empty_graph_without_labels():
    assert E.run(PROG_PATH2, (), {}) == ([],)


# Steps (0 is init) that have a witness, and so run over the nodes where one
# of their sources is nonzero, per audited program.  Every plan step does,
# except path2's, whose messages are Const(1) and Nbr(0) - 1.
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
    compiled = E._compiled(spec.program, E._ROOTED_LABELS[spec.mode == "pair"])
    _, cuts = E._radii(spec.program, [step for _, step in compiled], hops, spec.readouts)
    return " ".join("-" if cut is None else str(cut) for cut in cuts)


@pytest.mark.parametrize("kind", sorted(_PLAN_RADII))
def test_plan_radii_are_frozen(kind):
    spec = _PLANS[kind]
    assert _cuts(spec, spec.hops) == _PLAN_RADII[kind]
    assert _cuts(spec, spec.hops + 1) == _PLAN_RADII[kind]


def test_frozen_plan_radii_cover_every_rooted_plan():
    assert sorted(_PLAN_RADII) == sorted(k for k, s in _PLANS.items() if s.mode != "mpnn")


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
    """The node set each step of ``prog`` runs over in ``E.run``."""
    seen = []
    key = (prog, tuple(sorted(labels)))
    real = E._compiled(prog, key[1])
    E._COMPILE_CACHE[key] = tuple(
        (lambda *a, fn=fn: seen.append(a[4]) or fn(*a), step) for fn, step in real
    )
    try:
        state = E.run(prog, adjacency, labels)
    finally:
        E._COMPILE_CACHE[key] = real
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
# Differential test: the compiled engine against a dense tree-walking
# interpreter, on random programs over every node type.
# ---------------------------------------------------------------------------


def _eval(e, k, l, H, labels, M, ea):
    kind = type(e)
    if kind is E.Const:
        return e.value
    if kind in (E.Self, E.Nbr):
        return H[k if kind is E.Self else l][e.index]
    if kind is E.Msg:
        return M[e.index]
    if kind in (E.LSelf, E.LNbr):
        return labels[e.name][k if kind is E.LSelf else l]
    if kind is E.EdgeAttr:
        return ea
    a = _eval(e.a, k, l, H, labels, M, ea)
    if kind is E.IsZero:
        return int(a == 0)
    if kind is E.IsPos:
        return int(a > 0)
    b = _eval(e.b, k, l, H, labels, M, ea)
    return a + b if kind is E.Add else a - b if kind is E.Sub else a * b


def _reference(prog, adjacency, labels, edge_attrs):
    """Per-node state rows, node by node and edge by edge."""
    n = len(adjacency)
    H = [tuple(_eval(e, k, None, [], labels, [], 0) for e in prog.init) for k in range(n)]
    for layer in prog.layers:
        new = []
        for k in range(n):
            M = [0] * len(layer.message)
            for x, l in enumerate(adjacency[k]):
                ea = edge_attrs[k][x] if edge_attrs is not None else 0
                for i, e in enumerate(layer.message):
                    M[i] += _eval(e, k, l, H, labels, [], ea)
            new.append(tuple(_eval(e, k, None, H, labels, M, 0) for e in layer.update))
        H = new
    return H


_LABELS = ("a", "is_root", "mark")


def _exprs(state_w: int, ctx: str, msg_w: int = 0):
    leaves = [
        st.builds(E.Const, st.sampled_from((0, 0, 1, 2, -1))),
        st.builds(E.LSelf, st.sampled_from(_LABELS)),
    ]
    if state_w:
        leaves.append(st.builds(E.Self, st.integers(0, state_w - 1)))
    if ctx == "message":
        leaves += [st.builds(E.LNbr, st.sampled_from(_LABELS)), st.just(E.EdgeAttr())]
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
    st.booleans(),
)
def test_engine_matches_reference_interpreter(prog, n, p, seed, with_attrs):
    rng = random.Random(seed)
    adjacency = gen_random(n, p, seed).adjacency
    root = rng.randrange(n)
    marked = set(rng.sample(range(n), 3))
    labels = {
        "a": tuple(rng.randint(-1, 2) for _ in range(n)),
        "is_root": tuple(int(k == root) for k in range(n)),
        "mark": tuple(int(k in marked) for k in range(n)),
    }
    edge_attrs = None
    if with_attrs:
        edge_attrs = [tuple(rng.randint(-2, 3) for _ in row) for row in adjacency]
    rows = _reference(prog, adjacency, labels, edge_attrs)
    assert E.run(prog, adjacency, labels, edge_attrs) == tuple(map(list, zip(*rows)))
