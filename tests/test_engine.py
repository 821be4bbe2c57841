import ast
import hashlib
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import Phase, example, find, given, reject, settings
from hypothesis import strategies as st

from conftest import (
    ROOTED_LAYOUT,
    _row_source,
    assert_states_match_ego,
    branches,
    ego_mask_program,
    random_permutation,
    reference_states,
    small_random_graphs,
    spd_label_program,
)
from graphcount import engine as E
from graphcount import loops as fusion
from graphcount import program as P
from graphcount.counting import (
    PROG_P3,
    _PLANS,
    _walk_program,
    count,
    count_path4_edge,
    count_walks,
)
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
    # a readout weighted by a label outside the identifiers
    with pytest.raises(E.MissingLabelError, match="readout weight label 'a'"):
        E.RootedRun(PROG_P3, sub.adj, 3, (E.Readout(0, "a"),))
    # weighted by a branch identifier, a root program runs on pair bags
    rows = E.RootedRun(PROG_P3, sub.adj, 3, (E.Readout(0, "is_branch"),)).rows(0)
    assert len(rows) == len(sub.adj[0])


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


# the width cycle6's program ends with: its last layer's update count
_CYCLE6_WIDTH = len(_PLANS["cycle6"].program.layers[-1].update)


@pytest.mark.parametrize("component", [-1, _CYCLE6_WIDTH])
def test_readout_components_must_lie_within_the_final_width(component):
    # -1 must not read cycle6's last column, nor its width one past it
    spec, g = _PLANS["cycle6"], gen_cycle(6)
    readout = E.Readout(component)
    sub = with_branching(g, extract_rooted(g, 0, ego(spec.hops)), 1)
    states = E.run_program(sub, spec.program)
    assert len(states) == _CYCLE6_WIDTH
    for attempt in (
        lambda: E.RootedRun(spec.program, g.adjacency, spec.hops, (readout,)),
        lambda: E.apply_readout(sub, states, readout),
    ):
        with pytest.raises(E.ProgramError) as info:
            attempt()
        assert type(info.value) is E.ProgramError
        assert str(info.value) == f"readout component {component} out of width {_CYCLE6_WIDTH}"


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
    "six-cycle-patterns": [0, 1, 2, 3, 4],
    **{f"walks-{n}": list(range(n + 1)) for n in range(1, 9)},
    "ego-mask-2": [0, 1, 2],
    "spd-labels-2": [0, 1, 2],
}


@pytest.mark.parametrize("prog", _audited_programs(), ids=lambda p: p.name)
def test_vanishing_steps_are_frozen(prog):
    steps = P._walk(prog, {})
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
    "tailed_triangle": "- - 1",
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
    steps = E._steps(spec.program, ROOTED_LAYOUT)
    _, cuts = E._radii(steps, hops, spec.readouts, spec.program.name)
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
    "tailed_triangle": "- s p",
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
    steps = E._steps(spec.program, ROOTED_LAYOUT)
    _, cuts = E._radii(steps, hops, spec.readouts, spec.program.name)
    return " ".join(
        "-" if not step.messages else "s" if E._scatters(step, cut) else "p"
        for step, cut in zip(steps, cuts)
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
# its column ("l"), from a stored column or as the length of its node list
# ("c"), or by rule T, per sender of
# its message ("t"), or in the loop over the senders of the message of the
# column that message reads (rule P, "p").
_PLAN_FUSED = {
    "path2": "s",
    "path3": "p",
    "path4": "p",
    "cycle3": "w",
    "cycle4": "w",
    "cycle5": "p",
    "cycle6": "p s l c l l",
    "tailed_triangle": "l l",
    "chordal_cycle": "l",
    "clique4": "l",
    "triangle_rectangle": "l",
    **{f"walk{n}": "w" for n in range(1, 9)},
}
def _fused(spec, hops):
    # a readout term without its readout's weight lies under the weight rule
    _, _, units, _, terms = _hook_free_layout(spec.program, spec.readouts, hops)
    how = {x: "t" for x, _ in _tagged(terms, "T")}
    how.update((x, "p") for x, _ in _tagged(terms, "P"))
    for step_units, step_terms in zip(units, terms):
        sent = {c for nodes, columns, _ in step_units if nodes is None for c in columns}
        for c, xs in step_terms.items():
            for x, w in xs if type(c) is int else ():
                weighted = spec.readouts[x].weight is not None
                if x not in how:
                    how[x] = "s" if c in sent else "w" if weighted and w is None else "l"
    return " ".join(how.get(x, "c") for x in range(len(spec.readouts)))


@pytest.mark.parametrize("kind", sorted(_PLAN_FUSED))
def test_plan_fused_readouts_are_frozen(kind):
    spec = _PLANS[kind]
    assert _fused(spec, spec.hops) == _PLAN_FUSED[kind]
    assert _fused(spec, spec.hops + 1) == _PLAN_FUSED[kind]
    assert sorted(_PLAN_FUSED) == sorted(_PLAN_RADII)


# Per plan at its own radius and one more, in a kernel without a hook, at
# every graph size: the node list each step (init first, steps apart by "|")
# computes each of its columns over, in column order.  i and j are the root
# and the branching node, N(x) the neighbors of x, "+" a union, "&" between
# two lists their intersection, "&B<d>" cuts the whole list to the ball of
# radius d around the root, B<d> is that ball; ">" marks a column whose
# messages are sent, "-" one computed nowhere, "1" one that is 1 on its
# list but at the nodes its update excludes, read as such wherever it is
# read and so not stored, "()" a step that computes no column, and "^"
# before a list a column computed once per root, before the loop over its
# branches; "~" before a list marks a column that is a local of one fused
# loop (rule c), neither stored nor reset.
_PLAN_NODES = {
    "path2": "() | >",
    "path3": "1 | > | >",
    "path4": "1 | > | >",
    "cycle3": "() | ^N(i)",
    "cycle4": "1 | N(N(i)) | N(i)",
    "cycle5": "1 | > | N(i)",
    "cycle6": "1 1 | ^N(N(i)) ~N(j) | N(N(j)) | N(j) > | - N(j) N(j) N(i)&N(j)",
    "tailed_triangle": "1 | N(i) | B1",
    "chordal_cycle": "N(i) | N(j)",
    "clique4": "N(i)&N(j) | N(i)&N(j)",
    "triangle_rectangle": "N(j) | N(N(i)&N(j)) | ~N(i)&N(j) | N(i)&N(j)",
    "walk1": "^i | ^i",
    "walk2": "1 | N(i) | i",
    "walk3": "1 | N(i) | B1 | i",
    "walk4": "1 | N(i) | N(N(i)) | B1 | i",
    "walk5": "1 | N(i) | N(N(i)) | N(N(N(i)))&B2 | B1 | i",
    "walk6": "1 | N(i) | N(N(i)) | N(N(N(i))) | N(N(N(N(i))))&B2 | B1 | i",
    "walk7": "1 | N(i) | N(N(i)) | N(N(N(i))) | N(N(N(N(i))))&B3 | N(N(N(N(N(i))))&B3)&B2 | B1 | i",
    "walk8": "1 | N(i) | N(N(i)) | N(N(N(i))) | N(N(N(N(i)))) | N(N(N(N(N(i)))))&B3 "
    "| N(N(N(N(N(N(i)))))&B3)&B2 | B1 | i",

}
_LIST_TEXT = {"is_root": "i", "in_n_root": "N(i)", "is_branch": "j", "in_n_branch": "N(j)"}


def _list_text(nodes, layout):
    if type(nodes) is str:
        if nodes.startswith("_U"):
            return _LIST_TEXT[layout[int(nodes[2:])]]
        return {"_all": "all", "set()": "{}"}.get(nodes, nodes[1:])
    if type(nodes) is frozenset:
        return "&".join(sorted(_list_text(x, layout) for x in nodes))
    near, here, cut = nodes
    parts = [f"N({'+'.join(_list_text(x, layout) for x in near)})"] if near else []
    parts += [_list_text(x, layout) for x in here]
    return "+".join(parts) + ("" if cut is None else f"&B{cut}")


def _hook_free_layout(prog, readouts, hops):
    """The walked steps, their cuts, and the layout of the kernel without a
    hook: the units of each step, the node list off which each computed
    column is 0, and each step's readout terms."""
    steps = E._steps(prog, ROOTED_LAYOUT)
    _, cuts = E._radii(steps, hops, readouts, prog.name)
    index = {name: i for i, name in enumerate(ROOTED_LAYOUT)}
    units, slot, terms, _ = E._layout(steps, cuts, index, readouts)
    return steps, cuts, units, slot, terms


def _tagged(terms, tag):
    """The (readout, (step, column)) of each term of the columns of a
    layout that rule ``tag`` ("T" or "P") wrote (``E._transpose``)."""
    return [
        (x, (s, c)) for s, step_terms in enumerate(terms) for c, xs in step_terms.items()
        if type(c) is int for x, w in xs if E._tag(w) == tag
    ]


def _node_lists(spec, hops):
    steps, _, units, _, terms = _hook_free_layout(spec.program, spec.readouts, hops)
    lines, _, _ = E._generate(spec.program, ROOTED_LAYOUT, hops, spec.readouts, False)
    source = "\n".join(lines)
    known = E._Form(spec.program, ROOTED_LAYOUT, hops, spec.readouts, False).known
    text = []
    for s, (step, step_units) in enumerate(zip(steps, units)):
        where = {
            c: ">" if nodes is None else "1" if (
                f"O{s}_{c} = [0] * n" not in source and c not in terms[s] and (s, c) in known
            ) else "~" * (f"O{s}_{c} = [0] * n" not in source and c not in terms[s])
            + "^" * once + _list_text(nodes, ROOTED_LAYOUT)
            for nodes, columns, once in step_units for c in columns
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


# Per plan at its own radius and one more, in a kernel without a hook: the
# folds and closed-form sums of each step (init first, steps apart by "|"),
# loop by loop in the order the kernel runs them (engine._Form.fold, _split).
# "k!=i,j" is a skip guard on a loop over receivers k (senders l) that skips
# the root i and the branching node j; "(l!=i,j)" drops a factor the loop's
# node list or guard already implies; "(k:N(j))" drops a read of a label
# that the loop's list makes 1, and "(k:h0)" one of a column 1 on the
# loop's list but at the nodes its update excludes; "deg(k)-i,j" sums a
# message's receiver part at k times the number of k's neighbors other than
# i and j, with no loop over them; "deg(l)-i,j" adds a value sent from l
# once, times the number of l's neighbors other than i and j, and
# "W[N(i)](l)-j" once, times Omega_F(l), the sum of the weight (a label,
# or "step:column" of a column computed once per root) over l's neighbors
# other than j (rule T), and "W[N(i)](k)-i,j" sums a receiver part at k
# times that of in_n_root, whose read is a factor of the message at its
# sender; "push-i,j" adds such per-sender sums in the loop
# over the senders of their column's message, at its nodes other than i
# and j (rule P); "own-i,j" scatters a message into its column's own
# buffer, then zeroes i and j; "-" is a step with none.
_PLAN_FOLDS = {
    "chordal_cycle": "(k:N(i)) | k!=i (k:N(j))",
    "clique4": "(k:N(i)&N(j)) | (k:h0)",
    "cycle3": "- | (k!=i)",
    "cycle4": "- | own-i (l:N(i)) (l:N(i)) | (k!=i) deg(k)-i (l!=i) (k:h0)",
    "cycle5": "- | push-i,j W[N(i)](k)-i,j (l:h0) (l!=i) k!=i,j "
    "| k!=j (k!=i) deg(k)-i,j (l!=i,j) (k:h0)",
    "cycle6": "- | k!=i | own-i,j push-i,j W[1:2](k)-i,j (l:h0) (l!=i) k!=i,j "
    "| l!=j (l!=i) (l:N(i)) deg(l)-i,j (l:N(i)) (k:h0) (k!=i,j) W[N(i)](k)-i,j "
    "k!=i (k!=j) deg(k)-i,j (l!=i,j) (k:h0) | k!=i (k:N(j)) (k:h4)",
    "path2": "- | (l:N(i)) deg(l)-i (l:N(i))",
    "path3": "- | push-i deg(k)-i (l:N(i)) k!=i (l:N(i)) | (k:h0) (k!=i) deg(k)-i",
    "path4": "- | push-i,j deg(k)-i,j (l:h0) (l!=i) k!=i,j | (k:h0) (k!=i,j) deg(k)-i,j",
    "tailed_triangle": "- | own (l:h0) | -",
    "triangle_rectangle": "k!=i (k:N(j)) | k!=i,j | (k!=i,j) deg(k)-i,j (l!=i,j) (k:h0) "
    "| (k:N(i)&N(j))",
    "walk1": "(k:i) | -",
    **{
        f"walk{n}": " | ".join(["-", "own (l:h0)", *["own"] * (n // 2 - 1), *["-"] * (n - n // 2)])
        for n in range(2, 9)
    },
}


def _folds(prog, readouts, hops):
    _, _, folds = E._generate(prog, ROOTED_LAYOUT, hops, readouts, False)

    def nodes(names):
        return ",".join(E._ONE_NODE[x] for x in E._ONE_NODE if x in names)

    def weight(w):
        return _LIST_TEXT[w] if type(w) is str else "{}:{}".format(*w)

    forms = {
        "skip": "{v}!={nodes}", "implied": "({v}!={nodes})", "one": "({v}:{labels})",
        "sum": "deg({v}){minus}", "flat": "deg({v}){minus}", "own": "own{minus}",
        "omega": "W[{weight}]({v}){minus}", "push": "push{minus}",
    }
    text = []
    for step in folds:
        loops = []
        for rule, hop, names in step:
            w, names = names if rule == "omega" else (None, names)
            loops.append(forms[rule].format(
                v="kl"[hop], nodes=nodes(names), minus=nodes(names) and "-" + nodes(names),
                labels="&".join(sorted(_LIST_TEXT.get(x, x.lower()) for x in names)),
                weight=w and weight(w),
            ))
        text.append(" ".join(loops) or "-")
    return " | ".join(text)


@pytest.mark.parametrize("kind", sorted(_PLAN_FOLDS))
def test_plan_folds_are_frozen(kind):
    spec = _PLANS[kind]
    assert _folds(spec.program, spec.readouts, spec.hops) == _PLAN_FOLDS[kind]
    assert _folds(spec.program, spec.readouts, spec.hops + 1) == _PLAN_FOLDS[kind]
    # a kernel with a hook keeps every factor
    _, _, folds = E._generate(spec.program, ROOTED_LAYOUT, spec.hops, spec.readouts, True)
    assert folds == [None] * (len(spec.program.layers) + 1)
    assert sorted(_PLAN_FOLDS) == sorted(_PLAN_RADII)


# The md5 of the source of each kernel: per plan at its own radius and one
# more, without and then with a hook, the kernels of ``count_path4_edge`` and
# of ``count_walks`` at lengths 2 and 4, and ``run``'s plain kernels of five
# programs over the rooted layout.  A kernel's source does not depend on the
# graph, so a change to the generator shows here kernel by kernel.
_KERNEL_MD5 = {
    "chordal_cycle": ("0d475708d44bc587c3663620593b3ea4", "49ad0084a6b3f5ce9dc9855de484574f"),
    "clique4": ("dd9f9e2fa7db876b484e36376e1d3b51", "a5e006aaca7df3364f4915b3c7eedbb7"),
    "cycle3": ("030f0d52c903e0307f73fe1349d3d9d1", "d82e8cf8fc9c8fd1dd01b2a28e012d05"),
    "cycle4": ("be5023ddb52a8f0770419bb94aa5fe0c", "a87a08c40a5a8a6b92210d3d5b1a68ec"),
    "cycle5": ("057b623ea64eeb71c91fe85a7c1e4bea", "4f81c2d81c49fa76b2113262de7549ca"),
    "cycle6": ("406b4aa79ddb871803a12e2834edd3f6", "367ff56566043ed522a3f5dc51d7d681"),
    "path2": ("08143827b3e986365764ccfbf4c9a7f0", "4dfff9ba7fcbbacdcd896bf77ba78dde"),
    "path3": ("823595bc1a6e2aedbd3798fc0e3eed01", "0a91958be5bcb36aa103bace921c6c28"),
    "path4": ("20929578c6f00677e08b679fdb97bc7b", "4c33f6cff0e934b49e019c3237014b6d"),
    "tailed_triangle": ("10437a6388f723ed12809f63ea00c4c9", "638db3f8645738cf634cc0f8b344742f"),
    "triangle_rectangle": ("8ea4c1d23299586c1ce4cb12bcd01084", "c2d975d7eff74e476a0db004ab884744"),
    "walk1": ("1bde402e1898fe2b83b042fda93d0518", "e22310f606ca898335eb949728ed9518"),
    "walk2": ("e242f5221faa468a7730badade00cee6", "b074564ed3bea0d000d8ecb2cc36d64d"),
    "walk3": ("edb2dcaebcab092b718430cd432f2440", "e5c2010df37ff1239e3d1033c5dd16f5"),
    "walk4": ("c84f534e2b01e6650fffa07a30bf6707", "d3cdb34564b1e06546048a2212336ce6"),
    "walk5": ("61b37fcbd1ec17c9edf66db3b887c846", "8c14ae9bff5bc7d7ccde7295fbdced59"),
    "walk6": ("cb37befd777f88c0e01c4b9928c4c7e5", "720c47c37ba31fc5ac932d7dc1d831df"),
    "walk7": ("f13c186e9f8ab36e8be42d66b26f51ad", "d3fe14dbad0a7757236317c0947e93fe"),
    "walk8": ("2c4e825e5fb3b840f67dd66f9e1ebf33", "88418a83cfbe9336908689f7aea2d6cc"),
    "path4_edge": ("c603b7ea8d20a4eda8ab084637b5e954",),
    "walks2": ("60797a30d3788aa8897ebfe49c22430f",),
    "walks4": ("86d05c10e50d64a2521b059709b2c6ed",),
    "plain_cycle6": ("d184bc927f5c3948f6fe0d7681bee7a4",),
    "plain_path4": ("a6b38a1a5610a42c1a6de18d32bc79fd",),
    "plain_clique4": ("5f351f3db17b69a579f00e7b00824be2",),
    "plain_walk3": ("66afcc98f87560cdb150a3c3d9f5d4c5",),
    "plain_walk4": ("4d0c20679f98e5501f70f71c8b983d94",),
}


@pytest.mark.parametrize("kind", sorted(_KERNEL_MD5))
def test_kernel_sources_are_frozen(monkeypatch, kind):
    sources = []
    real = E._exec
    monkeypatch.setattr(E, "_exec", lambda lines, name: sources.append(lines) or real(lines, name))
    monkeypatch.setattr(E, "_KERNELS", {})
    g = gen_cycle(6)
    radii = [None]
    if kind in _PLANS:
        spec = _PLANS[kind]
        radii = [spec.hops, spec.hops + 1]
    for hops in radii:
        sources.clear()
        monkeypatch.setattr(E, "_KERNELS", {})
        if kind in _PLANS:
            for hook in (None, lambda *_: None):
                E.RootedRun(spec.program, g.adjacency, hops, spec.readouts, hook)
        elif kind == "path4_edge":
            count_path4_edge(g)
        elif kind.startswith("plain_"):
            name = kind[len("plain_"):]
            prog = _walk_program(int(name[4:])) if name.startswith("walk") else _PLANS[name].program
            E.run(prog, g.adjacency, {x: [0] * g.node_count for x in ROOTED_LAYOUT})
        else:
            count_walks(g, int(kind[len("walks"):]), 0, 1)
        digests = tuple(hashlib.md5("\n".join(lines).encode()).hexdigest() for lines in sources)
        assert digests == _KERNEL_MD5[kind], hops
    assert set(_PLANS) <= set(_KERNEL_MD5)


@pytest.mark.parametrize("kind", sorted(_PLANS))
def test_hook_free_kernels_read_every_default_and_buffer(kind):
    # generated code that nothing reads is work and source for nothing
    spec = _PLANS[kind]
    for hops in (spec.hops, spec.hops + 1):
        lines, _, _ = E._generate(spec.program, ROOTED_LAYOUT, hops, spec.readouts, False)
        start = next(n for n, line in enumerate(lines) if line.startswith("    def _kernel("))
        defaults = re.findall(r"(\w+)=\w+", lines[start])
        made = "\n".join(lines[:start])
        buffers = re.findall(r"^    (\w+) = \[0\] \* n$", made, re.M)
        body = lines[start + 1:]
        for name in defaults + buffers:
            # a read: any use but as the target of a store
            store = re.compile(rf"^\s*{name}\[[^\]]+\] \+?= ")
            assert any(
                re.search(rf"\b{name}\b", line) and not store.match(line) for line in body
            ), (kind, hops, name)
        assert set(buffers) <= set(defaults)


def test_a_second_count_compiles_and_analyses_nothing(monkeypatch):
    kinds = sorted(_PLANS)
    for kind in kinds:
        count(kind, gen_random(40, 0.1, 1))

    def refuse(*args):
        raise AssertionError("analysed again")

    monkeypatch.setattr(P, "_walk", refuse)
    monkeypatch.setattr(E, "_generate", refuse)
    for kind in kinds:  # a kernel does not depend on the graph's size
        count(kind, gen_random(45, 0.1, 2))
        count(kind, gen_random(20, 0.3, 2))
    # one key per kernel covers its radius analysis too
    for prog, layout, hops, readouts, hooked in E._KERNELS:
        assert type(prog) is E.MPProgram and type(hooked) is bool
        assert type(layout) is tuple and all(type(name) is str for name in layout)
        if readouts is None:  # a plain run
            assert hops is None and not hooked
        else:
            assert type(hops) is int and type(readouts) is tuple


def test_count_compiles_only_hook_free_kernels(monkeypatch):
    monkeypatch.setattr(E, "_KERNELS", {})
    for kind in sorted(_PLANS):
        count(kind, gen_random(20, 0.3, 1))
        count(kind, gen_random(40, 0.1, 1))
    assert len(E._KERNELS) == len(_PLANS)
    assert not any(hooked for *_, hooked in E._KERNELS)


@pytest.mark.parametrize("n", [20, 40])
def test_hooked_pair_kernels_run_every_step_per_branch(monkeypatch, n):
    # a hook sees whole states after each subgraph, so a kernel with one
    # computes nothing once per root: before and after its branch loop it
    # only sets and clears the root's labels
    sources = []
    real = E._exec
    monkeypatch.setattr(E, "_exec", lambda lines, name: sources.append(lines) or real(lines, name))
    monkeypatch.setattr(E, "_KERNELS", {})
    g = gen_random(n, 0.2, 1)
    for kind in ("cycle6", "path4"):
        spec = _PLANS[kind]
        E.RootedRun(spec.program, g.adjacency, spec.hops, spec.readouts, lambda *_: None)
    assert len(sources) == 2
    for lines in sources:
        kernel = lines[lines.index("    def _root(i):"):]
        kernel = kernel[next(k for k, x in enumerate(kernel) if x.startswith("    def _kernel")):]
        loop = kernel.index("        for j in adj[i]:")
        end = next(k for k in range(loop + 1, len(kernel)) if not kernel[k].startswith(" " * 12))
        assert kernel[1] == "        _rows = []"
        assert all(re.fullmatch(r" {8}_U\d = (adj\[i\]|\(i,\))", x) for x in kernel[2:loop])
        assert kernel[-2:] == ["        return _rows", "    return _root, _kernel"]
        assert all(
            re.fullmatch(r" {8}for _k in (adj\[i\]|\(i,\)):| {12}L\d\[_k\] = 0", x)
            for x in kernel[end:-2]
        )


def test_plans_reading_beyond_their_radius_are_refused(monkeypatch):
    # in_n_branch reaches two hops, so at radius 1 a node on the rim would
    # hear from neighbors outside the subgraph
    monkeypatch.setattr(E, "_KERNELS", {})
    prog = E.MPProgram("too-far", (), (E.Layer((E.LNbr("in_n_branch"),), (E.Msg(0),)),))
    for _ in range(2):  # a compile that raises caches nothing, so it raises again
        with pytest.raises(E.ProgramError, match="reads beyond subgraph radius 1"):
            E.RootedRun(prog, (), 1, (E.Readout(0),))
        assert not E._KERNELS
    E.RootedRun(prog, (), 2, (E.Readout(0),))
    assert len(E._KERNELS) == 1
    # a weighted readout needs the column only on the weight's support
    E.RootedRun(prog, (), 1, (E.Readout(0, "is_root"),))


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
    # the same lists on a path of 31 nodes: no rule depends on the size
    short = gen_path(31).adjacency
    _, seen = _step_nodes(walks, short, {"is_root": (1,) + (0,) * 30})
    assert [sorted(s) for s in seen] == [[0], [1], [0, 2], [1, 3]]
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
    if type(e) in P._OPERATORS:
        for f in fields(e):
            yield from _node_types(getattr(e, f.name))


def test_reference_and_strategies_cover_every_node_type():
    # the differential tests check a node type only if the reference
    # interpreter has a form for it and the strategies can draw it
    sample = {"int": 1, "str": "a", "Expr": E.Const(2)}
    drawn = st.one_of(_exprs(2, "message"), _exprs(2, "update", 1))
    unshrunk = settings(derandomize=True, phases=[Phase.generate])
    for kind in (*P._LEAVES, *P._OPERATORS):
        assert isinstance(_row_source(kind(*(sample[f.type] for f in fields(kind)))), str)
        find(drawn, lambda e: kind in set(_node_types(e)), settings=unshrunk)


# The label pools of ``_rooted_plans``: the root's identifiers, or all four.
_POOLS = {False: ("in_n_root", "is_root"), True: ROOTED_LAYOUT}


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
    update on a label (column 0 on in_n_branch with the branch labels), so
    that a column can be nonzero where its label reaches past the radius.
    The first drawn value picks the pool of labels (``_POOLS``)."""
    pool = draw(st.booleans())
    names = _POOLS[pool]
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
    return pool, E.MPProgram("random-rooted", init, tuple(layers)), readouts


def _assert_rooted_run_matches(g, sample, prog, readouts, hops):
    """Every root's readout rows from a ``RootedRun`` without a hook equal
    those of one with a hook, and at the ``sample`` roots these equal the
    reference interpreter's on the extracted egos of the bag the plan reads,
    whose per-step states the hook sees on the parent graph within each
    step's radius.  Raises ProgramError for a plan that reads beyond the
    radius."""
    adjacency = g.adjacency
    seen = {}

    def record(j, states):
        if watched:
            seen[j] = [[list(column) for column in state] for state, _ in states]

    runner = E.RootedRun(prog, adjacency, hops, readouts, record)
    # without a hook, readout-only columns are summed where they are computed
    plain = E.RootedRun(prog, adjacency, hops, readouts)
    steps = E._steps(prog, ROOTED_LAYOUT)
    within, _ = E._radii(steps, hops, readouts, prog.name)
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
        for j in branches(adjacency, i, prog, readouts):
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


# A pair plan whose init column is 0 everywhere, so that its witness and
# layer 1's first message's are empty: at radius 2 the node list of layer 1
# is the neighbors of an empty list, which reaches nowhere (engine._spread).
_EMPTY_WITNESS = E.MPProgram(
    "empty-witness",
    (E.LSelf("in_n_branch") * E.Const(0),),
    (E.Layer((E.Nbr(0) * E.Const(0), E.LNbr("in_n_branch")), (E.Msg(0) + E.Msg(1),)),),
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


# Two pair plans with a column that reads only root labels, which a kernel
# without a hook computes once per root, before the loop over the branches:
# layer 2 of the first reads it across an edge, at the neighbors of the
# branching node's neighbors; the second only reads it out, so each
# branch's row gets the same sum of it.  Weighted by in_n_branch at radius
# 1, the first's last step runs over N(j), past its radius, so the copy of
# init it reads there must keep its own list, cut to B1; weighted by a
# branch label, the second's readout sum differs per branch.
_ROOT_READ_ACROSS = E.MPProgram(
    "root-read-across",
    (E.LSelf("in_n_branch"),),
    (
        E.Layer((E.LNbr("in_n_root"),), (E.LSelf("in_n_root") * E.Msg(0), E.Self(0))),
        E.Layer((E.Nbr(0),), (E.Self(1) * E.Msg(0),)),
    ),
)
_ROOT_SUMMED = E.MPProgram(
    "root-summed",
    (E.LSelf("is_branch"),),
    (
        E.Layer(
            (E.LNbr("in_n_root"), E.Nbr(0)),
            ((1 - E.LSelf("is_root")) * E.Msg(0), E.LSelf("in_n_branch") * E.Msg(1)),
        ),
    ),
)


# Two pair plans whose columns multiply two labels at the node, so that a
# kernel without a hook computes them over the meet of the labels' lists.
# The first reads its init meets at the node and across an edge, and one of
# them (is_root * in_n_root) is computed once per root; layer 2 reads
# layer 1's last column at N(j) and at N(i)&N(j), so it is computed over
# N(j) alone.  The second reads its init meet only across an edge, so that
# keeps in_n_root's list; its last layer's meets read layer 1's first
# column only across an edge, so that is computed over their neighbors
# instead of over i+N(i).
_MEETS = E.MPProgram(
    "meets",
    (
        E.LSelf("in_n_root") * E.LSelf("in_n_branch"),
        E.LSelf("is_root") * E.LSelf("in_n_branch"),
        E.LSelf("is_root") * E.LSelf("in_n_root"),
    ),
    (
        E.Layer(
            (E.Nbr(0) + E.Nbr(1) + E.Nbr(2),),
            (E.Self(0) * E.Msg(0), E.Self(1), E.Self(2) + E.Self(0), E.Msg(0)),
        ),
        E.Layer(
            (),
            (E.LSelf("in_n_branch") * E.Self(3), E.Self(0) * E.Self(3), E.Self(1) + E.Self(2)),
        ),
    ),
)
_MEET_ACROSS = E.MPProgram(
    "meet-across",
    (E.LSelf("is_branch"), E.LSelf("in_n_root") * E.LSelf("in_n_branch")),
    (
        E.Layer(
            (E.Nbr(0), E.Nbr(1)),
            (
                (E.LSelf("is_root") + E.LSelf("in_n_root")) * E.Msg(0),
                E.LSelf("in_n_root") * E.Msg(1),
            ),
        ),
        E.Layer(
            (E.LNbr("in_n_root") * E.Nbr(0),),
            (
                E.LSelf("in_n_root") * E.LSelf("in_n_branch") * E.Msg(0),
                E.LSelf("is_root") * E.LSelf("in_n_branch") * E.Msg(0),
                E.Self(1),
            ),
        ),
    ),
)


# A program that reads only the root's identifiers: a kernel computes its
# init once per root, before the loop over the branches, which is the one
# branch None for a plain readout and the root's neighbors for a readout
# weighted by in_n_branch.
_ROOT_ONLY = E.MPProgram(
    "root-only",
    (E.LSelf("in_n_root"),),
    (E.Layer((E.Nbr(0),), ((1 - E.LSelf("is_root")) * E.Msg(0),)),),
)


# Two pair plans whose exclusion factors fold in a kernel without a hook
# (engine._Form.fold), at the sender and at the receiver.  Layer 1 of the first
# scatters from the root's neighbors, whose list holds no root and whose
# column is 0 at the branching node, so both sender factors drop; its
# receivers skip both nodes.  Its layer 2 pulls, and is cut, and its second
# column has no witness, so it runs over a ball and skips the root.  The
# second sends one message to two readout sums, whose coefficients exclude
# the root and both nodes: the receivers of the sent values skip only the
# root, and those it pulls at lie in the root's neighbors, where its column
# is 0 at the branching node.
_MASKED = E.MPProgram(
    "masked",
    (E.LSelf("in_n_root") * (1 - E.LSelf("is_branch")), E.LSelf("in_n_root")),
    (
        E.Layer(
            ((1 - E.LNbr("is_root")) * E.Nbr(0) * (1 - E.LNbr("is_branch")),),
            ((1 - E.LSelf("is_root")) * (1 - E.LSelf("is_branch")) * E.Msg(0), E.Self(1)),
        ),
        E.Layer(
            ((1 - E.LNbr("is_root")) * (E.Nbr(0) + E.LNbr("in_n_branch")),),
            ((1 - E.LSelf("is_branch")) * E.Self(1) * E.Msg(0), 1 - E.LSelf("is_root")),
        ),
    ),
)
_MASKED_SENT = E.MPProgram(
    "masked-sent",
    (E.LSelf("in_n_root") * (1 - E.LSelf("is_branch")),),
    (
        E.Layer(
            ((1 - E.LNbr("is_root")) * (E.Nbr(0) + E.Self(0)),),
            (
                (1 - E.LSelf("is_root")) * (1 - E.LSelf("is_branch")) * E.Msg(0),
                (1 - E.LSelf("is_root")) * E.Msg(0),
            ),
        ),
    ),
)
_MASKED_PLANS = (
    (True, _MASKED, (E.Readout(0), E.Readout(1))),
    (True, _MASKED_SENT, (E.Readout(0), E.Readout(1))),
)


def _fold_uses(prog, readouts, hops):
    """Where a kernel without a hook folds an exclusion factor: "sender" or
    "receiver" by the node a fold skips or drops at, "guard" or "implied" by
    what it does, and "scatter", "pull", "cut" or "unbounded" by the step it
    folds in: one that scatters, pulls, is cut, or computes a column without
    a witness."""
    steps, cuts, *_ = _hook_free_layout(prog, readouts, hops)
    _, _, folds = E._generate(prog, ROOTED_LAYOUT, hops, readouts, False)
    used = set()
    for step, cut, step_folds in zip(steps, cuts, folds):
        for rule, hop, _ in step_folds:
            if rule not in ("skip", "implied"):
                continue
            used.add(("receiver", "sender")[hop])
            if step.messages:
                used.add("scatter" if E._scatters(step, cut) else "pull")
            kinds = {
                "guard": rule == "skip", "implied": rule == "implied", "cut": cut is not None,
                "unbounded": step.sources is None,
            }
            used.update(kind for kind, yes in kinds.items() if yes)
    return used


def test_hand_written_masked_plans_fold_every_way():
    used = set()
    for _, prog, readouts in _MASKED_PLANS:
        for hops in (2, 3):
            used |= _fold_uses(prog, readouts, hops)
            # a skipped node keeps the 0 of the last reset: no loop runs
            # over every node, which is never reset
            _, _, units, _, _ = _hook_free_layout(prog, readouts, hops)
            assert all(nodes != "_all" for step in units for nodes, *_ in step)
    assert used == {
        "sender", "receiver", "guard", "implied", "scatter", "pull", "cut", "unbounded"
    }


# Two pair plans whose messages are masked differences of a sender and a
# receiver read (engine._split).  Layer 2 of the first scatters two of them,
# Nbr - Self under a mask of three factors, one repeated, and Self - Nbr
# under one; their readouts are sent from the senders once each, times
# their receivers' count, when unweighted, and pulled at a cut otherwise.
# Under a readout weighted by in_n_root or is_branch, its layer 1 is not cut
# and scatters into its column's own buffer.  Layer 2 of the second pulls
# its messages, and is cut under a readout weighted by is_root; its second
# message's sender factor reads the root label in_n_root, so its receiver
# part is summed times that label's Omega less the factor's exclusion.
_DIFFERENCES = E.MPProgram(
    "differences",
    (E.LSelf("in_n_root"), E.LSelf("in_n_branch")),
    (
        E.Layer(
            (E.Nbr(0),),
            ((1 - E.LSelf("is_root")) * (1 - E.LSelf("is_branch")) * E.Msg(0), E.Self(1)),
        ),
        E.Layer(
            (
                (1 - E.LNbr("is_root")) * (1 - E.LNbr("is_branch")) * (1 - E.LNbr("is_root"))
                * (E.Nbr(0) - E.Self(1)),
                (E.Self(1) - E.Nbr(0)) * (1 - E.LNbr("is_branch")),
            ),
            ((1 - E.LSelf("is_root")) * E.Msg(0), (1 - E.LSelf("is_branch")) * E.Msg(1)),
        ),
    ),
)
_DIFFERENCES_PULLED = E.MPProgram(
    "differences-pulled",
    (E.LSelf("in_n_branch") * (1 - E.LSelf("is_root")), E.LSelf("in_n_root")),
    (
        E.Layer(
            (E.Nbr(0),),
            ((1 - E.LSelf("is_root")) * (1 - E.LSelf("is_branch")) * E.Msg(0), E.Self(1)),
        ),
        E.Layer(
            (
                (1 - E.LNbr("is_root")) * (1 - E.LNbr("is_branch")) * (E.Nbr(0) - E.Self(1)),
                (1 - E.LNbr("is_branch")) * E.LNbr("in_n_root") * (E.Nbr(0) - E.Self(1)),
            ),
            (E.LSelf("in_n_root") * E.Msg(0), E.LSelf("in_n_root") * (E.Msg(1) + E.Self(1))),
        ),
    ),
)
_DIFFERENCE_PLANS = (
    (True, _DIFFERENCES, (E.Readout(0), E.Readout(1))),
    (True, _DIFFERENCES_PULLED, (E.Readout(0), E.Readout(1, "in_n_root"))),
)


def _closed_form_uses(prog, readouts, hops):
    """The closed-form rules a kernel without a hook uses, as (rule, step):
    "sum", "flat", "own" or "one" (``_PLAN_FOLDS``), with "scatter", "pull"
    or "cut" for the step it is used in, and "sum" also with the one-node
    identifiers whose neighbors its degree term leaves out."""
    steps, cuts, *_ = _hook_free_layout(prog, readouts, hops)
    _, _, folds = E._generate(prog, ROOTED_LAYOUT, hops, readouts, False)
    used = set()
    for step, cut, step_folds in zip(steps, cuts, folds):
        kind = "cut" if cut is not None else "scatter" if E._scatters(step, cut) else "pull"
        for rule, _, names in step_folds:
            if rule in ("sum", "flat", "own", "one"):
                used.add((rule, kind if step.messages else "-"))
            if rule == "sum":
                used.add((rule, names))
    return used


def test_hand_written_difference_plans_use_every_closed_form_rule():
    (_, sent, _), (_, pulled, _) = _DIFFERENCE_PLANS
    # both operand orders split, with opposite signs, and so does a sender
    # factor that reads a root label as well as exclusions
    steps = E._steps(sent, ROOTED_LAYOUT)
    first, second = (E._split(m[4]) for m in steps[2].messages)
    assert first[1] == {"is_root", "is_branch"} and second[1] == {"is_branch"}
    # h0 is layer 1's column 0 and h1 the init's column 1, each read by its buffer
    assert E._text(first[0][-1][0]) == "O1_0[_l]" and E._text(second[0][-1][0]) == "-O1_0[_l]"
    assert [(sign, E._text(f[0])) for sign, _, (f,) in (first[2], second[2])] == [
        ("", "O0_1[_k]"), ("-", "O0_1[_k]")]
    assert first[3] is second[3] is None
    third = E._split(E._steps(pulled, ROOTED_LAYOUT)[2].messages[1][4])
    assert third[1] == {"is_branch"} and third[3] == "in_n_root"
    # its Omega_F is in_n_root's Omega less in_n_root at j times the label
    # of j's neighbors: W0 counts the neighbors in N(i), scattered once per
    # root, and in_n_root is 1 at j
    lines, _, _ = E._generate(pulled, ROOTED_LAYOUT, 2, _DIFFERENCE_PLANS[1][2], False)
    source = "\n".join(lines)
    assert "_m1 = -(W0[_k] - L0[_k])" in source
    assert "for _l in _U1:\n            for _k in adj[_l]:\n                W0[_k] += 1" in source
    # a readout weight is not multiplied in a loop over its own label's list
    loops = source.split("for _k in _U1:")[1:]
    assert loops and not any("L1[_k] *" in loop.split("for ")[0] for loop in loops)
    used = set()
    for _, prog, readouts in _DIFFERENCE_PLANS:
        for hops in (1, 2, 3):
            for weight in (False, *ROOTED_LAYOUT):
                alike = readouts if weight is False else tuple(
                    E.Readout(r.component, weight) for r in readouts
                )
                try:
                    uses = _closed_form_uses(prog, alike, hops)
                except E.ProgramError:
                    continue
                # a weighted readout is summed per sender only times its
                # weight's Omega (rule T)
                assert weight is False or ("flat", "scatter") not in uses
                used |= uses
    assert used == {
        ("sum", "scatter"), ("sum", "pull"), ("sum", "cut"), ("flat", "scatter"),
        ("own", "scatter"), ("one", "-"), ("one", "pull"), ("one", "scatter"), ("one", "cut"),
        ("sum", frozenset({"is_root", "is_branch"})), ("sum", frozenset({"is_branch"})),
    }


# Two pair plans for the rewrites that apply to every hook-free kernel.  In
# the first, layer 2's message has a sender factor that reads the root label
# in_n_root besides its exclusions of i and j, and its column's messages are
# sent: the message's witness reads only the sender, yet its receiver part
# is summed over the nodes of h = h1, times in_n_root's Omega less the
# exclusion of j.  Layer 1 is cut at radius 2, and at radius 3 it scatters
# into its column's own buffer, whose list only the reset would read.  In the second, layer 1
# scatters into its column's own buffer from the root's neighbors other
# than j, and layer 2 reads that column only across an edge, so no line
# reads the column's node list N(N(i)) but its reset: no set is built, and
# the reset walks the scatter's loops again without their guards.
_LABEL_SENT = E.MPProgram(
    "label-sent",
    (E.LSelf("in_n_branch") * (1 - E.LSelf("is_root")), E.LSelf("in_n_root")),
    (
        E.Layer(
            (E.Nbr(0),),
            ((1 - E.LSelf("is_root")) * (1 - E.LSelf("is_branch")) * E.Msg(0), E.Self(1)),
        ),
        E.Layer(
            (
                (1 - E.LNbr("is_root")) * (1 - E.LNbr("is_branch")) * E.LNbr("in_n_root")
                * (E.Nbr(0) - E.Self(1)),
            ),
            ((1 - E.LSelf("is_root")) * (1 - E.LSelf("is_branch")) * E.Msg(0),),
        ),
    ),
)
_RESET_ONLY = E.MPProgram(
    "reset-only",
    (E.LSelf("in_n_root") * (1 - E.LSelf("is_branch")),),
    (
        E.Layer((E.Nbr(0),), ((1 - E.LSelf("is_root")) * (1 - E.LSelf("is_branch")) * E.Msg(0),)),
        E.Layer((E.Nbr(0),), (E.LSelf("in_n_root") * E.Msg(0),)),
    ),
)
_REWRITE_PLANS = (
    (True, _LABEL_SENT, (E.Readout(0), E.Readout(0, "in_n_branch"))),
    (True, _RESET_ONLY, (E.Readout(0),)),
)


def test_hand_written_plans_use_both_hook_free_rewrites():
    (_, sent, readouts), (_, reset, alone) = _REWRITE_PLANS
    for hops, cut in ((2, 2), (3, None)):
        assert E._radii(E._steps(sent, ROOTED_LAYOUT), hops, readouts, sent.name)[1][1] == cut
        lines, _, folds = E._generate(sent, ROOTED_LAYOUT, hops, readouts, False)
        assert ("omega", 0, ("in_n_root", {"is_root", "is_branch"})) in folds[2]
        assert (
            "for _k in _U1:\n                if _k != j:\n                    _r0 -= (W0[_k] - L0[_k])\n"
            "                    _r1 += L0[_k] * -(W0[_k] - L0[_k])"
        ) in "\n".join(lines)
    lines, _, _ = E._generate(reset, ROOTED_LAYOUT, 2, alone, False)
    source = "\n".join(lines)
    assert "set(" not in source and "if _l != j:" in source
    assert source.split("_rows.append")[1].split("\n")[1:4] == [
        "            for _l in _U1:", "                for _k in adj[_l]:",
        "                    O1_0[_k] = 0",
    ]


# Two pair plans for rules T and P (engine._transpose, engine._push).  The last step of
# the first pulls (its second message has two reads at the sender), and its
# first column, masked by both i and j, is summed per sender of its
# message's sender part under a root label weight; that part reads layer
# 1's first column, which is then computed nowhere: it is pushed into the
# loop over its own message's senders, even where layer 1 is cut.  In the
# second, layer 4's first column multiplies layer 3's first by a column of
# layer 1 computed once per root, nonzero at the root and at the branching
# node, so that layer 3 takes the readout with that column as weight; its
# sender part is pushed into layer 2's scatter, whose column a second
# message also reads, so it stays stored.  At radius 2 layer 3 is cut to
# radius 1, within which the weight column does not lie: there it keeps
# its form.
_TRANSPOSED = E.MPProgram(
    "transposed",
    (
        E.LSelf("in_n_branch") * (1 - E.LSelf("is_root")),
        E.LSelf("in_n_root") + E.LSelf("is_branch"),
    ),
    (
        E.Layer(
            (E.Nbr(0), E.Nbr(0) + E.Nbr(1)),
            ((1 - E.LSelf("is_root")) * (1 - E.LSelf("is_branch")) * E.Msg(0), E.Self(1), E.Msg(1)),
        ),
        E.Layer(
            (
                (1 - E.LNbr("is_root")) * (1 - E.LNbr("is_branch")) * (E.Nbr(0) - E.Self(1)),
                E.Nbr(2),
            ),
            (
                (1 - E.LSelf("is_root")) * (1 - E.LSelf("is_branch")) * E.Msg(0),
                E.LSelf("in_n_root") * E.Msg(1),
            ),
        ),
    ),
)
_LIFTED = E.MPProgram(
    "lifted",
    (E.LSelf("in_n_branch") * (1 - E.LSelf("is_root")), E.LSelf("in_n_root")),
    (
        E.Layer((E.LNbr("in_n_root") + E.LNbr("is_root"),), (E.Self(0), E.Msg(0) + E.Self(1))),
        E.Layer(
            (E.Nbr(0),),
            (
                (1 - E.LSelf("is_root")) * (1 - E.LSelf("is_branch")) * E.Msg(0),
                E.Self(1),
                E.Self(0),
            ),
        ),
        E.Layer(
            (
                (1 - E.LNbr("is_root")) * (1 - E.LNbr("is_branch")) * (E.Nbr(0) - E.Self(2)),
                E.Nbr(0),
            ),
            ((1 - E.LSelf("is_root")) * (1 - E.LSelf("is_branch")) * E.Msg(0), E.Self(1), E.Msg(1)),
        ),
        E.Layer((), (E.Self(0) * E.Self(1), E.Self(2))),
    ),
)
_TRANSPOSED_PLANS = (
    (True, _TRANSPOSED, (E.Readout(0), E.Readout(1))),
    (True, _LIFTED, (E.Readout(0), E.Readout(1))),
)


def _transposed_uses(prog, readouts, hops):
    """Where rules T and P fire in a kernel without a hook: ("T", "pulled",
    "sent" or "lifted", "label", "column" or "1" by the weight), ("P",
    "stored" or "alone"), ("P", "cut") for a push into a cut step, and
    ("T", "i") and ("T", "j") where Omega_F subtracts the weight at i or j
    read off a column, which each branch binds once."""
    steps, cuts, _, _, terms = _hook_free_layout(prog, readouts, hops)
    index = {name: i for i, name in enumerate(ROOTED_LAYOUT)}
    stored = E._layout(steps, cuts, index, readouts)[3]
    kind = {type(None): "1", str: "label", tuple: "column"}
    used = set()
    for x, (s, c) in _tagged(terms, "T"):
        w = dict(terms[s][c])[x][1]
        used.add(("T", "lifted" if (s, c) in stored else "pulled", kind[type(w)]))
    pulled = {(s, steps[s].linear[c][0]) for _, (s, c) in _tagged(terms, "T")}
    for s, step_terms in enumerate(terms):
        for key, group in step_terms.items():
            if type(key) is tuple and (s, key[1]) not in pulled:
                used |= {("T", "sent", kind[type(w)]) for _, (w, _) in group}
    for _, (t, d) in _tagged(terms, "P"):
        used.add(("P", "stored" if (t, d) in stored else "alone"))
        if cuts[t] is not None:
            used.add(("P", "cut"))
    lines, _, _ = E._generate(prog, ROOTED_LAYOUT, hops, readouts, False)
    source = "\n".join(lines)
    for name, v in re.findall(r"^            (_c\d+) = O\d+_\d+\[([ij])\]$", source, re.M):
        used |= {("T", v)} if re.search(rf"{name} \* L", source) else set()
    return used


def test_hand_written_transposed_plans_use_every_rule():
    used = set()
    # _sent("is_root") sends a value per sender under a root label weight
    for _, prog, readouts in _TRANSPOSED_PLANS + _DIFFERENCE_PLANS + _RULE_PLANS[1:2]:
        for hops in (1, 2, 3):
            for weight in (False, *ROOTED_LAYOUT):
                alike = readouts if weight is False else tuple(
                    E.Readout(r.component, weight) for r in readouts
                )
                try:
                    used |= _transposed_uses(prog, alike, hops)
                except E.ProgramError:
                    continue
    assert used == {
        ("T", "pulled", "label"), ("T", "sent", "label"), ("T", "sent", "1"),
        ("T", "lifted", "column"), ("T", "i"), ("T", "j"),
        ("P", "alone"), ("P", "stored"), ("P", "cut"),
    }
    # a step cut within less than its weight's reach keeps its loop: cut
    # cycle5's last step, or the two last of _LIFTED, to radius 0
    for prog, readouts, hops, cut in (
        (_LIFTED, _TRANSPOSED_PLANS[1][2], 3, (None, None, None, 0, 0)),
        (_PLANS["cycle5"].program, _PLANS["cycle5"].readouts, 2, (None, 2, 0)),
    ):
        steps = E._steps(prog, ROOTED_LAYOUT)
        _, cuts = E._radii(steps, hops, readouts, prog.name)
        index = {name: i for i, name in enumerate(ROOTED_LAYOUT)}
        assert _tagged(E._layout(steps, cuts, index, readouts)[2], "T")
        terms = E._layout(steps, cut, index, readouts)[2]
        assert not _tagged(terms, "T") and not _tagged(terms, "P")
    # a column cut within less than Omega_F's reach (2 for cycle5's) is not
    # pushed into; a column is read across an edge one step further out than
    # its reader, so no plan's own radii do this
    terms = E._layout(steps, (None, 1, 1), index, readouts)[2]
    assert _tagged(terms, "T") and not _tagged(terms, "P")


_RULE_PLANS = (
    (True, _DEMAND_LISTS, (E.Readout(0),)),
    (True, _sent("is_root"), (E.Readout(0), E.Readout(1))),
    (True, _sent("in_n_root"), (E.Readout(0), E.Readout(1))),
    (True, _ROOT_READ_ACROSS, (E.Readout(0),)),
    (True, _ROOT_SUMMED, (E.Readout(0), E.Readout(1))),
    (True, _MEETS, (E.Readout(0), E.Readout(1), E.Readout(2))),
    (True, _MEET_ACROSS, (E.Readout(0), E.Readout(1), E.Readout(2))),
)


def _near_a_meet(nodes) -> bool:
    """Whether a node list (``E._nodes``) holds the neighbors of a meet."""
    if type(nodes) is not tuple:
        return False
    near, here, _ = nodes
    return any(type(x) is frozenset for x in near) or any(map(_near_a_meet, near + here))


def _rules(prog, readouts, hops):
    """The node-list rules a kernel without a hook uses: 1, a step that
    pulls messages computes its columns over unlike node lists; 2, a column
    is computed over its readers' node lists instead of its own; 3, a cut
    step sends a column's messages; 4, a unit is computed once per root;
    5, a unit is computed over a meet of label lists; 6, a column is
    computed over the neighbors of its readers' meet lists."""
    steps, cuts, units, slot, terms = _hook_free_layout(prog, readouts, hops)
    used = set()
    for s, (step, cut, step_units, step_terms) in enumerate(zip(steps, cuts, units, terms)):
        lists = {nodes for nodes, _, _ in step_units if nodes is not None}
        if step.messages and len(lists) > 1:
            used.add(1)
        # only a stored column is computed over its readers' lists
        narrowed = {
            nodes for nodes, columns, _ in step_units for c in columns
            if c not in step_terms and nodes not in (None, slot[s, c])
        }
        if not E._scatters(step, cut) and narrowed:
            used.add(2)
        if any(map(_near_a_meet, narrowed)):
            used.add(6)
        if cut is not None and any(nodes is None for nodes, _, _ in step_units):
            used.add(3)
        if any(once for *_, once in step_units):
            used.add(4)
        if any(type(nodes) is frozenset for nodes, _, _ in step_units):
            used.add(5)
    return used


@pytest.mark.parametrize("hops", [1, 2, 3])
@pytest.mark.parametrize("weight", [None, *ROOTED_LAYOUT])
def test_hand_written_plans_use_every_node_list_rule(hops, weight):
    used = set()
    for _, prog, readouts in _RULE_PLANS:
        for alike in (readouts, tuple(E.Readout(r.component, weight) for r in readouts)):
            used |= _rules(prog, alike, hops)
    assert used == {1, 2, 3, 4, 5, 6}
    # and so do the 6-cycle and triangle-rectangle plans
    spec = _PLANS["cycle6"]
    assert _rules(spec.program, spec.readouts, spec.hops) == {1, 2, 3, 4, 5}
    spec = _PLANS["triangle_rectangle"]
    assert _rules(spec.program, spec.readouts, spec.hops) == {2, 5, 6}


# Hand-written plans for the fusion rules (a)-(f) of ``engine``'s module
# docstring.  Two steps pull the same neighbors' column over N(j): their
# loops fuse (a), their inner loops over adj[_k] merge (b), and the first
# step's column, read only at the node of the fused loop, is a local (c).
_PULLS_TWICE = E.MPProgram(
    "pulls-twice",
    (E.LSelf("in_n_branch"), E.LSelf("in_n_root")),
    (
        E.Layer((E.Nbr(1),), (E.Self(0) * E.Msg(0), E.Self(1))),
        E.Layer((E.Nbr(1),), (E.Self(0) * E.Msg(0),)),
    ),
)
# in_n_branch's init column, 1 on N(j), read at the node of a loop over the
# ball of radius 1: there it is the label in_n_branch (e), and its reset and
# that label's marks walk N(j) in one loop (f)
_LABEL_OFF_ITS_LIST = E.MPProgram(
    "label-off-its-list",
    (E.LSelf("in_n_branch"), E.LSelf("in_n_root")),
    (E.Layer((E.Nbr(0),), (E.Self(1) * E.Msg(0) * E.Self(0), E.Self(0))),),
)
# in_n_branch's init column less i, read at the node of a loop over i and
# N(i): there it is in_n_branch times 1 - is_root (e), and the loop skips i
_LABEL_LESS_THE_ROOT = E.MPProgram(
    "label-less-the-root",
    (E.LSelf("in_n_branch") * (1 - E.LSelf("is_root")), E.LSelf("is_root") + E.LSelf("in_n_root")),
    (E.Layer((E.Nbr(0),), (E.Self(1) * E.Msg(0) * E.Self(0), E.Self(0))),),
)
# layer 1 stores in_n_root's Omega less i once per root (cut by its unread
# third column), and layer 2's receiver part reads that Omega over N(j),
# which holds i: there it is read from W0, not from the stored column
_OMEGA_AT_THE_ROOT = E.MPProgram(
    "omega-at-the-root",
    (E.LSelf("in_n_branch"),),
    (
        E.Layer(
            (E.LNbr("in_n_root"), E.LNbr("in_n_branch")),
            (E.Self(0), (1 - E.LSelf("is_root")) * E.Msg(0), E.Msg(1)),
        ),
        E.Layer(
            (
                (1 - E.LNbr("is_root")) * (1 - E.LNbr("is_branch")) * E.LNbr("in_n_root")
                * (E.Nbr(1) - E.Self(0)),
            ),
            (E.Msg(0),),
        ),
    ),
)
# per rule, a plan whose kernel without a hook uses it at radius 2; rule d
# walks _MEETS' meet N(i)∩N(j) as N(j) under in_n_root's test; "e-less"
# keeps rule e's exclusions where the loop's list holds their node, and
# "omega" keeps rule T's Omega off a stored column where the two differ
_FUSION_PLANS = {
    **dict.fromkeys("abc", (True, _PULLS_TWICE, (E.Readout(0),))),
    "d": _RULE_PLANS[5],
    **dict.fromkeys("ef", (True, _LABEL_OFF_ITS_LIST, (E.Readout(0), E.Readout(1)))),
    "e-less": (True, _LABEL_LESS_THE_ROOT, (E.Readout(0), E.Readout(1))),
    "omega": (True, _OMEGA_AT_THE_ROOT, (E.Readout(0),)),
}


def _without_rule(monkeypatch, rule):
    """Turn fusion rule ``rule`` (a-d) off in ``engine`` and ``loops``."""
    merge = fusion._merge
    off = {
        "a": (E, "_merge", lambda stmts, *_: stmts),
        "b": (fusion, "_merge", lambda stmts, lists, layout, top: (
            merge(stmts, lists, layout, top) if top else stmts)),
        "c": (E, "_demote", lambda body, *_: (body, set())),
        "d": (fusion, "_along", lambda loop, nodes, _: loop if loop[2] == nodes else None),
    }
    monkeypatch.setattr(*off[rule])


@pytest.mark.parametrize("rule", "abcd")
def test_each_fusion_rule_rewrites_its_hand_written_plan(monkeypatch, rule):
    _, prog, readouts = _FUSION_PLANS[rule]
    fused = E._generate(prog, ROOTED_LAYOUT, 2, readouts, False)[0]
    _without_rule(monkeypatch, rule)
    assert E._generate(prog, ROOTED_LAYOUT, 2, readouts, False)[0] != fused


def test_legality_plans_keep_what_their_conditions_guard():
    _, prog, readouts = _FUSION_PLANS["e-less"]
    lines = [x.strip() for x in E._generate(prog, ROOTED_LAYOUT, 2, readouts, False)[0]]
    assert lines[lines.index("for _k in _B1:") + 1] == "if _k != i:"
    assert "_r0 += ((O0_1[_k] * _m0) * L0[_k])" in lines
    _, prog, readouts = _FUSION_PLANS["omega"]
    lines = [x.strip() for x in E._generate(prog, ROOTED_LAYOUT, 2, readouts, False)[0]]
    assert lines[lines.index("for _k in _U0:") + 1] == "_r0 -= (W0[_k] - 1)"


def test_label_rule_and_shared_resets_show_in_their_plans_kernel():
    _, prog, readouts = _FUSION_PLANS["e"]
    lines = [x.strip() for x in E._generate(prog, ROOTED_LAYOUT, 2, readouts, False)[0]]
    # O0_0 is stored and zeroed, but read as in_n_branch's label L0 (e)
    assert [x for x in lines if "O0_0[_k]" in x] == ["O0_0[_k] = 1", "O0_0[_k] = 0"]
    assert "_r0 += ((L1[_k] * _m0) * L0[_k])" in lines
    # one loop over N(j) zeroes both the column and the label's marks (f)
    reset = lines.index("for _k in _U0:", lines.index("_rows.append((_r0, _r1, ))"))
    assert lines[reset + 1:reset + 3] == ["O0_0[_k] = 0", "L0[_k] = 0"]


# Per plan at its own radius, in a kernel without a hook: the loops whose
# list an earlier loop of the same block and indent walks already, which
# fusion did not join (the parent of loop fusion had cycle6 12, cycle5,
# triangle_rectangle and walk4 4 each, and walk8 7 of them).
_PLAN_SIBLINGS = {
    "chordal_cycle": 2, "clique4": 2, "cycle3": 0, "cycle4": 2, "cycle5": 2, "cycle6": 5,
    "path2": 0, "path3": 1, "path4": 3, "tailed_triangle": 1, "triangle_rectangle": 2,
    "walk1": 2, "walk2": 2, "walk3": 3, "walk4": 3, "walk5": 4, "walk6": 5, "walk7": 6,
    "walk8": 7,
}


def _sibling_loops(lines) -> int:
    count, blocks = 0, {}  # per indent, the lists the open block's loops walk
    for line in lines:
        indent = len(line) - len(line.lstrip())
        blocks = {d: lists for d, lists in blocks.items() if d <= indent}
        m = re.match(r"\s*for \w+ in (.+):$", line)
        if m:
            count += m[1] in blocks.setdefault(indent, set())
            blocks[indent].add(m[1])
    return count


@pytest.mark.parametrize("kind", sorted(_PLAN_SIBLINGS))
def test_plan_sibling_loops_are_frozen(kind):
    spec = _PLANS[kind]
    lines, _, _ = E._generate(spec.program, ROOTED_LAYOUT, spec.hops, spec.readouts, False)
    assert _sibling_loops(lines) == _PLAN_SIBLINGS[kind]
    assert sorted(_PLAN_SIBLINGS) == sorted(_PLANS)


# The names a statement's record leaves out: the loop variables, the root
# and the branching node, and the builtins and helper a node set's build calls.
_UNRECORDED = {"_k", "_l", "i", "j", "set", "map", "_chain"}


def _accesses(lines) -> tuple[Counter, Counter]:
    """The (name, subscript or None) loads and stores of Python lines, by
    ``ast``, each as often as it occurs: ``x[s]`` for a name subscripted by a
    name, else each name; an augmented assignment's target both loads and
    stores."""
    loads, stores, inner, augmented = Counter(), Counter(), set(), set()
    for node in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(node, ast.AugAssign):
            augmented.add(id(node.target))
        if type(node) is ast.Subscript and type(node.value) is type(node.slice) is ast.Name:
            access = node.value.id, node.slice.id
            inner.update((id(node.value), id(node.slice)))
        elif type(node) is ast.Name and id(node) not in inner and node.id not in _UNRECORDED:
            access = node.id, None
        else:
            continue
        loads[access] += id(node) in augmented or type(node.ctx) is ast.Load
        stores[access] += type(node.ctx) is ast.Store
    return +loads, +stores


def test_statement_records_match_their_rendered_source(monkeypatch):
    # loop fusion reads and rewrites each statement by its record, never by
    # its source, so every record must hold each read and store its
    # statement's lines make, as often as they make it, and nothing else
    render, checked = E._render, []

    def check(stmts, lists):
        for st in stmts:
            loads, stores = _accesses(render([st], lists))
            if st[0] == "line":  # a node set's build updates the set it makes
                del loads[st[2], None]
                stores[st[2], None] = 1
            touched = fusion._touches([st], lists)
            assert Counter(x[:2] for x in touched if x[2] in "r+") == loads, st
            assert Counter(x[:2] for x in touched if x[2] in "wt+") == stores, st
            checked.append(st[0])
        return render(stmts, lists)

    monkeypatch.setattr(E, "_render", check)
    plans = [(spec.program, spec.readouts, (spec.hops, spec.hops + 1)) for spec in _PLANS.values()]
    hand_written = (
        *_RULE_PLANS, *_FUSION_PLANS.values(), *_MASKED_PLANS, *_DIFFERENCE_PLANS,
        *_TRANSPOSED_PLANS, *_REWRITE_PLANS,
    )
    plans += [(prog, readouts, (1, 2, 3)) for _, prog, readouts in hand_written]
    for prog, readouts, radii in plans:
        for hops, hooked in itertools.product(radii, (False, True)):
            try:
                E._generate(prog, ROOTED_LAYOUT, hops, readouts, hooked)
            except E.ProgramError as error:
                assert "reads beyond subgraph radius" in str(error)
    assert set(checked) == {"for", "if", "set", "add", "line"}


_SOURCES_UNDER_SEED = """
import hashlib, pickle, sys
from graphcount import engine
for prog, readouts in pickle.load(sys.stdin.buffer):
    for hops in (1, 2, 3):
        try:
            lines = engine._generate(prog, {layout!r}, hops, readouts, False)[0]
        except engine.ProgramError as exc:
            lines = [str(exc)]
        print(hashlib.md5("\\n".join(lines).encode()).hexdigest())
"""


def test_kernel_sources_do_not_follow_the_hash_seed():
    # a meet is a frozenset of label lists, whose order follows the string
    # hash seed of the process; the kernel built from it must not
    plans = [(prog, readouts) for _, prog, readouts in (*_RULE_PLANS, *_FUSION_PLANS.values())]
    script = _SOURCES_UNDER_SEED.format(layout=ROOTED_LAYOUT)
    src = str(Path(E.__file__).resolve().parents[1])
    sources = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(plans),
            capture_output=True, env=env, check=True,
        )
        sources.add(proc.stdout)
    assert len(sources) == 1


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    _rooted_plans(),
    st.integers(40, 60),
    st.sampled_from((0.04, 0.08)),
    st.integers(0, 2**32),
)
@example((True, _PAST_THE_RADIUS, (E.Readout(0, "in_n_branch"),)), 40, 0.08, 3)
@example((True, _SCATTER_SUMMED, (E.Readout(0), E.Readout(0, "in_n_branch"))), 40, 0.08, 9)
@example((False, _ROOT_ONLY, (E.Readout(0),)), 40, 0.1, 2)
@example((False, _ROOT_ONLY, (E.Readout(0, "in_n_branch"),)), 40, 0.1, 2)
@example(_RULE_PLANS[0], 40, 0.08, 5)
@example(_RULE_PLANS[1], 48, 0.08, 6)
@example(_RULE_PLANS[2], 44, 0.08, 8)
@example(_RULE_PLANS[3], 40, 0.1, 4)
@example(_RULE_PLANS[4], 42, 0.1, 2)
@example(_RULE_PLANS[5], 40, 0.1, 3)
@example(_RULE_PLANS[6], 44, 0.1, 5)
@example(_FUSION_PLANS["a"], 40, 0.1, 2)
@example(_FUSION_PLANS["e"], 40, 0.1, 4)
@example(_FUSION_PLANS["e-less"], 20, 0.25, 3)
@example(_FUSION_PLANS["omega"], 20, 0.25, 4)
@example((True, _EMPTY_WITNESS, (E.Readout(0),)), 20, 0.25, 1)
@example((True, _PLANS["cycle5"].program, _PLANS["cycle5"].readouts), 40, 0.1, 3)
@example((True, _PLANS["cycle6"].program, _PLANS["cycle6"].readouts), 40, 0.1, 7)
@example((True, _PLANS["clique4"].program, _PLANS["clique4"].readouts), 40, 0.15, 1)
@example(
    (True, _PLANS["triangle_rectangle"].program, _PLANS["triangle_rectangle"].readouts),
    40, 0.1, 7,
)
@example(_MASKED_PLANS[0], 30, 0.15, 4)
@example(_MASKED_PLANS[1], 30, 0.15, 6)
@example(_DIFFERENCE_PLANS[0], 40, 0.1, 3)
@example(_DIFFERENCE_PLANS[1], 40, 0.1, 5)
@example(_DIFFERENCE_PLANS[0], 20, 0.25, 8)
@example(_DIFFERENCE_PLANS[1], 24, 0.25, 2)
@example(_TRANSPOSED_PLANS[0], 40, 0.1, 4)
@example(_TRANSPOSED_PLANS[1], 40, 0.1, 6)
@example(_TRANSPOSED_PLANS[0], 20, 0.25, 1)
@example(_TRANSPOSED_PLANS[1], 22, 0.25, 9)
@example(_REWRITE_PLANS[0], 40, 0.1, 2)
@example(_REWRITE_PLANS[1], 40, 0.1, 3)
@example(_REWRITE_PLANS[0], 20, 0.25, 4)
# graphs of 16-24 nodes where some edges have common neighbors and some not
@example(_RULE_PLANS[5], 16, 0.3, 3)
@example(_RULE_PLANS[6], 20, 0.25, 5)
@example((True, _PLANS["cycle6"].program, _PLANS["cycle6"].readouts), 24, 0.25, 7)
def test_rooted_runs_match_the_reference_on_extracted_egos(plan, n, p, seed):
    # Each plan runs at every radius 1-3 it can, as drawn and with every
    # readout weighted by each label in turn: a weight label's nodes may lie
    # beyond the radius (in_n_branch's do at radius 1).
    pool, prog, readouts = plan
    rng = random.Random(seed)
    g = gen_random(n, p, seed)
    sample = set(rng.sample(range(n), 4))
    radii = []
    for hops in (1, 2, 3):
        for weight in (False, *_POOLS[pool]):
            alike = readouts if weight is False else tuple(
                E.Readout(r.component, weight) for r in readouts
            )
            try:  # the reference only for the readouts as drawn
                _assert_rooted_run_matches(
                    g, sample if weight is False else (), prog, alike, hops
                )
            except E.ProgramError as error:
                assert "reads beyond subgraph radius" in str(error)
                continue
            radii.append(hops)
    if not radii:
        reject()
