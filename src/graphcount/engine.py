"""Run message-passing programs (``program``) over rooted subgraphs.

Each program is compiled, once per plan, into one generated Python function
that runs its layers over a parent graph's adjacency, root by root.
States are columnar, ``state[c][k]`` for component c of node k.  A step
binds only the columns it reads, fills each computed column in one loop over
its nodes, and passes a bare ``Self(i)`` update's column through unchanged.

Witnesses.  An expression's witness is a set of reads (state columns and
labels, at the evaluating node or at the sending neighbor) such that it is
0 wherever all of them are: ``Self``, ``Nbr``, ``LSelf`` and ``LNbr`` are
their own witness, ``Msg`` has its message's, ``Const(0)`` the empty one;
``Add``, ``Sub`` and ``IsPos`` join their operands'; ``Mul`` keeps the
operand of least reach or, when each operand is one label read at the node,
reads their meet, nonzero only where all of them are (``in_n_root *
in_n_branch``: the common neighbors of root and branching node); ``IsZero``
and nonzero constants have none.  A step whose computed updates all have one
runs only over the nodes where a source of its witness is nonzero, plus
their neighbors for sources read across an edge; every other node keeps 0.
Each column and label keeps the node list it is nonzero on, so no column is
scanned.  A node list is a set expression over the labels' lists, the
adjacency and the root's balls, never over a state, so it is built once per
subgraph, where first used.  Every rule below reads a meet as its first
label, the operand kept by reach (``_plain``), except a column's own node
list in a rooted kernel without a hook.

Radii.  A rooted subgraph is the ego-network of radius K around a root; the
program runs on the parent graph's adjacency, with nothing extracted, and
radii bound the work.  A column's reach is how far from the root it can be
nonzero: ``is_root`` 0, ``in_n_root`` and ``is_branch`` 1, ``in_n_branch``
2, the smaller of a ``Mul``'s operands', the larger of an ``Add``'s or a
``Sub``'s, one more across an edge, unbounded for ``IsZero`` and nonzero
constants.  Its demand is how far out a later step or a readout reads it.
A step computes within the radius R = min(reach, demand), and is cut to R
with the root's BFS ball when its sources could reach further (``_radii``).
Within R its state is that of the extracted ego-network: below K every
neighbor lies inside it, and at K each message must be 0 whenever its
sender lies outside, which ``_radii`` checks as it compiles a rooted kernel.

Kernels.  A plan compiles once per (program, label layout, radius,
readouts, hooked), never per graph, into one generated Python function
(``_kernel``), its radius analysis included.  A rooted kernel loops over
the root's branches (``RootedRun``), marks the branch labels, runs every
step inline, appends each readout row and zeroes what it wrote; ``run``
runs the same steps once over given labels, and no count calls it.  Each state
column is a node-indexed buffer named after the step and column that
computed it, followed back through copies.  A step scatters its messages
(``_scatters``) when it has no cut and each message's witness has at most
one read at the sender and one at the receiver, both among the step's
sources: each message is added from the nodes where its sender-side read is
nonzero into its neighbors' buffers, then pulled only at the nodes where its
receiver-side read is nonzero, from the neighbors not scattered from.  A
scatter walks each edge from its sender, so it needs a symmetric adjacency;
a closed-form neighbor sum (below) also needs a simple graph, so that a
node's degree counts each neighbor once.
Every other step pulls each message at each node that computes a column
reading it.

Node lists.  A rooted kernel with a hook stores every column over one node
list per step, so that the hook sees whole states.  One without (the one
``count`` runs) computes each column only where it can be nonzero and is
read:
- A step that pulls its messages, or has none, computes each column over
  its own witness's node list, pulling only the messages that column reads.
- A column of an uncut step whose witness is a meet runs over the
  intersection of the labels' lists, which each branch builds from a set of
  the root's list, built once per root; so does a column whose witness is
  one read of such a column at the node (clique4's layer 1).  A column that
  later steps read only across an edge keeps its first label's list: no
  later loop runs over its meet, and building one for its own loop costs
  more than it saves.
- A stored column that every later step reads at the node itself, in loops
  not over every node, or only across an edge, in loops over a meet, is
  computed only over the union of those loops' lists and of those meets'
  neighbors, unless that union costs a set its own list does not; a meet of
  a list the union holds adds nothing to it.  Those loops lie within their
  steps' radii, so within the column's demand, and beyond its reach its
  witness makes it 0: the readouts stay exact.
- A column is root-level when it and its readouts' weights read only the
  root's labels and root-level columns, and its node list is built from
  those labels and the root's balls alone.  It is the same for every
  branch, so it is computed once per root, before the branch loop, and
  zeroed after it; so is every node list of the root alone.
- Building a node set costs time: a step cut to radius 0 or 1 runs over the
  root's ball, a radius-2 cut intersects its list with the ball unless the
  list lies within it already (N(N(i))), and an uncut step with one source,
  read at the node, takes that source's list.  ``_root`` builds only the
  balls some line reads.
- A unit that only scatters into its columns' own buffers runs no loop
  over its node list, so no set of that list is built unless another line
  reads it (``_generate``, ``_rewalk``): the reset zeroes each buffer by
  walking again the loops that wrote it, without their guards, which only
  widens the zeroing to nodes that are 0 already (cycle4's N(N(i)),
  cycle6's N(N(j))).

Fusion (``loops``).  In a kernel without a hook, a state column is read
by its buffer's name, and the branch's statements are rewritten after they
are built; a kernel with a hook, and ``run``'s, is left as built.
(a) Two loops over one node list fuse when every column that one stores
and the other reads or stores is reached only at the loop's node; a
statement in between that the second needs moves before the fused loop,
and none may need the first loop and be needed by the second.  Guards
that differ become inner ``if``s.  (b) Sibling inner loops over one list,
such as ``adj[_k]``, merge by the same rule.  (c) A column stored once and
read only at the node of one fused loop, after the store and under its
guards, is a local of that loop, neither stored nor reset.  A part of a
fused loop that only sets locals takes the guards shared by every part
that reads them, where nothing in the loop changes what they read.  (d) A
loop over a meet of labels' lists walks one of those lists under the other
labels' tests when that lets it fuse.  A readout that counts a known-1
column's list is a counter in a loop over that list, so rule (d) may fuse
it into a loop that walks one side of a meet.  (e) At a loop's node, a known-1 column
of a label's list read off that list is that label times its exclusions
(``_Form.known_one``), so cycle5's init column is ``in_n_branch`` off i.
(f) Resets that walk one list, marks included, share one loop.  Rule T's
Omega of a label is read from a stored column computed once per root whose
value it equals off the nodes the read never is (cycle6's ``O1_2``).  A
kernel whose roots set nothing returns no root function.

The term form.  A kernel is written in one form before it is Python: each
readout sum and each stored column is a list of terms, and a term is a
coefficient times a product of reads (labels, columns, degrees, Omega
buffers) at a loop's node ``_k`` or at its neighbor ``_l``, summed over a
chain of node lists (a unit's list, then ``adj[_k]`` or ``adj[_l]``), with
an exclusion set: the one-node identifiers, ``is_root`` (i) and
``is_branch`` (j), at whose node the term is 0.  ``_layout`` places each
column's terms: stored over its node list, summed into its readouts by the
loop that computes it, or sent.  ``_Form`` builds each unit's statements
(loops, guards, stores and sums) from its terms, applying the rewrites
below in a kernel without a hook, and ``_render`` turns them into lines,
recording what each line reads, so a kernel binds, marks and stores
exactly what its lines read.  A kernel with a hook, and ``run``'s, is the
form with no rewrite applied.

Readout terms (``_layout``).  A column that no later step reads is not
stored: each readout of it is a running sum that the loop computing the
column adds to, and a column that nothing reads is not computed.  A cut
step that stores nothing and sums only readouts weighted by one label,
whose reach lies within the cut, computes only at that label's nodes, where
the weight is 1 (cycle3).  A step that stores nothing, scatters, and sums
only ``coef * Msg(m)`` columns sends them: each message value, times coef
at its receiver, goes straight into the sum as it is sent or pulled, with
no node set, message buffer or final loop (path2).  Any other step computes
each column over its node list and sums its readout-only columns, except
that a cut step sends each ``coef * Msg(m)`` column whose message's witness
reads only the sender, of reach below the cut, so that every receiver lies
within the cut.  A stored ``coef * Msg(m)`` column of a scattering step,
coef only exclusion factors, that alone reads m, takes m's scatter in its
own buffer, then 0 at the nodes coef excludes.

Fold (``_Form.fold``).  An exclusion factor is ``1 - x`` in the
top-level product of an update or a message, for a one-node identifier x,
at the node or at the sender; a column is 0 at the nodes its update
excludes, following copies back.  Per loop, one pass drops each factor the
loop implies, because its node list never holds the node (``adj[i]`` never
holds i) or its guard reads a column or label that is 0 there; turns the
exclusions every term of the loop shares into one skip guard; and drops a
label read, and the loop's test of it (``nonzero``), where the list makes
it 1: the label's own list, or a meet that holds it.  So cycle6's layer 3
sends the sender part ``(1 - L3[_l]) * (1 - L2[_l]) * L1[_l] * H4[_l]`` of
its second message from the root's neighbors: it adds ``H4[_l]``, times
the count of its receivers, under ``if _l != j:``.  A skipped node keeps the 0 the loop's reset left there: no
kernel without a hook loops over every node, as a step without a witness
is cut to the root's ball.

Closed form (``_split``, ``_Form.receiver``).  A message ``F * (g -
h)``, F exclusion factors at the sender and at most one read there of a
root label w (1 without one), g reading only the sender and h only the
receiver, sums at a receiver k to ``sum_l F(l) g(l) - h(k) Omega_F(k)``,
with ``Omega_F(k) = Omega(k) - sum_{x in F} w(x) in_n_x(k)``, the sum of
F over k's neighbors, exact because the graph is simple and i != j.  For
w = 1, ``Omega(k)`` is ``deg(k)``; for a label it is rule T's Omega of
that weight (``_Form.omega``), scattered once per root.  So h's part needs
no loop over k's neighbors, and F drops where g's read is 0 (the last
messages of path3, path4 and cycle6).  A label in F can narrow the
message's witness to the sender, so the receiver part is summed over h's
list, and h must be a product of single reads.  cycle6's readout o1, the
column of layer 3's second message, so becomes ``sum_{l in N(i)-j} H4(l)
(deg(l) - 1 - in_n_branch(l)) - sum_{k in N(j)-i} (Omega(k) - 1)``, with
``Omega(k) = |N(k) & N(i)|``, and no loop over the neighbors of N(i).

Known-1 columns (``_Form.known_one``).  A stored column whose update is
only exclusion factors and labels 1 on its list, computed over that list,
is its exclusion factors wherever a loop over that list reads it, and the
loop's test of it skips only the nodes it excludes.  A known-1 column that
no statement reads after this rewrite is not stored (path4's init, 1 on
N(j) but at i), and a readout of one over its own list, which holds no
node its update excludes, is that list's length (cycle6's o3, the common
neighbors of i and j).

Rule T (``_transpose``, ``_Form.flat``).  A readout term ``sum_k w(k)
E(k) sum_{l in N(k)} g(l)``, E only exclusion factors, is summed
transposed: ``sum_l g(l) Omega_E(l)``, with ``Omega_E(l) = Omega(l) -
sum_{x in E} w(x) in_n_x(l)`` and ``Omega(l) = sum_{k in N(l)} w(k)``
(``_Form.omega``).  The weight w is 1, a root label, or a column
computed once per root that multiplies the summed column (cycle6's first
readout, which its column's step then takes).  The weight-1 case is the
closed form's count, with nothing stored; any other weight's Omega is
scattered from its list once per root, before the branch loop, and paid
back as each branch reads it, so T applies only to columns that depend on
the branch, and in a cut step only where w's nodes lie within the cut.
Omega_E's reads of a column weight at i or j are bound once per branch
(``_Form.constant``).  A
column's terms tagged ("T", w) add its receiver part, times w at the node,
where it is computed; its sender part is summed per sender.

Rule P (``_push``, ``_Form.pushed``).  A per-sender sum ``sum_l
X(l) Omega_E(l)`` of a column ``X = coef * Msg(m)``, coef only exclusions
and m's value read once at its sender, is pushed into the loop over m's
senders s and their neighbors l, adding ``m(s) Omega_E(l)`` where coef(l)
is not 0, but not past a cut of X that Omega_E reaches beyond; its terms
are tagged ("P", w, E, exclusions).  X is then not stored where nothing
else reads it (the middle columns of path3, path4 and cycle5); where
something does, its scatter into its own buffer adds the sum too (cycle6's
layer 2).

``tests/test_engine.py`` freezes what these rules give each counting plan:
its cuts (``_PLAN_RADII``), scatters (``_PLAN_SCATTERS``), readout sums
(``_PLAN_FUSED``), node lists (``_PLAN_NODES``), folds, closed-form sums
and rules T and P (``_PLAN_FOLDS``) and kernel sources (``_KERNEL_MD5``).
CHANGES.md holds the measurements behind the rules.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress
from operator import mul
from typing import TYPE_CHECKING, Mapping, Sequence

# the public names of ``program`` are re-exported
from .program import (
    _ABSENT, _AROUND, _BRANCH_LABELS, _IDENTIFIERS, _ONE_NODE, _UNBOUNDED, Add, Const, Expr,
    IsPos, IsZero, Layer, LNbr, LSelf, MissingLabelError, MPProgram, Msg, Mul, Nbr,
    ProgramError, Readout, Self, Sub, _label_reach, _reach, _Step, _steps, program_text,
    required_labels,
)

from .loops import _demote, _merge, _regroup, _rename, _touches

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from .extraction import RootedSubgraph


# ---------------------------------------------------------------------------
# Execution: one generated kernel per plan
# ---------------------------------------------------------------------------

def _excludes(factors: tuple, hop: int = 0) -> frozenset:
    """The one-node identifiers of a product's exclusion factors read at
    ``hop``: the product is 0 at their nodes."""
    return frozenset(x[0] for _, _, x, _ in factors if x and x[1:] == (hop, False))


def _split(factors: tuple) -> tuple | None:
    """A message ``F * (g - h)`` or ``F * (h - g)``, where F is exclusion
    factors at the sender and at most one read there of a root label w, g
    reads only the sender and h only the receiver, each factor of h one
    value where F reads w, as (the factors of ``F * g`` or ``F * -g``, the
    Python source of ``-h`` or ``h``, the identifiers F excludes, (the sign
    of g, the factors of g, the factors of h), w or None); else None.
    Summed over a receiver's neighbors, the message is the sum of the first
    part plus the second times Omega_F of the third (``_Form.receiver``,
    module docstring)."""
    labels = {f[2][0] for f in factors if f[2] and f[2][1:] == (1, True)}
    rest = [f for f in factors if not (f[2] and f[2][1] == 1)]
    if len(rest) != 1 or rest[0][3] is None or len(labels) > 1 or labels & _BRANCH_LABELS:
        return None
    (_, _, _, sides), = rest
    hops = [{hop for *_, hop in reads} for _, reads, _ in sides]
    if hops not in ([{1}, {0}], [{0}, {1}]):
        return None
    (g, reads, gf), (h, _, hf) = sides if hops[0] == {1} else sides[::-1]
    if labels and any(len(f[1]) != 1 for f in hf):
        return None
    sign = "-" if hops[0] == {0} else ""
    excluded = tuple(f for f in factors if f is not rest[0])
    sent = (*excluded, (sign + g, reads, None, None))
    return sent, "-"[:not sign] + h, _excludes(factors, 1), (sign, gf, hf), min(labels, default=None)


def _summed(split) -> tuple:
    """The log entry of a ``_split`` message's receiver part (``_Form``):
    ("sum", 0, exclusions) for Omega_F of weight 1, else ("omega", 0, (w,
    exclusions))."""
    return ("sum", 0, split[2]) if split[4] is None else ("omega", 0, (split[4], split[2]))


def _label_at(label: str, x: str) -> int:
    """A label's value at the node of the one-node identifier x: the root
    and the branching node are distinct and adjacent."""
    nodes, node = _IDENTIFIERS[label][1], _ONE_NODE[x]
    return int(nodes == f"({node},)" or nodes.startswith("adj[") and nodes != f"adj[{node}]")


def _held(nodes, layout) -> tuple[frozenset, frozenset]:
    """What every node of a node list (``_nodes``) is, in a rooted kernel:
    the one-node identifiers whose node it never is (``_ABSENT``), and the
    labels that are 1 there: those of a label's list, or of a meet of such
    lists."""
    if type(nodes) is frozenset:
        parts = [_held(x, layout) for x in nodes]
        return tuple(frozenset().union(*side) for side in zip(*parts))
    if type(nodes) is str and nodes.startswith("_U"):
        label = layout[int(nodes[2:])]
        return _ABSENT.get(label, frozenset()), frozenset({label})
    return frozenset(), frozenset()


def _per_root(nodes, index) -> bool:
    """Whether a node list (``_nodes``) depends on the root alone: none of
    its leaves is a branch label's list."""
    if type(nodes) is str:
        return nodes not in {f"_U{i}" for x, i in index.items() if x in _BRANCH_LABELS}
    parts = nodes if type(nodes) is frozenset else chain(*nodes[:2])
    return all(_per_root(x, index) for x in parts)


def _radii(steps: list[_Step], hops: int, readouts: tuple, name: str) -> tuple:
    """Per walked step of program ``name``, on a rooted subgraph of radius
    ``hops``: the radius R it computes within, the largest min(reach,
    demand) of its columns, and the radius it is cut to (None: no cut).

    A column's demand is ``hops`` for a plain readout, the weight's reach
    for a weighted one, and a reading step's own radius, one more across an
    edge.  A program with a message that can be nonzero from a sender
    beyond ``hops`` raises ProgramError.
    """
    demand: dict = {}

    def need(column, radius):
        demand[column] = max(demand.get(column, -1), min(hops, radius))

    for r in readouts:
        need(steps[-1].origins[r.component], _label_reach(r.weight))
    within = [-1] * len(steps)
    for s in reversed(range(len(steps))):
        step = steps[s]
        within[s] = max(
            (min(demand.get((s, c), -1), step.reach[c]) for c, src in enumerate(step.copies)
             if src is None),
            default=-1,
        )
        if within[s] >= 0:
            for _, column, hop in (r for r in step.reads if r[0] == "H"):
                need(steps[s - 1].origins[column], within[s] + hop)
    cuts, spread, reach = [], (), ()
    for s, step in enumerate(steps):
        natural = _reach(step.sources, spread)
        cuts.append(within[s] if natural > within[s] else None)
        if within[s] >= hops:
            for m, (_, text, witness, *_) in enumerate(step.messages):
                if _reach(witness, reach, sender=True) > hops:
                    raise ProgramError(
                        f"program {name!r} layer {s} message {m} ({text}) "
                        f"reads beyond subgraph radius {hops}"
                    )
        spread = tuple(
            (natural if cuts[s] is None else cuts[s]) if src is None else spread[src]
            for src in step.copies
        )
        reach = step.reach
    return tuple(within), tuple(cuts)


def _one_read_a_side(witness) -> bool:
    """Whether a message's witness has at most one read at the sender and at
    most one at the receiver: the only messages a kernel scatters."""
    return witness is not None and len({hop for *_, hop in witness}) == len(witness)


def _scatters(step: _Step, cut: int | None) -> bool:
    """Whether a step scatters its messages from their senders instead of
    pulling them at each node it computes: it computes a column, has no cut,
    each message's witness has one read a side at most, and the step's
    sources cover it, so that every message sum that can be nonzero lies on
    a node it computes."""
    return (
        bool(step.messages)
        and None in step.copies
        and cut is None
        and all(
            _one_read_a_side(m[2]) and (step.sources is None or m[2] <= step.sources)
            for m in step.messages
        )
    )


def _spread(nodes, names) -> float:
    """How far from the root a node list (``_nodes``) reaches; ``names``
    gives the label of each ``_U<x>``."""
    if type(nodes) is str:
        if nodes in names:
            return _label_reach(names[nodes])
        return int(nodes[2:]) if nodes.startswith("_B") else _UNBOUNDED
    if type(nodes) is frozenset:
        return min(_spread(x, names) for x in nodes)
    near, here, cut = nodes
    spread = max([_spread(x, names) + 1 for x in near] + [_spread(x, names) for x in here])
    return spread if cut is None else min(spread, cut)


def _order(nodes) -> str:
    """``repr`` of a node list (``_nodes``) with each meet's lists sorted,
    as a frozenset's own order follows the process's hash seed."""
    if type(nodes) is frozenset:
        return f"frozenset({{{', '.join(sorted(map(repr, nodes)))}}})"
    if type(nodes) is tuple:
        return f"({', '.join(map(_order, nodes))}{',' * (len(nodes) == 1)})"
    return repr(nodes)


def _nodes(sources, cut, where, names=None) -> str | tuple:
    """The node list a step, or a column, with these sources computes, by
    the rules of the module docstring: a name, or ``(near, here, cut)``, the
    neighbors of the lists ``near`` and the lists ``here``, cut to the ball
    of radius ``cut`` (None: no cut).  ``where(var, key)`` gives the node
    list of a read.  With ``names`` (``_spread``), a cut that the lists lie
    within already is left out."""
    if sources is None or cut is not None and cut <= 1:
        return "_all" if cut is None else "set()" if cut < 0 else f"_B{cut}"
    lists: list = [set(), set()]
    for var, key, hop in sources:
        lists[hop].add(where(var, key))
    here, near = (tuple(sorted(x, key=_order)) for x in lists)
    if names is not None and cut is not None and _spread((near, here, None), names) <= cut:
        cut = None
    return here[0] if len(here) == 1 and not near and cut is None else (near, here, cut)


def _layout(steps, cuts, index, readouts) -> tuple[list, dict, list, set]:
    """The plan of a kernel (module docstring): per step, its units
    ``(nodes, columns, once)`` and its readout terms ``{c: [(x, w)]}``, each
    computed column's node list, off which it is 0, and the (step, column)
    pairs it stores.  In a kernel without a hook rules T and P
    (``_transpose``, ``_push``) rewrite the terms; ``readouts`` is None for a kernel
    that keeps whole states.

    A unit loops over the node list ``nodes`` to compute ``columns``, or,
    with ``nodes`` None, sends them; with ``once`` it runs once per root,
    before the branch loop.  Column c is added, where it is computed, to
    each readout x, times w: None (1) or a label, or a weight tagged by rule
    T or P.  A node list is one ``_nodes`` gives, or a frozenset of labels'
    lists: their intersection.
    """
    names = None if readouts is None else {f"_U{i}": x for x, i in index.items()}
    read: dict = {}  # each column a later step reads, and the hops it reads it at
    for t in range(1, len(steps)):
        for var, key, hop in steps[t].reads:
            if var == "H":
                read.setdefault(steps[t - 1].origins[key], set()).add(hop)
    out: dict = {}  # the readouts of each column the final state holds
    for x, r in enumerate(readouts or ()):
        out.setdefault(steps[-1].origins[r.component], []).append(x)
    slot: dict = {}
    once: set = set()
    branchy: set = set()
    terms: list = []
    own: list = []

    def where(s, var, key):
        return slot[steps[s - 1].origins[key]] if var == "H" else f"_U{index[key]}"

    for s, (step, cut) in enumerate(zip(steps, cuts)):
        whole = readouts is None or _scatters(step, cut)
        computed = [c for c, src in enumerate(step.copies) if src is None]
        stored = [c for c in computed if readouts is None or (s, c) in read]
        sums = {c: out[s, c] for c in computed if c not in stored and (s, c) in out}
        # the weight rule (module docstring)
        weights = {readouts[x].weight for xs in sums.values() for x in xs}
        (label,) = weights if len(weights) == 1 and not stored else (None,)
        if cut is None or _label_reach(label) > cut:
            label = None
        sent = []
        if not stored and whole and all(step.linear[c] for c in sums):
            sent = list(sums)
        elif label is None and cut is not None:
            messages = [step.linear[c] and step.messages[step.linear[c][0]] for c in sums]
            sent = [
                c for c, m in zip(sums, messages)
                if m and _one_read_a_side(m[2]) and all(hop == 1 for *_, hop in m[2])
                and _reach(m[2], steps[s - 1].reach, sender=True) < cut
            ]
        terms.append(
            {c: [(x, None if label else readouts[x].weight) for x in xs] for c, xs in sums.items()}
        )
        lists = {}
        for c in computed:
            witness = step.updates[c][2]
            lists[c] = slot[s, c] = _nodes(
                step.sources if whole else witness, cut, lambda var, key: where(s, var, key), names
            )
            # the meet of its labels, unless later steps read it only across an edge
            if step.meets[c] and not (whole or cut is not None or read.get((s, c)) == {1}):
                lists[c] = slot[s, c] = frozenset(f"_U{index[x]}" for x in step.meets[c])
            # a column whose witness is one read at the node lies in its node list
            elif cut is None and witness is not None and len(witness) == 1:
                ((var, key, hop),) = witness
                if hop == 0:
                    slot[s, c] = where(s, var, key)
            # it depends on the branch when it reads a branch label or a
            # column that does; it is computed once per root when it, and
            # the weights of its readouts, read only root labels and columns
            # computed once
            reads = _reads(step, [c])
            labels = {r[1] for r in reads if r[0] == "L"}
            columns = {steps[s - 1].origins[r[1]] for r in reads if r[0] == "H"}
            if labels & _BRANCH_LABELS or columns & branchy:
                branchy.add((s, c))
            weights = {readouts[x].weight for x in sums.get(c, ())} - {None}
            if (
                not whole and c not in sent and _per_root(lists[c], index)
                and not (weights | labels) & _BRANCH_LABELS and columns <= once
            ):
                once.add((s, c))
        own.append((whole, stored, sent, lists, label))
    kept = {(s, c) for s, (_, stored, *_) in enumerate(own) for c in stored}
    read_at = {}
    if readouts is not None:
        sends = [x[2] for x in own]
        groups, read_at = _transpose(steps, cuts, readouts, sends, terms, once, branchy)
        _push(steps, cuts, readouts, terms, once, kept, groups)
    units: list = [[] for _ in steps]
    for s in reversed(range(len(steps))):
        whole, stored, sent, lists, label = own[s]
        # rule P's columns are sent
        sent = sent + [c for c in stored if (s, c) not in kept]
        stored = [c for c in stored if (s, c) in kept]
        # a column of rule T lies where its receiver part is nonzero
        receivers = {c: where(s, *read_at[s, c]) for c in lists if (s, c) in read_at}
        lists = {
            c: f"_U{index[label]}" if label else receivers[c] if c in receivers and c not in stored
            else nodes
            for c, nodes in lists.items() if c not in sent and (c in stored or c in terms[s])
        }
        # the stored columns a pulling step may narrow to their demand
        for c in [] if whole else stored:
            if (s, c) in out or (s, c) in once:
                continue
            demand = {receivers[c]} if c in receivers else set()
            for t in range(s + 1, len(steps)):
                for nodes, columns, _ in units[t]:
                    reads = _reads(steps[t], columns)
                    hops = {
                        r[2] for r in reads
                        if r[0] == "H" and steps[t - 1].origins[r[1]] == (s, c)
                    }
                    if hops == {1} and type(nodes) is frozenset:  # the meet's neighbors
                        demand.add(((nodes,), (), None))
                    elif hops:
                        demand.add(nodes if hops == {0} else None)
            # X + X&Y = X
            demand -= {x for x in demand if type(x) is frozenset and x & demand}
            union = ((), tuple(sorted(demand, key=_order)), None)
            union = union[1][0] if len(demand) == 1 else union
            # the union must not cost a set the column's own list does not
            cheap = type(lists[c]) is tuple or type(union) is not tuple
            if cheap and not demand & {None, "_all"}:
                lists[c] = union
        # a column computed once per root keeps its list of the root alone
        groups: dict = {}
        for c, nodes in lists.items():
            groups.setdefault((nodes, (s, c) in once), []).append(c)
        units[s] = [(None, sent, False)] * bool(sent) + [
            (nodes, columns, hoisted) for (nodes, hoisted), columns in groups.items()
        ]
    return units, slot, terms, kept


def _bare(factor, hop: int):
    """The state index a factor reads when it is a bare read at ``hop``
    (``H<c>[_k]`` or ``H<c>[_l]``), else None."""
    py, reads, _, _ = factor
    if len(reads) == 1:
        ((var, key, at),) = reads
        if var == "H" and at == hop and py == f"H{key}[{('_k', '_l')[hop]}]":
            return key
    return None


def _weight_reach(steps, w, excluded=None) -> float:
    """How far from the root a weight w of rule T (None, a label or a
    (step, column)), or with ``excluded`` its Omega_F, can be nonzero."""
    if w is None:
        return _UNBOUNDED
    if type(w) is str:
        r, at = _label_reach(w), lambda x: _label_at(w, x)
    else:
        zeros = _excludes(steps[w[0]].updates[w[1]][4])
        r, at = steps[w[0]].reach[w[1]], lambda x: x not in zeros
    if excluded is None:
        return r
    return max([r + 1] + [_label_reach(_AROUND[x]) for x in excluded if at(x)])


def _transpose(steps, cuts, readouts, sends, terms, once, branchy) -> tuple[dict, dict]:
    """Rule T (module docstring), rewriting the readout terms of a kernel's
    layout (``_layout``) in place: ``sends`` holds the columns each step
    sends, ``once`` the columns it computes once per root and ``branchy``
    those that depend on the branch.  A column's terms become ("T", w): its
    receiver part, times the weight w at the node, is added where it is
    computed.  Returns its sender part's per-sender terms, (x, w,
    exclusions) per (step, message), with whether the message is theirs
    alone, and the read each column of rule T lies in."""

    def weights(s, c, xs, sent: bool):
        """The weights of column c's readouts ``xs`` under rule T, or None
        where one cannot be: a weight must read the root alone, and, unless
        1, a column that depends on the branch, so that its Omega is paid
        once per root; in a cut step, every node where the weight is nonzero
        lies within the cut, unless the step sends c."""
        cut, ws = None if sent else cuts[s], [(x, readouts[x].weight) for x in xs]
        fits = [
            w not in _BRANCH_LABELS and (s, c) in branchy
            and (cut is None or _weight_reach(steps, w) <= cut)
            if w else cut is None for _, w in ws
        ]
        return ws if all(fits) else None

    def transpose(t, c, ws, alone: bool) -> bool:
        """Rule T on column c of step t, read by the readouts ``ws``, (x, w)
        pairs, where c is exclusions times a message of ``_split``'s form,
        read by c alone if ``alone``, in a step that does not scatter.
        Whether it applies."""
        m, coef = steps[t].linear[c] or (None, ())
        split = m is not None and _split(steps[t].messages[m][4])
        if not split or not _only_excludes(coef) or _scatters(steps[t], cuts[t]) or (
            alone and steps[t].readers[m] != 1
        ):
            return False
        terms[t][c] = [(x, ("T", w)) for x, w in ws]
        read_at[t, c] = min(r for f in split[3][2] for r in f[1])[:2]
        groups.setdefault((t, m), ([], alone))[0].extend((x, w, _excludes(coef)) for x, w in ws)
        return True

    groups: dict = {}  # per (step, message): its per-sender terms, and whether m is theirs alone
    read_at: dict = {}
    for s, step in enumerate(steps):
        sent: dict = {}
        for c in sends[s]:
            sent.setdefault(step.linear[c][0], []).append(c)
        # a sent message, summed per sender
        for m, columns in sent.items():
            witness, factors = step.messages[m][2], step.messages[m][4]
            split = _split(factors)
            sender = {hop for f in (split[0] if split else factors) for *_, hop in f[1]}
            coefs = [step.linear[c][1] for c in columns]
            each = [weights(s, c, [x for x, _ in terms[s][c]], True) for c in columns]
            if sender <= {1} and any(hop == 1 for *_, hop in witness) and None not in each and all(
                map(_only_excludes, coefs)
            ):
                group = [(x, w, _excludes(coef)) for coef, ws in zip(coefs, each) for x, w in ws]
                groups[s, m] = (group, step.readers[m] == len(columns))
        for c, xs in list(terms[s].items()):
            if any(c in columns for columns in sent.values()):
                continue
            ws = weights(s, c, [x for x, _ in xs], False)
            if ws is not None and (s, c) not in once and transpose(s, c, ws, True):
                continue
            # a product of a column computed once per root and a column of
            # rule T's form in an earlier step: that step takes its readouts
            keys = [_bare(f, 0) for f in step.updates[c][4]]
            if len(keys) != 2 or None in keys or any(readouts[x].weight for x, _ in xs):
                continue
            pair = [steps[s - 1].origins[k] for k in keys]
            if (pair[0] in once) == (pair[1] in once):
                continue
            w, (t, d) = pair if pair[0] in once else pair[::-1]
            if (
                (t, d) in branchy and (t, d) not in read_at
                and all(cut is None or _weight_reach(steps, w) <= cut for cut in (cuts[s], cuts[t]))
                and transpose(t, d, [(x, w) for x, _ in xs], False)
            ):
                del terms[s][c]
    return groups, read_at


def _push(steps, cuts, readouts, terms, once, stored, groups) -> None:
    """Rule P (module docstring): rule T's per-sender terms ``groups``
    (``_transpose``) of a column X = coef * Msg(m) go into the loop over m's
    senders, tagged ("P", w, exclusions, the exclusions at X's nodes), and
    X leaves ``stored`` where nothing else reads it.  The terms left go
    under their message's key ("m", m) as (x, (w, exclusions)), an empty
    list for those moved."""
    out = {steps[-1].origins[r.component] for r in readouts}
    for (s, m), (group, alone) in sorted(groups.items()):
        factors = steps[s].messages[m][4]
        split = _split(factors)
        sends = split[0] if split else factors
        rest = [f for f in sends if not (f[2] and f[2][1:] == (1, False))]
        key = _bare(rest[0], 1) if len(rest) == 1 and not (split and split[3][0]) else None
        x_col = key is not None and steps[s - 1].origins[key]
        lin = x_col and steps[x_col[0]].linear[x_col[1]]
        if lin and _only_excludes(lin[1]) and x_col not in once and x_col not in out:
            t, d = x_col
            message = steps[t].messages[lin[0]]
            # the expressions that read X: messages first, then computed updates
            uses = {
                (u, e, hop) for u in range(t + 1, len(steps))
                for e, expr in enumerate(steps[u].messages + steps[u].computed)
                for var, k, hop in expr[3] if var == "H" and steps[u - 1].origins[k] == x_col
            }
            mine = steps[t].readers[lin[0]] == 1
            one = message[2] is not None and [r[2] for r in message[2]] == [1]
            cut = cuts[t]
            fits = all(cut is None or _weight_reach(steps, w, e) <= cut for _, w, e in group)
            shut = _excludes(sends, 1)
            entries = [(x, ("P", w, e, shut)) for x, w, e in group]
            if not (mine and one and fits and all(r[2] == 1 for r in message[3])):
                continue
            if alone and uses == {(s, m, 1)}:
                terms[t][d] = entries
                stored.discard(x_col)
            elif _scatters(steps[t], cuts[t]) and shut <= _excludes(lin[1]):
                terms[t].setdefault(d, []).extend(entries)
            else:
                continue
            groups[s, m] = [], alone
    for (s, m), (group, _) in groups.items():
        terms[s]["m", m] = [(x, (w, e)) for x, w, e in group]


def _tag(w):
    """The rule a readout term's weight comes from: "T", "P", or None."""
    return w[0] if type(w) is tuple and w[0] in ("T", "P") else None


def _reads(step: _Step, columns) -> set:
    """What computing ``columns`` of ``step`` reads, the messages they read
    and what those read included."""
    reads = set().union(*(step.updates[c][3] for c in columns))
    return reads.union(*(step.messages[r[1]][3] for r in reads if r[0] == "M"))


# A code is a Python expression and what it reads: AST reads (var, key,
# hop) or the names of buffers and lists.
_ONE = ("1", frozenset())
_ZERO = ("0", frozenset())


def _render(stmts: list, seen: set, lists: Mapping) -> list:
    """The Python lines of statements of the term form (module docstring),
    adding each read they make to ``seen``; ``lists`` names the node lists
    loops run over.  A statement is a loop ``("for", var, list, body)``, a
    guard ``("if", conditions, body)``, a store ``("set", target, op,
    code)``, or a sum ``("add", code, [(sum, weight code or None)])``: the
    code times each weight, added to each sum."""
    lines = []
    for kind, *args in stmts:
        if kind == "for":
            var, nodes, body = args
            name = lists.get(nodes, nodes)
            seen.add(name)
            lines += [f"for {var} in {name}:", *_indent(_render(body, seen, lists), 1)]
        elif kind == "if":
            conds, body = args
            body = _render(body, seen, lists)
            if conds:
                seen.update(*(reads for _, reads in conds))
                test = " and ".join(dict.fromkeys(py for py, _ in conds))
                body = [f"if {test}:", *_indent(body, 1)]
            lines += body
        elif kind == "set":
            target, op, (py, reads) = args
            seen.update(reads)
            lines.append(f"{target} {op} {py}")
        elif kind == "line":  # lines made already, and the names they read
            lines += args[0]
            seen.update(args[2])
        else:  # "add": a value times each weight (None: 1), added to its sum
            (py, reads), terms = args
            for name, w in terms:
                seen.update(reads, w[1] if w else ())
                value = py if w is None else w[0] if py == "1" else f"{w[0]} * {py}"
                lines.append(f"{name} -= {value[1:]}" if value[0] == "-" else f"{name} += {value}")
    return lines


def _product(factors: tuple, dropped):
    """The code of a product without the factors whose mark (``_mark``) is
    in ``dropped``, or None when it keeps none."""
    kept = [f for f in factors if f[2] not in dropped]
    if kept:
        reads = frozenset().union(*(f[1] for f in kept))
        return reduce(lambda a, b: f"({a} * {b})", [f[0] for f in kept]), reads
    return None


def _times(*codes):
    """The product of the codes that are not None, or None."""
    codes = [c for c in codes if c is not None]
    if not codes:
        return None
    return " * ".join(py for py, _ in codes), frozenset().union(*(r for _, r in codes))


def _only_excludes(factors: tuple) -> bool:
    """Whether every factor of a product is an exclusion factor at the node."""
    return all(x and x[1:] == (0, False) for _, _, x, _ in factors)


def _loop(var: str, nodes, conds: list, body: list) -> tuple:
    return "for", var, nodes, [("if", conds, body)]


class _Form:
    """One kernel in the term form (module docstring): its plan
    (``_layout``) and the rewrites that build each unit's statements,
    ``fold`` and ``nonzero`` (fold), ``receiver`` and ``omega`` (the closed
    form, and Omega_F of rules T and P), ``known_one`` (known-1 columns),
    ``flat`` (rule T) and ``pushed`` (rule P), which ``pull``, ``scatter``
    and ``unit`` apply loop by loop.  While a unit of step ``s`` is built,
    ``folds`` logs its rewrites (None in a kernel with a hook or without
    readouts: nothing folds) and ``binds`` collects the node lists it binds,
    in order."""

    def __init__(self, prog: MPProgram, layout: tuple, hops, readouts, hooked: bool):
        self.steps = steps = _steps(prog, layout)
        radii = readouts is not None and _radii(steps, hops, readouts, prog.name)
        self.cuts = radii[1] if radii else (None,) * len(steps)
        self.layout, self.index = layout, {name: i for i, name in enumerate(layout)}
        self.fusing = readouts is not None and not hooked
        plan = _layout(steps, self.cuts, self.index, readouts if self.fusing else None)
        self.units, self.slot, self.sums, self.stored = plan
        self.omegas: dict = {}  # per weight of rule T, the buffer of its Omega
        self.constants: dict = {}  # per read of such a weight at i or j, its local
        # known-1 columns: stored, 1 on their node list but where their
        # update excludes
        self.known = {
            (t, c): nodes
            for t, step_units in enumerate(self.units if self.fusing else ())
            for nodes, columns, _ in step_units if nodes is not None
            for ones in [_held(nodes, layout)[1]]
            for c in columns if ones and self.slot[t, c] == nodes and c not in self.sums[t]
            if all(
                x and x[1] == 0 and (not x[2] or x[0] in ones)
                for *_, x, _ in steps[t].updates[c][4]
            )
        }

    def label(self, x: str) -> str:
        return f"L{self.index[x]}"

    def column(self, var: str, key, bound: bool = True) -> tuple:
        """The name and node list of a read in step ``s``, the one-node
        identifiers at whose node the read is 0, the labels (and the column
        itself, for a known-1 column) 1 on its list, and the identifiers its
        update excludes; ``bound``: the unit binds the list."""
        if var == "L":
            nodes = f"_U{self.index[key]}"
            return self.label(key), nodes, *_held(nodes, self.layout), frozenset()
        # a column is 0 off its list and where its update excludes
        t, c = self.steps[self.s - 1].origins[key]
        absent, ones = _held(self.slot[t, c], self.layout)
        own = _excludes(self.steps[t].updates[c][4])
        ones |= {f"H{key}"} if (t, c) in self.known else set()
        self.binds += [self.slot[t, c]] if bound else []
        return f"H{key}", self.slot[t, c], absent | own, ones, own

    def exclusion(self, x: str, hop: int) -> tuple:
        """The factor ``1 - x`` of the one-node identifier x at ``hop``, as
        ``_visit`` gives it."""
        read = f"{self.label(x)}[{('_k', '_l')[hop]}]"
        return f"(1 - {read})", frozenset({("L", x, hop)}), (x, hop, False), None

    def fold(self, hop: int, skip, products, implied=frozenset(), ones=frozenset()):
        """Fold the exclusion factors and label reads that ``products``,
        computed per node of a loop, read at that node (``hop`` 0: ``_k``,
        1: ``_l``): the loop's list and guard imply the one-node identifiers
        in ``implied`` and the labels in ``ones``, and every product is 0 at
        the identifiers in ``skip``.  Returns the skip guard's conditions
        and the marks of the factors to drop, and logs ("skip", hop,
        skipped), ("implied", hop, dropped as implied) and ("one", hop,
        labels dropped as 1), each unless empty."""
        if self.folds is None:
            return [], set()
        guard = skip - implied
        implied = implied & frozenset().union(*(_excludes(p, hop) for p in products))
        held = ones & {x[0] for p in products for _, _, x, _ in p if x and x[1:] == (hop, True)}
        rules = (("skip", guard), ("implied", implied), ("one", held))
        self.folds += [(rule, hop, names) for rule, names in rules if names]
        var = ("_k", "_l")[hop]
        conds = [(f"{var} != {node}", frozenset()) for x, node in _ONE_NODE.items() if x in guard]
        return conds, {(x, hop, False) for x in guard | implied} | {(x, hop, True) for x in held}

    def nonzero(self, end, read, hop: int) -> list:
        """The test that a loop over the list of a read, ``end`` as
        ``column`` gives it, runs only where the read is nonzero: none where
        the read is a label that its list makes 1, and only the nodes it
        excludes where it is a known-1 column; both fold."""
        var, key = read
        v = ("_k", "_l")[hop]
        if self.folds is not None and var == "L" and key in end[3]:
            self.folds.append(("one", hop, frozenset({key})))
            return []
        if self.folds is not None and f"H{key}" in end[3]:
            return [(f"{v} != {node}", frozenset()) for x, node in _ONE_NODE.items() if x in end[4]]
        return [(f"{end[0]}[{v}]", {end[0]})]

    def known_one(self, factors: tuple, hop: int, ones, absent=frozenset()) -> tuple:
        """``factors`` with each bare read at ``hop`` of a known-1 column 1
        on the loop's node list (``ones`` holds its name) replaced by the
        exclusion factors of the nodes its update excludes, each logged as
        ("one", hop, its name).  At the node, a known-1 column of a label's
        list read off that list is that label, unless ``ones`` holds it,
        times its exclusions of nodes the loop's list holds (``absent``: the
        one-node identifiers it never holds)."""
        out = []
        for f in factors:
            key = _bare(f, hop)
            nodes = key is not None and self.known.get(self.steps[self.s - 1].origins[key])
            label = hop == 0 and str(nodes)[:2] == "_U" and self.layout[int(nodes[2:])]
            if key is None or f"H{key}" not in ones and not label:
                out.append(f)
                continue
            self.folds.append(("one", hop, frozenset({f"H{key}"})))
            own = self.column("H", key, False)[4]
            if f"H{key}" not in ones:  # the label it equals there
                read = (f"{self.label(label)}[_k]", frozenset({("L", label, 0)}), (label, 0, True), None)
                out += [read] * (label not in ones)
                own -= absent
            out += [self.exclusion(x, hop) for x in _ONE_NODE if x in own]
        return tuple(out)

    def omega(self, var: str, w, excluded, ones, off=frozenset()) -> tuple:
        """The code of Omega_F at node ``var`` (module docstring) of weight
        w: None (1), a label, or the (step, column) of a column computed once
        per root.  It is the sum of w over the node's neighbors (for weight
        1 the degree, else a buffer ``_generate`` fills once per root, or a
        stored column equal to it off the nodes the read never is, ``off``),
        less w at the node of each one-node identifier in ``excluded`` times
        the label that marks that node's neighbors, which is 1 where
        ``ones`` holds it."""
        base, at = "_deg", lambda x: _ONE
        same = [
            "O{}_{}".format(t, c) for t, units in enumerate(self.units)
            for nodes, columns, once in units if once and type(w) is str
            for c in columns if nodes == ((f"_U{self.index[w]}",), (), None) and (t, c) in self.stored
            for m, coef in [self.steps[t].linear[c] or (0, (None,))]
            if _only_excludes(coef) and _excludes(coef) <= off
            and [f[2] for f in self.steps[t].messages[m][4]] == [(w, 1, True)]
        ]
        if same:  # one buffer per value
            base = same[0]
        elif w is not None:
            base = self.omegas.setdefault(w, f"W{len(self.omegas)}")
        if type(w) is str:
            at = lambda x: _ONE if _label_at(w, x) else None
        elif w is not None:
            name, update = "O{}_{}".format(*w), self.steps[w[0]].updates[w[1]]
            zeros = _held(self.slot[w], self.layout)[0] | _excludes(update[4])
            at = lambda x: None if x in zeros else (self.constant(name, _ONE_NODE[x]), {name})
        terms, known, reads = [f"{base}[{var}]"], 0, {base}
        for x in _ONE_NODE:
            value, label = at(x) if x in excluded else None, self.label(_AROUND[x])
            if value == _ONE and _AROUND[x] in ones:
                known += 1
            elif value:
                read = None if _AROUND[x] in ones else (f"{label}[{var}]", {label})
                py, more = _times(None if value == _ONE else value, read)
                terms.append(py)
                reads |= more
        terms += [str(known)] if known else []
        return (f"({' - '.join(terms)})" if len(terms) > 1 else terms[0]), frozenset(reads)

    def constant(self, name: str, node: str) -> str:
        """The local that each branch binds, before its steps, to the value
        at ``node`` (i or j) of a column computed once per root."""
        return self.constants.setdefault(f"{name}[{node}]", f"_c{len(self.constants)}")

    def receiver(self, split, here, dropped, ones) -> tuple:
        """The closed form of a ``_split`` message's receiver part at
        ``_k``: ``-h`` or ``h``, h's factors ``here`` without those that
        ``dropped`` holds, times Omega_F of the weight F reads (1 without
        one): for weight 1 the count of ``_k``'s neighbors that F keeps."""
        off = {x for x, hop, one in dropped if hop == 0 and not one}
        omega = self.omega("_k", split[4], split[2], ones, off)
        py, reads = _times(_product(here, dropped), omega)
        return "-"[:not split[3][0]] + py, reads

    def readout(self, xs, coef=None, ones=frozenset()) -> list:
        """(sum, weight code) per readout term (x, w) in ``xs``: coef times
        the weight at ``_k``: a label, 1 where ``ones`` holds it, or a column
        (rule T's ("T", w)), or Omega_F of rule P's ("P", w, exclusions,
        _)."""
        out = []
        for x, w in xs:
            if _tag(w) == "P":
                w = self.omega("_k", w[1], w[2], ones)
            else:
                w = w[1] if _tag(w) else w
                name = w and (self.label(w) if type(w) is str else "O{}_{}".format(*w))
                w = None if w is None or w in ones else (f"{name}[_k]", frozenset({name}))
            out.append((f"_r{x}", _times(coef, w)))
        return out

    def pushed(self, c, coef) -> list:
        """The (coef, readout terms) of each per-sender sum rule P pushes
        into column c's loop, coef extended by the exclusions its senders'
        loop has."""
        entries = [(x, w) for x, w in self.sums[self.s].get(c, ()) if _tag(w) == "P"]
        if entries:
            self.folds.append(("push", 0, frozenset().union(*(w[3] for _, w in entries))))
        for _, (_, w, e, _) in entries:
            self.folds.append(("flat", 0, e) if w is None else ("omega", 0, (w, e)))
        return [
            (coef + tuple(self.exclusion(x, 0) for x in _ONE_NODE if x in w[3] - _excludes(coef)),
             [(x, w)])
            for x, w in entries
        ]

    def add(self, entries, store, value, dropped, ones=frozenset()) -> list:
        """Statements that add one value of a message at ``_k``: to
        ``store`` unless None, and to the readout sums that ``entries`` list
        as (coef, readout terms), each coef without its factors
        ``dropped``."""
        terms = [t for f, xs in entries for t in self.readout(xs, _product(f, dropped), ones)]
        return [("set", store, "+=", value)] * bool(store) + [("add", value, terms)]

    def flat(self, m, value, ones):
        """Rule T: a value read only at its sender, added once per sender
        times its Omega_F, or None where no per-sender sum of m is due."""
        group = self.sums[self.s].get(("m", m))
        if not group:
            return None
        for _, (w, e) in group:
            self.folds.append(("flat", 1, e) if w is None else ("omega", 1, (w, e)))
        return [("add", value, [(f"_r{x}", self.omega("_l", w, e, ones)) for x, (w, e) in group])]

    def pull(self, messages, dropped: set, ones, early: dict, bare, absent) -> list:
        """Statements that sum each message in ``messages`` over the
        neighbors of ``_k`` into ``_m<m>``, without the factors ``dropped``;
        ``ones``: the labels 1 at ``_k``.  A split message starts from its
        receiver part, and its sender part drops the factors that exclude a
        node where its sender-side read is 0.  ``early`` maps a message to
        the readout terms its receiver part is added to first (rule T); a
        message in ``bare`` sums no sender part, as nothing else reads it."""
        stmts, summed = [], []  # summed: per message, its summed factors
        for m in messages:
            _, _, witness, _, factors = self.steps[self.s].messages[m]
            start, split = _ZERO, self.folds is not None and _split(factors)
            if split:
                factors, _, excluded, *_ = split
                self.folds.append(_summed(split))
                at = [(var, key) for var, key, hop in witness or () if hop == 1]
                zeros = self.column(*at[0], False)[2] if len(at) == 1 else frozenset()
                own = self.fold(1, frozenset(), [factors], zeros)[1]
                factors = tuple(f for f in factors if f[2] not in own)
                here = self.known_one(split[3][2], 0, ones, absent)
                start = self.receiver(split, here, dropped, ones)
            if m in bare:
                stmts.append(("add", start, early[m]))
                continue
            stmts.append(("set", f"_m{m}", "=", start))
            stmts += [("add", (f"_m{m}", ()), early[m])] if early.get(m) else []
            summed.append((m, factors))
        if not summed:
            return stmts
        skip = frozenset.intersection(*(_excludes(f, 1) for _, f in summed))
        guard, more = self.fold(1, skip, [f for _, f in summed])
        sums = [("set", f"_m{m}", "+=", _product(f, dropped | more) or _ONE) for m, f in summed]
        return stmts + [_loop("_l", "adj[_k]", guard, sums)]

    def scatter(self, sent, entries: dict, store=None, receive=True) -> list:
        """Statements that scatter each message ``m`` in ``sent`` (module
        docstring, Kernels), adding each value at ``_k`` (``add``) to
        ``store``, a format of m, and to the readout sums that
        ``entries.get(m)`` lists.  A split message sends its sender part and
        adds its receiver part in closed form; rule T's per-sender sums
        (``flat``) replace the loop over receivers, and a message whose sums
        rule P moved sends nothing.  Without ``receive``, none is pulled."""
        stmts = []
        for m in sent:
            _, _, witness, _, factors = self.steps[self.s].messages[m]
            target = store and store.format(m)
            moved = self.sums[self.s].get(("m", m)) == []  # rule P took its per-sender sums
            at = {hop: (var, key) for var, key, hop in witness}
            split = self.folds is not None and _split(factors)
            if split:  # a label F reads can narrow the witness to the sender
                at.setdefault(0, min(r for f in split[3][2] for r in f[1])[:2])
            receiver = self.column(*at[0], receive) if 0 in at else None
            sender = self.column(*at[1], not moved) if 1 in at else None
            sends = split[0] if split else factors
            # a value added at _k is 0 where the message is or every coef is
            adds = entries.get(m, ())
            products = [sends, *(f for f, _ in adds)]
            skip = frozenset.intersection(*map(_excludes, products[1:] or [sends]))
            skip |= _excludes(sends)
            if sender and not moved:
                sends = self.known_one(sends, 1, sender[3])
                guard, dropped = self.fold(1, _excludes(sends, 1), [sends], sender[2], sender[3])
                read_here = all(hop == 1 for f in sends for *_, hop in f[1])
                value = _product(sends, dropped) or _ONE
                loop = read_here and self.flat(m, value, sender[3])
                if not loop:
                    inner, at_k = self.fold(0, skip, products)
                    value = _product(sends, dropped | at_k) or _ONE
                    loop = [_loop("_k", "adj[_l]", inner, self.add(adds, target, value, at_k))]
                stmts.append(_loop("_l", sender[1], self.nonzero(sender, at[1], 1) + guard, loop))
            if receiver and receive:
                if split:
                    # h is 0 where it reads a known-1 column but at the nodes it excludes
                    here = self.known_one(split[3][2], 0, receiver[3], receiver[2])
                    skip |= _excludes(here)
                    products.append(here)
                guard, at_k = self.fold(0, skip, products, receiver[2], receiver[3])
                if split:
                    self.folds.append(_summed(split))
                    value = self.receiver(split, here, at_k, receiver[3])
                    loop = self.add(adds, target, value, at_k, receiver[3])
                else:
                    inner, dropped = self.fold(1, _excludes(factors, 1), [factors])
                    value = _product(factors, at_k | dropped) or _ONE
                    # every edge from a sender is summed already
                    unsent = [(f"not ({sender[0]}[_l])", {sender[0]})] if sender else []
                    loop = [
                        ("set", "_a", "=", _ZERO),
                        _loop("_l", "adj[_k]", unsent + inner, [("set", "_a", "+=", value)]),
                        *self.add(adds, target, ("_a", frozenset()), at_k, receiver[3]),
                    ]
                guard = self.nonzero(receiver, at[0], 0) + guard
                stmts.append(_loop("_k", receiver[1], guard, loop))
        return stmts

    def unit(self, s: int, nodes, columns) -> tuple:
        """One unit of step ``s`` (``_layout``), built (``done``): over the
        node list ``nodes``, column c goes to ``O<s>_<c>`` or is added to
        the readout sums its terms list; with ``nodes`` None, the unit sends
        its columns (module docstring)."""
        self.s, step, sums = s, self.steps[s], self.sums[s]
        self.binds, self.folds = [nodes] if nodes else [], [] if self.fusing else None
        if nodes is None:
            sent: dict = {}
            for c in columns:
                m, coef = step.linear[c]
                sent.setdefault(m, []).extend(self.pushed(c, coef) or [(coef, sums[c])])
            return self.done(self.scatter(sorted(sent), sent), [], [])
        absent, ones = _held(nodes, self.layout)
        ones |= {
            f"H{k}" for k, o in enumerate(self.steps[s - 1].origins if s else ())
            if self.known.get(o) == nodes
        }
        buffered = _scatters(step, self.cuts[s])
        trans = {c: [t for t in sums.get(c, ()) if _tag(t[1]) == "T"] for c in columns}
        trans = {c: xs for c, xs in trans.items() if xs}
        only = {c for c in trans if (s, c) not in self.stored}
        outs = [f"O{s}_{c}" for c in columns if (s, c) in self.stored]
        stmts, lin = [], step.linear
        own = [
            c for c in columns if buffered and self.fusing and (s, c) in self.stored and lin[c]
            and step.readers[lin[c][0]] == 1 and _only_excludes(lin[c][1])
        ]
        for c in own:
            m, coef = lin[c]
            self.folds.append(("own", 0, _excludes(coef)))
            into = self.pushed(c, coef)
            stmts += self.scatter([m], {m: into}, f"O{s}_{c}[_k]")
            # a pushed sum's guard skips the nodes coef excludes already
            stmts += [
                ("set", f"O{s}_{c}[{v}]", "=", _ZERO)
                for x, v in _ONE_NODE.items() if x in _excludes(coef) and not into
            ]
        columns = [c for c in columns if c not in own]
        if not columns:  # no loop runs over the unit's own list
            del self.binds[0]
            return self.done(stmts, outs, [])
        reads = _reads(step, columns)
        messages = sorted(r[1] for r in reads if r[0] == "M")
        products = [self.known_one(step.updates[c][4], 0, ones, absent) for c in columns]
        # a column is 0 where it excludes, and where a column it reads bare is
        zeros = []
        for p in products:
            keys = [k for k in (_bare(f, 0) for f in p) if k is not None]
            zeros.append(_excludes(p).union(*(self.column("H", k, False)[2] for k in keys)))
        skip = frozenset.intersection(*zeros) & frozenset().union(*map(_excludes, products))
        pulled = [] if buffered else [step.messages[m][4] for m in messages]
        guard, dropped = self.fold(0, skip, products + pulled, absent, ones)
        body = []
        for c, product in zip(columns, products):
            if c in only:
                continue
            value = _product(product, dropped) or _ONE
            body.append(
                ("set", f"O{s}_{c}[_k]", "=", value) if (s, c) in self.stored
                else ("add", value, self.readout(sums[c], None, ones))
            )
        if not buffered:
            # rule T: a column's receiver part, times the weight at the node
            early: dict = {}
            for c, xs in trans.items():
                m, coef = step.linear[c]
                early.setdefault(m, []).extend(self.readout(xs, _product(coef, dropped), ones))
            bare = {step.linear[c][0] for c in only}
            pull = self.pull(messages, dropped, ones, early, bare, absent)
            stmts = [_loop("_k", nodes, guard, pull + body)]
            # and its sender part, summed per sender where rule P did not push it
            for m in sorted({step.linear[c][0] for c in trans}):
                if sums.get(("m", m)):
                    stmts += self.scatter([m], {}, receive=False)
            return self.done(stmts, outs, [])
        stmts += self.scatter(messages, {}, "M{}_{{}}[_k]".format(s))
        loads = [("set", f"_m{m}", "=", (f"M{s}_{m}[_k]", {f"M{s}_{m}"})) for m in messages]
        resets = [("set", f"M{s}_{m}[_k]", "=", _ZERO) for m in messages]
        stmts.append(("for", "_k", nodes, [*chain(*zip(loads, resets)), ("if", guard, body)]))
        return self.done(stmts, outs, [f"M{s}_{m}" for m in messages])

    def done(self, stmts, outs, used) -> tuple:
        """A built unit (``unit``), with the names its statements read; in a
        kernel without a hook, a state column is read by its buffer's name."""
        if self.fusing and self.s:
            origins = self.steps[self.s - 1].origins
            stmts = _rename(stmts, {f"H{k}": "O{}_{}".format(*o) for k, o in enumerate(origins)})
        reads: set = set()
        _render(stmts, reads, {})
        names = {
            r if type(r) is str else f"L{self.index[r[1]]}" if r[0] == "L" else f"{r[0]}{r[1]}"
            for r in reads if type(r) is str or type(r) is tuple and r[0] in ("H", "L", "M")
        }
        return self.binds, stmts, outs, used, self.folds or [], names


def _rewalk(stmts: list, out: str, loops: tuple = ()):
    """The chains of loops, (variable, node list) pairs, along which
    ``stmts`` store into ``out`` at ``_k``."""
    for kind, *args in stmts:
        if kind == "for":
            yield from _rewalk(args[2], out, (*loops, tuple(args[:2])))
        elif kind == "if":
            yield from _rewalk(args[1], out, loops)
        elif kind == "set" and args[0] == f"{out}[_k]":
            yield loops


def _indent(lines: list, depth: int) -> list:
    return [" " * (4 * depth) + x for x in lines]


def _generate(prog: MPProgram, layout: tuple, hops, readouts, hooked: bool):
    """The source lines of one kernel factory (``_kernel`` gives its
    arguments), the name they define, and per step the rewrite log of its
    units (``_Form``), or None where nothing folds: in a kernel with a
    hook or without readouts."""
    form = _Form(prog, layout, hops, readouts, hooked)
    steps, index, slot, sums = form.steps, form.index, form.slot, form.sums
    fusing, known, omegas = form.fusing, form.known, form.omegas
    built = [
        [(nodes, columns, once, form.unit(s, nodes, columns)) for nodes, columns, once in units]
        for s, units in enumerate(form.units)
    ]
    summed = {x for step_sums in sums for xs in step_sums.values() for x, _ in xs}
    last = steps[-1].origins
    # a readout of a known-1 column over its own list, 1 at each of its
    # nodes, counts the nodes of that list
    counted = {
        x for x, r in enumerate(readouts or ()) for t, c in [last[r.component]]
        if x not in summed and r.weight is None and (t, c) in known
        and _excludes(steps[t].updates[c][4]) <= _held(known[t, c], layout)[0]
    }
    if fusing:
        # a known-1 column that no statement reads is not stored; a column
        # read by name is a readout's or Omega's weight
        read = {w for w in omegas if type(w) is tuple}
        read |= {last[r.component] for x, r in enumerate(readouts) if x not in summed | counted}
        read |= {
            tuple(map(int, x[1:].split("_")))
            for step_units in built for *_, unit in step_units for x in unit[5] if x[0] == "O"
        }
        for s, step_units in enumerate(built):
            for u, (nodes, columns, once, _) in enumerate(step_units):
                kept = [c for c in columns if (s, c) not in known or (s, c) in read]
                if kept != columns:
                    step_units[u] = (nodes, kept, once, kept and form.unit(s, nodes, kept))
    body, buffers, stored, shown, names, radii = [], [], {}, [], {}, [-1]
    # what a rooted kernel without a hook does once per root, before its
    # loop over the branches: node lists of the root alone, and the units
    # (``_layout``) computed once
    prelude, stored_once, once_summed = [], {}, set()
    rewalk: dict = {}  # the statements that wrote each buffer whose unit builds no list

    def bind(spec) -> str:
        """The name of a node list (``_nodes``), bound where first used."""
        if type(spec) is str:
            radii.extend([int(spec[2:])] if spec.startswith("_B") else [])
            return spec
        if spec in names:
            return names[spec]
        if type(spec) is frozenset:
            # a meet: the set of one list, built once per root if it can be,
            # meets the others
            first, *rest = sorted(spec, key=lambda x: (not _per_root(x, index), x))
            parts = [bind(frozenset({first})), *map(bind, rest)] if rest else [bind(first)]
            others = ", ".join(parts[1:])
            made = [f" = {parts[0]}.intersection({others})" if rest else f" = set({parts[0]})"]
        else:
            near, here = ([bind(x) for x in part] for part in spec[:2])
            parts = near + here
            if near:  # the neighbors of a union are the union of the neighbors
                base = near[0] if len(near) == 1 else f"{{{', '.join(f'*{x}' for x in near)}}}"
                made = [f" = set(_chain(map(_adj, {base})))"]
                made += [f".update({', '.join(here)})"] if here else []
                parts.append("_adj")
            else:
                made = [f" = {{{', '.join(f'*{x}' for x in here)}}}" if here else " = set()"]
            made += [f" &= {bind(f'_B{spec[2]}')}"] if spec[2] is not None else []
        name = names[spec] = f"_N{len(names)}"
        out = prelude if fusing and _per_root(spec, index) else body
        out.append(("line", [name + line for line in made], name, frozenset(parts)))
        return name

    def held(keys, s):
        """A statement that binds the state columns ``keys`` as H<c>."""
        made = ["H{} = O{}_{}".format(key, *steps[s - 1].origins[key]) for key in sorted(keys)]
        return [("line", made, None, ())] * bool(made)

    for s, (step, step_units) in enumerate(zip(steps, built)):
        if not fusing and step_units:  # a kernel that keeps whole states binds all it reads
            body += held({r[1] for r in step.reads if r[0] == "H"}, s)
        shown.append("()")
        step_body: list = []
        for nodes, columns, once, unit in step_units:
            if not columns:
                continue
            spec, stmts, outs, used, _, _ = unit
            for x in spec:  # the unit's own list first, where a loop runs over it
                bind(x)
            name = names.get(nodes, nodes)
            rewalk.update(dict.fromkeys(outs if nodes not in spec else (), stmts))
            if once:  # only a kernel without a hook computes a unit once per root
                prelude += stmts
                once_summed.update(x for c in columns for x, _ in sums[s].get(c, ()))
            else:
                (step_body if fusing else body).extend(stmts)
            buffers, shown[s] = buffers + outs + used, name
            # a loop over every node rewrites every node
            outs = outs if name != "_all" else []
            (stored_once if once else stored).setdefault(name, []).extend(outs)
        body += step_body
    # rule T's Omega of each weight, scattered from the weight's list once
    # per root, and zeroed after the branches
    unspread = []
    for w, base in omegas.items():
        nodes, value = (f"_U{index[w]}", _ONE) if type(w) is str else (
            bind(slot[w]), ("O{}_{}[_l]".format(*w), ())
        )
        add = [_loop("_k", "adj[_l]", [], [("set", f"{base}[_k]", "+=", value)])]
        prelude.append(_loop("_l", nodes, [value] * (value != _ONE), add))
        unspread.append(((("_l", nodes), ("_k", "adj[_l]")), base))
        buffers.append(base)
    folds = [None] * len(steps)
    if fusing:  # each step's folds, unit by unit
        folds = [[f for *_, unit in units if unit for f in unit[4]] for units in built]
    row = {}
    for x, r in enumerate(readouts or ()):
        if x in summed:
            continue
        nodes = bind(slot[last[r.component]]) if r.weight is None else f"_U{index[r.weight]}"
        if x in counted:  # a count, in a loop that rule d may fuse
            body.append(_loop("_k", slot[last[r.component]], [], [("add", _ONE, [(f"_r{x}", None)])]))
            continue
        column = "O{}_{}".format(*last[r.component])
        row[x] = (f"sum(map({column}.__getitem__, {nodes}))", {nodes, column})
    summed = summed | counted
    if fusing:
        body = _merge(body, names, layout, True)
        outside = {x[0] for x in _touches(prelude, names)}.union(*(r for _, r in row.values()))
        body, demoted = _demote(body, names, layout, outside)
        body = [
            ("for", *st[1:3], _regroup(st[3], names, layout, True)) if st[:2] == ("for", "_k")
            else st for st in body
        ]
        buffers = [x for x in buffers if x not in demoted]
        stored = {nodes: [x for x in outs if x not in demoted] for nodes, outs in stored.items()}
    row_reads = set().union(*(r for _, r in row.values()))
    row = "".join(f"{row[x][0] if x in row else f'_r{x}'}, " for x in range(len(readouts or ())))

    def walks(stored) -> list:
        """The loops along which to zero each buffer: over its node list or,
        for a list that no line builds, along the loops that wrote it."""
        out = []
        for nodes, outs in stored.items():
            for o in outs:
                if o not in rewalk or nodes in names:
                    chains = [(("_k", names.get(nodes, nodes)),)]
                else:
                    chains = _rewalk(rewalk[o], o)
                out += [(loops, o) for loops in dict.fromkeys(chains)]
        return out

    def reset(walks) -> list:
        """Statements that zero each buffer along its loops; in a kernel
        without a hook, the walks over one list share one loop (rule f)."""
        groups: dict = {}
        for loops, o in walks:
            key = loops
            if fusing:
                key = names.get(loops[0][1], loops[0][1])
                key = _IDENTIFIERS[layout[int(key[2:])]][1] if key[:2] == "_U" else key
            groups.setdefault(key, {}).setdefault(loops, []).append(o)
        stmts = []
        for group in groups.values():
            var, inner = "_l" if any(len(loops) > 1 for loops in group) else "_k", []
            for loops, outs in group.items():
                zero = [("set", f"{o}[_k]", "=", _ZERO) for o in outs]
                for v, nodes in reversed(loops[1:]):
                    zero = [("for", v, nodes, zero)]
                inner += _rename(zero, {"_k": var}) if loops[0][0] != var else zero
            stmts.append(("for", var, next(iter(group))[0][1], inner))
        return stmts

    def marks(per_branch) -> list:
        return [
            ((("_k", _IDENTIFIERS[layout[i]][1]),), f"L{i}")
            for i in marked if (layout[i] in _BRANCH_LABELS) == per_branch
        ]

    ends = reset(walks(stored)), reset(walks(stored_once))
    while fusing:  # a node set that no statement reads is not built
        reads = {x[0] for x in _touches([*prelude, *body, *chain(*ends)], names) if x[2] == "r"}
        dead = [st for st in prelude + body if st[0] == "line" and st[2] not in reads | row_reads]
        if not dead:
            break
        prelude, body = ([st for st in x if st not in dead] for x in (prelude, body))
    raw: set = set()
    lines = [_render(x, raw, names) for x in (prelude, body)]
    seen = {
        r if type(r) is str else f"L{index[r[1]]}" if r[0] == "L" else f"{r[0]}{r[1]}"
        for r in raw | row_reads if type(r) is str or type(r) is tuple and r[0] in ("H", "L", "M")
    }
    # the labels the kernel's lines read, exclusion factors folded away
    marked = [x for x in range(len(layout)) if f"L{x}" in seen]
    states = "".join(
        f"(({''.join('O{}_{}, '.format(*o) for o in step.origins)}), {shown[s]}), "
        for s, step in enumerate(steps)
    )
    hook = ["if hook is not None:", f"    hook(j, ({states}))"]
    # a kernel with a hook, or without readouts, takes every shared name
    made = {"_all": "range(n)", "_adj": "adj.__getitem__", "_deg": "list(map(len, adj))"}
    keep = {"_all", "_adj"} if hooked or readouts is None else set()

    def setup(reads):
        """The factory's lines before its functions, for lines that read
        ``reads``."""
        return [
            "n = len(adj)", *(f"{x} = {made[x]}" for x in made if x in keep | reads),
            *(f"L{i} = labels[{layout[i]!r}]" for i in marked),
            *(f"{name} = [0] * n" for name in buffers),
        ]

    if readouts is None:
        out = ["def _run(adj, labels, supports, hook):", *_indent(setup(seen), 1)]
        if layout:
            out.append(f"    {''.join(f'_U{i}, ' for i in range(len(layout)))}= supports")
        final = "".join("O{}_{}, ".format(*o) for o in last)
        out += _indent(["j = None", *lines[1], *hook, f"return ({final})"], 1)
        return out, "_run", folds

    def supports(per_branch):
        return [
            f"_U{index[x]} = {nodes}" for x, (_, nodes, each) in _IDENTIFIERS.items()
            if each == per_branch and (hooked or f"_U{index[x]}" in seen)
        ]

    def mark(per_branch, value):
        return [
            line
            for i in marked if (layout[i] in _BRANCH_LABELS) == per_branch
            for line in (f"for _k in {_IDENTIFIERS[layout[i]][1]}:", f"    L{i}[_k] = {value}")
        ]

    balls = [f"_B{d}" for d in range(max(radii) + 1)]
    root = ([f"nonlocal {', '.join(balls)}", "_B0 = {i}"] if balls else []) + mark(False, 1)
    for d in range(1, len(balls)):
        frontier = "adj[i]" if d == 1 else f"_chain(map(_adj, _B{d - 1} - _B{d - 2}))"
        root.append(f"_B{d} = _B{d - 1}.union({frontier})")

    def start(xs):
        return [f"{''.join(f'_r{x} = ' for x in sorted(xs))}0"] if xs else []

    def zero(walks):
        return _render(reset(walks), set(), names)

    subgraph = [*start(summed - once_summed), *lines[1], f"_rows.append(({row}))"]
    if fusing:  # the branch labels' marks are zeroed with the buffers
        subgraph += zero(walks(stored) + marks(True))
        after = zero(unspread + walks(stored_once) + marks(False))
    else:
        subgraph += [*(hook if hooked else []), *zero(walks(stored))]
        after = [*zero(walks(stored_once)), *mark(False, 0)]
    # one branch per neighbor of the root for a plan that reads a branch label
    read = {r[1] for step in steps for r in step.reads if r[0] == "L"}
    branching = bool((read | {r.weight for r in readouts}) & _BRANCH_LABELS)
    kernel = ["_rows = []", *supports(False), *start(once_summed), *lines[0]]
    kernel.append(f"for j in {'adj[i]' if branching else '(None,)'}:")
    branch = supports(True) if branching else []
    branch += [f"{local} = {py}" for py, local in form.constants.items()]
    kernel += _indent(branch + mark(True, 1) + subgraph + ([] if fusing else mark(True, 0)), 1)
    kernel += [*after, "return _rows"]
    # the kernel takes what it reads as defaults, so its loops read locals
    shared = keep | seen
    bound = ", ".join(
        f"{x}={x}"
        for x in ["adj", *(x for x in ("_adj", "_all", "_deg") if x in shared)]
        + [*(["hook"] if hooked else []), *(f"L{i}" for i in marked), *buffers]
    )
    out = ["def _make(adj, labels, hook):"]
    out += _indent(setup(seen | ({"_adj"} if len(balls) > 2 else set())), 1)
    out += [f"    {x} = None" for x in balls]
    # a kernel without a hook whose roots set nothing has no root function
    if root or not fusing:
        out += ["    def _root(i):", *_indent(root or ["pass"], 2)]
    out += [f"    def _kernel(i, {bound}):", *_indent(kernel, 2)]
    out.append(f"    return {'_root' if root or not fusing else 'None'}, _kernel")
    return out, "_make", folds


def _exec(lines: list, name: str):
    namespace = {"_chain": chain.from_iterable}
    exec("\n".join(lines), namespace)
    return namespace[name]


# (program, label layout, radius, readouts, hooked) -> kernel factory
_KERNELS: dict[tuple, object] = {}


def _kernel(prog: MPProgram, layout: tuple, hops: int | None, readouts, hooked: bool):
    """The kernel factory of one plan, cached per (program, label layout,
    radius, readouts, hooked).  A program that reads beyond the radius
    raises ProgramError, and nothing is cached for it.

    Rooted (``readouts`` a tuple): ``make(adj, labels, hook)``, with one
    all-0 node-indexed buffer per label in ``labels``, returns ``(root,
    kernel)``: ``root(i)`` sets root i's labels and balls, ``kernel(i)``
    returns the readout rows of its subgraphs (``RootedRun``), and calls
    ``hook`` only if ``hooked``.  Plain (``readouts`` and the radius None):
    ``run(adj, labels, supports, hook)``, with each label's nonzero nodes in
    ``supports``, stores every column and returns the final state.
    ``hook(j, steps)``, unless None, gets after each subgraph its branching
    node (None without one) and, per step (init first), the state after it
    and the nodes it computed; the buffers are reused, so a hook copies what
    it keeps.
    """
    key = (prog, layout, hops, readouts, hooked)
    hit = _KERNELS.get(key)
    if hit is None:
        lines, name, _ = _generate(*key)
        hit = _KERNELS[key] = _exec(lines, name)
    return hit


def run(
    prog: MPProgram,
    adjacency: Sequence[Sequence[int]],
    labels: Mapping[str, Sequence[int]],
) -> tuple[list[int], ...]:
    """Run a program over raw (adjacency, labels) and return the final state:
    one column per component, one entry per node (``state[c][k]``)."""
    layout = tuple(sorted(labels))
    n = len(adjacency)
    make = _kernel(prog, layout, None, None, False)
    for name in layout:
        if len(labels[name]) != n:
            raise ProgramError(
                f"label {name!r} has {len(labels[name])} entries for {n} nodes"
            )
    supports = [list(compress(range(n), labels[name])) for name in layout]
    return make(adjacency, labels, supports, None)


class RootedRun:
    """One program, run subgraph by subgraph on a parent graph's adjacency.

    Each subgraph is a root's ego-network of radius ``hops`` or, when the
    program or a readout weight reads ``is_branch`` or ``in_n_branch``, one
    copy of it per neighbor of the root, marked as the branching node.
    ``rows(i)`` gives root i's readout rows, one per subgraph: it calls
    ``root(i)``, then ``kernel(i)`` (``_kernel``, which also says what
    ``hook`` gets).  Where a kernel's roots set nothing, ``root`` does
    nothing and ``rows`` is the kernel alone.  A readout weight outside
    ``_IDENTIFIERS`` raises MissingLabelError.
    """

    def __init__(
        self,
        prog: MPProgram,
        adjacency: Sequence[Sequence[int]],
        hops: int,
        readouts: Sequence[Readout],
        hook=None,
    ) -> None:
        names = tuple(sorted(_IDENTIFIERS))
        width = len(prog.layers[-1].update if prog.layers else prog.init)
        for r in readouts:
            _check_component(r, width)
            if r.weight not in (None, *names):
                raise MissingLabelError(f"readout weight label {r.weight!r} not in subgraph labels")
        make = _kernel(prog, names, hops, tuple(readouts), hook is not None)
        labels = {name: [0] * len(adjacency) for name in names}
        root, self.kernel = make(adjacency, labels, hook)
        self.root = root or _no_root
        if root is None:
            self.rows = self.kernel

    def rows(self, i: int) -> list[tuple[int, ...]]:
        self.root(i)
        return self.kernel(i)


def _no_root(i: int) -> None:
    """The root function of a kernel whose roots set nothing."""


def _check_component(readout: Readout, width: int) -> None:
    if not 0 <= readout.component < width:
        raise ProgramError(f"readout component {readout.component} out of width {width}")


def run_program(sub: "RootedSubgraph", prog: MPProgram) -> tuple[list[int], ...]:
    """Run a program on one rooted subgraph (final state columns)."""
    return run(prog, sub.adj, sub.labels)


def apply_readout(
    sub: "RootedSubgraph", states: Sequence[Sequence[int]], readout: Readout
) -> int:
    _check_component(readout, len(states))
    column = states[readout.component]
    if readout.weight is None:
        return sum(column)
    try:
        w = sub.labels[readout.weight]
    except KeyError:
        raise MissingLabelError(
            f"readout weight label {readout.weight!r} not in subgraph labels"
        ) from None
    if len(w) != len(column):
        raise ProgramError(
            f"readout weight label {readout.weight!r} has {len(w)} entries "
            f"for {len(column)} states"
        )
    return sum(map(mul, column, w))


def exact_div(value: int, divisor: int) -> int:
    """Integer division that insists on a zero remainder."""
    q, r = divmod(value, divisor)
    if r:
        raise ArithmeticError(
            f"expected {value} to be divisible by {divisor} (remainder {r})"
        )
    return q
