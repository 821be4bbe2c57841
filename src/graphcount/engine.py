"""Deterministic synchronous integer message passing over rooted subgraphs.

A program is a fixed pipeline of layers.  Each layer evaluates a tuple of
message expressions on every directed edge (receiver <- sender), sums the
messages per receiver component-wise, and then evaluates a tuple of update
expressions per node over (previous state, label vector, message sums).  All
layers are synchronous: states at step t+1 depend only on states at step t,
so evaluation order cannot affect the result.

Expressions form a small closed AST over integer arithmetic
({+, -, *, constants, component selects, zero/positivity indicators}).  One
visitor walks it, with one table entry per node type: per expression it
gives the Python source and the audit text, checks that every select stays
in its context and width, records what the expression reads, and gives its
witness (below).  ``init`` is walked as a message-less layer over an empty
state, so every step has one form, and the kernel generator (below) puts
the walked sources together.  ``program_text`` (one readable line per
layer, for auditing) and ``required_labels`` come from the same walk.
States are Python ints, i.e. arbitrary precision: results are exact and
overflow cannot occur.

States are columnar: a state is a tuple with one list per component, indexed
``state[c][k]`` for component c of node k, and labels are read straight from
label columns.  A step binds only the state and label columns its
expressions read, fills each computed column in one loop over its nodes, and
passes a column through unchanged when the update is a bare ``Self(i)`` (13
of the 24 layer updates of the 6-cycle program are such copies).

Which nodes a step computes.  An expression's witness is a set of reads
(state columns and labels, each at the evaluating node or at the sending
neighbor) such that the expression is 0 wherever all of them are: ``Self``,
``Nbr``, ``LSelf`` and ``LNbr`` are their own witness, ``Msg`` has its
message's, ``Const(0)`` the empty one; ``Add``, ``Sub`` and ``IsPos`` join
their operands', ``Mul`` keeps the operand of least reach; ``IsZero`` and
nonzero constants have none.  A step whose computed updates all have one
runs only over the nodes where a source of its witness is nonzero, plus
their neighbors for sources read across an edge; every other node keeps 0.
Each column and each label keeps the node list it is nonzero on, so this
costs no scan of a column.  A node list is a set expression over the
labels' lists, the adjacency and the root's balls, never over a state, so
each one is built once per subgraph, where it is first used.

On a rooted subgraph the program runs on the parent graph's own adjacency,
with nothing extracted, and the subgraph radius bounds the work instead.
The reach of a column is how far from the root it can be nonzero: labels
``is_root`` 0, ``in_n_root`` 1, ``is_branch`` 1, ``in_n_branch`` 2; ``Mul``
takes the smaller reach, ``Add`` and ``Sub`` the larger, reads across an
edge add one; ``IsZero`` and nonzero constants are
unbounded.  Its demand is how far out a later step or a readout reads it
(``_radii``).  A step computes within min(reach, demand), the radius R, and
is cut to R, using the root's BFS ball, when its sources could reach
further.  On every node within R its state is that of the extracted
radius-K ego-network: below K every neighbor lies inside the ego-network,
and at K each message must be 0 whenever its sender lies outside, which
``_radii`` checks when the program is compiled for a rooted run.  Per plan
at its own radius, the steps cut (init first, "-" for none) are cycle3
``- 1``, cycle4 ``- - 1``, cycle5 ``- 2 1``, triangle_rectangle ``- 2 1 -``,
walk4 ``- - - 1 0`` and cycle6 ``- 2 - 2 -``; path2, path3, path4,
tailed_triangle, clique4 and chordal_cycle need no cut.

A rooted kernel without a hook (the one ``count`` runs) computes each
column only where it can be nonzero and where it is read (``_layout``).  A
step that pulls its messages, or has none, computes each column over the
node list of its own witness, pulling only the messages that column reads:
cycle6's init and layers 1, 3 and 4.  A stored column that every later step
reads at the node itself, in loops that do not run over every node, is
computed only over the union of those loops' node lists, unless building
that union costs a set its own list does not (cycle6's layer 1 columns 3
and 4 and layer 3 column 0, triangle_rectangle's step 2).  Those loops lie
within their steps' radii, so within the column's demand, and where they
lie beyond its reach its witness makes it 0: the states the readouts see
stay exact.

Building a node set costs time, so a step that would build one runs over
every node (within its radius) when the graph has fewer than
``_SPARSE_MIN_NODES`` = 32 nodes, and a step cut to radius 0 or 1 runs over
the root's ball at every size.  A radius-2 cut intersects its node list
with the ball, and no rule runs over every node once many would be
computed.  A step with one source, read at the node itself and not cut,
takes that source's node list as it is.  CHANGES.md holds the measurements
behind these rules.

One kernel per plan.  A plan compiles, once per (program, label layout,
cuts, small-graph flag, readouts, hooked), into one generated Python
function, its kernel (``_kernel``).  A rooted kernel marks the branch
labels, loops over the root's branches, runs every step inline and appends
each subgraph's readout row; ``run`` runs the same step code once over
given labels, and no count calls it.  Each state column is a node-indexed
buffer named after the step and column that computed it (``_origins``);
each node list is chosen by the rules above when the kernel is generated;
after each subgraph the kernel zeroes what it wrote.  A step scatters its
messages (``_scatters``) when it has no cut and the witness of each message
has at most one read at the sender and at most one at the receiver, both
covered by the step's sources: every message is added from the nodes where
its sender-side read is nonzero into its neighbors' message buffers, then
pulled only at the nodes where its receiver-side read is nonzero, from the
neighbors not scattered from.  A scatter walks each edge from its sender,
so it needs a symmetric adjacency.  Every other step pulls each message at
each node that computes a column reading it.

Readouts are summed where they are computed.  In a rooted kernel without a
hook, a column that no later step reads is not stored: each readout of it
is a running sum that the loop computing the column adds to (``_fusion``).
A step whose columns are all of that kind computes only what its readouts
need: if every one is weighted by one label, it computes only at that
label's nodes (cycle3, cycle4, cycle5, the closed walks); if it scatters
and each column is ``coef * Msg(m)``, each message value, times coef at its
receiver, goes straight into the sum as it is sent or pulled, with no node
set, message buffer or final loop (path2, path3, path4).  Otherwise the step
computes each column over its node list as above and adds its readout-only
columns instead of storing them (cycle6's layer 4, triangle_rectangle's
last step, clique4, chordal_cycle, tailed_triangle), except that a cut step
sends each ``coef * Msg(m)`` one whose message's witness reads only the
sender, of reach below the cut, so that every receiver it reaches lies
within the cut: cycle6's layer 3 column 1, sent from the root's neighbors.
A kernel with a hook stores every column over one node list per step, so
that the hook sees whole states: ``count_path4_edge``, ``count_walks``,
the per-step parity tests and the node evaluation counts run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain, compress
from operator import mul
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from .extraction import RootedSubgraph


class ProgramError(ValueError):
    """Raised for malformed programs: bad widths, out-of-range selects."""


class MissingLabelError(ProgramError):
    """Raised when a program needs a label the subgraph labeling lacks."""


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    def __add__(self, other: "Expr | int") -> "Expr":
        return Add(self, _lift(other))

    def __radd__(self, other: "Expr | int") -> "Expr":
        return Add(_lift(other), self)

    def __sub__(self, other: "Expr | int") -> "Expr":
        return Sub(self, _lift(other))

    def __rsub__(self, other: "Expr | int") -> "Expr":
        return Sub(_lift(other), self)

    def __mul__(self, other: "Expr | int") -> "Expr":
        return Mul(self, _lift(other))

    def __rmul__(self, other: "Expr | int") -> "Expr":
        return Mul(_lift(other), self)


def _lift(x: "Expr | int") -> "Expr":
    return x if isinstance(x, Expr) else Const(int(x))


@dataclass(frozen=True)
class Const(Expr):
    value: int


@dataclass(frozen=True)
class Self(Expr):
    """Component of the receiving node's previous-layer state."""

    index: int


@dataclass(frozen=True)
class Nbr(Expr):
    """Component of the sending neighbor's previous-layer state (messages only)."""

    index: int


@dataclass(frozen=True)
class Msg(Expr):
    """Component of the aggregated message sum (updates only)."""

    index: int


@dataclass(frozen=True)
class LSelf(Expr):
    """Label component of the receiving node, selected by name."""

    name: str


@dataclass(frozen=True)
class LNbr(Expr):
    """Label component of the sending neighbor (messages only)."""

    name: str


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class IsZero(Expr):
    """1 if the operand is 0, else 0."""

    a: Expr


@dataclass(frozen=True)
class IsPos(Expr):
    """1 if the operand is > 0, else 0."""

    a: Expr


@dataclass(frozen=True)
class Layer:
    message: tuple[Expr, ...]
    update: tuple[Expr, ...]


@dataclass(frozen=True)
class MPProgram:
    """A named pipeline: initial state from labels, then message/update layers."""

    name: str
    init: tuple[Expr, ...]
    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        # the compile cache hashes its key on every run; the tree is immutable,
        # so hash it once here
        object.__setattr__(self, "_hash", hash((self.name, self.init, self.layers)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so rebuild rather than
        # carry the cached hash along
        return (MPProgram, (self.name, self.init, self.layers))


@dataclass(frozen=True)
class Readout:
    """Permutation-invariant component sum over subgraph nodes.

    ``weight`` optionally multiplies each node's value by one of its label
    components (e.g. restrict the sum to neighbors of the root).
    """

    component: int
    weight: str | None = None


# ---------------------------------------------------------------------------
# The one walk over the AST: each expression's Python source and audit text,
# what it reads, and where it can be nonzero.  Compiled steps are cached per
# (program, label layout).
# ---------------------------------------------------------------------------

# How far from the root each identity indicator is nonzero; any other label
# is unbounded.
_LABEL_REACH = {"is_root": 0, "in_n_root": 1, "is_branch": 1, "in_n_branch": 2}
_UNBOUNDED = math.inf


def _reach(witness, state, sender: bool = False) -> float:
    """How far from the root an expression with this witness can be nonzero:
    at the node that evaluates it or, with ``sender``, at the neighbor that
    sends it (a message).  ``state`` gives the reach of each state column; -1
    means never nonzero."""
    if witness is None:
        return _UNBOUNDED
    out = -1
    for var, key, hop in witness:
        r = state[key] if var == "H" else _LABEL_REACH.get(key, _UNBOUNDED)
        if r >= 0:
            out = max(out, r + (1 - hop if sender else hop))
    return out


def _either(state, witnesses):
    """Add, Sub, IsPos: zero where every operand is."""
    return None if None in witnesses else frozenset().union(*witnesses)


def _narrowest(state, witnesses):
    """Mul: zero where one operand is; keep the one of least reach."""
    bounded = [w for w in witnesses if w is not None]
    return min(bounded, key=lambda w: _reach(w, state), default=None)


# Composite nodes: Python form and text form, one {} per operand, and the
# witness of the node, given those of its operands.
_OPERATORS = {
    Add: ("({} + {})", "({} + {})", _either),
    Sub: ("({} - {})", "({} - {})", _either),
    Mul: ("({} * {})", "({} * {})", _narrowest),
    IsZero: ("(0 if {} else 1)", "[{} == 0]", lambda state, witnesses: None),
    IsPos: ("(1 if {} > 0 else 0)", "[{} > 0]", _either),
}

# Leaves: the variable the Python form reads ("" for none, "M" for a message
# sum), Python form and
# text form of the node's field, the context the node is confined to (with
# what the error calls it), the width that bounds its index, and the hop of
# its read (0 at the evaluating node, 1 at the sending neighbor).
_LEAVES = {
    Const: ("", "{!r}", "{}", None, None, None),
    Self: ("H", "H{}[_k]", "self.h{}", None, "state", 0),
    Nbr: ("H", "H{}[_l]", "nbr.h{}", ("message", "neighbor state is"), "state", 1),
    Msg: ("M", "_m{}", "m{}", ("update", "message sums are"), "message", None),
    LSelf: ("L", "L{}[_k]", "self.{}", None, None, 0),
    LNbr: ("L", "L{}[_l]", "nbr.{}", ("message", "neighbor labels are"), None, 1),
}


def _visit(
    e: Expr, ctx: str, layout: Mapping[str, int], state: tuple, messages: tuple, reads: set
) -> tuple[str, str, frozenset | None]:
    """(Python source, audit text, witness) of ``e`` in context ``ctx``.

    ``state`` holds the reach of each previous state column and ``messages``
    the witness of each message.  The witness of ``e`` is a set of (variable,
    index or label name, hop) reads such that ``e`` is 0 wherever all of them
    are, or None when there is none.  Adds what ``e`` reads to ``reads`` in
    the same form.  A label reads from its position in ``layout``; names
    outside the layout never reach compilation, because ``_steps`` rejects
    them.
    """
    kind = type(e)
    if kind not in _OPERATORS and kind not in _LEAVES:
        raise ProgramError(f"unknown expression node {kind.__name__}")
    args = [getattr(e, f.name) for f in fields(e)]
    if kind in _OPERATORS:
        py, text, witness = _OPERATORS[kind]
        parts = [_visit(a, ctx, layout, state, messages, reads) for a in args]
        return (
            py.format(*(p[0] for p in parts)),
            text.format(*(p[1] for p in parts)),
            witness(state, [p[2] for p in parts]),
        )
    var, py, text, confined, bound, hop = _LEAVES[kind]
    if confined and ctx != confined[0]:
        raise ProgramError(f"{confined[1]} only visible in {confined[0]} expressions")
    width = len(state if bound == "state" else messages)
    if bound and not 0 <= args[0] < width:
        raise ProgramError(f"{bound} select {args[0]} out of width {width}")
    if var:
        reads.add((var, *args, hop))
    if kind is Const:
        witness = frozenset() if args[0] == 0 else None
    elif kind is Msg:
        witness = messages[args[0]]
    else:
        witness = frozenset({(var, args[0], hop)})
    if var == "L":
        return py.format(layout.get(args[0])), text.format(*args), witness
    return py.format(*args), text.format(*args), witness


def _expr(e: Expr, ctx: str, layout: Mapping[str, int], state: tuple, messages: tuple) -> tuple:
    """``_visit``'s (Python source, audit text, witness) of ``e``, and what
    it reads."""
    reads: set = set()
    return (*_visit(e, ctx, layout, state, messages, reads), reads)


@dataclass(frozen=True)
class _Step:
    """One walked step: the (Python source, text, witness, reads) of its
    messages and updates, the state index each update copies (None when it
    computes), what the messages and computing updates read, the reach of
    each output column, the union of the computing updates' witnesses: the
    reads whose supports bound the nodes the step must compute (None: every
    node), and per update, when it is ``coef * Msg(m)`` with a coef that
    reads no message, (m, the coef's Python source, None for a bare
    ``Msg(m)``), else None."""

    messages: list
    updates: list
    copies: list
    reads: set
    reach: tuple
    sources: frozenset | None
    linear: list


def _reads_message(e: Expr) -> bool:
    return type(e) is Msg or type(e) in _OPERATORS and any(
        _reads_message(getattr(e, f.name)) for f in fields(e)
    )


def _linear(e: Expr) -> tuple[int, Expr | None] | None:
    """(m, coef) when ``e`` is ``coef * Msg(m)`` (coef None for a bare
    ``Msg(m)``) and coef reads no message, else None."""
    if type(e) is Msg:
        return e.index, None
    if type(e) is Mul:
        for coef, msg in ((e.a, e.b), (e.b, e.a)):
            if type(msg) is Msg and not _reads_message(coef):
                return msg.index, coef
    return None


def _walk(prog: MPProgram, layout: Mapping[str, int]) -> list[_Step]:
    """Visit every expression of ``prog`` once, step by step: ``init`` first,
    as a message-less layer over an empty state, then each layer.  An update
    that is a bare ``Self`` copies its column; its read is not recorded, as
    the step passes the column through."""
    steps = []
    reach: tuple = ()
    layers = [("init", Layer((), prog.init))] + [("update", x) for x in prog.layers]
    for ctx, layer in layers:
        messages = [_expr(e, "message", layout, reach, ()) for e in layer.message]
        witnesses = tuple(m[2] for m in messages)
        copies = [e.index if type(e) is Self else None for e in layer.update]
        updates = [_expr(e, ctx, layout, reach, witnesses) for e in layer.update]
        if ctx == "update" and not updates:
            raise ProgramError("layer update must produce at least one component")
        computed = [u for u, c in zip(updates, copies) if c is None]
        reads = set().union(*(x[3] for x in messages + computed))
        witness = [u[2] for u in computed]
        sources = None if None in witness else frozenset().union(*witness)
        linear = [_linear(e) for e in layer.update]
        linear = [
            x and (x[0], x[1] and _visit(x[1], ctx, layout, reach, witnesses, set())[0])
            for x in linear
        ]
        reach = tuple(
            _reach(u[2], reach) if c is None else reach[c] for u, c in zip(updates, copies)
        )
        steps.append(_Step(messages, updates, copies, reads, reach, sources, linear))
    return steps


def required_labels(prog: MPProgram) -> frozenset[str]:
    """Names of the labels ``prog`` reads."""
    reads = set().union(*(step.reads for step in _walk(prog, {})))
    return frozenset(r[1] for r in reads if r[0] == "L")


def program_text(prog: MPProgram) -> str:
    init, *layers = _walk(prog, {})
    inits = "; ".join(f"h{i} = {u[1]}" for i, u in enumerate(init.updates)) or "-"
    lines = [f"program {prog.name}", f"  init: {inits}"]
    for number, layer in enumerate(layers, start=1):
        msgs = "; ".join(f"m{i} = sum_nbr {m[1]}" for i, m in enumerate(layer.messages))
        upds = "; ".join(f"h{i} = {u[1]}" for i, u in enumerate(layer.updates))
        sep = " | " if msgs else ""
        lines.append(f"  layer {number}: {msgs}{sep}{upds}")
    return "\n".join(lines)


def _steps(prog: MPProgram, layout: tuple[str, ...]) -> list[_Step]:
    """The walked steps of ``prog`` over a label layout, which must hold every
    label the program reads."""
    steps = _walk(prog, {name: i for i, name in enumerate(layout)})
    missing = {r[1] for step in steps for r in step.reads if r[0] == "L"} - set(layout)
    if missing:
        raise MissingLabelError(
            f"program {prog.name!r} needs labels {sorted(missing)} "
            f"not provided by this subgraph (has {sorted(layout)})"
        )
    return steps


# ---------------------------------------------------------------------------
# Execution: one generated kernel per plan
# ---------------------------------------------------------------------------

# A step that would build a node set runs over every node (of the graph, or
# within its radius) when the graph has fewer nodes than this; CHANGES.md
# gives the measurements behind it.
_SPARSE_MIN_NODES = 32

# The labels of a rooted run, without and with a branching node, and the
# node list each is 1 on, for root i and branching node j.
_ROOTED_LABELS = {
    False: ("in_n_root", "is_root"),
    True: ("in_n_branch", "in_n_root", "is_branch", "is_root"),
}
_SUPPORTS = {
    "is_root": "(i,)", "in_n_root": "adj[i]", "is_branch": "(j,)", "in_n_branch": "adj[j]",
}


def _origins(steps: Sequence[_Step]) -> list[tuple[tuple[int, int], ...]]:
    """Per step, the (step, column) that computed each of its output columns,
    following copies back."""
    out, state = [], ()
    for s, step in enumerate(steps):
        state = tuple((s, c) if src is None else state[src] for c, src in enumerate(step.copies))
        out.append(state)
    return out


# (program, label layout, radius, readouts) -> (radii, cuts)
_RADII: dict[tuple, tuple] = {}


def _radii(prog: MPProgram, layout: tuple[str, ...], hops: int, readouts: tuple) -> tuple:
    """Per step, on a rooted subgraph of radius ``hops``: the radius R it
    computes within, and the radius it is cut to (None: no cut), from the
    reach and demand of its columns.

    A column's demand is the radius within which a later step or a readout
    reads it: ``hops`` for a plain readout, the weight's reach for a weighted
    one, and a step's own radius (one more across an edge) for what it reads.
    A step computes within R, the largest min(reach, demand) of its columns;
    it is cut to R when its sources could reach further.  Below ``hops``
    every neighbor of a computed node lies in the subgraph.  At ``hops``,
    a neighbor outside adds 0 only if each message is 0 whenever its sender
    lies beyond ``hops``; a program where that fails raises ProgramError.
    """
    key = (prog, layout, hops, readouts)
    hit = _RADII.get(key)
    if hit is not None:
        return hit
    steps = _steps(prog, layout)
    origin = _origins(steps)
    demand: dict = {}

    def need(column, radius):
        demand[column] = max(demand.get(column, -1), min(hops, radius))

    for r in readouts:
        need(origin[-1][r.component], _LABEL_REACH.get(r.weight, hops))
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
                need(origin[s - 1][column], within[s] + hop)
    cuts, spread, reach = [], (), ()
    for s, step in enumerate(steps):
        natural = _reach(step.sources, spread)
        cuts.append(within[s] if natural > within[s] else None)
        if within[s] >= hops:
            for m, (_, text, witness, _) in enumerate(step.messages):
                if _reach(witness, reach, sender=True) > hops:
                    raise ProgramError(
                        f"program {prog.name!r} layer {s} message {m} ({text}) "
                        f"reads beyond subgraph radius {hops}"
                    )
        spread = tuple(
            (natural if cuts[s] is None else cuts[s]) if src is None else spread[src]
            for src in step.copies
        )
        reach = step.reach
    _RADII[key] = hit = (tuple(within), tuple(cuts))
    return hit


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


def _fusion(steps: Sequence[_Step], cuts, readouts) -> list[tuple[str, dict, list]]:
    """Per step of a rooted kernel without a hook, how it treats the columns
    it computes that no later step reads: ``(mode, fused, sent)``, with
    ``fused`` mapping each such column to the indices of the readouts of it,
    which are summed where the column is computed instead of being stored,
    and ``sent`` the summed columns, each ``coef * Msg(m)``, whose message
    values, times coef at the receiver, are added to the readout sums as
    they are sent (``_scatter``).  Modes:

    - "nodes": the step computes its other columns over their node lists
      (``_layout``), storing those a later step reads;
    - "weight": every fused readout is weighted by one label and the step
      stores nothing, so it computes only at the label's nodes.  A step
      without a cut is 0 off its nodes wherever it is evaluated, as every
      read of its sources is; a step with one must not compute beyond it,
      so there the label's reach must lie within the cut;
    - "skip": nothing reads what the step computes.

    A step that stores nothing, scatters and sums only ``coef * Msg(m)``
    columns sends them all.  A cut step sends each such column whose
    message's witness is at most one read, at the sender, of reach below
    the cut: every receiver of a nonzero message then lies within the cut.
    """
    origins = _origins(steps)
    read = {
        origins[t - 1][r[1]] for t in range(1, len(steps)) for r in steps[t].reads if r[0] == "H"
    }
    plan = []
    for s, (step, cut) in enumerate(zip(steps, cuts)):
        computed = [c for c, src in enumerate(step.copies) if src is None]
        fused = {
            c: [x for x, r in enumerate(readouts) if origins[-1][r.component] == (s, c)]
            for c in computed if (s, c) not in read
        }
        summed = [c for c, xs in fused.items() if xs]
        weights = {readouts[x].weight for c in summed for x in fused[c]}
        (weight,) = weights if len(weights) == 1 else (None,)
        stores, sent = len(fused) < len(computed), []
        if not stores and not summed:
            mode = "skip"
        elif not stores and weight is not None and (cut is None or _LABEL_REACH[weight] <= cut):
            mode = "weight"
        else:
            mode = "nodes"
            if not stores and _scatters(step, cut) and all(step.linear[c] for c in summed):
                sent = summed
            elif cut is not None:
                messages = [step.linear[c] and step.messages[step.linear[c][0]] for c in summed]
                sent = [
                    c for c, m in zip(summed, messages)
                    if m and _one_read_a_side(m[2]) and all(hop == 1 for *_, hop in m[2])
                    and _reach(m[2], steps[s - 1].reach, sender=True) < cut
                ]
        plan.append((mode, fused, sent))
    return plan


def _nodes(sources, cut, small: bool, where) -> str | tuple:
    """The node list a step, or a column, with these sources computes, by
    the rules of the module docstring: a name, or ``(near, here, cut)``, the
    neighbors of the lists ``near`` and the lists ``here``, cut to the ball
    of radius ``cut`` (None: no cut).  ``where(var, key)`` gives the node
    list of a read."""
    lists: list = [set(), set()]
    for var, key, hop in sources or ():
        lists[hop].add(where(var, key))
    here, near = (tuple(sorted(x, key=repr)) for x in lists)
    build = bool(near) or len(here) != 1 or cut is not None
    if sources is None or cut is not None and cut <= 1 or small and build:
        return "_all" if cut is None else "set()" if cut < 0 else f"_B{cut}"
    return (near, here, cut) if build else here[0]


def _layout(steps, cuts, plan, small: bool, index, readouts) -> tuple[list, dict]:
    """Per step, its units ``(nodes, columns)``: one loop over the node list
    ``nodes`` computes ``columns``, pulling the messages they read (a step
    that scatters fills its message buffers first), or, with ``nodes`` None,
    ``columns`` are sent (``_fusion``).  Also each computed column's node
    list, off which it is 0.  ``readouts`` is None for a kernel that keeps
    whole states: there each step computes every column over one node list.
    Otherwise a step that pulls computes each column over its own witness's
    node list, or over the union of the node lists its readers read it at,
    when every reader reads it at the node itself and none runs over every
    node."""
    origins = _origins(steps)
    slot: dict = {}
    own: list = []
    for s, (step, cut) in enumerate(zip(steps, cuts)):

        def where(var, key, s=s):
            return slot[origins[s - 1][key]] if var == "H" else f"_U{index[key]}"

        whole = readouts is None or _scatters(step, cut)
        lists = {}
        for c, (_, _, witness, _) in enumerate(step.updates):
            if step.copies[c] is None:
                lists[c] = slot[s, c] = _nodes(
                    step.sources if whole else witness, cut, small, where
                )
                # a column whose witness is one read at the node lies in its node list
                if cut is None and witness is not None and len(witness) == 1:
                    ((var, key, hop),) = witness
                    if hop == 0:
                        slot[s, c] = where(var, key)
        own.append((whole, lists))
    units: list = [[] for _ in steps]
    summed = {origins[-1][r.component] for r in readouts or ()}
    for s in reversed(range(len(steps))):
        (mode, fused, sent), (whole, lists) = plan[s], own[s]
        for c in () if whole else lists:
            if c in fused or (s, c) in summed:
                continue
            demand = set()
            for t in range(s + 1, len(steps)):
                for nodes, columns in units[t]:
                    reads = _reads(steps[t], columns)
                    hops = {r[2] for r in reads if r[0] == "H" and origins[t - 1][r[1]] == (s, c)}
                    demand |= {nodes if hops == {0} else None} if hops else set()
            union = ((), tuple(sorted(demand, key=repr)), None)
            union = union[1][0] if len(demand) == 1 else union
            if not demand & {None, "_all"} and (type(lists[c]) is tuple or type(union) is str):
                lists[c] = union
        groups: dict = {}
        if mode == "weight":
            (label,) = {readouts[x].weight for xs in fused.values() for x in xs}
            groups[f"_U{index[label]}"] = [c for c, xs in fused.items() if xs]
        for c, src in enumerate(steps[s].copies):
            if src is None and mode == "nodes" and fused.get(c, True) and c not in sent:
                groups.setdefault(lists[c], []).append(c)
        units[s] = ([(None, sent)] if sent else []) + list(groups.items())
    return units, slot


def _reads(step: _Step, columns) -> set:
    """What computing ``columns`` of ``step`` reads, the messages they read
    and what those read included."""
    reads = set().union(*(step.updates[c][3] for c in columns))
    return reads.union(*(step.messages[r[1]][3] for r in reads if r[0] == "M"))


def _adds(value: str, terms: list) -> list:
    """Lines that add ``value`` times each factor (None: 1) to its readout
    sum, ``terms`` holding (sum, factor) pairs."""
    lines = []
    if len(terms) > 1:
        lines, value = [f"_v = {value}"], "_v"
    return lines + [f"{name} += {value if f is None else f'{f} * {value}'}" for name, f in terms]


def _pull(step: _Step, reads: set) -> list:
    """Loop-body lines that sum each message in ``reads`` over the
    neighbors of ``_k`` into ``_m<m>``."""
    messages = sorted(r[1] for r in reads if r[0] == "M")
    if not messages:
        return []
    lines = [*(f"    _m{m} = 0" for m in messages), "    for _l in adj[_k]:"]
    return lines + [f"        _m{m} += {step.messages[m][0]}" for m in messages]


def _scatter(step: _Step, sent, column, add) -> list:
    """Lines that add each message ``m`` in ``sent`` from the nodes where the
    sender-side read of its witness is nonzero, at each of their neighbors,
    and then pull it at the nodes where the receiver-side read is nonzero,
    from the neighbors not sent from; ``add(m, value)`` gives the lines that
    add one value of message m at node ``_k``."""
    lines = []
    for m in sent:
        msg, _, witness, _ = step.messages[m]
        at = {hop: (var, key) for var, key, hop in witness}
        receiver, sender = (column(*at[hop]) if hop in at else None for hop in (0, 1))
        if sender:
            lines += [f"for _l in {sender[1]}:", f"    if {sender[0]}[_l]:"]
            lines += ["        for _k in adj[_l]:", *_indent(add(m, msg), 3)]
        if receiver:
            lines += [f"for _k in {receiver[1]}:", f"    if {receiver[0]}[_k]:"]
            lines += ["        _a = 0", "        for _l in adj[_k]:"]
            if sender:  # every edge from a sender is summed already
                lines.append(f"            if not ({sender[0]}[_l]):")
            lines += [f"{' ' * (16 if sender else 12)}_a += {msg}", *_indent(add(m, "_a"), 2)]
    return lines


def _unit(step: _Step, s: int, nodes, columns, sums: dict, column, buffered: bool):
    """One unit of step ``s`` (``_layout``) as Python lines, with the
    columns they store and the message buffers they use: over the node
    list named ``nodes``, column c goes to ``O<s>_<c>``, or, for each
    column in ``sums``, is added to each readout sum ``_r<x>`` that
    ``sums[c]`` lists as (x, the index of its weight label or None).
    ``buffered``: the step scatters its messages into buffers first.
    ``column(var, key)`` gives the name and the node list of a read."""

    def terms(c, coef=None):
        """(sum, factor) per readout of column c: coef times the weight."""
        out = []
        for x, w in sums[c]:
            factors = [f for f in (coef, w is not None and f"L{w}[_k]") if f]
            out.append((f"_r{x}", " * ".join(factors) or None))
        return out

    if nodes is None:
        sent: dict = {}
        for c in columns:
            m, coef = step.linear[c]
            sent.setdefault(m, []).extend(terms(c, coef))
        return _scatter(step, sorted(sent), column, lambda m, value: _adds(value, sent[m])), [], []
    outs = [f"O{s}_{c}" for c in columns if c not in sums]
    body = []
    for c in columns:
        value = step.updates[c][0]
        body += [f"O{s}_{c}[_k] = {value}"] if c not in sums else _adds(value, terms(c))
    reads = _reads(step, columns)
    if not buffered:
        return [f"for _k in {nodes}:", *_pull(step, reads), *_indent(body, 1)], outs, []
    messages = sorted(r[1] for r in reads if r[0] == "M")
    lines = _scatter(step, messages, column, lambda m, value: [f"M{s}_{m}[_k] += {value}"])
    lines.append(f"for _k in {nodes}:")
    for m in messages:
        lines += [f"    _m{m} = M{s}_{m}[_k]", f"    M{s}_{m}[_k] = 0"]
    return lines + _indent(body, 1), outs, [f"M{s}_{m}" for m in messages]


def _indent(lines: list, depth: int) -> list:
    return [" " * (4 * depth) + x for x in lines]


def _generate(prog: MPProgram, layout: tuple, cuts, small: bool, readouts, hooked: bool):
    """Compile one kernel factory; ``_kernel`` gives the arguments."""
    steps = _steps(prog, layout)
    cuts = cuts or (None,) * len(steps)
    origins = _origins(steps)
    index = {name: i for i, name in enumerate(layout)}
    fusing = readouts is not None and not hooked
    plan = _fusion(steps, cuts, readouts) if fusing else [("nodes", {}, [])] * len(steps)
    units, slot = _layout(steps, cuts, plan, small, index, readouts if fusing else None)
    weighted = {
        index[readouts[x].weight]
        for mode, fused, _ in plan if mode != "weight"
        for xs in fused.values() for x in xs if readouts[x].weight is not None
    }
    body, buffers, stored, shown, names, radii = [], [], {}, [], {}, [-1]

    def bind(spec) -> str:
        """The name of a node list (``_nodes``), bound where first used."""
        if type(spec) is str:
            radii.extend([int(spec[2:])] if spec.startswith("_B") else [])
            return spec
        if spec not in names:
            near, here = ([bind(x) for x in part] for part in spec[:2])
            name = names[spec] = f"_N{len(names)}"
            if near:  # the neighbors of a union are the union of the neighbors
                base = near[0] if len(near) == 1 else f"{{{', '.join(f'*{x}' for x in near)}}}"
                body.append(f"{name} = set(_chain(map(_adj, {base})))")
                body.extend([f"{name}.update({', '.join(here)})"] if here else [])
            else:
                union = f"{{{', '.join(f'*{x}' for x in here)}}}" if here else "set()"
                body.append(f"{name} = {union}")
            body.extend([f"{name} &= {bind(f'_B{spec[2]}')}"] if spec[2] is not None else [])
        return names[spec]

    for s, (step, cut, (mode, fused, _)) in enumerate(zip(steps, cuts, plan)):

        def column(var, key, s=s):
            if var == "H":
                return f"H{key}", bind(slot[origins[s - 1][key]])
            return f"L{index[key]}", f"_U{index[key]}"

        # the weight is 1 on the nodes a step in "weight" mode computes
        sums = {
            c: [(x, None if mode == "weight" else index.get(readouts[x].weight)) for x in xs]
            for c, xs in fused.items()
        }
        # the state columns the step reads, as H<c>
        reads = sorted({r[1] for r in step.reads if r[0] == "H"}) if units[s] else []
        body += ["H{} = O{}_{}".format(key, *origins[s - 1][key]) for key in reads]
        shown.append("()")
        for nodes, columns in units[s]:
            name = nodes and bind(nodes)
            buffered = mode == "nodes" and _scatters(step, cut)
            lines, outs, used = _unit(step, s, name, columns, sums, column, buffered)
            body, buffers, shown[s] = body + lines, buffers + outs + used, name
            # a loop over every node rewrites every node
            stored.setdefault(name, []).extend(outs if name != "_all" else [])
    marked = sorted({index[r[1]] for step in steps for r in step.reads if r[0] == "L"} | weighted)
    states = "".join(
        f"(({''.join('O{}_{}, '.format(*o) for o in origin)}), {shown[s]}), "
        for s, origin in enumerate(origins)
    )
    hook = ["if hook is not None:", f"    hook(j, ({states}))"]
    setup = ["n = len(adj)", "_all = range(n)", "_adj = adj.__getitem__"]
    setup += [f"L{i} = labels[{layout[i]!r}]" for i in marked]
    setup += [f"{name} = [0] * n" for name in buffers]
    if readouts is None:
        lines = ["def _run(adj, labels, supports, hook):", *_indent(setup, 1)]
        if layout:
            lines.append(f"    {''.join(f'_U{i}, ' for i in range(len(layout)))}= supports")
        final = "".join("O{}_{}, ".format(*o) for o in origins[-1])
        lines += _indent(["j = None", *body, *hook, f"return ({final})"], 1)
        return _exec(lines, "_run")

    def mark(labels, value):
        return [
            line
            for i in marked if layout[i] in labels
            for line in (f"for _k in {_SUPPORTS[layout[i]]}:", f"    L{i}[_k] = {value}")
        ]

    per_root, per_branch = ("is_root", "in_n_root"), ("is_branch", "in_n_branch")
    summed = {x for _, fused, _ in plan for xs in fused.values() for x in xs}
    row = "".join(
        f"_r{x}, " if x in summed else "sum(map({}.__getitem__, {})), ".format(
            "O{}_{}".format(*origins[-1][r.component]),
            bind(slot[origins[-1][r.component]]) if r.weight is None else f"_U{index[r.weight]}",
        )
        for x, r in enumerate(readouts)
    )
    balls = [f"_B{d}" for d in range(max(radii) + 1)]
    root = ([f"nonlocal {', '.join(balls)}", "_B0 = {i}"] if balls else []) + mark(per_root, 1)
    for d in range(1, len(balls)):
        frontier = "adj[i]" if d == 1 else f"_chain(map(_adj, _B{d - 1} - _B{d - 2}))"
        root.append(f"_B{d} = _B{d - 1}.union({frontier})")
    start = [f"{''.join(f'_r{x} = ' for x in sorted(summed))}0"] if summed else []
    reset = [
        line
        for nodes, outs in stored.items() if outs
        for line in (f"for _k in {nodes}:", *(f"    {o}[_k] = 0" for o in outs))
    ]
    subgraph = [*start, *body, f"_rows.append(({row}))", *(hook if hooked else []), *reset]
    kernel = ["_rows = []"] + [f"_U{index[x]} = {_SUPPORTS[x]}" for x in per_root if x in index]
    if "is_branch" in index:
        kernel.append("for j in adj[i]:")
        branch = [f"_U{index[x]} = {_SUPPORTS[x]}" for x in per_branch]
        kernel += _indent(branch + mark(per_branch, 1) + subgraph + mark(per_branch, 0), 1)
    else:
        kernel += ["j = None", *subgraph]
    kernel += [*mark(per_root, 0), "return _rows"]
    # the kernel takes what it reads as defaults, so its loops read locals
    bound = ", ".join(
        f"{x}={x}"
        for x in ["adj", "_adj", "_all", *(["hook"] if hooked else [])]
        + [*(f"L{i}" for i in marked), *buffers]
    )
    lines = ["def _make(adj, labels, hook):", *_indent(setup, 1)]
    lines += [f"    {x} = None" for x in balls]
    lines += ["    def _root(i):", *_indent(root or ["pass"], 2)]
    lines += [f"    def _kernel(i, {bound}):", *_indent(kernel, 2)]
    lines.append("    return _root, _kernel")
    return _exec(lines, "_make")


def _exec(lines: list, name: str):
    namespace = {"_chain": chain.from_iterable}
    exec("\n".join(lines), namespace)
    return namespace[name]


# (program, label layout, cuts, small-graph flag, readouts, hooked) -> kernel factory
_KERNELS: dict[tuple, object] = {}


def _kernel(
    prog: MPProgram, layout: tuple, cuts: tuple | None, small: bool, readouts, hooked: bool
):
    """The kernel factory of one plan, generated once per (program, label
    layout, cuts, small-graph flag, readouts, hooked).

    For a rooted run (``readouts`` a tuple), ``make(adj, labels, hook)``
    allocates the run's buffers and returns ``(root, kernel)``:
    ``root(i)`` sets root i's labels and balls, and ``kernel(i)`` runs its
    subgraphs and returns their readout rows.  ``labels`` holds one
    node-indexed 0/1 buffer per label, all 0.  For a plain run
    (``readouts`` None, no cuts), ``run(adj, labels, supports, hook)`` runs
    once over the given label columns, with the nonzero nodes of each in
    ``supports``, and returns the final state.

    ``hook(j, steps)``, unless None, is called after each subgraph with its
    branching node (None without one) and, per step (init first), the state
    after it and the nodes it computed.  The buffers are reused, so a hook
    copies what it keeps.  A rooted kernel calls it only when generated with
    ``hooked``, and then stores every column; without, it stores only the
    columns a later step reads and sums the others into the readout row
    where they are computed (``_fusion``), so its steps' states are not
    whole.  A plain run stores every column and calls ``hook`` either way.
    """
    key = (prog, layout, cuts, small, readouts, hooked)
    hit = _KERNELS.get(key)
    if hit is None:
        hit = _KERNELS[key] = _generate(*key)
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
    make = _kernel(prog, layout, None, n < _SPARSE_MIN_NODES, None, False)
    for name in layout:
        if len(labels[name]) != n:
            raise ProgramError(
                f"label {name!r} has {len(labels[name])} entries for {n} nodes"
            )
    supports = [list(compress(range(n), labels[name])) for name in layout]
    return make(adjacency, labels, supports, None)


class RootedRun:
    """One program, run subgraph by subgraph on a parent graph's adjacency.

    Each subgraph is a root's ego-network of radius ``hops``, or, with
    ``branching``, one copy of it per neighbor of the root, marked as the
    branching node.  Nothing is extracted: each step runs on the parent
    graph within its radius (``_radii``), so on every node it computes, its
    state is that of the extracted subgraph.  State columns and indicator
    labels are node-indexed buffers, allocated once.

    ``rows(i)`` gives root i's readout rows, one per subgraph: ``root(i)``
    sets the root's labels and balls, then ``kernel(i)`` runs its subgraphs.
    ``hook`` is called after each subgraph with every step's whole state
    (see ``_kernel``); without one, readout-only columns are not stored.
    """

    def __init__(
        self,
        prog: MPProgram,
        adjacency: Sequence[Sequence[int]],
        hops: int,
        readouts: Sequence[Readout],
        branching: bool,
        hook=None,
    ) -> None:
        names = _ROOTED_LABELS[branching]
        for r in readouts:
            if r.weight is not None and r.weight not in names:
                raise MissingLabelError(
                    f"readout weight label {r.weight!r} not in subgraph labels"
                )
        readouts = tuple(readouts)
        _, cuts = _radii(prog, names, hops, readouts)
        small = len(adjacency) < _SPARSE_MIN_NODES
        make = _kernel(prog, names, cuts, small, readouts, hook is not None)
        labels = {name: [0] * len(adjacency) for name in names}
        self.root, self.kernel = make(adjacency, labels, hook)

    def rows(self, i: int) -> list[tuple[int, ...]]:
        self.root(i)
        return self.kernel(i)


def run_program(sub: "RootedSubgraph", prog: MPProgram) -> tuple[list[int], ...]:
    """Run a program on one rooted subgraph (final state columns)."""
    return run(prog, sub.adj, sub.labels)


def apply_readout(
    sub: "RootedSubgraph", states: Sequence[Sequence[int]], readout: Readout
) -> int:
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
