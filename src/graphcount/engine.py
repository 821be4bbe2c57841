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
state, so a program compiles, once per (program, label layout), into one
plain Python function per step.  ``program_text`` (one readable line per
layer, for auditing) and ``required_labels`` come from the same walk.  States
are Python ints, i.e. arbitrary precision: results are exact and overflow
cannot occur.

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
their operands', ``Mul`` keeps the operand of least reach; ``IsZero``, edge
attributes and other constants have none.  A step whose computed updates
all have one runs only over the nodes where a source of its witness is
nonzero, plus their neighbors for sources read across an edge; every other
node keeps 0.  Each step and each label keeps the node list it is nonzero
on, so this costs no scan of a column.

On a rooted subgraph the program runs on the parent graph's own adjacency,
with nothing extracted, and the subgraph radius bounds the work instead.
The reach of a column is how far from the root it can be nonzero: labels
``is_root`` 0, ``in_n_root`` 1, ``is_branch`` 1, ``in_n_branch`` 2; ``Mul``
takes the smaller reach, ``Add`` and ``Sub`` the larger, reads across an
edge add one; ``IsZero``, edge attributes and nonzero constants are
unbounded.  Its demand is how far out a later step or a readout reads it
(``_radii``).  A step computes within min(reach, demand), the radius R, and
is cut to R, using the root's BFS ball, when its sources could reach
further.  On every node within R its state is that of the extracted
radius-K ego-network: below K every neighbor lies inside the ego-network,
and at K each message must be 0 whenever its sender lies outside, which
``_radii`` checks when the program is compiled for a rooted run.  Per plan
at its own radius, the steps cut (init first, "-" for none) are cycle3
``- 1``, cycle4 ``- - 1``, cycle5 ``- 2 1``, triangle_rectangle ``- 2 1 -``,
walk4 ``- - - 1 0`` and cycle6 ``- 2 - 2 -``; path3, path4, tailed_triangle,
clique4 and chordal_cycle need no cut.  On a random 4-regular graph a
path4 root evaluates 226 nodes over all steps of its four pair subgraphs,
and a cycle6 root 272, the same at N=1000, 2000 and 4000.

Building a node set costs time, so a step that would build one runs over
every node (within its radius) when the graph has fewer than
``_SPARSE_MIN_NODES`` = 32 nodes; a step with one source, read at the node
itself and not cut, takes that source's node list as it is.  CPU time
without the floor, as a ratio to with it, over the 200 corpus-small graphs
(n 8-20), best of 3 on a shared 2-core host: 1.27 for all kinds together,
1.22-1.42 for each kind whose steps build sets.  A second rule, running
every node once a quarter of them would be computed, measured 1.01-1.03
against none on 24 graphs G(n, p) with n 40-80, so there is none.
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
class EdgeAttr(Expr):
    """Attribute of the (receiver, sender) edge; 0 when the graph has none."""


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

# Leaves: the variable the Python form reads ("" for none), Python form and
# text form of the node's field, the context the node is confined to (with
# what the error calls it), the width that bounds its index, and the hop of
# its read (0 at the evaluating node, 1 at the sending neighbor).
_LEAVES = {
    Const: ("", "{!r}", "{}", None, None, None),
    Self: ("H", "H{}[_k]", "self.h{}", None, "state", 0),
    Nbr: ("H", "H{}[_l]", "nbr.h{}", ("message", "neighbor state is"), "state", 1),
    Msg: ("", "_m{}", "m{}", ("update", "message sums are"), "message", None),
    LSelf: ("L", "L{}[_k]", "self.{}", None, None, 0),
    LNbr: ("L", "L{}[_l]", "nbr.{}", ("message", "neighbor labels are"), None, 1),
    EdgeAttr: ("ea", "ea", "edge_attr", ("message", "edge attributes are"), None, None),
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
    outside the layout never reach compilation, because ``_compiled`` rejects
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
        witness = frozenset({(var, args[0], hop)}) if hop is not None else None
    if var == "L":
        return py.format(layout.get(args[0])), text.format(*args), witness
    return py.format(*args), text.format(*args), witness


@dataclass(frozen=True)
class _Step:
    """One walked step: the (Python source, text, witness) triples of its
    messages and updates, the state index each update copies (None when it
    computes), what the messages and computing updates read, the reach of
    each output column, and the union of the computing updates' witnesses:
    the reads whose supports bound the nodes the step must compute (None:
    every node)."""

    messages: list
    updates: list
    copies: list
    reads: set
    reach: tuple
    sources: frozenset | None


def _walk(prog: MPProgram, layout: Mapping[str, int]) -> list[_Step]:
    """Visit every expression of ``prog`` once, step by step: ``init`` first,
    as a message-less layer over an empty state, then each layer.  An update
    that is a bare ``Self`` copies its column; its read is not recorded, as
    the step passes the column through."""
    steps = []
    reach: tuple = ()
    layers = [("init", Layer((), prog.init))] + [("update", x) for x in prog.layers]
    for ctx, layer in layers:
        reads: set = set()
        messages = [_visit(e, "message", layout, reach, (), reads) for e in layer.message]
        witnesses = tuple(m[2] for m in messages)
        copies = [e.index if type(e) is Self else None for e in layer.update]
        updates = [
            _visit(e, ctx, layout, reach, witnesses, reads if c is None else set())
            for e, c in zip(layer.update, copies)
        ]
        if ctx == "update" and not updates:
            raise ProgramError("layer update must produce at least one component")
        computed = [u[2] for u, c in zip(updates, copies) if c is None]
        sources = None if None in computed else frozenset().union(*computed)
        reach = tuple(
            _reach(u[2], reach) if c is None else reach[c] for u, c in zip(updates, copies)
        )
        steps.append(_Step(messages, updates, copies, reads, reach, sources))
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


def _compile_step(step: _Step, layout: Mapping[str, int]):
    """One step as a Python function ``(adj, labels, H, O, nodes, eattrs,
    stale) -> new H``.  It binds only the state and label columns its
    expressions read, zeroes its output buffers ``O`` (one per computed
    column) at the ``stale`` nodes, computes each computed column at
    ``nodes`` only, and passes copied columns through.  ``eattrs`` holds one
    attribute per directed edge when the step reads them."""
    edges = any(r[0] == "ea" for r in step.reads)
    computed = [c for c, source in enumerate(step.copies) if source is None]
    lines = ["def _step(adj, labels, H, O, nodes, eattrs, stale):"]
    for var, *key in sorted({r[:2] for r in step.reads}):
        if var == "H":
            lines.append(f"    H{key[0]} = H[{key[0]}]")
        elif var == "L":
            lines.append(f"    L{layout[key[0]]} = labels[{key[0]!r}]")
    if computed:
        lines.append(f"    {''.join(f'O{c}, ' for c in computed)}= O")
        lines.append("    for _k in stale:")
        lines += [f"        O{c}[_k] = 0" for c in computed]
        lines.append("    for _k in nodes:")
        if step.messages:
            lines += [f"        _m{i} = 0" for i in range(len(step.messages))]
            if edges:
                lines.append("        _er = eattrs[_k]")
                lines.append("        for _x, _l in enumerate(adj[_k]):")
                lines.append("            ea = _er[_x]")
            else:
                lines.append("        for _l in adj[_k]:")
            lines += [f"            _m{i} += {m[0]}" for i, m in enumerate(step.messages)]
        lines += [f"        O{c}[_k] = {step.updates[c][0]}" for c in computed]
    columns = [f"O{c}" if s is None else f"H[{s}]" for c, s in enumerate(step.copies)]
    lines.append(f"    return ({''.join(col + ', ' for col in columns)})")
    ns: dict = {}
    exec("\n".join(lines), ns)
    return ns["_step"]


# (program, label layout) -> one (compiled step, walked step) pair per step
_COMPILE_CACHE: dict[tuple[MPProgram, tuple[str, ...]], tuple] = {}


def _compiled(prog: MPProgram, layout_names: tuple[str, ...]) -> tuple:
    key = (prog, layout_names)
    hit = _COMPILE_CACHE.get(key)
    if hit is not None:
        return hit
    missing = required_labels(prog) - set(layout_names)
    if missing:
        raise MissingLabelError(
            f"program {prog.name!r} needs labels {sorted(missing)} "
            f"not provided by this subgraph (has {sorted(layout_names)})"
        )
    layout = {name: i for i, name in enumerate(layout_names)}
    steps = tuple((_compile_step(step, layout), step) for step in _walk(prog, layout))
    _COMPILE_CACHE[key] = steps
    return steps


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

# A step that would build a node set runs over every node (of the graph, or
# within its radius) when the graph has fewer nodes than this; the module
# docstring gives the measurements behind it.
_SPARSE_MIN_NODES = 32


def _origins(steps: Sequence[_Step]) -> list[tuple[tuple[int, int], ...]]:
    """Per step, the (step, column) that computed each of its output columns,
    following copies back."""
    out, state = [], ()
    for s, step in enumerate(steps):
        state = tuple((s, c) if src is None else state[src] for c, src in enumerate(step.copies))
        out.append(state)
    return out


def _radii(prog: MPProgram, steps: Sequence[_Step], hops: int, readouts) -> tuple[list, list]:
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
            for var, key, hop in (r for r in step.reads if r[0] == "H"):
                need(origin[s - 1][key], within[s] + hop)
    cuts, spread, reach = [], (), ()
    for s, step in enumerate(steps):
        natural = _reach(step.sources, spread)
        cuts.append(within[s] if natural > within[s] else None)
        if within[s] >= hops:
            for m, (_, text, witness) in enumerate(step.messages):
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
    return within, cuts


def _schedule(prog: MPProgram, layout: tuple[str, ...], cuts: tuple) -> tuple:
    """Where each step of ``prog`` finds its sources, cached per (program,
    layout, cuts): per step, the slots it reads at the node itself and at
    its neighbors, whether it has no witness, its cut and its number of
    computed columns; then the slot of each final column, the slot of each
    label, and whether the program reads edge attributes.

    Slots are node lists: one per step (the nodes it computed last), then
    one per label (its support).  A column whose witness is one source read
    at the node itself lies in that source's slot; any other column lies in
    its step's."""
    key = (prog, layout, cuts)
    hit = _SCHEDULES.get(key)
    if hit is not None:
        return hit
    steps = [step for _, step in _compiled(prog, layout)]
    origins = _origins(steps)
    label_slot = {name: len(steps) + i for i, name in enumerate(layout)}
    slot: dict = {}  # (step, column) -> slot
    rules = []
    for s, step in enumerate(steps):

        def source(var, key, s=s):
            return slot[origins[s - 1][key]] if var == "H" else label_slot[key]

        where: list = [set(), set()]
        for var, key, hop in step.sources or ():
            where[hop].add(source(var, key))
        for c, (_, _, witness) in enumerate(step.updates):
            slot[s, c] = s
            if cuts[s] is None and witness is not None and len(witness) == 1:
                ((var, key, hop),) = witness
                if hop == 0:
                    slot[s, c] = source(var, key)
        width = step.copies.count(None)
        rules.append((*map(tuple, map(sorted, where)), step.sources is None, cuts[s], width))
    final = [slot[o] for o in origins[-1]] if origins else []
    edges = any(r[0] == "ea" for step in steps for r in step.reads)
    _SCHEDULES[key] = hit = (rules, final, label_slot, edges)
    return hit


_SCHEDULES: dict[tuple, tuple] = {}


class _Runner:
    """Runs a program's compiled steps over an adjacency, each at the nodes
    where one of its sources is nonzero (with their neighbors, for sources
    read across an edge), cut to its radius around the root, if any; over
    every node (within the radius) when the step has no witness or the graph
    is small.  Each step's output buffers are zero off the nodes it computed
    last; the step zeroes those before it writes the next."""

    def __init__(self, prog, layout, cuts, adjacency, labels, edge_attrs) -> None:
        rules, self._final, self._label_slot, edges = _schedule(prog, layout, tuple(cuts))
        n = len(adjacency)
        self.adjacency, self.labels = adjacency, labels
        # a step with one source read at the node itself and no cut takes that
        # source's node list as it is, which costs nothing to build
        self._plan = [
            (fn, [[0] * n for _ in range(width)], here, near, cut,
             dense or n < _SPARSE_MIN_NODES and (near or len(here) != 1 or cut is not None))
            for (fn, _), (here, near, dense, cut, width) in zip(_compiled(prog, layout), rules)
        ]
        self._slots: list = [()] * (len(rules) + len(layout))
        self._balls: dict = {}
        self._eattrs = None
        if edges:
            rows = edge_attrs or [(None,) * len(row) for row in adjacency]
            self._eattrs = [tuple(0 if v is None else v for v in row) for row in rows]
        self.state: tuple = ()

    def run(self) -> None:
        adjacency, slots, balls = self.adjacency, self._slots, self._balls
        state: tuple = ()
        for s, (fn, out, here, near, cut, dense) in enumerate(self._plan):
            if dense:
                nodes = range(len(adjacency)) if cut is None else balls[cut]
            elif near or len(here) != 1 or cut is not None:
                nodes = set()
                if near:  # the neighbors of a union are the union of the neighbors
                    base = slots[near[0]] if len(near) == 1 else set().union(*map(slots.__getitem__, near))
                    nodes.update(chain.from_iterable(map(adjacency.__getitem__, base)))
                nodes.update(*map(slots.__getitem__, here))
                if cut is not None:
                    nodes &= balls[cut]
            else:
                nodes = slots[here[0]]
            stale = slots[s]
            if type(stale) is set:  # the step writes every node it computes
                stale = stale.difference(nodes)
            state = fn(adjacency, self.labels, state, out, nodes, self._eattrs, stale)
            slots[s] = nodes
        self.state = state

    def support(self, component: int):
        """The nodes off which the last run's final column ``component`` is 0."""
        return self._slots[self._final[component]]


def run(
    prog: MPProgram,
    adjacency: Sequence[Sequence[int]],
    labels: Mapping[str, Sequence[int]],
    edge_attrs: Sequence[Sequence[int]] | None = None,
) -> tuple[list[int], ...]:
    """Run a program over raw (adjacency, labels) and return the final state:
    one column per component, one entry per node (``state[c][k]``).

    ``edge_attrs``, when given, must be aligned with ``adjacency`` (one value
    per directed edge); programs that never read edge attributes ignore it,
    and those that do read 0 on every edge when it is None.
    """
    layout_names = tuple(sorted(labels))
    cuts = [None] * len(_compiled(prog, layout_names))
    n = len(adjacency)
    for name in layout_names:
        if len(labels[name]) != n:
            raise ProgramError(
                f"label {name!r} has {len(labels[name])} entries for {n} nodes"
            )
    runner = _Runner(prog, layout_names, cuts, adjacency, labels, edge_attrs)
    for name in layout_names:
        runner._slots[runner._label_slot[name]] = list(compress(range(n), labels[name]))
    runner.run()
    return runner.state


# The labels of a rooted run, without and with a branching node.
_ROOTED_LABELS = {
    False: ("in_n_root", "is_root"),
    True: ("in_n_branch", "in_n_root", "is_branch", "is_root"),
}


class RootedRun(_Runner):
    """One program, run subgraph by subgraph on a parent graph's adjacency.

    Each subgraph is a root's ego-network of radius ``hops``, or, with
    ``branching``, one copy of it per neighbor of the root, marked as the
    branching node.  Nothing is extracted: each step runs on the parent
    graph within its radius (``_radii``), so on every node it computes, its
    state is that of the extracted subgraph.  State columns and indicator
    labels are node-indexed buffers, allocated once.

    ``root(i)`` moves to root i; ``run(j)`` runs the subgraph with branching
    node j (None without one), after which ``state`` holds its final state,
    ``support(c)`` the nodes off which column c is 0, and ``readouts()`` its
    readout row.
    """

    def __init__(
        self,
        prog: MPProgram,
        adjacency: Sequence[Sequence[int]],
        hops: int,
        readouts: Sequence[Readout],
        branching: bool,
        edge_attrs: Sequence[Sequence[int | None]] | None = None,
    ) -> None:
        names = _ROOTED_LABELS[branching]
        for r in readouts:
            if r.weight is not None and r.weight not in names:
                raise MissingLabelError(
                    f"readout weight label {r.weight!r} not in subgraph labels"
                )
        _, cuts = _radii(prog, [step for _, step in _compiled(prog, names)], hops, readouts)
        labels = {name: [0] * len(adjacency) for name in names}
        super().__init__(prog, names, cuts, adjacency, labels, edge_attrs)
        self._depth = max((c for c in cuts if c is not None), default=None)
        self._readouts = [
            (r.component, self._final[r.component] if r.weight is None else self._label_slot[r.weight])
            for r in readouts
        ]

    def _mark(self, name: str, nodes) -> None:
        column, slot = self.labels[name], self._label_slot[name]
        for k in self._slots[slot]:
            column[k] = 0
        for k in nodes:
            column[k] = 1
        self._slots[slot] = nodes

    def root(self, i: int) -> None:
        self._mark("is_root", (i,))
        self._mark("in_n_root", self.adjacency[i])
        if self._depth is not None:
            # {R: the set of nodes within R hops of the root}
            seen, frontier, self._balls = {i}, (i,), {-1: set()}
            for d in range(self._depth + 1):
                if d:
                    frontier = set(chain.from_iterable(map(self.adjacency.__getitem__, frontier)))
                    frontier -= seen
                    seen |= frontier
                self._balls[d] = set(seen)

    def run(self, branching: int | None = None) -> None:
        if branching is not None:
            self._mark("is_branch", (branching,))
            self._mark("in_n_branch", self.adjacency[branching])
        super().run()

    def readouts(self) -> tuple[int, ...]:
        """The last subgraph's readout row.  A weight is an indicator label,
        1 exactly on its support, so a weighted sum runs over that."""
        slots, state = self._slots, self.state
        return tuple(sum(map(state[c].__getitem__, slots[i])) for c, i in self._readouts)


def run_program(sub: "RootedSubgraph", prog: MPProgram) -> tuple[list[int], ...]:
    """Run a program on one rooted subgraph (final state columns)."""
    return run(prog, sub.adj, sub.labels, sub.edge_attrs)


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
