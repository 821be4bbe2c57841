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
in its context and width, records what the expression reads, and says
whether it vanishes.  ``init`` is walked as a message-less layer over an
empty state, so a program compiles, once per (program, label layout), into
one plain Python function per step.  ``program_text`` (one readable line per
layer, for auditing) and ``required_labels`` come from the same walk.  States
are Python ints, i.e. arbitrary precision: results are exact and overflow
cannot occur.

States are columnar: a state is a tuple with one list per component, indexed
``state[c][k]`` for component c of node k, and labels are read straight from
the subgraph's label columns.  A step binds only the state and label columns
its expressions read, fills each computed column in one loop over its nodes,
and passes a column through unchanged when the update is a bare ``Self(i)``
(13 of the 24 layer updates of the 6-cycle program are such copies).

An expression vanishes when it is 0 whenever every state and message it
reads is 0: ``Self``, ``Nbr``, ``Msg`` and ``Const(0)`` vanish; ``Mul``
vanishes if either operand does, ``Add`` and ``Sub`` if both do, ``IsPos``
if its operand does; ``IsZero``, labels, edge attributes and other constants
never do.  In a layer whose messages and updates all vanish, a node whose
read columns are 0 at itself and at its neighbors gets 0 in every computed
column, so the step needs to run only over the live nodes (nonzero in a
column the layer reads) plus, when it has messages, their neighbors; every
other node keeps the 0 its column was allocated with.  Finding the live
nodes costs time, so a vanishing step runs sparse only when the subgraph has
at least ``_SPARSE_MIN_NODES`` = 32 nodes and fewer than a quarter of them
are live; a column that alone holds a quarter ends the search early.
Engine time under variants of the rule, as the median over 15 interleaved
rounds of its ratio to running every step dense (CPU time, shared 2-core
host), over the bags of 100 sampled roots of a random 4-regular N=1000 graph
(and of a rewired ring lattice N=2000, in brackets), two runs each:

* this rule: path4 (mean n 149 [129]) 0.55-0.56 [0.58-0.59], cycle6 (n 52
  [51]) 0.84 [0.93-0.95], kinds whose subgraphs stay under 32 nodes within
  noise (0.96-1.03); path3 (n 52, live nodes just over a quarter, so it never
  runs sparse) pays for the search, 1.09-1.24;
* no size floor: walk4 (n 17) 1.70-1.78, corpus-small graphs (n 8-20)
  1.10-1.36 across kinds;
* half instead of a quarter: path3 1.32-1.42, the rest within noise;
* every state column counted, not only the read ones: cycle6 1.23-1.28
  [1.06], since its copied columns keep most nodes live.

Counting runs a program once per rooted subgraph, so ``run`` keeps its
per-call work small.  The compile cache is keyed by (program, label layout),
and a program computes its hash once when built, so the lookup costs O(1)
instead of hashing the expression tree on every call; equal programs built
separately share one entry.  Readouts are C-level sums over a column.
"""

from __future__ import annotations

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
# what it reads, and whether it vanishes.  Compiled steps are cached per
# (program, label layout).
# ---------------------------------------------------------------------------

# Composite nodes: Python form and text form, one {} per operand, and whether
# the node vanishes, given which of its operands vanish.
_OPERATORS = {
    Add: ("({} + {})", "({} + {})", all),
    Sub: ("({} - {})", "({} - {})", all),
    Mul: ("({} * {})", "({} * {})", any),
    IsZero: ("(0 if {} else 1)", "[{} == 0]", lambda zeros: False),
    IsPos: ("(1 if {} > 0 else 0)", "[{} > 0]", all),
}

# Leaves: the variable the Python form reads ("" for none), Python form and
# text form of the node's field, the context the node is confined to (with
# what the error calls it), the width that bounds its index, and whether the
# node vanishes (None: when its value is 0).
_LEAVES = {
    Const: ("", "{!r}", "{}", None, None, None),
    Self: ("H", "H{}[_k]", "self.h{}", None, "state", True),
    Nbr: ("H", "H{}[_l]", "nbr.h{}", ("message", "neighbor state is"), "state", True),
    Msg: ("", "_m{}", "m{}", ("update", "message sums are"), "message", True),
    LSelf: ("L", "L{}[_k]", "self.{}", None, None, False),
    LNbr: ("L", "L{}[_l]", "nbr.{}", ("message", "neighbor labels are"), None, False),
    EdgeAttr: ("ea", "ea", "edge_attr", ("message", "edge attributes are"), None, False),
}


def _visit(
    e: Expr, ctx: str, widths: Mapping[str, int], layout: Mapping[str, int], reads: set
) -> tuple[str, str, bool]:
    """(Python source, audit text, vanishes) of ``e`` in context ``ctx``.

    ``e`` vanishes when it is 0 whenever every state and message it reads
    is 0.  Adds what ``e`` reads to ``reads`` as (variable, index or label
    name) tuples.  A label reads from its position in ``layout``; names
    outside the layout never reach compilation, because ``_compiled``
    rejects them.
    """
    kind = type(e)
    if kind not in _OPERATORS and kind not in _LEAVES:
        raise ProgramError(f"unknown expression node {kind.__name__}")
    args = [getattr(e, f.name) for f in fields(e)]
    if kind in _OPERATORS:
        py, text, vanishes = _OPERATORS[kind]
        parts = [_visit(a, ctx, widths, layout, reads) for a in args]
        return (
            py.format(*(p[0] for p in parts)),
            text.format(*(p[1] for p in parts)),
            vanishes([p[2] for p in parts]),
        )
    var, py, text, confined, bound, vanishes = _LEAVES[kind]
    if confined and ctx != confined[0]:
        raise ProgramError(f"{confined[1]} only visible in {confined[0]} expressions")
    if bound and not 0 <= args[0] < widths[bound]:
        raise ProgramError(f"{bound} select {args[0]} out of width {widths[bound]}")
    if var:
        reads.add((var, *args))
    if vanishes is None:
        vanishes = args[0] == 0
    if var == "L":
        return py.format(layout.get(args[0])), text.format(*args), vanishes
    return py.format(*args), text.format(*args), vanishes


@dataclass(frozen=True)
class _Step:
    """One walked step: the (Python source, text, vanishes) triples of its
    messages and updates, the state index each update copies (None when it
    computes), and what the computing expressions read.  ``live`` is None
    unless the step is sparse; then it holds the state columns whose nonzero
    entries make a node live: those the step reads, since copied columns
    pass through whatever they hold."""

    messages: list
    updates: list
    copies: list
    reads: set
    live: tuple[int, ...] | None


def _walk(prog: MPProgram, layout: Mapping[str, int]) -> list[_Step]:
    """Visit every expression of ``prog`` once, step by step: ``init`` first,
    as a message-less layer over an empty state, then each layer.  An update
    that is a bare ``Self`` copies its column; its read is not recorded, as
    the step passes the column through.  A layer whose expressions all
    vanish is sparse."""
    steps = []
    state_w = 0
    layers = [("init", Layer((), prog.init))] + [("update", x) for x in prog.layers]
    for ctx, layer in layers:
        widths = {"state": state_w, "message": len(layer.message)}
        reads: set = set()
        messages = [_visit(e, "message", widths, layout, reads) for e in layer.message]
        copies = [e.index if type(e) is Self else None for e in layer.update]
        updates = [
            _visit(e, ctx, widths, layout, reads if c is None else set())
            for e, c in zip(layer.update, copies)
        ]
        if ctx == "update" and not updates:
            raise ProgramError("layer update must produce at least one component")
        live = None
        if ctx == "update" and all(z for _, _, z in messages + updates):
            live = tuple(sorted(r[1] for r in reads if r[0] == "H"))
        steps.append(_Step(messages, updates, copies, reads, live))
        state_w = len(updates)
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
    """One step as a Python function ``(adj, labels, H, eattrs, nodes) -> new
    H``.  It computes each non-copied column at ``nodes`` only, into a column
    of zeros, passes copied columns through, and binds only the state and
    label columns its expressions read."""
    edges = ("ea",) in step.reads
    computed = [c for c, source in enumerate(step.copies) if source is None]
    lines = ["def _step(adj, labels, H, eattrs, nodes):"]
    for var, *key in sorted(step.reads):
        if var == "H":
            lines.append(f"    H{key[0]} = H[{key[0]}]")
        elif var == "L":
            lines.append(f"    L{layout[key[0]]} = labels[{key[0]!r}]")
    if computed:
        lines += [f"    O{c} = [0] * len(adj)" for c in computed]
        if edges:
            lines.append("    if eattrs is None:")
            lines.append("        eattrs = [(0,) * len(row) for row in adj]")
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


_COMPILE_CACHE: dict[tuple[MPProgram, tuple[str, ...]], tuple] = {}


def _compiled(prog: MPProgram, layout_names: tuple[str, ...]):
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
    steps = tuple(
        (_compile_step(step, layout), step.live, bool(step.messages))
        for step in _walk(prog, layout)
    )
    _COMPILE_CACHE[key] = steps
    return steps


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

# A sparse step runs over its live nodes (and their neighbors) only when the
# graph has at least this many nodes and fewer than a quarter of them are
# live; the module docstring gives the measurements behind both numbers.
_SPARSE_MIN_NODES = 32


def _live_nodes(
    adjacency: Sequence[Sequence[int]], columns: list[list[int]], spreads: bool
) -> set[int] | None:
    """The nodes a sparse step must evaluate: the live ones (nonzero in one
    of ``columns``), plus their neighbors when the step ``spreads`` (has
    messages).  None when a quarter of the nodes or more are live."""
    n = len(adjacency)
    live: set[int] = set()
    for col in columns:
        if (n - col.count(0)) * 4 >= n:  # cheaper than collecting its nodes
            return None
        live.update(compress(range(n), col))
    if len(live) * 4 >= n:
        return None
    if spreads:
        live.update(chain.from_iterable([adjacency[k] for k in live]))
    return live


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
    steps = _compiled(prog, layout_names)
    n = len(adjacency)
    for name in layout_names:
        if len(labels[name]) != n:
            raise ProgramError(
                f"label {name!r} has {len(labels[name])} entries for {n} nodes"
            )
    every = range(n)
    state: tuple[list[int], ...] = ()  # init is the first step
    for step, live, spreads in steps:
        nodes = None
        if live is not None and n >= _SPARSE_MIN_NODES:
            nodes = _live_nodes(adjacency, [state[c] for c in live], spreads)
        state = step(adjacency, labels, state, edge_attrs, every if nodes is None else nodes)
    return state


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
