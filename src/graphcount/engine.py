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
in its context and width, and records what the expression reads.  ``init``
is walked as a message-less layer over an empty state, so a program compiles,
once per (program, label layout), into one plain Python function per step;
each binds only the state, label and edge variables its expressions read,
and a message-less step is one list comprehension.  ``program_text`` (one
readable line per layer, for auditing) and ``required_labels`` come from the
same walk.  States are Python ints, i.e. arbitrary precision: results are
exact and overflow cannot occur.

Counting runs a program once per rooted subgraph, so ``run`` keeps its
per-call work small and free of per-node Python loops outside the compiled
steps.  ``label_rows`` turns the label columns into one row per node with a
single ``zip`` (``[()] * n`` when there are no labels), after checking that
every column has one entry per node: ``zip`` would silently stop at the
shortest.  The compile cache is keyed by (program, label layout), and a
program computes its hash once when built, so the lookup costs O(1) instead
of hashing the expression tree on every call; equal programs built
separately share one entry.  Readouts are C-level sums over the states.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import itemgetter, mul
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
# and what it reads.  Compiled steps are cached per (program, label layout).
# ---------------------------------------------------------------------------

# Composite nodes: Python form and text form, one {} per operand.
_OPERATORS = {
    Add: ("({} + {})", "({} + {})"),
    Sub: ("({} - {})", "({} - {})"),
    Mul: ("({} * {})", "({} * {})"),
    IsZero: ("(0 if {} else 1)", "[{} == 0]"),
    IsPos: ("(1 if {} > 0 else 0)", "[{} > 0]"),
}

# Leaves: the variable the Python form reads ("" for none), Python form and
# text form of the node's field, the context the node is confined to (with
# what the error calls it), and the width that bounds its index.
_LEAVES = {
    Const: ("", "{!r}", "{}", None, None),
    Self: ("hs", "hs[{}]", "self.h{}", None, "state"),
    Nbr: ("hn", "hn[{}]", "nbr.h{}", ("message", "neighbor state is"), "state"),
    Msg: ("", "_m{}", "m{}", ("update", "message sums are"), "message"),
    LSelf: ("ls", "ls[{}]", "self.{}", None, None),
    LNbr: ("ln", "ln[{}]", "nbr.{}", ("message", "neighbor labels are"), None),
    EdgeAttr: ("ea", "ea", "edge_attr", ("message", "edge attributes are"), None),
}


def _visit(
    e: Expr, ctx: str, widths: Mapping[str, int], layout: Mapping[str, int], reads: set
) -> tuple[str, str]:
    """(Python source, audit text) of ``e`` in context ``ctx``.

    Adds what ``e`` reads to ``reads`` as (variable, index or label name)
    tuples.  A label reads from its position in ``layout``; names outside
    the layout never reach compilation, because ``_compiled`` rejects them.
    """
    kind = type(e)
    if kind not in _OPERATORS and kind not in _LEAVES:
        raise ProgramError(f"unknown expression node {kind.__name__}")
    args = [getattr(e, f.name) for f in fields(e)]
    if kind in _OPERATORS:
        py, text = _OPERATORS[kind]
        parts = [_visit(a, ctx, widths, layout, reads) for a in args]
        return py.format(*(p for p, _ in parts)), text.format(*(t for _, t in parts))
    var, py, text, confined, bound = _LEAVES[kind]
    if confined and ctx != confined[0]:
        raise ProgramError(f"{confined[1]} only visible in {confined[0]} expressions")
    if bound and not 0 <= args[0] < widths[bound]:
        raise ProgramError(f"{bound} select {args[0]} out of width {widths[bound]}")
    if var:
        reads.add((var, *args))
    if var in ("ls", "ln"):
        return py.format(layout.get(args[0])), text.format(*args)
    return py.format(*args), text.format(*args)


def _walk(prog: MPProgram, layout: Mapping[str, int]) -> list[tuple[list, list, set]]:
    """Visit every expression of ``prog`` once, step by step: ``init`` first,
    as a message-less layer over an empty state, then each layer.  A step is
    the (Python source, text) pairs of its messages and of its updates, and
    the set of what they read."""
    steps = []
    state_w = 0
    layers = [("init", Layer((), prog.init))] + [("update", x) for x in prog.layers]
    for ctx, layer in layers:
        widths = {"state": state_w, "message": len(layer.message)}
        reads: set = set()
        messages = [_visit(e, "message", widths, layout, reads) for e in layer.message]
        updates = [_visit(e, ctx, widths, layout, reads) for e in layer.update]
        if ctx == "update" and not updates:
            raise ProgramError("layer update must produce at least one component")
        steps.append((messages, updates, reads))
        state_w = len(updates)
    return steps


def required_labels(prog: MPProgram) -> frozenset[str]:
    """Names of the labels ``prog`` reads."""
    reads = set().union(*(step[2] for step in _walk(prog, {})))
    return frozenset(r[1] for r in reads if r[0] in ("ls", "ln"))


def program_text(prog: MPProgram) -> str:
    (_, init, _), *layers = _walk(prog, {})
    inits = "; ".join(f"h{i} = {text}" for i, (_, text) in enumerate(init)) or "-"
    lines = [f"program {prog.name}", f"  init: {inits}"]
    for number, (messages, updates, _) in enumerate(layers, start=1):
        msgs = "; ".join(
            f"m{i} = sum_nbr {text}" for i, (_, text) in enumerate(messages)
        )
        upds = "; ".join(f"h{i} = {text}" for i, (_, text) in enumerate(updates))
        sep = " | " if msgs else ""
        lines.append(f"  layer {number}: {msgs}{sep}{upds}")
    return "\n".join(lines)


# What a message step binds for each variable its expressions read, once per
# node and once per edge.
_NODE_BINDINGS = {"hs": "hs = H[_k]", "ls": "ls = labels[_k]", "ea": "_er = eattrs[_k]"}
_EDGE_BINDINGS = {"ea": "ea = _er[_x]", "hn": "hn = H[_l]", "ln": "ln = labels[_l]"}


def _compile_step(messages: list, updates: list, reads: set):
    """One step as a Python function ``(adj, labels, H, eattrs) -> new H``,
    binding only the variables its expressions read."""
    names = {read[0] for read in reads}
    upd_srcs = [py for py, _ in updates]
    new_state = "(" + ", ".join(upd_srcs) + ("," if len(upd_srcs) == 1 else "") + ")"
    lines = ["def _step(adj, labels, H, eattrs):"]
    if not messages:
        # ``init`` has state width 0, so it never reads the empty H it gets
        loop = "hs, ls in zip(H, labels)" if "hs" in names else "ls in labels"
        lines.append(f"    return [{new_state} for {loop}]")
    else:
        lines.append("    out = [None] * len(adj)")
        if "ea" in names:
            lines.append("    if eattrs is None:")
            lines.append("        eattrs = [(0,) * len(row) for row in adj]")
        edges = "_x, _l in enumerate(adj[_k])" if "ea" in names else "_l in adj[_k]"
        lines.append("    for _k in range(len(adj)):")
        lines += ["        " + b for v, b in _NODE_BINDINGS.items() if v in names]
        lines += [f"        _m{i} = 0" for i in range(len(messages))]
        lines.append(f"        for {edges}:")
        lines += ["            " + b for v, b in _EDGE_BINDINGS.items() if v in names]
        lines += [f"            _m{i} += {py}" for i, (py, _) in enumerate(messages)]
        lines += [f"        out[_k] = {new_state}", "    return out"]
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
    steps = tuple(_compile_step(*step) for step in _walk(prog, layout))
    _COMPILE_CACHE[key] = steps
    return steps


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def label_rows(
    labels: Mapping[str, Sequence[int]], names: Sequence[str], n: int
) -> list[tuple[int, ...]]:
    """Per-node rows of the named label columns, in ``names`` order."""
    cols = [labels[name] for name in names]
    for name, col in zip(names, cols):
        if len(col) != n:
            raise ProgramError(
                f"label {name!r} has {len(col)} entries for {n} nodes"
            )
    return list(zip(*cols)) if cols else [()] * n


def run(
    prog: MPProgram,
    adjacency: Sequence[Sequence[int]],
    labels: Mapping[str, Sequence[int]],
    edge_attrs: Sequence[Sequence[int]] | None = None,
) -> list[tuple[int, ...]]:
    """Run a program over raw (adjacency, labels) and return the final states.

    ``edge_attrs``, when given, must be aligned with ``adjacency`` (one value
    per directed edge); programs that never read edge attributes ignore it,
    and those that do read 0 on every edge when it is None.
    """
    layout_names = tuple(sorted(labels))
    steps = _compiled(prog, layout_names)
    rows = label_rows(labels, layout_names, len(adjacency))
    state: list[tuple[int, ...]] = []  # init is the first step
    for step in steps:
        state = step(adjacency, rows, state, edge_attrs)
    return state


def run_program(sub: "RootedSubgraph", prog: MPProgram) -> list[tuple[int, ...]]:
    """Run a program on one rooted subgraph (final per-node integer states)."""
    return run(prog, sub.adj, sub.labels, sub.edge_attrs)


def apply_readout(
    sub: "RootedSubgraph", states: Sequence[tuple[int, ...]], readout: Readout
) -> int:
    values = map(itemgetter(readout.component), states)
    if readout.weight is None:
        return sum(values)
    try:
        w = sub.labels[readout.weight]
    except KeyError:
        raise MissingLabelError(
            f"readout weight label {readout.weight!r} not in subgraph labels"
        ) from None
    if len(w) != len(states):
        raise ProgramError(
            f"readout weight label {readout.weight!r} has {len(w)} entries "
            f"for {len(states)} states"
        )
    return sum(map(mul, values, w))


def exact_div(value: int, divisor: int) -> int:
    """Integer division that insists on a zero remainder."""
    q, r = divmod(value, divisor)
    if r:
        raise ArithmeticError(
            f"expected {value} to be divisible by {divisor} (remainder {r})"
        )
    return q
