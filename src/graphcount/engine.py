"""Deterministic synchronous integer message passing over rooted subgraphs.

A program is a fixed pipeline of layers.  Each layer evaluates a tuple of
message expressions on every directed edge (receiver <- sender), sums the
messages per receiver component-wise, and then evaluates a tuple of update
expressions per node over (previous state, label vector, message sums).  All
layers are synchronous: states at step t+1 depend only on states at step t,
so evaluation order cannot affect the result.

Expressions form a small closed AST over integer arithmetic
({+, -, *, constants, component selects, zero/positivity indicators}); they
are compiled once per (program, label layout) into plain Python functions.
States are Python ints, i.e. arbitrary precision: results are exact and
overflow cannot occur.  Programs serialize to a readable one-line-per-layer
text form for auditing.

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

from dataclasses import dataclass
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
# Compilation: AST -> Python source -> function objects, cached per
# (program, label layout).
# ---------------------------------------------------------------------------


def _py(e: Expr, layout: Mapping[str, int], ctx: str, widths: tuple[int, int]) -> str:
    state_w, msg_w = widths
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Self):
        if not 0 <= e.index < state_w:
            raise ProgramError(f"state select {e.index} out of width {state_w}")
        return f"hs[{e.index}]"
    if isinstance(e, Nbr):
        if ctx != "message":
            raise ProgramError("neighbor state is only visible in message expressions")
        if not 0 <= e.index < state_w:
            raise ProgramError(f"state select {e.index} out of width {state_w}")
        return f"hn[{e.index}]"
    if isinstance(e, Msg):
        if ctx != "update":
            raise ProgramError("message sums are only visible in update expressions")
        if not 0 <= e.index < msg_w:
            raise ProgramError(f"message select {e.index} out of width {msg_w}")
        return f"_m{e.index}"
    if isinstance(e, LSelf):
        if e.name not in layout:
            raise MissingLabelError(f"program needs label {e.name!r}")
        return f"ls[{layout[e.name]}]"
    if isinstance(e, LNbr):
        if ctx != "message":
            raise ProgramError("neighbor labels are only visible in message expressions")
        if e.name not in layout:
            raise MissingLabelError(f"program needs label {e.name!r}")
        return f"ln[{layout[e.name]}]"
    if isinstance(e, EdgeAttr):
        if ctx != "message":
            raise ProgramError("edge attributes are only visible in message expressions")
        return "ea"
    if isinstance(e, Add):
        return f"({_py(e.a, layout, ctx, widths)} + {_py(e.b, layout, ctx, widths)})"
    if isinstance(e, Sub):
        return f"({_py(e.a, layout, ctx, widths)} - {_py(e.b, layout, ctx, widths)})"
    if isinstance(e, Mul):
        return f"({_py(e.a, layout, ctx, widths)} * {_py(e.b, layout, ctx, widths)})"
    if isinstance(e, IsZero):
        return f"(0 if {_py(e.a, layout, ctx, widths)} else 1)"
    if isinstance(e, IsPos):
        return f"(1 if {_py(e.a, layout, ctx, widths)} > 0 else 0)"
    raise ProgramError(f"unknown expression node {type(e).__name__}")


def required_labels(prog: MPProgram) -> frozenset[str]:
    names: set[str] = set()
    stack: list[Expr] = list(prog.init)
    for layer in prog.layers:
        stack.extend(layer.message)
        stack.extend(layer.update)
    while stack:
        e = stack.pop()
        if isinstance(e, (LSelf, LNbr)):
            names.add(e.name)
        for attr in ("a", "b"):
            child = getattr(e, attr, None)
            if isinstance(child, Expr):
                stack.append(child)
    return frozenset(names)


def _compile_init(prog: MPProgram, layout: Mapping[str, int]):
    exprs = [_py(e, layout, "init", (0, 0)) for e in prog.init]
    body = "(" + ", ".join(exprs) + ("," if len(exprs) == 1 else "") + ")"
    if not exprs:
        body = "()"
    src = f"def _init(labels):\n    return [{body} for ls in labels]\n"
    ns: dict = {}
    exec(src, ns)
    return ns["_init"]


def _compile_step(layer: Layer, layout: Mapping[str, int], state_w: int):
    mw = len(layer.message)
    msg_srcs = [_py(e, layout, "message", (state_w, mw)) for e in layer.message]
    upd_srcs = [_py(e, layout, "update", (state_w, mw)) for e in layer.update]
    if not upd_srcs:
        raise ProgramError("layer update must produce at least one component")
    out_tuple = "(" + ", ".join(upd_srcs) + ("," if len(upd_srcs) == 1 else "") + ")"
    uses_ea = any("ea" in s for s in msg_srcs)
    lines = ["def _step(adj, labels, H, eattrs):", "    out = []"]
    if uses_ea:
        lines.append("    if eattrs is None:")
        lines.append("        eattrs = [(0,) * len(row) for row in adj]")
    lines.append("    for _k in range(len(adj)):")
    if any("hs[" in s for s in msg_srcs + upd_srcs):
        lines.append("        hs = H[_k]")
    if any("ls[" in s for s in msg_srcs + upd_srcs):
        lines.append("        ls = labels[_k]")
    if uses_ea:
        lines.append("        _er = eattrs[_k]")
    for i in range(mw):
        lines.append(f"        _m{i} = 0")
    if mw:
        if uses_ea:
            lines.append("        for _x, _l in enumerate(adj[_k]):")
            lines.append("            ea = _er[_x]")
        else:
            lines.append("        for _l in adj[_k]:")
        if any("hn[" in s for s in msg_srcs):
            lines.append("            hn = H[_l]")
        if any("ln[" in s for s in msg_srcs):
            lines.append("            ln = labels[_l]")
        for i, s in enumerate(msg_srcs):
            lines.append(f"            _m{i} += {s}")
    lines.append(f"        out.append({out_tuple})")
    lines.append("    return out")
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
    init_fn = _compile_init(prog, layout)
    steps = []
    width = len(prog.init)
    for layer in prog.layers:
        steps.append(_compile_step(layer, layout, width))
        width = len(layer.update)
    compiled = (init_fn, tuple(steps))
    _COMPILE_CACHE[key] = compiled
    return compiled


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
    init_fn, steps = _compiled(prog, layout_names)
    rows = label_rows(labels, layout_names, len(adjacency))
    state = init_fn(rows)
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


# ---------------------------------------------------------------------------
# Human-readable serialization (one line per layer), for docs and tests.
# ---------------------------------------------------------------------------


def _text(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Self):
        return f"self.h{e.index}"
    if isinstance(e, Nbr):
        return f"nbr.h{e.index}"
    if isinstance(e, Msg):
        return f"m{e.index}"
    if isinstance(e, LSelf):
        return f"self.{e.name}"
    if isinstance(e, LNbr):
        return f"nbr.{e.name}"
    if isinstance(e, EdgeAttr):
        return "edge_attr"
    if isinstance(e, Add):
        return f"({_text(e.a)} + {_text(e.b)})"
    if isinstance(e, Sub):
        return f"({_text(e.a)} - {_text(e.b)})"
    if isinstance(e, Mul):
        return f"({_text(e.a)} * {_text(e.b)})"
    if isinstance(e, IsZero):
        return f"[{_text(e.a)} == 0]"
    if isinstance(e, IsPos):
        return f"[{_text(e.a)} > 0]"
    raise ProgramError(f"unknown expression node {type(e).__name__}")


def program_text(prog: MPProgram) -> str:
    lines = [f"program {prog.name}"]
    init = "; ".join(f"h{i} = {_text(e)}" for i, e in enumerate(prog.init)) or "-"
    lines.append(f"  init: {init}")
    for t, layer in enumerate(prog.layers, start=1):
        msgs = "; ".join(f"m{i} = sum_nbr {_text(e)}" for i, e in enumerate(layer.message))
        upds = "; ".join(f"h{i} = {_text(e)}" for i, e in enumerate(layer.update))
        sep = " | " if msgs else ""
        lines.append(f"  layer {t}: {msgs}{sep}{upds}")
    return "\n".join(lines)
