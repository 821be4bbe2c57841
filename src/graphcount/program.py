"""Message-passing programs: the expression AST and the one walk over it.

A program is a fixed pipeline of layers.  Each layer evaluates a tuple of
message expressions on every directed edge (receiver <- sender), sums the
messages per receiver component-wise, and then evaluates a tuple of update
expressions per node over (previous state, label vector, message sums).
Layers are synchronous, so evaluation order cannot affect the result.
States are Python ints: results are exact and overflow cannot occur.

Expressions form a small closed AST over integer arithmetic ({+, -, *,
constants, component selects, zero/positivity indicators}).  One visitor,
``_visit``, walks it with one table entry per node type, giving per
expression its code (``_read``), its audit text, what it reads, its witness
and the factors of its top-level product, and checking every select's
context and width.  ``init`` is walked as a message-less layer over an
empty state, so every step has one form; ``program_text``,
``required_labels`` and ``engine``'s kernels read that one walk.  The
module docstring of ``engine``, which runs programs and re-exports every
public name here, says what witnesses and reach mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping


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
# The one walk over the AST: each expression's code and audit text,
# what it reads, and where it can be nonzero.  Compiled steps are cached per
# (program, label layout).
# ---------------------------------------------------------------------------

# The identifiers of a rooted run, whose sorted names are the label layout
# of every rooted kernel: how far from the root each is nonzero (any other
# label: unbounded), the node list it is 1 on, for root i and branching node
# j, and whether it is set per branch.
_IDENTIFIERS = {
    "is_root": (0, "(i,)", False),
    "in_n_root": (1, "adj[i]", False),
    "is_branch": (1, "(j,)", True),
    "in_n_branch": (2, "adj[j]", True),
}
_BRANCH_LABELS = {x for x, (*_, per_branch) in _IDENTIFIERS.items() if per_branch}
# The identifiers whose list is one node, by that node's name in a kernel;
# per one, the identifier whose list is that node's neighbors; and per
# identifier the ones whose node its list never holds: a graph has no
# self-loops, so adj[i] never holds i.
_ONE_NODE = {x: nodes[1] for x, (_, nodes, _) in _IDENTIFIERS.items() if nodes.startswith("(")}
_AROUND = {
    x: y for x, v in _ONE_NODE.items()
    for y, (_, nodes, _) in _IDENTIFIERS.items() if nodes == f"adj[{v}]"
}
_ABSENT = {y: frozenset(x for x, z in _AROUND.items() if z == y) for y in _IDENTIFIERS}
_UNBOUNDED = math.inf


def _label_reach(name) -> float:
    return _IDENTIFIERS[name][0] if name in _IDENTIFIERS else _UNBOUNDED


def _reach(witness, state, sender: bool = False) -> float:
    """How far from the root an expression with this witness can be nonzero:
    at the node that evaluates it or, with ``sender``, at the neighbor that
    sends it (a message).  ``state`` gives the reach of each state column; -1
    means never nonzero."""
    if witness is None:
        return _UNBOUNDED
    out = -1
    for var, key, hop in _plain(witness):
        r = state[key] if var == "H" else _label_reach(key)
        if r >= 0:
            out = max(out, r + (1 - hop if sender else hop))
    return out


def _either(state, witnesses):
    """Add, Sub, IsPos: zero where every operand is."""
    return None if None in witnesses else frozenset().union(*witnesses)


def _narrowest(state, witnesses):
    """Mul: zero where one operand is; keep the one of least reach.  When
    each operand is one label read at the node, the product is nonzero only
    where all those labels are: it reads their meet, a tuple of the labels,
    the kept operand's first."""
    bounded = [w for w in witnesses if w is not None]
    kept = min(bounded, key=lambda w: _reach(w, state), default=None)
    labels = [_labels_at_node(w) for w in witnesses]
    if not all(labels):
        return kept
    names = tuple(dict.fromkeys(labels[witnesses.index(kept)] + sum(labels, ())))
    return frozenset({("L", names if len(names) > 1 else names[0], 0)})


def _labels_at_node(witness) -> tuple:
    """The labels of a witness that is one label read at the node: one
    name, or the names of a meet; () for any other witness."""
    if witness is None or len(witness) != 1:
        return ()
    ((var, key, hop),) = witness
    if var != "L" or hop != 0:
        return ()
    return key if type(key) is tuple else (key,)


def _plain(witness):
    """A witness with each meet read as its first label: every rule but the
    node list of a column in a kernel without a hook uses this form."""
    if not witness:
        return witness
    return frozenset((var, key[0] if type(key) is tuple else key, hop) for var, key, hop in witness)


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
# sum), the name it reads (a Const's Python form), its text form, the context
# the node is confined to (with what the error calls it), the width that
# bounds its index, and the hop of its read (0 at the evaluating node, 1 at
# the sending neighbor), which gives its subscript.
_LEAVES = {
    Const: ("", "{!r}", "{}", None, None, None),
    Self: ("H", "{}", "self.h{}", None, "state", 0),
    Nbr: ("H", "{}", "nbr.h{}", ("message", "neighbor state is"), "state", 1),
    Msg: ("M", "_m{}", "m{}", ("update", "message sums are"), "message", None),
    LSelf: ("L", "L{}", "self.{}", None, None, 0),
    LNbr: ("L", "L{}", "nbr.{}", ("message", "neighbor labels are"), None, 1),
}
_SUBSCRIPT = {0: "_k", 1: "_l", None: None}


def _read(name: str, sub: str | None = None) -> tuple:
    """The code of one read: ``name``, or its item at ``sub``.  A code is a
    Python expression as a template, one ``{}`` per read, and the
    ``(name, subscript or None)`` of each read in the template's order."""
    return "{}", ((name, sub),)


def _text(code: tuple) -> str:
    """The Python source of a code (``_read``)."""
    return code[0].format(*(name if sub is None else f"{name}[{sub}]" for name, sub in code[1]))


def _visit(
    e: Expr, ctx: str, layout: Mapping[str, int], state: tuple, messages: tuple, names: tuple,
    reads: set,
) -> tuple[tuple, str, frozenset | None, tuple]:
    """(code, audit text, witness, factors) of ``e`` in context ``ctx``.

    ``state`` holds the reach of each previous state column, ``names`` the
    buffer each is read from and ``messages`` the witness of each message.
    The code (``_read``) reads a state column by its buffer's name, a label
    as ``L<index>`` and a message sum as ``_m<m>``.  The witness of ``e`` is
    a set of (variable, index or label name, hop) reads such that ``e`` is 0
    wherever all of them are, or None when there is none.  The factors of
    ``e`` split its top-level product: per factor, its code, what it reads
    in the witness's form, its mark (``_mark``) and, for a ``Sub``, the
    (code, reads, factors) of each operand, else None; an ``e`` that is no
    ``Mul`` is one factor.  Adds what ``e`` reads to ``reads`` in the
    witness's form.  A label reads from its position in ``layout``; names
    outside the layout never reach compilation, because ``_steps`` rejects
    them.
    """
    kind = type(e)
    if kind not in _OPERATORS and kind not in _LEAVES:
        raise ProgramError(f"unknown expression node {kind.__name__}")
    args = [getattr(e, f.name) for f in fields(e)]
    if kind in _OPERATORS:
        py, text, witness = _OPERATORS[kind]
        each = [set() for _ in args]
        parts = [_visit(a, ctx, layout, state, messages, names, r) for a, r in zip(args, each)]
        reads.update(*each)
        code = py.format(*(p[0][0] for p in parts)), sum((p[0][1] for p in parts), ())
        text = text.format(*(p[1] for p in parts))
        witness = witness(state, [p[2] for p in parts])
        if kind is Mul:
            return code, text, witness, parts[0][3] + parts[1][3]
        sides = tuple((p[0], r, p[3]) for p, r in zip(parts, each)) if kind is Sub else None
        return code, text, witness, ((code, frozenset().union(*each), _mark(e), sides),)
    var, name, text, confined, bound, hop = _LEAVES[kind]
    if confined and ctx != confined[0]:
        raise ProgramError(f"{confined[1]} only visible in {confined[0]} expressions")
    width = len(state if bound == "state" else messages)
    if bound and not 0 <= args[0] < width:
        raise ProgramError(f"{bound} select {args[0]} out of width {width}")
    read = frozenset({(var, *args, hop)} if var else ())
    reads.update(read)
    if kind is Const:
        witness = frozenset() if args[0] == 0 else None
    elif kind is Msg:
        witness = messages[args[0]]
    else:
        witness = frozenset({(var, args[0], hop)})
    name = name.format(
        names[args[0]] if var == "H" else layout.get(args[0]) if var == "L" else args[0]
    )
    code = _read(name, _SUBSCRIPT[hop]) if var else (name, ())
    return code, text.format(*args), witness, ((code, read, _mark(e), None),)


def _mark(e: Expr) -> tuple | None:
    """(x, hop, False) when ``e`` is ``1 - x`` for a one-node identifier x
    (the module docstring's exclusion factor), (x, hop, True) when it is
    the label read x, with the hop of the read (0 at the node, 1 at the
    sender), else None."""
    x = getattr(e, "b", None)
    if type(e) in (LSelf, LNbr):
        return e.name, _LEAVES[type(e)][5], True
    if type(e) is Sub and e.a == Const(1) and type(x) in (LSelf, LNbr) and x.name in _ONE_NODE:
        return x.name, _LEAVES[type(x)][5], False
    return None


def _expr(e: Expr, ctx: str, layout: Mapping[str, int], state: tuple, messages: tuple,
          names: tuple) -> tuple:
    """``_visit``'s (code, audit text, witness) of ``e``, what it reads, and
    its factors."""
    reads: set = set()
    code, text, witness, factors = _visit(e, ctx, layout, state, messages, names, reads)
    return code, text, witness, reads, factors


@dataclass(frozen=True)
class _Step:
    """One walked step: the (code, text, witness, reads, factors)
    of its messages and updates, the state index each update copies (None
    when it computes), what the messages and computing updates read, the
    reach of each output column, the union of the computing updates'
    witnesses: the reads whose supports bound the nodes the step must
    compute (None: every node), per update, when it is ``coef * Msg(m)``
    with a coef that reads no message, (m, the coef's factors, () for a bare
    ``Msg(m)``), else None, the (step, column) that computed each output
    column, following copies back, per update, the labels of the meet its
    witness reads (``_narrowest``), or () for none, the computing updates,
    and per message the number of updates that read it.  Every witness it
    holds is in ``_plain`` form."""

    messages: list
    updates: list
    copies: list
    reads: set
    reach: tuple
    sources: frozenset | None
    linear: list
    origins: tuple
    meets: list
    computed: list
    readers: list


def _linear(factors: tuple) -> tuple[int, tuple] | None:
    """(m, the other factors) when one of a product's factors is a bare
    ``Msg(m)`` and no other reads a message, else None."""
    reads = [(f, r[1]) for f in factors for r in f[1] if r[0] == "M"]
    if len(reads) == 1 and reads[0][0][0][0] == "{}":  # the factor is the read
        (bare, m), = reads
        return m, tuple(f for f in factors if f is not bare)
    return None



def _walk(prog: MPProgram, layout: Mapping[str, int]) -> list[_Step]:
    """Visit every expression of ``prog`` once, step by step: ``init`` first,
    as a message-less layer over an empty state, then each layer.  An update
    that is a bare ``Self`` copies its column; its read is not recorded, as
    the step passes the column through."""
    steps = []
    reach: tuple = ()
    origins: tuple = ()
    layers = [("init", Layer((), prog.init))] + [("update", x) for x in prog.layers]
    for s, (ctx, layer) in enumerate(layers):
        names = tuple("O{}_{}".format(*o) for o in origins)
        messages = [_expr(e, "message", layout, reach, (), names) for e in layer.message]
        witnesses = tuple(m[2] for m in messages)
        copies = [e.index if type(e) is Self else None for e in layer.update]
        updates = [_expr(e, ctx, layout, reach, witnesses, names) for e in layer.update]
        if ctx == "update" and not updates:
            raise ProgramError("layer update must produce at least one component")
        meets = [_labels_at_node(u[2]) for u in updates]
        meets = [labels if len(labels) > 1 else () for labels in meets]
        messages, updates = (
            [(c, text, _plain(w), r, f) for c, text, w, r, f in xs] for xs in (messages, updates)
        )
        computed = [u for u, c in zip(updates, copies) if c is None]
        reads = set().union(*(x[3] for x in messages + computed))
        witness = [u[2] for u in computed]
        sources = None if None in witness else frozenset().union(*witness)
        linear = [_linear(u[4]) for u in updates]
        reach = tuple(
            _reach(u[2], reach) if c is None else reach[c] for u, c in zip(updates, copies)
        )
        origins = tuple((s, c) if src is None else origins[src] for c, src in enumerate(copies))
        readers = [sum(("M", m, None) in u[3] for u in updates) for m in range(len(messages))]
        steps.append(_Step(
            messages, updates, copies, reads, reach, sources, linear, origins, meets, computed,
            readers,
        ))
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

