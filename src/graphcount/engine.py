"""Deterministic synchronous integer message passing over rooted subgraphs.

A program is a fixed pipeline of layers.  Each layer evaluates a tuple of
message expressions on every directed edge (receiver <- sender), sums the
messages per receiver component-wise, and then evaluates a tuple of update
expressions per node over (previous state, label vector, message sums).
Layers are synchronous, so evaluation order cannot affect the result.
States are Python ints: results are exact and overflow cannot occur.

Expressions form a small closed AST over integer arithmetic ({+, -, *,
constants, component selects, zero/positivity indicators}).  One visitor,
``_visit``, walks it with one table entry per node type, giving per
expression its Python source, its audit text, what it reads, its witness
(below) and the factors of its top-level product, and checking every
select's context and width.  ``init`` is walked as a message-less layer
over an empty state, so every step has one form; ``program_text``,
``required_labels`` and the kernels read that one walk.
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
  root's ball, a radius-2 cut intersects its list with the ball, and an
  uncut step with one source, read at the node, takes that source's list.

Readouts are summed where they are computed, in a kernel without a hook
(``_layout``).  A column that no later step reads is not stored: each
readout of it is a running sum that the loop computing the column adds to,
and a column that nothing reads is not computed.  A cut step that stores
nothing and sums only readouts weighted by one label, whose reach lies
within the cut, computes only at that label's nodes, where the weight is 1
(cycle3).  A step that stores nothing, scatters, and sums only ``coef *
Msg(m)`` columns sends them: each message value, times coef at its
receiver, goes straight into the sum as it is sent or pulled, with no node
set, message buffer or final loop (path3).  Any other step computes each
column over its node list and sums its readout-only columns, except that a
cut step sends each ``coef * Msg(m)`` column whose message's witness reads
only the sender, of reach below the cut, so that every receiver lies within
the cut.

Exclusions fold in a kernel without a hook (``_fold``).  An exclusion
factor is ``1 - x`` in the top-level product of an update or a message,
for an identifier x whose list is one node: ``is_root`` (i) or
``is_branch`` (j), at the node or at the sender.  A column is 0 at the
nodes its update excludes, following copies back.  Per loop, a factor is
dropped when the loop implies it, because its node list never holds the
node (``adj[i]`` never holds i) or its guard reads a column or label that
is 0 there; the exclusions every value of the loop body shares become one
skip guard on it, and the rest stay factors.  So cycle6's layer 3 sends
its second message, ``(1 - L3[_l]) * (1 - L2[_l]) * L1[_l] * (H5[_l] -
H0[_k])``, from the root's neighbors ``if _l != j:`` to receivers with the
coefficient ``(1 - L3[_k]) * (1 - L2[_k])``: it adds ``(H5[_l] - H0[_k])``
under ``if _k != i and _k != j:``.  A label read at the node drops, and so
does a loop's test of it, where the loop's list makes it 1: the label's
own list, or a meet that holds it (path4's init is ``O0_0[_k] = 1`` over
N(j)).  A kernel marks only the labels its lines still read, and binds
only the identifiers' lists they read.  A skipped node keeps the 0 the
loop's reset left there: no kernel without a hook loops over every node,
whose columns are not reset, as a step without a witness is cut to the
root's ball.

Closed-form neighbor sums, in a kernel without a hook (``_split``).  A
message ``F * (g - h)``, F only exclusion factors at the sender, g reading
only the sender and h only the receiver, sums at a receiver k to ``sum_l
F(l) g(l) - h(k) c_F(k)``; ``c_F(k) = deg(k) - sum_{x in F} in_n_x(k)``
(``_degree``) counts k's neighbors that F keeps, exact because the graph is
simple and i != j.  So h's part needs no loop over k's neighbors, and F
drops where g's read is 0 (path3's, path4's and cycle6's last messages but
cycle6's second, whose F also reads ``in_n_root``).  A value read only at
its sender, summed unweighted through a coefficient of exclusion factors
only, adds itself times c(l) once per sender, with no loop over its
receivers.  A stored ``coef * Msg(m)`` column of a scattering step, coef
only exclusion factors, that alone reads m, takes m's scatter in its own
buffer, then 0 at the nodes coef excludes.

``tests/test_engine.py`` freezes what these rules give each counting plan:
its cuts (``_PLAN_RADII``), scatters (``_PLAN_SCATTERS``), readout sums
(``_PLAN_FUSED``), node lists (``_PLAN_NODES``), folds and closed-form sums
(``_PLAN_FOLDS``) and kernel sources (``_KERNEL_MD5``).  CHANGES.md holds
the measurements behind the rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
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
) -> tuple[str, str, frozenset | None, tuple]:
    """(Python source, audit text, witness, factors) of ``e`` in context
    ``ctx``.

    ``state`` holds the reach of each previous state column and ``messages``
    the witness of each message.  The witness of ``e`` is a set of (variable,
    index or label name, hop) reads such that ``e`` is 0 wherever all of them
    are, or None when there is none.  The factors of ``e`` split its
    top-level product: per factor, its Python source, what it reads, its
    mark (``_mark``) and, for a ``Sub``, the (Python source, reads) of each
    operand, else None; an ``e`` that is no ``Mul`` is one factor.  Adds
    what ``e`` reads to ``reads`` in the same form.  A label reads from its
    position in ``layout``; names outside the layout never reach
    compilation, because ``_steps`` rejects them.
    """
    kind = type(e)
    if kind not in _OPERATORS and kind not in _LEAVES:
        raise ProgramError(f"unknown expression node {kind.__name__}")
    args = [getattr(e, f.name) for f in fields(e)]
    if kind in _OPERATORS:
        py, text, witness = _OPERATORS[kind]
        each = [set() for _ in args]
        parts = [_visit(a, ctx, layout, state, messages, r) for a, r in zip(args, each)]
        reads.update(*each)
        py, text = (form.format(*(p[n] for p in parts)) for n, form in enumerate((py, text)))
        witness = witness(state, [p[2] for p in parts])
        if kind is Mul:
            return py, text, witness, parts[0][3] + parts[1][3]
        sides = tuple((p[0], r) for p, r in zip(parts, each)) if kind is Sub else None
        return py, text, witness, ((py, frozenset().union(*each), _mark(e), sides),)
    var, py, text, confined, bound, hop = _LEAVES[kind]
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
    py = py.format(layout.get(args[0]) if var == "L" else args[0])
    return py, text.format(*args), witness, ((py, read, _mark(e), None),)


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


def _expr(e: Expr, ctx: str, layout: Mapping[str, int], state: tuple, messages: tuple) -> tuple:
    """``_visit``'s (Python source, audit text, witness) of ``e``, what it
    reads, and its factors."""
    reads: set = set()
    py, text, witness, factors = _visit(e, ctx, layout, state, messages, reads)
    return py, text, witness, reads, factors


@dataclass(frozen=True)
class _Step:
    """One walked step: the (Python source, text, witness, reads, factors)
    of its messages and updates, the state index each update copies (None
    when it computes), what the messages and computing updates read, the
    reach of each output column, the union of the computing updates'
    witnesses: the reads whose supports bound the nodes the step must
    compute (None: every node), per update, when it is ``coef * Msg(m)``
    with a coef that reads no message, (m, the coef's factors, () for a bare
    ``Msg(m)``), else None, the (step, column) that computed each output
    column, following copies back, and, per update, the labels of the meet
    its witness reads (``_narrowest``), or () for none.  Every witness it
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


def _linear(factors: tuple) -> tuple[int, tuple] | None:
    """(m, the other factors) when one of a product's factors is a bare
    ``Msg(m)`` and no other reads a message, else None."""
    reads = [(f, r[1]) for f in factors for r in f[1] if r[0] == "M"]
    if len(reads) == 1 and reads[0][0][0] == f"_m{reads[0][1]}":
        (bare, m), = reads
        return m, tuple(f for f in factors if f is not bare)
    return None


def _excludes(factors: tuple, hop: int = 0) -> frozenset:
    """The one-node identifiers of a product's exclusion factors read at
    ``hop``: the product is 0 at their nodes."""
    return frozenset(x[0] for _, _, x, _ in factors if x and x[1:] == (hop, False))


def _split(factors: tuple) -> tuple | None:
    """A message ``F * (g - h)`` or ``F * (h - g)``, where F is only
    exclusion factors at the sender, g reads only the sender and h only the
    receiver, as (the factors of ``F * g`` or ``F * -g``, the Python source
    of ``-h`` or ``h``, the identifiers F excludes); else None.  Summed over
    a receiver's neighbors, the message is the sum of the first part plus
    the second times ``_degree`` of the third (module docstring)."""
    rest = [f for f in factors if not (f[2] and f[2][1:] == (1, False))]
    if len(rest) != 1 or rest[0][3] is None:
        return None
    (_, _, _, sides), = rest
    hops = [{hop for *_, hop in reads} for _, reads in sides]
    if hops not in ([{1}, {0}], [{0}, {1}]):
        return None
    (g, reads), (h, _) = sides if hops[0] == {1} else sides[::-1]
    sign = "-" if hops[0] == {0} else ""
    excluded = tuple(f for f in factors if f is not rest[0])
    return (*excluded, (sign + g, reads, None, None)), "-"[:not sign] + h, _excludes(factors, 1)


def _degree(var: str, excluded, column, ones) -> str:
    """The Python source of the number of neighbors of node ``var`` that are
    not the node of any one-node identifier in ``excluded``: its degree less
    the label that marks that node's neighbors, 1 where ``ones`` (the labels
    1 at every node of the loop) holds it.  ``column`` names the labels."""
    labels = [_AROUND[x] for x in _ONE_NODE if x in excluded]
    terms = [f"{column('L', y)[0]}[{var}]" for y in labels if y not in ones]
    known = len(labels) - len(terms)
    terms = [f"_deg[{var}]", *terms, *([str(known)] if known else [])]
    return f"({' - '.join(terms)})" if len(terms) > 1 else terms[0]


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
        messages = [_expr(e, "message", layout, reach, ()) for e in layer.message]
        witnesses = tuple(m[2] for m in messages)
        copies = [e.index if type(e) is Self else None for e in layer.update]
        updates = [_expr(e, ctx, layout, reach, witnesses) for e in layer.update]
        if ctx == "update" and not updates:
            raise ProgramError("layer update must produce at least one component")
        meets = [_labels_at_node(u[2]) for u in updates]
        meets = [labels if len(labels) > 1 else () for labels in meets]
        messages, updates = (
            [(py, text, _plain(w), r, f) for py, text, w, r, f in xs] for xs in (messages, updates)
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
        steps.append(
            _Step(messages, updates, copies, reads, reach, sources, linear, origins, meets)
        )
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


def _nodes(sources, cut, where) -> str | tuple:
    """The node list a step, or a column, with these sources computes, by
    the rules of the module docstring: a name, or ``(near, here, cut)``, the
    neighbors of the lists ``near`` and the lists ``here``, cut to the ball
    of radius ``cut`` (None: no cut).  ``where(var, key)`` gives the node
    list of a read."""
    if sources is None or cut is not None and cut <= 1:
        return "_all" if cut is None else "set()" if cut < 0 else f"_B{cut}"
    lists: list = [set(), set()]
    for var, key, hop in sources:
        lists[hop].add(where(var, key))
    here, near = (tuple(sorted(x, key=repr)) for x in lists)
    return here[0] if len(here) == 1 and not near and cut is None else (near, here, cut)


def _layout(steps, cuts, index, readouts) -> tuple[list, dict, list]:
    """The plan of a kernel (module docstring): per step, its units
    ``(nodes, columns, once)`` and its readout terms ``{c: [(x, w)]}``, and
    each computed column's node list, off which it is 0.  ``readouts`` is
    None for a kernel that keeps whole states.

    A unit loops over the node list ``nodes`` to compute ``columns``, or,
    with ``nodes`` None, sends them (``_scatter``); with ``once`` it runs
    once per root, before the branch loop.  Column c is added, where it is
    computed, to each readout x, times the label at position w (None: 1).
    A node list is one ``_nodes`` gives, or a frozenset of labels' lists:
    their intersection.
    """
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
    terms: list = []
    own: list = []
    for s, (step, cut) in enumerate(zip(steps, cuts)):

        def where(var, key, s=s):
            return slot[steps[s - 1].origins[key]] if var == "H" else f"_U{index[key]}"

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
        terms.append({
            c: [(x, None if label else index.get(readouts[x].weight)) for x in xs]
            for c, xs in sums.items()
        })
        lists = {}
        for c in computed:
            witness = step.updates[c][2]
            lists[c] = slot[s, c] = _nodes(step.sources if whole else witness, cut, where)
            # the meet of its labels, unless later steps read it only across an edge
            if step.meets[c] and not (whole or cut is not None or read.get((s, c)) == {1}):
                lists[c] = slot[s, c] = frozenset(f"_U{index[x]}" for x in step.meets[c])
            # a column whose witness is one read at the node lies in its node list
            elif cut is None and witness is not None and len(witness) == 1:
                ((var, key, hop),) = witness
                if hop == 0:
                    slot[s, c] = where(var, key)
            # once per root: it, and the weights of its readouts, read
            # only root labels and columns computed once
            reads = _reads(step, [c])
            labels = {readouts[x].weight for x in sums.get(c, ())} - {None}
            if (
                not whole and c not in sent and _per_root(lists[c], index)
                and not (labels | {r[1] for r in reads if r[0] == "L"}) & _BRANCH_LABELS
                and all(steps[s - 1].origins[r[1]] in once for r in reads if r[0] == "H")
            ):
                once.add((s, c))
        lists = {
            c: f"_U{index[label]}" if label else lists[c]
            for c in computed if c not in sent and (c in stored or c in sums)
        }
        # the stored columns a pulling step may narrow to their demand
        own.append(([] if whole else stored, lists, sent))
    units: list = [[] for _ in steps]
    for s in reversed(range(len(steps))):
        narrow, lists, sent = own[s]
        for c in narrow:
            if (s, c) in out or (s, c) in once:
                continue
            demand = set()
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
            union = ((), tuple(sorted(demand, key=repr)), None)
            union = union[1][0] if len(demand) == 1 else union
            # the union must not cost a set the column's own list does not
            cheap = type(lists[c]) is tuple or type(union) is not tuple
            if cheap and not demand & {None, "_all"}:
                lists[c] = union
        groups: dict = {}
        for c, nodes in lists.items():
            groups.setdefault((nodes, (s, c) in once and _per_root(nodes, index)), []).append(c)
        units[s] = [(None, sent, False)] * bool(sent) + [
            (nodes, columns, hoisted) for (nodes, hoisted), columns in groups.items()
        ]
    return units, slot, terms


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
    return lines + [
        f"{name} += {value if f is None else f if value == '1' else f'{f} * {value}'}"
        for name, f in terms
    ]


def _product(factors: tuple, dropped, whole: str | None = None) -> str | None:
    """The Python source of a product without the factors whose mark
    (``_mark``) is in ``dropped``: ``whole`` when it drops none, "1" (or
    None without ``whole``) when it keeps none."""
    kept = [py for py, _, x, _ in factors if x not in dropped]
    if whole is not None and len(kept) == len(factors):
        return whole
    return reduce(lambda a, b: f"({a} * {b})", kept) if kept else whole and "1"


def _fold(folds, hop: int, skip, products, implied=frozenset(), ones=frozenset()):
    """Fold the exclusion factors and label reads that ``products``,
    computed per node of a loop, read at that node (``hop`` 0: ``_k``, 1:
    ``_l``; module docstring): the loop's list and guard imply the one-node
    identifiers in ``implied`` and the labels in ``ones``, and every product
    is 0 at the identifiers in ``skip``.  Returns the skip guard's
    conditions and the marks of the factors to drop, and appends ("skip",
    hop, skipped), ("implied", hop, dropped as implied) and ("one", hop,
    labels dropped as 1) to ``folds``, each unless empty; with ``folds``
    None, folds nothing."""
    if folds is None:
        return [], set()
    guard = skip - implied
    implied = implied & frozenset().union(*(_excludes(p, hop) for p in products))
    held = ones & {x[0] for p in products for _, _, x, _ in p if x and x[1:] == (hop, True)}
    rules = (("skip", guard), ("implied", implied), ("one", held))
    folds += [(rule, hop, names) for rule, names in rules if names]
    var = ("_k", "_l")[hop]
    conditions = [f"{var} != {node}" for x, node in _ONE_NODE.items() if x in guard]
    return conditions, {(x, hop, False) for x in guard | implied} | {(x, hop, True) for x in held}


def _guarded(conditions: list, lines: list) -> list:
    if not conditions:
        return lines
    return [f"if {' and '.join(conditions)}:", *_indent(lines, 1)]


def _pull(step: _Step, reads: set, dropped: set, folds, column, ones) -> list:
    """Loop-body lines that sum each message in ``reads`` over the
    neighbors of ``_k`` into ``_m<m>``, without the factors ``dropped``.  A
    message ``_split`` splits starts from its receiver part, times
    ``_degree`` (``ones``: the labels 1 at ``_k``), and sums its sender
    part, whose factors that exclude a node where its sender-side read is
    0 drop; ``column`` is ``_unit``'s."""
    messages = sorted(r[1] for r in reads if r[0] == "M")
    if not messages:
        return []
    parts = []  # per message: what its sum starts from, its summed factors, their source
    for m in messages:
        msg, _, witness, _, factors = step.messages[m]
        split = folds is not None and _split(factors)
        if not split:
            parts.append(("0", factors, msg))
            continue
        factors, h, excluded = split
        folds.append(("sum", 0, excluded))
        at = [(var, key) for var, key, hop in witness or () if hop == 1]
        zeros = column(*at[0], False)[2] if len(at) == 1 else frozenset()
        _, own = _fold(folds, 1, frozenset(), [factors], zeros)
        factors = tuple(f for f in factors if f[2] not in own)
        parts.append((f"{h} * {_degree('_k', excluded, column, ones)}", factors, None))
    skip = frozenset.intersection(*(_excludes(f, 1) for _, f, _ in parts))
    guard, more = _fold(folds, 1, skip, [f for _, f, _ in parts])
    lines = [f"_m{m} = {start}" for m, (start, *_) in zip(messages, parts)]
    sums = [
        f"_m{m} += {_product(f, dropped | more, whole)}"
        for m, (_, f, whole) in zip(messages, parts)
    ]
    lines.append("for _l in adj[_k]:")
    return lines + _indent(_guarded(guard, sums), 1)


def _scatter(step: _Step, sent, column, add, coefs: dict, folds, flat=None) -> list:
    """Lines that add each message ``m`` in ``sent`` from the nodes where the
    sender-side read of its witness is nonzero, at each of their neighbors,
    and then pull it at the nodes where the receiver-side read is nonzero,
    from the neighbors not sent from; ``add(m, value, dropped)`` gives the
    lines that add one value of message m at node ``_k``, times each coef
    in ``coefs.get(m)`` without its factors ``dropped``.  A message
    ``_split`` splits sends its sender part, and adds its receiver part,
    times ``_degree``, at each node where that read is nonzero, with no loop
    over its neighbors.  ``flat(m, value, ones)``, unless None, gives the
    lines that add a value read only at its sender ``_l`` once for all its
    receivers, or None where it cannot."""
    lines = []
    for m in sent:
        msg, _, witness, _, factors = step.messages[m]
        at = {hop: (var, key) for var, key, hop in witness}
        receiver, sender = (column(*at[hop]) if hop in at else None for hop in (0, 1))
        split = folds is not None and _split(factors)
        sends, whole = (split[0], None) if split else (factors, msg)
        # a value added at _k is 0 where the message is or every coef is
        products = [sends, *coefs.get(m, ())]
        skip = _excludes(sends)
        if coefs.get(m):
            skip |= frozenset.intersection(*map(_excludes, coefs[m]))
        if sender:
            guard, dropped = _fold(folds, 1, _excludes(sends, 1), [sends], sender[2], sender[3])
            read_here = all(hop == 1 for f in sends for *_, hop in f[1])
            loop = flat and read_here and flat(m, _product(sends, dropped, whole), sender[3])
            if not loop:
                inner, at_k = _fold(folds, 0, skip, products)
                value = _product(sends, dropped | at_k, whole)
                loop = ["for _k in adj[_l]:", *_indent(_guarded(inner, add(m, value, at_k)), 1)]
            guarded = _guarded(_nonzero(folds, sender, at[1], 1) + guard, loop)
            lines += [f"for _l in {sender[1]}:", *_indent(guarded, 1)]
        if receiver:
            guard, at_k = _fold(folds, 0, skip, products, receiver[2], receiver[3])
            if split:
                folds.append(("sum", 0, split[2]))
                loop = add(m, f"{split[1]} * {_degree('_k', split[2], column, receiver[3])}", at_k)
            else:
                inner, dropped = _fold(folds, 1, _excludes(factors, 1), [factors])
                value = _product(factors, at_k | dropped, msg)
                # every edge from a sender is summed already
                unsent = [f"not ({sender[0]}[_l])"] if sender else []
                loop = ["_a = 0", "for _l in adj[_k]:"]
                loop += [*_indent(_guarded(unsent + inner, [f"_a += {value}"]), 1)]
                loop += add(m, "_a", at_k)
            guarded = _guarded(_nonzero(folds, receiver, at[0], 0) + guard, loop)
            lines += [f"for _k in {receiver[1]}:", *_indent(guarded, 1)]
    return lines


def _nonzero(folds, end, read, hop: int) -> list:
    """The test that a loop over the list of a read, ``end`` as ``column``
    gives it, runs only where the read is nonzero: none where the read is a
    label that its list makes 1, which folds (``_fold``) unless ``folds`` is
    None."""
    var, key = read
    if folds is not None and var == "L" and key in end[3]:
        folds.append(("one", hop, frozenset({key})))
        return []
    return [f"{end[0]}[{('_k', '_l')[hop]}]"]


def _only_excludes(factors: tuple) -> bool:
    """Whether every factor of a product is an exclusion factor at the node."""
    return all(x and x[1:] == (0, False) for _, _, x, _ in factors)


def _unit(step: _Step, s: int, nodes, columns, sums: dict, column, buffered: bool, folds):
    """One unit of step ``s`` (``_layout``) as Python lines, with the
    columns they store and the message buffers they use: over the node
    list ``nodes``, a (name, the one-node identifiers whose node it never
    holds, the labels 1 on it), column c goes to ``O<s>_<c>``, or, for each
    column in ``sums``, is added to each readout sum ``_r<x>`` that
    ``sums[c]`` lists as (x, the index of its weight label or None).
    ``buffered``: the step scatters its messages into buffers first, but a
    stored ``coef * Msg(m)`` column, coef only exclusion factors, that alone
    reads m, takes m's scatter in its own buffer, then 0 at the nodes coef
    excludes.  ``column(var, key)`` gives the name and the node list of a
    read, the one-node identifiers at whose node the read is 0, and the
    labels 1 on its list.  ``folds`` collects the unit's folds (``_fold``);
    None folds nothing."""

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
            sent.setdefault(m, []).append((c, coef))

        def add(m, value, dropped):
            return _adds(value, [t for c, f in sent[m] for t in terms(c, _product(f, dropped))])

        def flat(m, value, ones):
            # unweighted, times a coef of exclusions: times its receivers' count
            weighted = any(w is not None for c, _ in sent[m] for _, w in sums[c])
            if weighted or not all(_only_excludes(f) for _, f in sent[m]):
                return None
            folds.extend(("flat", 1, _excludes(f)) for _, f in sent[m])
            degrees = [(_excludes(f), x) for c, f in sent[m] for x, _ in sums[c]]
            return _adds(value, [(f"_r{x}", _degree("_l", e, column, ones)) for e, x in degrees])

        coefs = {m: [coef for _, coef in cs] for m, cs in sent.items()}
        return _scatter(step, sorted(sent), column, add, coefs, folds, flat), [], []
    name, absent, ones = nodes
    outs = [f"O{s}_{c}" for c in columns if c not in sums]
    lines = []
    for c in columns if buffered and folds is not None else ():
        m, coef = step.linear[c] or (None, ())
        readers = sum(("M", m, None) in u[3] for u in step.updates)
        if c in sums or m is None or readers > 1 or not _only_excludes(coef):
            continue
        folds.append(("own", 0, _excludes(coef)))
        lines += _scatter(
            step, [m], column, lambda m, value, _: [f"O{s}_{c}[_k] += {value}"], {}, folds
        )
        lines += [f"O{s}_{c}[{v}] = 0" for x, v in _ONE_NODE.items() if x in _excludes(coef)]
        columns = [d for d in columns if d != c]
    if not columns:
        return lines, outs, []
    reads = _reads(step, columns)
    messages = sorted(r[1] for r in reads if r[0] == "M")
    products = [step.updates[c][4] for c in columns]
    skip = frozenset.intersection(*(_excludes(p) for p in products))
    pulled = [] if buffered else [step.messages[m][4] for m in messages]
    guard, dropped = _fold(folds, 0, skip, products + pulled, absent, ones)
    body = []
    for c in columns:
        value = _product(step.updates[c][4], dropped, step.updates[c][0])
        body += [f"O{s}_{c}[_k] = {value}"] if c not in sums else _adds(value, terms(c))
    if not buffered:
        body = _guarded(guard, _pull(step, reads, dropped, folds, column, ones) + body)
        return [f"for _k in {name}:", *_indent(body, 1)], outs, []
    lines += _scatter(
        step, messages, column, lambda m, value, _: [f"M{s}_{m}[_k] += {value}"], {}, folds
    )
    lines.append(f"for _k in {name}:")
    for m in messages:
        lines += [f"    _m{m} = M{s}_{m}[_k]", f"    M{s}_{m}[_k] = 0"]
    return lines + _indent(_guarded(guard, body), 1), outs, [f"M{s}_{m}" for m in messages]


def _indent(lines: list, depth: int) -> list:
    return [" " * (4 * depth) + x for x in lines]


def _generate(prog: MPProgram, layout: tuple, hops, readouts, hooked: bool):
    """The source lines of one kernel factory (``_kernel`` gives its
    arguments), the name they define, and per step the folds of its units
    (``_fold``), or None where nothing folds: in a kernel with a hook or
    without readouts."""
    steps = _steps(prog, layout)
    cuts = (None,) * len(steps)
    if readouts is not None:
        cuts = _radii(steps, hops, readouts, prog.name)[1]
    index = {name: i for i, name in enumerate(layout)}
    fusing = readouts is not None and not hooked
    units, slot, sums = _layout(steps, cuts, index, readouts if fusing else None)
    terms = [t for step_sums in sums for ts in step_sums.values() for t in ts]
    body, buffers, stored, shown, names, radii, folds = [], [], {}, [], {}, [-1], []
    # what a rooted kernel without a hook does once per root, before its
    # loop over the branches: node lists of the root alone, and the units
    # (``_layout``) computed once
    prelude, stored_once, once_summed = [], {}, set()

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
            made = [f" = set({bind(first)})"]
            if rest:
                one = bind(frozenset({first}))
                made = [f" = {one}.intersection({', '.join(map(bind, rest))})"]
        else:
            near, here = ([bind(x) for x in part] for part in spec[:2])
            if near:  # the neighbors of a union are the union of the neighbors
                base = near[0] if len(near) == 1 else f"{{{', '.join(f'*{x}' for x in near)}}}"
                made = [f" = set(_chain(map(_adj, {base})))"]
                made += [f".update({', '.join(here)})"] if here else []
            else:
                made = [f" = {{{', '.join(f'*{x}' for x in here)}}}" if here else " = set()"]
            made += [f" &= {bind(f'_B{spec[2]}')}"] if spec[2] is not None else []
        name = names[spec] = f"_N{len(names)}"
        out = prelude if fusing and _per_root(spec, index) else body
        out.extend(name + line for line in made)
        return name

    for s, step in enumerate(steps):

        def column(var, key, bound=True, s=s):
            if var == "H":
                # a column is 0 off its list and where its update excludes
                t, c = steps[s - 1].origins[key]
                absent, ones = _held(slot[t, c], layout)
                zeros = absent | _excludes(steps[t].updates[c][4])
                return f"H{key}", bound and bind(slot[t, c]), zeros, ones
            nodes = f"_U{index[key]}"
            return f"L{index[key]}", nodes, *_held(nodes, layout)

        def held(reads, s=s):
            """Lines that bind the state columns in ``reads`` as H<c>."""
            keys = sorted({r[1] for r in reads if r[0] == "H"})
            return ["H{} = O{}_{}".format(key, *steps[s - 1].origins[key]) for key in keys]

        body += held(step.reads) if any(not once for *_, once in units[s]) else []
        shown.append("()")
        folds.append([] if fusing else None)
        for nodes, columns, once in units[s]:
            name = nodes and bind(nodes)
            buffered = _scatters(step, cuts[s])
            lines, outs, used = _unit(
                step, s, nodes and (name, *_held(nodes, layout)), columns, sums[s], column,
                buffered, folds[s],
            )
            if once:
                prelude += held(_reads(step, columns)) + lines
                once_summed.update(x for c in columns for x, _ in sums[s].get(c, ()))
            else:
                body += lines
            buffers, shown[s] = buffers + outs + used, name
            # a loop over every node rewrites every node
            outs = outs if name != "_all" else []
            (stored_once if once else stored).setdefault(name, []).extend(outs)
    # the labels the kernel's lines read, exclusion factors folded away
    marked = [x for x in range(len(layout)) if any(f"L{x}[" in line for line in prelude + body)]
    states = "".join(
        f"(({''.join('O{}_{}, '.format(*o) for o in step.origins)}), {shown[s]}), "
        for s, step in enumerate(steps)
    )
    hook = ["if hook is not None:", f"    hook(j, ({states}))"]
    setup = ["n = len(adj)", "_all = range(n)", "_adj = adj.__getitem__"]
    # the degrees, where a closed-form neighbor sum reads them (``_degree``)
    degrees = ["_deg"] if any("_deg[" in line for line in prelude + body) else []
    setup += [f"{x} = list(map(len, adj))" for x in degrees]
    setup += [f"L{i} = labels[{layout[i]!r}]" for i in marked]
    setup += [f"{name} = [0] * n" for name in buffers]
    if readouts is None:
        lines = ["def _run(adj, labels, supports, hook):", *_indent(setup, 1)]
        if layout:
            lines.append(f"    {''.join(f'_U{i}, ' for i in range(len(layout)))}= supports")
        final = "".join("O{}_{}, ".format(*o) for o in steps[-1].origins)
        lines += _indent(["j = None", *body, *hook, f"return ({final})"], 1)
        return lines, "_run", folds

    def supports(per_branch):
        items = _IDENTIFIERS.items()
        return [
            f"_U{index[x]} = {nodes}" for x, (_, nodes, each) in items
            if each == per_branch and (hooked or f"_U{index[x]}" in text)
        ]

    def mark(per_branch, value):
        return [
            line
            for i in marked if (layout[i] in _BRANCH_LABELS) == per_branch
            for line in (f"for _k in {_IDENTIFIERS[layout[i]][1]}:", f"    L{i}[_k] = {value}")
        ]

    summed = {x for x, _ in terms}
    last = steps[-1].origins
    row = "".join(
        f"_r{x}, " if x in summed else "sum(map({}.__getitem__, {})), ".format(
            "O{}_{}".format(*last[r.component]),
            bind(slot[last[r.component]]) if r.weight is None else f"_U{index[r.weight]}",
        )
        for x, r in enumerate(readouts)
    )
    # the identifiers' lists the lines of a kernel without a hook read
    text = "\n".join([*prelude, *body, row])
    balls = [f"_B{d}" for d in range(max(radii) + 1)]
    root = ([f"nonlocal {', '.join(balls)}", "_B0 = {i}"] if balls else []) + mark(False, 1)
    for d in range(1, len(balls)):
        frontier = "adj[i]" if d == 1 else f"_chain(map(_adj, _B{d - 1} - _B{d - 2}))"
        root.append(f"_B{d} = _B{d - 1}.union({frontier})")

    def start(xs):
        return [f"{''.join(f'_r{x} = ' for x in sorted(xs))}0"] if xs else []

    def reset(stored):
        return [
            line
            for nodes, outs in stored.items() if outs
            for line in (f"for _k in {nodes}:", *(f"    {o}[_k] = 0" for o in outs))
        ]

    subgraph = [*start(summed - once_summed), *body, f"_rows.append(({row}))"]
    subgraph += [*(hook if hooked else []), *reset(stored)]
    # one branch per neighbor of the root for a plan that reads a branch label
    read = {r[1] for step in steps for r in step.reads if r[0] == "L"}
    branching = bool((read | {r.weight for r in readouts}) & _BRANCH_LABELS)
    kernel = ["_rows = []", *supports(False), *start(once_summed), *prelude]
    kernel.append(f"for j in {'adj[i]' if branching else '(None,)'}:")
    branch = supports(True) if branching else []
    kernel += _indent(branch + mark(True, 1) + subgraph + mark(True, 0), 1)
    kernel += [*reset(stored_once), *mark(False, 0), "return _rows"]
    # the kernel takes what it reads as defaults, so its loops read locals
    bound = ", ".join(
        f"{x}={x}"
        for x in ["adj", "_adj", "_all", *degrees, *(["hook"] if hooked else [])]
        + [*(f"L{i}" for i in marked), *buffers]
    )
    lines = ["def _make(adj, labels, hook):", *_indent(setup, 1)]
    lines += [f"    {x} = None" for x in balls]
    lines += ["    def _root(i):", *_indent(root or ["pass"], 2)]
    lines += [f"    def _kernel(i, {bound}):", *_indent(kernel, 2)]
    lines.append("    return _root, _kernel")
    return lines, "_make", folds


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
    ``hook`` gets).  A readout weight outside ``_IDENTIFIERS`` raises
    MissingLabelError.
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
        self.root, self.kernel = make(adjacency, labels, hook)

    def rows(self, i: int) -> list[tuple[int, ...]]:
        self.root(i)
        return self.kernel(i)


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
