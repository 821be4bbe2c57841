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
  root's ball, a radius-2 cut intersects its list with the ball unless the
  list lies within it already (N(N(i))), and an uncut step with one source,
  read at the node, takes that source's list.  ``_root`` builds only the
  balls some line reads.

Readouts are summed where they are computed, in a kernel without a hook
(``_layout``).  A column that no later step reads is not stored: each
readout of it is a running sum that the loop computing the column adds to,
and a column that nothing reads is not computed.  A cut step that stores
nothing and sums only readouts weighted by one label, whose reach lies
within the cut, computes only at that label's nodes, where the weight is 1
(cycle3).  A step that stores nothing, scatters, and sums only ``coef *
Msg(m)`` columns sends them: each message value, times coef at its
receiver, goes straight into the sum as it is sent or pulled, with no node
set, message buffer or final loop (path2).  Any other step computes each
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
own list, or a meet that holds it.  So does a column whose update is only
exclusion factors and such labels, computed over its own list: where a
loop over that list reads it, it is its exclusion factors (``_known``), and
a column read nowhere else is not stored (path4's init, 1 on N(j) but at
i).  A kernel marks only the labels its lines still read, and binds
only the identifiers' lists, columns and defaults they read.  A skipped
node keeps the 0 the loop's reset left there: no kernel without a hook
loops over every node, whose columns are not reset, as a step without a
witness is cut to the root's ball.

Closed-form neighbor sums, in a kernel without a hook (``_split``,
``_transpose``).  A message ``F * (g - h)``, F only exclusion factors at
the sender, g reading only the sender and h only the receiver, sums at a
receiver k to ``sum_l F(l) g(l) - h(k) c_F(k)``; ``c_F(k) = deg(k) -
sum_{x in F} in_n_x(k)`` counts k's neighbors that F keeps, exact because
the graph is simple and i != j.  So h's part needs no loop over k's
neighbors, and F drops where g's read is 0 (the last messages of path3,
path4 and cycle6 but cycle6's second, whose F also reads ``in_n_root``).
Rule T sums the sender part transposed: ``sum_k w(k) E(k) sum_{l in N(k)}
g(l) = sum_l g(l) Omega_E(l)``, with ``Omega_E(l) = Omega(l) - sum_{x in
E} w(x) in_n_x(l)`` and ``Omega(l) = sum_{k in N(l)} w(k)`` (``_omega``),
for a readout term whose coefficient E is only exclusion factors and whose
weight w is 1, a root label, or a column computed once per root that
multiplies the summed column (cycle6's first readout, which its column's
step then takes).  The weight-1 case is c_E(l), with nothing stored; any
other weight's Omega is scattered from its list once per root, before the
branch loop, and paid back as each branch reads it, so T applies only to
columns that depend on the branch, and in a cut step only where w's nodes
lie within the cut.  Rule P pushes a per-sender sum ``sum_l X(l)
Omega_E(l)`` of a column ``X = coef * Msg(m)``, coef only exclusions and
m's value read once at its sender, into the loop over m's senders s and
their neighbors l, adding ``m(s) Omega_E(l)`` where coef(l) is not 0,
but not past a cut of X that Omega_E reaches beyond.  X is then not stored
where nothing else reads it (the middle columns of path3, path4 and
cycle5); where something does, its scatter into its own buffer adds the
sum too (cycle6's layer 2).  A stored ``coef * Msg(m)`` column of a
scattering step, coef only exclusion factors, that alone reads m, takes
m's scatter in its own buffer, then 0 at the nodes coef excludes.

``tests/test_engine.py`` freezes what these rules give each counting plan:
its cuts (``_PLAN_RADII``), scatters (``_PLAN_SCATTERS``), readout sums
(``_PLAN_FUSED``), node lists (``_PLAN_NODES``), folds, closed-form sums
and rules T and P (``_PLAN_FOLDS``) and kernel sources (``_KERNEL_MD5``).
CHANGES.md holds the measurements behind the rules.
"""

from __future__ import annotations

import math
import re
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
    mark (``_mark``) and, for a ``Sub``, the (Python source, reads, factors)
    of each operand, else None; an ``e`` that is no ``Mul`` is one factor.  Adds
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
        sides = tuple((p[0], r, p[3]) for p, r in zip(parts, each)) if kind is Sub else None
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
    of ``-h`` or ``h``, the identifiers F excludes, (the sign of g, the
    factors of g, the factors of h)); else None.  Summed over a receiver's
    neighbors, the message is the sum of the first part plus the second
    times ``_omega`` of the third (module docstring)."""
    rest = [f for f in factors if not (f[2] and f[2][1:] == (1, False))]
    if len(rest) != 1 or rest[0][3] is None:
        return None
    (_, _, _, sides), = rest
    hops = [{hop for *_, hop in reads} for _, reads, _ in sides]
    if hops not in ([{1}, {0}], [{0}, {1}]):
        return None
    (g, reads, gf), (h, _, hf) = sides if hops[0] == {1} else sides[::-1]
    sign = "-" if hops[0] == {0} else ""
    excluded = tuple(f for f in factors if f is not rest[0])
    sent = (*excluded, (sign + g, reads, None, None))
    return sent, "-"[:not sign] + h, _excludes(factors, 1), (sign, gf, hf)


def _label_at(label: str, x: str) -> int:
    """A label's value at the node of the one-node identifier x: the root
    and the branching node are distinct and adjacent."""
    nodes, node = _IDENTIFIERS[label][1], _ONE_NODE[x]
    return int(nodes == f"({node},)" or nodes.startswith("adj[") and nodes != f"adj[{node}]")


def _omega(var: str, base: str, at, excluded, column, ones) -> str:
    """The Python source of Omega_F at node ``var`` (module docstring):
    ``base[var]``, the sum of a weight over the node's neighbors, less the
    weight at the node of each one-node identifier in ``excluded`` times
    the label that marks that node's neighbors, which is 1 where ``ones``
    (the labels 1 at every node of the loop) holds it.  ``at(x)`` gives the
    weight at x's node: 0, 1 or a Python source.  With base ``_deg`` and
    weight 1 it counts the node's neighbors that ``excluded`` keeps.
    ``column`` names the labels."""
    terms, known = [f"{base}[{var}]"], 0
    for x in _ONE_NODE:
        value = at(x) if x in excluded else 0
        label = _AROUND[x]
        if value == 1 and label in ones:
            known += 1
        elif value:
            read = "" if label in ones else f"{column('L', label)[0]}[{var}]"
            terms.append(" * ".join(str(v) for v in (value, read) if v != 1 and v))
    terms += [str(known)] if known else []
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
    here, near = (tuple(sorted(x, key=repr)) for x in lists)
    if names is not None and cut is not None and _spread((near, here, None), names) <= cut:
        cut = None
    return here[0] if len(here) == 1 and not near and cut is None else (near, here, cut)


@dataclass
class _Moves:
    """Rules T and P of one kernel without a hook (``_transpose``).
    ``trans`` maps a column to the (readout, weight) pairs whose receiver
    part the loop computing it adds, the read its receiver part lies in,
    and whether the column is read for nothing else; ``sums`` maps a
    (step, message) to the (readout, weight, exclusions) of the per-sender
    sums of its sender part, and whether nothing else reads that message;
    ``push`` maps a column X to the (readout, weight, exclusions, exclusions
    at X's nodes) of the per-sender sums pushed into its senders' loop, and
    whether X is still stored; ``moved`` holds the (step, message) pairs
    whose sums were pushed; ``gone`` the columns whose readouts another
    step's column takes.  A weight is None (1), a root label, or the (step,
    column) of a column computed once per root."""

    trans: dict
    sums: dict
    push: dict
    moved: set
    gone: set


def _layout(steps, cuts, index, readouts, moves=None) -> tuple[list, dict, list]:
    """The plan of a kernel (module docstring): per step, its units
    ``(nodes, columns, once)`` and its readout terms ``{c: [(x, w)]}``, and
    each computed column's node list, off which it is 0.  ``readouts`` is
    None for a kernel that keeps whole states; ``moves`` (``_transpose``)
    applies rules T and P.

    A unit loops over the node list ``nodes`` to compute ``columns``, or,
    with ``nodes`` None, sends them (``_scatter``); with ``once`` it runs
    once per root, before the branch loop.  Column c is added, where it is
    computed, to each readout x, times the label w (None: 1), or, for a
    column pushed by rule P, times Omega_F of w = (weight, exclusions) at
    its node.  A node list is one ``_nodes`` gives, or a frozenset of
    labels' lists: their intersection.
    """
    moves = moves or _Moves({}, {}, {}, set(), set())
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
    terms: list = []
    own: list = []
    for s, (step, cut) in enumerate(zip(steps, cuts)):

        def where(var, key, s=s):
            return slot[steps[s - 1].origins[key]] if var == "H" else f"_U{index[key]}"

        whole = readouts is None or _scatters(step, cut)
        computed = [
            c for c, src in enumerate(step.copies) if src is None and (s, c) not in moves.gone
        ]
        pushed = [c for c in computed if (s, c) in moves.push and not moves.push[s, c][1]]
        stored = [
            c for c in computed if (readouts is None or (s, c) in read) and c not in pushed
        ]
        sums = {c: out[s, c] for c in computed if c not in stored + pushed and (s, c) in out}
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
        sent += pushed
        step_terms = {
            c: [(x, None if label else readouts[x].weight) for x in xs]
            for c, xs in sums.items() if (s, c) not in moves.trans
        }
        for c in pushed:
            step_terms[c] = [(x, (w, e)) for x, w, e, _ in moves.push[s, c][0]]
        terms.append(step_terms)
        lists = {}
        for c in computed:
            witness = step.updates[c][2]
            lists[c] = slot[s, c] = _nodes(step.sources if whole else witness, cut, where, names)
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
                and (s, c) not in moves.trans
                and not (labels | {r[1] for r in reads if r[0] == "L"}) & _BRANCH_LABELS
                and all(steps[s - 1].origins[r[1]] in once for r in reads if r[0] == "H")
            ):
                once.add((s, c))
        # a column of rule T lies where its receiver part is nonzero
        receivers = {c: where(*moves.trans[s, c][1]) for c in computed if (s, c) in moves.trans}
        lists = {
            c: f"_U{index[label]}" if label else receivers[c] if c in receivers and c not in stored
            else lists[c]
            for c in computed if c not in sent and (c in stored or c in sums)
        }
        # the stored columns a pulling step may narrow to their demand
        own.append(([] if whole else stored, lists, sent, receivers))
    units: list = [[] for _ in steps]
    for s in reversed(range(len(steps))):
        narrow, lists, sent, receivers = own[s]
        for c in narrow:
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


def _plan(steps, cuts, index, readouts) -> tuple:
    """The plan of a kernel without a hook: ``_layout``'s, with rules T and
    P (``_transpose``) read off a first layout, and their ``_Moves``."""
    first = _layout(steps, cuts, index, readouts)
    units, _, terms = first
    once = {(s, c) for s, step in enumerate(units) for _, cs, o in step if o for c in cs}
    moves = _transpose(steps, cuts, readouts, units, terms, once)
    if any(vars(moves).values()):
        first = _layout(steps, cuts, index, readouts, moves)
    return (*first, moves)


def _bare(factor, hop: int):
    """The state index a factor reads when it is a bare read at ``hop``
    (``H<c>[_k]`` or ``H<c>[_l]``), else None."""
    py, reads, _, _ = factor
    if len(reads) == 1:
        ((var, key, at),) = reads
        if var == "H" and at == hop and py == f"H{key}[{('_k', '_l')[hop]}]":
            return key
    return None


def _transpose(steps, cuts, readouts, units, terms, once) -> _Moves:
    """Rules T and P (module docstring), read off a kernel's first layout
    (``_layout``): ``once`` holds the columns it computes once per root."""
    branchy: set = set()  # the columns that depend on the branch
    for s, step in enumerate(steps):
        for c, src in enumerate(step.copies):
            reads = _reads(step, [c]) if src is None else set()
            if {r[1] for r in reads if r[0] == "L"} & _BRANCH_LABELS or any(
                steps[s - 1].origins[r[1]] in branchy for r in reads if r[0] == "H"
            ):
                branchy.add((s, c))
    moves = _Moves({}, {}, {}, set(), set())

    def reach(w, excluded=None) -> float:
        """How far from the root weight w, or with ``excluded`` its
        Omega_F, can be nonzero."""
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

    def weights(s, c, xs, sent: bool):
        """The weights of column c's readouts ``xs`` under rule T, or None
        where one cannot be: a weight must read the root alone, and, unless
        1, a column that depends on the branch, so that its Omega is paid
        once per root; in a cut step, every node where the weight is nonzero
        lies within the cut, unless the step sends c."""
        out = []
        for x in xs:
            w = readouts[x].weight
            if w is None and not sent and cuts[s] is not None:
                return None
            if w is not None and (
                w in _BRANCH_LABELS or (s, c) not in branchy
                or cuts[s] is not None and not sent and reach(w) > cuts[s]
            ):
                return None
            out.append((x, w))
        return out

    def receiver(split) -> tuple:
        return min(r for f in split[3][2] for r in f[1])[:2]

    for s, step in enumerate(steps):

        def readers(m, step=step) -> int:
            return sum(("M", m, None) in u[3] for u in step.updates)

        sent: dict = {}
        for nodes, columns, _ in units[s]:
            for c in columns if nodes is None else ():
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
                moves.sums[s, m] = (group, readers(m) == len(columns))
        for c, xs in terms[s].items():
            if any(c in columns for columns in sent.values()):
                continue
            m, coef = step.linear[c] or (None, ())
            split = m is not None and _split(step.messages[m][4])
            ws = weights(s, c, [x for x, _ in xs], False)
            if (
                split and ws is not None and readers(m) == 1 and _only_excludes(coef)
                and not _scatters(step, cuts[s]) and (s, c) not in once
            ):
                moves.trans[s, c] = (ws, receiver(split), True)
                moves.sums[s, m] = ([(x, w, _excludes(coef)) for x, w in ws], True)
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
            lin = steps[t].linear[d]
            split = lin and _split(steps[t].messages[lin[0]][4])
            if (
                split and _only_excludes(lin[1]) and (t, d) in branchy
                and not _scatters(steps[t], cuts[t]) and (t, d) not in moves.trans
                and all(cut is None or reach(w) <= cut for cut in (cuts[s], cuts[t]))
            ):
                moves.gone.add((s, c))
                moves.trans[t, d] = ([(x, w) for x, _ in xs], receiver(split), False)
                group = [(x, w, _excludes(lin[1])) for x, _ in xs]
                moves.sums.setdefault((t, lin[0]), ([], False))[0].extend(group)
    # rule P: a per-sender sum of a column X = coef * Msg(m) goes into the
    # loop over m's senders
    out = {steps[-1].origins[r.component] for r in readouts}
    for (s, m), (group, alone) in sorted(moves.sums.items()):
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
            uses = {
                (u, kind, e, hop)
                for u in range(t + 1, len(steps))
                for kind, exprs in (("m", steps[u].messages), ("u", steps[u].updates))
                for e, expr in enumerate(exprs)
                if kind == "m" or steps[u].copies[e] is None
                for var, k, hop in expr[3] if var == "H" and steps[u - 1].origins[k] == x_col
            }
            mine = sum(("M", lin[0], None) in u[3] for u in steps[t].updates) == 1
            one = message[2] is not None and [r[2] for r in message[2]] == [1]
            fits = cuts[t] is None or all(reach(w, e) <= cuts[t] for _, w, e in group)
            shut = _excludes(sends, 1)
            entries = [(x, w, e, shut) for x, w, e in group]
            if mine and one and fits and all(r[2] == 1 for r in message[3]):
                if alone and uses == {(s, "m", m, 1)}:
                    moves.push[x_col] = (entries, False)
                elif _scatters(steps[t], cuts[t]) and shut <= _excludes(lin[1]):
                    moves.push.setdefault(x_col, ([], True))[0].extend(entries)
                else:
                    lin = None
                if lin:
                    moves.moved.add((s, m))
    for key in moves.moved:
        del moves.sums[key]
    return moves


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
        (f"{name} -= {value[1:]}" if value.startswith("-") else f"{name} += {value}")
        if f is None else f"{name} += {f if value == '1' else f'{f} * {value}'}"
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


def _times(*factors) -> str | None:
    """The product of the factors that are not None, or None."""
    return " * ".join(f for f in factors if f is not None) or None


def _exclusion(x: str, hop: int, column) -> tuple:
    """The factor ``1 - x`` of the one-node identifier x at ``hop``, as
    ``_visit`` gives it."""
    read = f"{column('L', x, False)[0]}[{('_k', '_l')[hop]}]"
    return f"(1 - {read})", frozenset({("L", x, hop)}), (x, hop, False), None


def _known(factors: tuple, hop: int, ones, column, folds) -> tuple:
    """``factors`` with each bare read at ``hop`` of a column that is 1 on
    the loop's node list (``ones`` holds its name) replaced by the exclusion
    factors of the nodes its update excludes (module docstring), each
    recorded as ("one", hop, its name) in ``folds``."""
    out = []
    for f in factors:
        key = _bare(f, hop)
        if key is None or f"H{key}" not in ones:
            out.append(f)
            continue
        folds.append(("one", hop, frozenset({f"H{key}"})))
        out += [_exclusion(x, hop, column) for x in _ONE_NODE if x in column("H", key, False)[4]]
    return tuple(out)


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
    return [f"if {' and '.join(dict.fromkeys(conditions))}:", *_indent(lines, 1)]


def _receiver_part(split, here, dropped, ones, column) -> str:
    """The Python source of a ``_split`` message's receiver part at ``_k``:
    ``-h`` or ``h`` times the count of ``_k``'s neighbors that its sender
    factors keep, h's factors ``here`` (``_known``) without those that
    ``dropped`` holds."""
    h = _product(here, dropped) or "1"
    degree = _omega("_k", "_deg", lambda x: 1, split[2], column, ones)
    return "-"[:not split[3][0]] + (degree if h == "1" else f"{h} * {degree}")


def _pull(step: _Step, reads: set, dropped: set, folds, column, ones, early=None, bare=()):
    """Loop-body lines that sum each message in ``reads`` over the
    neighbors of ``_k`` into ``_m<m>``, without the factors ``dropped``.  A
    message ``_split`` splits starts from its receiver part
    (``_receiver_part``; ``ones``: the labels 1 at ``_k``), and sums its
    sender part, whose factors that exclude a node where its sender-side
    read is 0 drop; ``column`` is ``_unit``'s.  ``early`` maps a message to
    the readout terms (``_adds``) its receiver part is added to first (rule
    T); a message in ``bare`` sums no sender part, as nothing else reads
    it."""
    early = early or {}
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
        factors, _, excluded, _ = split
        folds.append(("sum", 0, excluded))
        at = [(var, key) for var, key, hop in witness or () if hop == 1]
        zeros = column(*at[0], False)[2] if len(at) == 1 else frozenset()
        _, own = _fold(folds, 1, frozenset(), [factors], zeros)
        factors = tuple(f for f in factors if f[2] not in own)
        here = _known(split[3][2], 0, ones, column, folds)
        parts.append((_receiver_part(split, here, dropped, ones, column), factors, None))
    lines = []
    for m, (start, *_) in zip(messages, parts):
        adds = early.get(m)
        if m in bare:
            lines += _adds(start, adds)
        else:
            lines += [f"_m{m} = {start}", *_adds(f"_m{m}", adds or [])]
    summed = [(m, p) for m, p in zip(messages, parts) if m not in bare]
    if not summed:
        return lines
    skip = frozenset.intersection(*(_excludes(f, 1) for _, (_, f, _) in summed))
    guard, more = _fold(folds, 1, skip, [f for _, (_, f, _) in summed])
    sums = [f"_m{m} += {_product(f, dropped | more, whole)}" for m, (_, f, whole) in summed]
    lines.append("for _l in adj[_k]:")
    return lines + _indent(_guarded(guard, sums), 1)


def _scatter(
    step: _Step, sent, column, add, coefs: dict, folds, flat=None, moved=(), receive=True
) -> list:
    """Lines that add each message ``m`` in ``sent`` from the nodes where the
    sender-side read of its witness is nonzero, at each of their neighbors,
    and then pull it at the nodes where the receiver-side read is nonzero,
    from the neighbors not sent from; ``add(m, value, dropped, ones)`` gives
    the lines that add one value of message m at node ``_k``, times each
    coef in ``coefs.get(m)`` without its factors ``dropped``.  A message
    ``_split`` splits sends its sender part, and adds its receiver part
    (``_receiver_part``) at each node where that read is nonzero, with no
    loop over its neighbors.  ``flat(m, value, ones)``, unless None, gives
    the lines that add a value read only at its sender ``_l`` once for all
    its receivers (rule T), or None where it cannot.  The messages in
    ``moved`` send nothing (rule P); without ``receive``, none is pulled."""
    lines = []
    for m in sent:
        msg, _, witness, _, factors = step.messages[m]
        at = {hop: (var, key) for var, key, hop in witness}
        receiver = column(*at[0], receive) if 0 in at else None
        sender = column(*at[1], m not in moved) if 1 in at else None
        split = folds is not None and _split(factors)
        sends, whole = (split[0], None) if split else (factors, msg)
        # a value added at _k is 0 where the message is or every coef is
        products = [sends, *coefs.get(m, ())]
        skip = _excludes(sends)
        if coefs.get(m):
            skip |= frozenset.intersection(*map(_excludes, coefs[m]))
        if sender and m not in moved:
            known = _known(sends, 1, sender[3], column, folds)
            sends, whole = known, whole if known == sends else None
            guard, dropped = _fold(folds, 1, _excludes(sends, 1), [sends], sender[2], sender[3])
            read_here = all(hop == 1 for f in sends for *_, hop in f[1])
            value = _product(sends, dropped, whole) or "1"
            loop = flat and read_here and flat(m, value, sender[3])
            if not loop:
                inner, at_k = _fold(folds, 0, skip, products)
                value = _product(sends, dropped | at_k, whole) or "1"
                loop = add(m, value, at_k)
                loop = ["for _k in adj[_l]:", *_indent(_guarded(inner, loop), 1)]
            guarded = _guarded(_nonzero(folds, sender, at[1], 1) + guard, loop)
            lines += [f"for _l in {sender[1]}:", *_indent(guarded, 1)]
        if receiver and receive:
            if split:
                # h is 0 where it reads a column 1 on the list but at the nodes it excludes
                here = _known(split[3][2], 0, receiver[3], column, folds)
                skip |= _excludes(here)
                products.append(here)
            guard, at_k = _fold(folds, 0, skip, products, receiver[2], receiver[3])
            if split:
                folds.append(("sum", 0, split[2]))
                value = _receiver_part(split, here, at_k, receiver[3], column)
                loop = add(m, value, at_k, receiver[3])
            else:
                inner, dropped = _fold(folds, 1, _excludes(factors, 1), [factors])
                value = _product(factors, at_k | dropped, msg)
                # every edge from a sender is summed already
                unsent = [f"not ({sender[0]}[_l])"] if sender else []
                loop = ["_a = 0", "for _l in adj[_k]:"]
                loop += [*_indent(_guarded(unsent + inner, [f"_a += {value}"]), 1)]
                loop += add(m, "_a", at_k, receiver[3])
            guarded = _guarded(_nonzero(folds, receiver, at[0], 0) + guard, loop)
            lines += [f"for _k in {receiver[1]}:", *_indent(guarded, 1)]
    return lines


def _nonzero(folds, end, read, hop: int) -> list:
    """The test that a loop over the list of a read, ``end`` as ``column``
    gives it, runs only where the read is nonzero: none where the read is a
    label that its list makes 1, and only the nodes it excludes where it is
    a column 1 on its list, which fold (``_fold``; ``_known`` records a
    column's) unless ``folds`` is None."""
    var, key = read
    if folds is not None and var == "L" and key in end[3]:
        folds.append(("one", hop, frozenset({key})))
        return []
    if folds is not None and f"H{key}" in end[3]:
        v = ("_k", "_l")[hop]
        return [f"{v} != {node}" for x, node in _ONE_NODE.items() if x in end[4]]
    return [f"{end[0]}[{('_k', '_l')[hop]}]"]


def _only_excludes(factors: tuple) -> bool:
    """Whether every factor of a product is an exclusion factor at the node."""
    return all(x and x[1:] == (0, False) for _, _, x, _ in factors)


def _unit(step: _Step, s: int, nodes, columns, sums, column, buffered: bool, folds, moves, weight):
    """One unit of step ``s`` (``_layout``) as Python lines, with the
    columns they store and the message buffers they use: over the node
    list ``nodes``, a (name, the one-node identifiers whose node it never
    holds, the labels 1 on it and the columns 1 on it but where their
    updates exclude), column c goes to ``O<s>_<c>``, or, for each column in
    ``sums``, is added to each readout sum ``_r<x>`` that ``sums[c]`` lists
    as (x, its weight label or None, or Omega_F's (weight, exclusions) for a
    column of rule P).
    ``buffered``: the step scatters its messages into buffers first, but a
    stored ``coef * Msg(m)`` column, coef only exclusion factors, that alone
    reads m, takes m's scatter in its own buffer, then 0 at the nodes coef
    excludes.  ``column(var, key)`` gives the name and the node list of a
    read, the one-node identifiers at whose node the read is 0, the labels
    (and the column itself, for a column 1 on its list) 1 on its list, and
    the identifiers its update excludes.  ``folds`` collects the unit's
    folds (``_fold``); None folds nothing.  ``moves`` (``_Moves``) applies
    rules T and P, with ``weight(var, w, excluded, ones)`` the Python source
    of Omega_F of weight w at node ``var`` (``_omega``)."""

    def terms(xs, coef=None, ones=frozenset()):
        """(sum, factor) per readout in xs: coef times the weight."""
        out = []
        for x, w in xs:
            if type(w) is tuple:
                w = weight("_k", *w, ones)
            elif w is not None:
                w = None if w in ones else f"{column('L', w)[0]}[_k]"
            out.append((f"_r{x}", _times(coef, w)))
        return out

    def extended(coef, shut):
        """coef times the exclusion factors of ``shut`` it lacks."""
        return coef + tuple(_exclusion(x, 0, column) for x in _ONE_NODE if x in shut - _excludes(coef))

    def pushed(c, coef):
        """The (coef, readout terms) of each per-sender sum rule P pushes
        into column c's loop."""
        entries = moves.push[s, c][0] if (s, c) in moves.push else []
        if entries:
            folds.append(("push", 0, frozenset().union(*(e for *_, e in entries))))
        for _, w, e, _ in entries:
            folds.append(("flat", 0, e) if w is None else ("omega", 0, (w, e)))
        return [(extended(coef, shut), [(x, (w, e))]) for x, w, e, shut in entries]

    def flat(m, value, ones):
        # rule T: a value read only at its sender, times its Omega_F
        group = moves.sums.get((s, m))
        if not group:
            return None
        for _, w, e in group[0]:
            folds.append(("flat", 1, e) if w is None else ("omega", 1, (w, e)))
        return _adds(value, [(f"_r{x}", weight("_l", w, e, ones)) for x, w, e in group[0]])

    if nodes is None:
        sent: dict = {}
        for c in columns:
            m, coef = step.linear[c]
            if (s, c) in moves.push:
                sent.setdefault(m, []).extend(pushed(c, coef))
            else:
                sent.setdefault(m, []).append((coef, sums[c]))

        def add(m, value, dropped, ones=frozenset()):
            adds = [t for f, xs in sent[m] for t in terms(xs, _product(f, dropped), ones)]
            return _adds(value, adds)

        coefs = {m: [coef for coef, _ in cs] for m, cs in sent.items()}
        moved = {m for m in sent if (s, m) in moves.moved}
        return _scatter(step, sorted(sent), column, add, coefs, folds, flat, moved), [], []
    name, absent, ones = nodes
    trans = {c: moves.trans[s, c] for c in columns if (s, c) in moves.trans}
    only = {c for c, (*_, alone) in trans.items() if alone}
    outs = [f"O{s}_{c}" for c in columns if c not in sums and c not in only]
    lines = []
    for c in columns if buffered and folds is not None else ():
        m, coef = step.linear[c] or (None, ())
        readers = sum(("M", m, None) in u[3] for u in step.updates)
        if c in sums or m is None or readers > 1 or not _only_excludes(coef):
            continue
        folds.append(("own", 0, _excludes(coef)))
        into = pushed(c, coef)

        def add(m, value, _, ones=frozenset(), c=c, into=into):
            sums = [t for f, xs in into for t in terms(xs, _product(f, _), ones)]
            return [f"O{s}_{c}[_k] += {value}", *_adds(value, sums)]

        lines += _scatter(step, [m], column, add, {m: [f for f, _ in into]} if into else {}, folds)
        # a pushed sum's guard skips the nodes coef excludes already
        lines += [
            f"O{s}_{c}[{v}] = 0" for x, v in _ONE_NODE.items() if x in _excludes(coef) and not into
        ]
        columns = [d for d in columns if d != c]
    if not columns:
        return lines, outs, []
    reads = _reads(step, columns)
    messages = sorted(r[1] for r in reads if r[0] == "M")
    products = [_known(step.updates[c][4], 0, ones, column, folds) for c in columns]

    def zeros(product):
        """The identifiers at whose node a product is 0: its exclusions,
        and where a column it reads bare is 0."""
        keys = [k for k in map(lambda f: _bare(f, 0), product) if k is not None]
        return _excludes(product).union(*(column("H", k, False)[2] for k in keys))

    skip = frozenset.intersection(*map(zeros, products))
    skip &= frozenset().union(*map(_excludes, products))
    pulled = [] if buffered else [step.messages[m][4] for m in messages]
    guard, dropped = _fold(folds, 0, skip, products + pulled, absent, ones)
    body = []
    for c, product in zip(columns, products):
        if c in only:
            continue
        whole = step.updates[c][0] if product == step.updates[c][4] else None
        value = _product(product, dropped, whole) or "1"
        body += (
            [f"O{s}_{c}[_k] = {value}"] if c not in sums else _adds(value, terms(sums[c], None, ones))
        )
    if not buffered:
        # rule T: a column's receiver part, times the weight at the node
        early: dict = {}
        for c, (xs, _, _) in trans.items():
            m, coef = step.linear[c]
            coef = _product(coef, dropped)
            for x, w in xs:
                at = None if w is None or w in ones else (
                    f"{column('L', w)[0]}[_k]" if type(w) is str else "O{}_{}[_k]".format(*w)
                )
                early.setdefault(m, []).append((f"_r{x}", _times(coef, at)))
        bare = {step.linear[c][0] for c in only}
        pull = _pull(step, reads, dropped, folds, column, ones, early, bare)
        body = _guarded(guard, pull + body)
        lines = [f"for _k in {name}:", *_indent(body, 1)]
        # and its sender part, summed per sender where rule P did not push it
        for m in sorted({step.linear[c][0] for c in trans}):
            if (s, m) in moves.sums:
                lines += _scatter(step, [m], column, None, {}, folds, flat, receive=False)
        return lines, outs, []
    lines += _scatter(
        step, messages, column, lambda m, value, *_: [f"M{s}_{m}[_k] += {value}"], {}, folds
    )
    lines.append(f"for _k in {name}:")
    for m in messages:
        lines += [f"    _m{m} = M{s}_{m}[_k]", f"    M{s}_{m}[_k] = 0"]
    return lines + _indent(_guarded(guard, body), 1), outs, [f"M{s}_{m}" for m in messages]


def _indent(lines: list, depth: int) -> list:
    return [" " * (4 * depth) + x for x in lines]


def _generate(
    prog: MPProgram, layout: tuple, hops, readouts, hooked: bool, unstored=frozenset(), plan=None
):
    """The source lines of one kernel factory (``_kernel`` gives its
    arguments), the name they define, and per step the folds of its units
    (``_fold``), or None where nothing folds: in a kernel with a hook or
    without readouts.  The columns in ``unstored`` are 1 on their lists
    and read nowhere else, so they are not computed; ``plan`` is what a
    first call found of the plan."""
    fusing = readouts is not None and not hooked
    if plan is None:
        steps = _steps(prog, layout)
        cuts = (None,) * len(steps)
        if readouts is not None:
            cuts = _radii(steps, hops, readouts, prog.name)[1]
        index = {name: i for i, name in enumerate(layout)}
        moves, known = _Moves({}, {}, {}, set(), set()), {}
        if fusing:
            units, slot, sums, moves = _plan(steps, cuts, index, readouts)
            # the stored columns 1 on their node list but where their update
            # excludes
            for t, step_units in enumerate(units):
                for nodes, columns, _ in step_units:
                    ones = nodes is not None and _held(nodes, layout)[1]
                    known.update(
                        ((t, c), nodes) for c in columns if ones and slot[t, c] == nodes
                        and c not in sums[t] and (t, c) not in moves.trans
                        and all(
                            x and (x[1:] == (0, False) or x[1:] == (0, True) and x[0] in ones)
                            for _, _, x, _ in steps[t].updates[c][4]
                        )
                    )
        else:
            units, slot, sums = _layout(steps, cuts, index, None)
        plan = steps, cuts, index, moves, known, units, slot, sums
    steps, cuts, index, moves, known, units, slot, sums = plan
    terms = [t for step_sums in sums for ts in step_sums.values() for t in ts]
    body, buffers, stored, shown, names, radii, folds = [], [], {}, [], {}, [-1], []
    # what a rooted kernel without a hook does once per root, before its
    # loop over the branches: node lists of the root alone, and the units
    # (``_layout``) computed once
    prelude, stored_once, once_summed = [], {}, set()
    lines_of: list = []  # per step, the lines its units read from
    omegas: dict = {}  # per weight of rule T, the buffer of its Omega

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

    def weight(var, w, excluded, ones):
        """Omega_F of weight w at node ``var`` (``_unit``)."""
        if w is None:
            return _omega(var, "_deg", lambda x: 1, excluded, column, ones)
        base = omegas.setdefault(w, f"W{len(omegas)}")
        if type(w) is str:
            return _omega(var, base, lambda x: _label_at(w, x), excluded, column, ones)
        zeros = _held(slot[w], layout)[0] | _excludes(steps[w[0]].updates[w[1]][4])

        def at(x):
            return 0 if x in zeros else "O{}_{}[{}]".format(*w, _ONE_NODE[x])

        return _omega(var, base, at, excluded, column, ones)

    for s, step in enumerate(steps):

        def column(var, key, bound=True, s=s):
            if var == "H":
                # a column is 0 off its list and where its update excludes
                t, c = steps[s - 1].origins[key]
                absent, ones = _held(slot[t, c], layout)
                own = _excludes(steps[t].updates[c][4])
                ones |= {f"H{key}"} if (t, c) in known else set()
                return f"H{key}", bound and bind(slot[t, c]), absent | own, ones, own
            nodes = f"_U{index[key]}"
            return f"L{index[key]}", nodes, *_held(nodes, layout), frozenset()

        def held(reads, s=s):
            """Lines that bind the state columns in ``reads`` as H<c>."""
            keys = sorted({r[1] for r in reads if r[0] == "H"})
            return ["H{} = O{}_{}".format(key, *steps[s - 1].origins[key]) for key in keys]

        def used(lines):
            """Lines that bind the state columns ``lines`` read."""
            keys = re.findall(r"\bH(\d+)\[", "\n".join(lines))
            return held({("H", int(key)) for key in keys})

        if not fusing:
            body += held(step.reads) if any(not once for *_, once in units[s]) else []
        shown.append("()")
        folds.append([] if fusing else None)
        lines_of.append([])
        step_body = []
        for nodes, columns, once in units[s]:
            columns = [c for c in columns if (s, c) not in unstored]
            if not columns:
                continue
            name = nodes and bind(nodes)
            buffered = _scatters(step, cuts[s])
            absent, ones = _held(nodes, layout) if nodes else (frozenset(), frozenset())
            ones |= {
                f"H{k}" for k, o in enumerate(steps[s - 1].origins if s else ())
                if nodes and known.get(o) == nodes
            }
            lines, outs, used_buffers = _unit(
                step, s, nodes and (name, absent, ones), columns, sums[s], column,
                buffered, folds[s], moves, weight,
            )
            lines_of[s] += lines
            if once:
                prelude += (used(lines) if fusing else held(_reads(step, columns))) + lines
                once_summed.update(x for c in columns for x, _ in sums[s].get(c, ()))
            elif fusing:
                step_body += lines
            else:
                body += lines
            buffers, shown[s] = buffers + outs + used_buffers, name
            # a loop over every node rewrites every node
            outs = outs if name != "_all" else []
            (stored_once if once else stored).setdefault(name, []).extend(outs)
        body += used(step_body) + step_body
    # rule T's Omega of each weight, scattered from the weight's list once
    # per root, and zeroed after the branches
    spread, unspread = [], []
    for w, base in omegas.items():
        nodes, value = (f"_U{index[w]}", "1") if type(w) is str else (
            bind(slot[w]), "O{}_{}[_l]".format(*w)
        )
        loop = ["for _k in adj[_l]:", f"    {base}[_k] += {value}"]
        spread += [f"for _l in {nodes}:", *_indent(_guarded([value] * (value != "1"), loop), 1)]
        unspread += [f"for _l in {nodes}:", "    for _k in adj[_l]:", f"        {base}[_k] = 0"]
        buffers.append(base)
    prelude += spread
    # the labels the kernel's lines read, exclusion factors folded away
    marked = [x for x in range(len(layout)) if any(f"L{x}[" in line for line in prelude + body)]
    states = "".join(
        f"(({''.join('O{}_{}, '.format(*o) for o in step.origins)}), {shown[s]}), "
        for s, step in enumerate(steps)
    )
    hook = ["if hook is not None:", f"    hook(j, ({states}))"]
    # a kernel with a hook, or without readouts, takes every shared name
    made = {"_all": "range(n)", "_adj": "adj.__getitem__", "_deg": "list(map(len, adj))"}
    keep = {"_all", "_adj"} if hooked or readouts is None else set()

    def shared(text):
        """The shared names that ``text`` reads."""
        return [x for x in made if x in keep or re.search(rf"\b{x}\b", text)]

    def setup(text):
        """The factory's lines before its functions, for lines ``text``."""
        return [
            "n = len(adj)", *(f"{x} = {made[x]}" for x in shared(text)),
            *(f"L{i} = labels[{layout[i]!r}]" for i in marked),
            *(f"{name} = [0] * n" for name in buffers),
        ]

    if readouts is None:
        lines = ["def _run(adj, labels, supports, hook):", *_indent(setup("\n".join(body)), 1)]
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

    summed = {x for x, _ in terms} | {x for xs, *_ in moves.trans.values() for x, _ in xs}
    last = steps[-1].origins
    row = "".join(
        f"_r{x}, " if x in summed else "sum(map({}.__getitem__, {})), ".format(
            "O{}_{}".format(*last[r.component]),
            bind(slot[last[r.component]]) if r.weight is None else f"_U{index[r.weight]}",
        )
        for x, r in enumerate(readouts)
    )
    # a column 1 on its list that no line reads elsewhere is not stored
    if fusing and not unstored:
        text = "\n".join([*prelude, row])
        unread = frozenset(
            (t, c) for t, c in known
            if not re.search(rf"\bO{t}_{c}\b(?!\[_k\] = )", "\n".join([text, *body]))
            and not any(
                re.search(rf"\bH{k}\[", "\n".join(lines_of[u]))
                for u in range(t + 1, len(steps))
                for k, o in enumerate(steps[u - 1].origins) if o == (t, c)
            )
        )
        if unread:
            return _generate(prog, layout, hops, readouts, hooked, unread, plan)
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
    kernel += [*unspread, *reset(stored_once), *mark(False, 0), "return _rows"]
    # the kernel takes what it reads as defaults, so its loops read locals
    text = shared("\n".join(kernel))
    bound = ", ".join(
        f"{x}={x}"
        for x in ["adj", *sorted(text, key=("_adj", "_all", "_deg").index)]
        + [*(["hook"] if hooked else []), *(f"L{i}" for i in marked), *buffers]
    )
    lines = ["def _make(adj, labels, hook):", *_indent(setup("\n".join(kernel + root)), 1)]
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
