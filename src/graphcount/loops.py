"""Loop fusion on the statement form of ``engine``'s kernels.

``engine``'s module docstring, under "Fusion", states the rules (a)-(f)
and their conditions.  A statement is a loop ``("for", var, list, body)``,
a guard ``("if", conditions, body)``, a store ``("set", target, op,
code)``, a readout sum ``("add", code, terms)`` or a node set's build
``("line", lines, name, reads)``.  A code (``program._read``) is a Python
expression as a template and the record of each read it makes, a (name,
subscript or None) pair, in the template's order; a store's target, and
each read of a node set's build, is such a pair too.  The functions here
read and rewrite statements by those records alone, never by their source:
``_touches`` gives what a statement reads and writes, ``_merge`` fuses
sibling loops over one list, ``_regroup`` tests shared guards once,
``_demote`` makes a column a loop local and ``_rename`` maps records.
"""

from __future__ import annotations

from itertools import compress
from typing import Mapping

from .program import _ABSENT, _ONE_NODE, _read, _text


def _over(nodes, lists: Mapping) -> tuple:
    """The code of a loop's node list: a code, or the read of a name, of
    the name ``lists`` binds a node set to, or of an unbound node set."""
    nodes = lists.get(nodes, nodes)
    return nodes if type(nodes) is tuple and len(nodes) == 2 else _read(nodes)


def _touches(stmts: list, lists: Mapping, conds: tuple = ()) -> list:
    """Each access of ``stmts``, in the order they run: (name, subscript or
    None, "r" read, "w" store, "t" store of a loop temporary, a name
    without a subscript, or "+" readout sum, the guards around it)."""
    out: list = []

    def read(code):
        out.extend((*r, "r", conds) for r in code[1])

    for kind, *args in stmts:
        if kind == "for":
            read(_over(args[1], lists))
            out += _touches(args[2], lists, conds)
        elif kind == "if":
            for code in args[0]:
                read(code)
            out += _touches(args[1], lists, conds + tuple(args[0]))
        elif kind == "set":
            read(args[2])
            store = "wt"[args[0][1] is None]
            out += [(*args[0], mode, conds) for mode in ("r", store)[args[1] == "=":]]
        elif kind == "add":  # the value is read once per sum
            for x, w in args[1]:
                for code in [args[0], w] if w else [args[0]]:
                    read(code)
                out.append((x, None, "+", conds))
        else:  # a node set's build
            out += [(*r, "r", conds) for r in args[2]] + [(args[1], None, "w", conds)]
    return out


def _modes(touches, temps: bool) -> dict:
    """The names ``touches`` reads, stores and sums, by mode, a temporary's
    store as a store; loop temporaries only with ``temps``."""
    out: dict = {"r": set(), "w": set(), "+": set()}
    local = set() if temps else {name for name, _, mode, _ in touches if mode == "t"}
    for name, _, mode, _ in touches:
        if name not in local:
            out["w" if mode == "t" else mode].add(name)
    return out


def _conflict(a, b, temps: bool) -> bool:
    """Whether two statements, by their ``_touches``, must keep their order:
    one stores what the other reads, stores or sums, or sums what it reads."""
    a, b = _modes(a, temps), _modes(b, temps)
    return bool(
        a["w"] & (b["r"] | b["w"] | b["+"]) or b["w"] & (a["r"] | a["+"])
        or a["+"] & b["r"] or b["+"] & a["r"]
    )


def _unequal(var: str, x: str) -> tuple:
    """The guard that ``var`` is not the node of the one-node identifier x."""
    return f"{var} != {_ONE_NODE[x]}", ()


def _implied(conds, layout) -> set:
    """The guards a loop's guards imply: a label's read, the nodes its list
    never holds."""
    out = set(conds)
    labels = {f"L{i}": x for i, x in enumerate(layout)}
    for py, reads in conds:
        if py == "{}" and reads[0][0] in labels:
            ((name, var),) = reads
            out |= {_unequal(var, x) for x in _ABSENT.get(labels[name], ())}
    return out


def _rename(stmts: list, new: Mapping) -> list:
    """``stmts`` with each read and store target in ``new``, a (name,
    subscript) pair, made its value."""
    if not new:
        return stmts

    def code(c):
        return c and (c[0], tuple(new.get(r, r) for r in c[1]))

    out = []
    for kind, *args in stmts:
        if kind == "for":
            args[2] = _rename(args[2], new)
        elif kind == "if":
            args = [[code(c) for c in args[0]], _rename(args[1], new)]
        elif kind == "set":
            args = [new.get(args[0], args[0]), args[1], code(args[2])]
        elif kind == "add":
            args = [code(args[0]), [(x, w and code(w)) for x, w in args[1]]]
        if kind != "set" or args[2] != _read(*args[0]):  # a copy into itself goes
            out.append((kind, *args))
    return out


def _along(loop, nodes, layout):
    """``loop`` walking ``nodes``: itself, or, for a loop over a meet of
    labels' lists that holds ``nodes``, a loop over ``nodes`` guarded by the
    other labels (rule d); else None."""
    var, meet = loop[1], loop[2]
    if meet == nodes:
        return loop
    if type(meet) is not frozenset or nodes not in meet:
        return None
    conds = [_read(f"L{x[2:]}", var) for x in sorted(meet - {nodes})]
    return "for", var, nodes, [("if", conds, loop[3])]


def _regroup(body: list, lists, layout, sink: bool = False) -> list:
    """A fused loop's body with the guards its parts share tested once, each
    other guard as an inner ``if`` (rule a).  With ``sink``, a part that only
    sets temporaries takes the guards shared by every later part that reads
    them, and sibling loops over one list merge (rule b)."""

    def parts(stmts, conds):
        for st in stmts:
            yield from parts(st[2], conds + st[1]) if st[0] == "if" else [(conds, [st])]

    blocks = list(parts(body, []))
    # a guard moves only where nothing in the body changes what it reads
    written = _modes(_touches(body, lists), True)["w"]
    fixed = {c for conds, _ in blocks for c in conds if not {name for name, _ in c[1]} & written}
    if sink:
        for n in reversed(range(len(blocks))):
            touched = _touches(blocks[n][1], lists)
            if any(x[2] in "w+" for x in touched):
                continue
            made = {x[0] for x in touched if x[2] == "t"}
            readers = [
                _implied(c, layout) for c, b in blocks[n + 1:]
                if _modes(_touches(b, lists), True)["r"] & made
            ]
            extra = (set.intersection(*readers) & fixed) - set(blocks[n][0]) if readers else ()
            blocks[n] = (blocks[n][0] + sorted(extra, key=_text), blocks[n][1])
    closures = [_implied(c, layout) for c, _ in blocks]
    first = dict.fromkeys(c for conds, _ in blocks for c in conds)
    shared = [c for c in first if c in fixed and all(c in x for x in closures)]
    inner: list = []
    for conds, stmts in blocks:
        rest = [c for c in conds if c not in shared]
        if inner and inner[-1][0] == rest:
            inner[-1][1].extend(stmts)
        else:
            inner.append((rest, list(stmts)))
    out = []
    for rest, stmts in inner:
        stmts = _merge(stmts, lists, layout, False) if sink else stmts
        out += [("if", rest, stmts)] if rest else stmts
    return [("if", shared, out)]


def _merge(stmts: list, lists, layout, top: bool) -> list:
    """``stmts`` with each loop fused into the nearest earlier loop over
    the same node list it can join (rules a, b and d): what one stores and
    the other reaches, it reaches only at the loop's node, and no statement
    in between must run after the first loop and before the second.  Those
    the second needs move before the fused loop.  ``top``: statements of a
    kernel's branch, whose loops share no temporary."""
    out: list = []
    for st in stmts:
        for p in reversed(range(len(out)) if st[0] == "for" and (st[1] == "_k" or not top) else ()):
            prev = out[p]
            if prev[0] != "for" or prev[1] != st[1]:
                continue
            a, b = prev, _along(st, prev[2], layout)
            if b is None:
                a, b = _along(prev, st[2], layout), st
            if a is None:
                continue
            if top:  # the second loop's temporaries get names of their own
                mine, theirs = ({x[0] for x in _touches([y], lists) if x[2] == "t"} for y in (a, b))
                free = ((f"_m{n}", None) for n in range(99) if f"_m{n}" not in mine | theirs)
                b = _rename([b], dict(zip(((x, None) for x in sorted(theirs & mine)), free)))[0]
            ta, tb = _touches([a], lists), _touches([b], lists)
            wa, wb = _modes(ta, not top)["w"], _modes(tb, not top)["w"]
            near = (wa & {x[0] for x in tb}) | (wb & {x[0] for x in ta})
            if any(x[1] != st[1] for x in ta + tb if x[0] in near):
                continue
            between = [_touches([x], lists) for x in out[p + 1:]]
            n = len(between)
            after = [False] * n  # what must run after the first loop
            for q in range(n):
                after[q] = _conflict(ta, between[q], not top) or any(
                    after[r] and _conflict(between[r], between[q], not top) for r in range(q)
                )
            before = [False] * n  # and what before the second
            for q in reversed(range(n)):
                before[q] = _conflict(between[q], tb, not top) or any(
                    before[r] and _conflict(between[q], between[r], not top)
                    for r in range(q + 1, n)
                )
            if any(map(min, after, before)):
                continue
            loop = "for", a[1], a[2], _regroup(a[3] + b[3], lists, layout, not top)
            stay = [not x for x in before]
            out = [*out[:p], *compress(out[p + 1:], before), loop, *compress(out[p + 1:], stay)]
            break
        else:
            out.append(st)
    return out


def _demote(body: list, lists, layout, outside: set) -> tuple[list, set]:
    """Rule c on a branch's statements: a column stored and read only at
    the node of one loop, once, before any read, is a local of that loop;
    ``outside`` holds the names read elsewhere.  Returns the statements and
    the columns demoted."""
    demoted: set = set()
    for n, loop in enumerate(body):
        if loop[0] != "for" or loop[1] != "_k":
            continue
        touched = _touches([loop], lists)
        others = {x[0] for st in body if st is not loop for x in _touches([st], lists)}
        for name in sorted({x[0] for x in touched if x[0][0] == "O" and x[2] == "w"}):
            mine = [(p, x) for p, x in enumerate(touched) if x[0] == name]
            (at, store), *reads = mine
            if name in outside | others or store[2] != "w" or any(
                x[1] != "_k" or x[2] != "r" or not _implied(store[3], layout) <= _implied(x[3], layout)
                for _, x in reads
            ):
                continue
            value = next(code for target, code in _stored(loop[3]) if target == (name, "_k"))
            # a name without a subscript that is not set again is the local itself
            later = {x[0] for x in touched[at + 1:] if x[2] == "t"}
            bare = value[0] == "{}" and value[1][0][1] is None and value[1][0][0] not in later
            local = value[1][0] if bare else ("_o" + name[1:], None)
            body[n] = loop = _rename([loop], {(name, "_k"): local})[0]
            touched = _touches([loop], lists)
            demoted.add(name)
    return body, demoted


def _stored(stmts):
    """The (target, code) of each store of ``stmts``."""
    for kind, *args in stmts:
        if kind == "set":
            yield args[0], args[2]
        elif kind in ("for", "if"):
            yield from _stored(args[-1])
