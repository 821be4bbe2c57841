"""Loop fusion on the statement form of ``engine``'s kernels.

``engine``'s module docstring, under "Fusion", states the rules (a)-(f)
and their conditions.  A statement is a loop ``("for", var, list, body)``,
a guard ``("if", conditions, body)``, a store ``("set", target, op,
code)``, a readout sum ``("add", code, terms)`` or a node set's build
``("line", lines, name, reads)``; a code is a Python expression and what it
reads.  The functions here read and rewrite such lists: ``_touches`` gives
what a statement reads and writes, ``_merge`` fuses sibling loops over one
list, ``_regroup`` tests shared guards once, ``_demote`` makes a column a
loop local and ``_rename`` rewrites names.
"""

from __future__ import annotations

import re
from itertools import compress
from keyword import iskeyword
from typing import Mapping

from .program import _ABSENT, _ONE_NODE

# Fusion (module docstring): a name, with its subscript if it has one, and
# the loop temporaries, which no statement reads before it sets them
_WORD = re.compile(r"([A-Za-z_]\w*)(?:\[(\w+)\])?")
_TEMP = re.compile(r"_m\d+$|_a$|_o\d+_\d+$")


def _touches(stmts: list, lists: Mapping, conds: tuple = ()) -> list:
    """Each access of ``stmts``, in the order they run: (name, subscript or
    None, "r" read, "w" store or "+" readout sum, the guards around it)."""
    out: list = []

    def read(py):
        out.extend((m[1], m[2], "r", conds) for m in _WORD.finditer(py) if not iskeyword(m[1]))

    for kind, *args in stmts:
        if kind == "for":
            name = lists.get(args[1], args[1])
            read(name if type(name) is str else "")
            out += _touches(args[2], lists, conds)
        elif kind == "if":
            for py, _ in args[0]:
                read(py)
            out += _touches(args[1], lists, conds + tuple(py for py, _ in args[0]))
        elif kind == "set":
            read(args[2][0])
            target = _WORD.match(args[0])
            out += [(*target.groups(), mode, conds) for mode in "rw"[args[1] == "=":]]
        elif kind == "add":
            for py in [args[0][0], *(w[0] for _, w in args[1] if w)]:
                read(py)
            out += [(x, None, "+", conds) for x, _ in args[1]]
        else:  # a node set's build
            out += [(x, None, "r", conds) for x in args[2]] + [(args[1], None, "w", conds)]
    return out


def _modes(touches, temps: bool) -> dict:
    """The names ``touches`` reads, stores and sums, by mode; loop
    temporaries only with ``temps``."""
    out: dict = {"r": set(), "w": set(), "+": set()}
    for name, _, mode, _ in touches:
        if temps or not _TEMP.match(name):
            out[mode].add(name)
    return out


def _conflict(a, b, temps: bool) -> bool:
    """Whether two statements, by their ``_touches``, must keep their order:
    one stores what the other reads, stores or sums, or sums what it reads."""
    a, b = _modes(a, temps), _modes(b, temps)
    return bool(
        a["w"] & (b["r"] | b["w"] | b["+"]) or b["w"] & (a["r"] | a["+"])
        or a["+"] & b["r"] or b["+"] & a["r"]
    )


def _implied(conds, layout) -> set:
    """The guards a loop's guards imply: a label's read, the nodes its list
    never holds."""
    out = set(conds)
    for py in conds:
        m = re.fullmatch(r"L(\d+)\[(\w+)\]", py)
        out |= {f"{m[2]} != {_ONE_NODE[x]}" for x in _ABSENT.get(layout[int(m[1])], ())} if m else set()
    return out


def _rename(stmts: list, new: Mapping) -> list:
    """``stmts`` with each name, or subscripted read, in ``new`` written as
    its value."""
    if not new:
        return stmts
    pattern = re.compile("|".join(rf"\b{re.escape(x)}(?!\w)" for x in sorted(new, key=len)[::-1]))

    def code(c):
        return c and (
            pattern.sub(lambda m: new[m[0]], c[0]),
            frozenset(new.get(f"H{r[1]}" if r[0] == "H" else r, r) for r in c[1]),
        )

    out = []
    for kind, *args in stmts:
        if kind == "for":
            args[2] = _rename(args[2], new)
        elif kind == "if":
            args = [[code(c) for c in args[0]], _rename(args[1], new)]
        elif kind == "set":
            args = [pattern.sub(lambda m: new[m[0]], args[0]), args[1], code(args[2])]
        elif kind == "add":
            args = [code(args[0]), [(x, w and code(w)) for x, w in args[1]]]
        if kind != "set" or args[0] != args[2][0]:  # a copy into itself goes
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
    conds = [(f"L{x[2:]}[{var}]", frozenset({f"L{x[2:]}"})) for x in sorted(meet - {nodes})]
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
    fixed = {py for conds, _ in blocks for py, _ in conds if not {
        m[1] for m in _WORD.finditer(py)} & written}
    if sink:
        for n in reversed(range(len(blocks))):
            touched = _touches(blocks[n][1], lists)
            sets = _modes(touched, True)
            if sets["+"] or not all(_TEMP.match(x) for x in sets["w"]):
                continue
            readers = [
                _implied([py for py, _ in c], layout) for c, b in blocks[n + 1:]
                if _modes(_touches(b, lists), True)["r"] & sets["w"]
            ]
            have = {py for py, _ in blocks[n][0]}
            extra = (set.intersection(*readers) & fixed) - have if readers else ()
            blocks[n] = (blocks[n][0] + [(py, frozenset()) for py in sorted(extra)], blocks[n][1])
    closures = [_implied([py for py, _ in c], layout) for c, _ in blocks]
    first = {c[0]: c for conds, _ in blocks for c in conds}
    shared = [c for py, c in first.items() if py in fixed and all(py in x for x in closures)]
    inner: list = []
    for conds, stmts in blocks:
        rest = [c for c in conds if c[0] not in {py for py, _ in shared}]
        if inner and inner[-1][0] == [py for py, _ in rest]:
            inner[-1][2].extend(stmts)
        else:
            inner.append(([py for py, _ in rest], rest, list(stmts)))
    out = []
    for _, rest, stmts in inner:
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
                mine, theirs = ({x for x, *_ in _touches([y], lists) if _TEMP.match(x)} for y in (a, b))
                free = (f"_m{n}" for n in range(99) if f"_m{n}" not in mine | theirs)
                b = _rename([b], dict(zip(sorted(theirs & mine), free)))[0] if theirs & mine else b
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
            value = next(v for v in _stored(loop[3]) if v[0] == f"{name}[_k]")[1][0]
            # a temporary set for the last time is the local itself
            later = any(x[0] == value and x[2] == "w" for x in touched[at + 1:])
            local = value if _TEMP.match(value) and not later else "_o" + name[1:]
            body[n] = loop = _rename([loop], {f"{name}[_k]": local})[0]
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
