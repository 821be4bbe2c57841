"""Explicit message-passing counting programs with exact integer readouts.

``KIND_SPECS`` is the plan table: per kind, a program (see ``engine``), a
subgraph radius, readouts, a combine step, and a graph divisor.  Programs
that read only the root's identifiers, run on one ego-network per node,
cover 2- and 3-paths, triangles, 4-cycles, tailed triangles and the closed
walks; those that read the branching neighbor's, on one per (root,
neighbor) pair, cover 4-paths, 5-/6-cycles, chordal 4-cycles, 4-cliques and
triangle-rectangles.  One executor,
``engine.RootedRun``, runs every plan and ``count_walks`` root by root on
the parent graph itself, with one call of the plan's generated kernel per
root: no subgraph is extracted, and the radius bounds which nodes each step
computes.
All divisions are exact integer divisions with remainder checks, and every
kind has an independent brute-force twin in ``oracle.TWINS`` that returns
the same ``CountReport``.

Hop requirements: each plan declares the smallest subgraph radius that makes
it exact, and runs at it by default.  Larger radii never change results.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn, Sequence

# run, run_program, apply_readout, extract_rooted, with_branching and
# identity_labeled_graph are not called here, but perfbench's tracer wraps
# them by their names on this module.
from .engine import (
    Const,
    Layer,
    LNbr,
    LSelf,
    MPProgram,
    Msg,
    Nbr,
    Readout,
    RootedRun,
    Self,
    apply_readout,
    exact_div,
    run,
    run_program,
)
from .extraction import (
    extract_rooted,
    identity_labeled_graph,
    with_branching,
)
from .graph import Graph, load_graph
from .oracle import CountReport, PatternCounts


class InsufficientHopsError(ValueError):
    """Raised when a counting program is asked to run below its minimum radius."""

    def __init__(self, kind: str, hops: int, minimum: int):
        super().__init__(f"{kind} needs subgraph radius >= {minimum}, got {hops}")
        self.kind = kind
        self.hops = hops
        self.minimum = minimum


class WorkerError(RuntimeError):
    """Raised when a worker process ends without returning its share of roots."""

    def __init__(self, pid: int, status: int):
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        super().__init__(f"worker process {pid} ended without a result ({how})")


# ---------------------------------------------------------------------------
# Program definitions.  Masks like (1 - is_root) implement the "node k != i"
# indicators; neighborhood indicators come precomputed in the labels.
# ---------------------------------------------------------------------------

_NOT_ROOT = Const(1) - LSelf("is_root")
_NOT_BRANCH = Const(1) - LSelf("is_branch")
_MASK_IJ = _NOT_ROOT * _NOT_BRANCH
_NBR_NOT_ROOT = Const(1) - LNbr("is_root")
_NBR_NOT_BRANCH = Const(1) - LNbr("is_branch")

# Per-root program: component 0 ends as the number of 2-paths root -> k.
PROG_P2 = MPProgram(
    name="two-paths-from-root",
    init=(),
    layers=(Layer(message=(LNbr("in_n_root"),), update=(_NOT_ROOT * Msg(0),)),),
)

# Per-root program: component 0 ends as the number of 3-paths root -> k.
# The correction removes walks that revisit the endpoint as their second
# node; root senders are skipped so the removal count matches exactly.
PROG_P3 = MPProgram(
    name="three-paths-from-root",
    init=(LSelf("in_n_root"),),
    layers=(
        Layer(
            message=(LNbr("in_n_root"),),
            update=(Self(0), _NOT_ROOT * Msg(0)),
        ),
        Layer(
            message=(_NBR_NOT_ROOT * (Nbr(1) - Self(0)),),
            update=(_NOT_ROOT * Msg(0),),
        ),
    ),
)

# Pair program: component 0 ends as the number of 4-paths root -> branching
# -> .. -> k (equivalently 3-paths from the branching node avoiding the root).
PROG_P4 = MPProgram(
    name="four-paths-root-branch",
    init=(_NOT_ROOT * LSelf("in_n_branch"),),
    layers=(
        Layer(message=(Nbr(0),), update=(Self(0), _MASK_IJ * Msg(0))),
        Layer(
            message=(_NBR_NOT_ROOT * _NBR_NOT_BRANCH * (Nbr(1) - Self(0)),),
            update=(_MASK_IJ * Msg(0),),
        ),
    ),
)

# Pair program for triangle-rectangles: gate the 4-path table on endpoints
# that close both the triangle (k adjacent to root) and the rectangle
# (k adjacent to branching node).
PROG_TRIANGLE_RECTANGLE = MPProgram(
    name="triangle-rectangle",
    init=PROG_P4.init,
    layers=PROG_P4.layers
    + (
        Layer(
            message=(),
            update=(Self(0) * LSelf("in_n_root") * LSelf("in_n_branch"),),
        ),
    ),
)

# Pair program: common neighbors of (root, branching) that see another common
# neighbor; summing and dividing by 6 counts 4-cliques at the root.
PROG_CLIQUE4 = MPProgram(
    name="four-cliques",
    init=(LSelf("in_n_root") * LSelf("in_n_branch"),),
    layers=(Layer(message=(Nbr(0),), update=(Self(0) * Msg(0),)),),
)

# Pair program: nodes adjacent to the branching node that see a common
# neighbor of (root, branching); counts chordal 4-cycles with the root at an
# off-chord position.
PROG_CHORDAL = MPProgram(
    name="chordal-cycles",
    init=(LSelf("in_n_root") * LSelf("in_n_branch"),),
    layers=(
        Layer(
            message=(Nbr(0),),
            update=(_NOT_ROOT * LSelf("in_n_branch") * Msg(0),),
        ),
    ),
)

# Merged pair program for the 6-cycle decomposition.  Final components:
#   o0 = P4(root->branch->..->k) * P2(root,k)          (pattern 0 integrand)
#   o1 = 4-paths whose second-last node neighbors root (pattern 1 integrand)
#   o2 = P4 gated on k adjacent to branching node      (pattern 3 integrand)
#   o3 = common-neighbor indicator (sums to triangles on the root edge)
#   o4, o5 = bowtie product terms combined per pair in the cycle6 runner; o5,
#        sum_{l in N(i)&N(j)} (|N(l)&N(j)| - 1), is also the pattern 4
#        integrand (each chordal cycle is seen twice)
# o5 equals sum_{k in N(j)\i} |N(k)&N(i)&N(j)|: both count the pairs (k, l)
# with l in N(i)&N(j) and k in N(l)&N(j)\i, as i lies in every N(l)&N(j).
PROG_CYCLE6 = MPProgram(
    name="six-cycle-patterns",
    init=(
        _NOT_ROOT * LSelf("in_n_branch"),
        LSelf("in_n_root") * LSelf("in_n_branch"),
    ),
    layers=(
        Layer(
            message=(LNbr("in_n_root"), LNbr("in_n_branch")),
            update=(Self(0), Self(1), _NOT_ROOT * Msg(0), Msg(1)),
        ),
        Layer(
            message=(Nbr(0),),
            update=(Self(0), Self(1), Self(2), Self(3), _MASK_IJ * Msg(0)),
        ),
        Layer(
            message=(
                _NBR_NOT_ROOT * _NBR_NOT_BRANCH * (Nbr(4) - Self(0)),
                _NBR_NOT_ROOT
                * _NBR_NOT_BRANCH
                * LNbr("in_n_root")
                * (Nbr(4) - Self(0)),
            ),
            update=(
                _MASK_IJ * Msg(0),
                _MASK_IJ * Msg(1),
                Self(2),
                Self(3),
                Self(1),
            ),
        ),
        Layer(
            message=(),
            update=(
                Self(0) * Self(2),
                Self(1),
                Self(0) * LSelf("in_n_branch"),
                Self(4),
                LSelf("in_n_branch") * _NOT_ROOT * (Self(3) - LSelf("in_n_root")),
                Self(4) * (Self(3) - Const(1)),
            ),
        ),
    ),
)

_SUM = (Readout(0),)
_SUM_OVER_N_ROOT = (Readout(0, weight="in_n_root"),)
_AT_ROOT = (Readout(0, weight="is_root"),)
_CYCLE6_READOUTS = tuple(Readout(c) for c in range(6))


def _walk_program(length: int) -> MPProgram:
    """Component 0 of node k ends as the number of length-L walks root -> k."""
    layer = Layer(message=(Nbr(0),), update=(Msg(0),))
    return MPProgram(
        name=f"walks-{length}",
        init=(LSelf("is_root"),),
        layers=(layer,) * length,
    )


# ---------------------------------------------------------------------------
# Combine steps: each turns one root's readout rows (one row per subgraph of
# its bag) into the root's output tuple, node count first.
# ---------------------------------------------------------------------------


def _summed(divisor: int):
    """The bag's summed first readout, divided exactly by ``divisor``."""
    return lambda rows: (exact_div(sum(row[0] for row in rows), divisor),)


def _tailed(rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The tailed triangles at a root i, (deg(i) - 2) * t(i) with t(i) the
    triangles at i: its one row holds the closed 2-walks at i, deg(i), and
    the 2-walks from i to its neighbors, 2 * t(i)."""
    ((degree, twice),) = rows
    return ((degree - 2) * exact_div(twice, 2),)


def _cycle6_patterns(rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The 6-cycle decomposition: (c6, p0, p1, p2, p3, p4) for one root.
    The last readout, o5, serves twice: it corrects the bowtie terms, and
    its sum is twice pattern 4."""
    a0 = a1 = a3 = a5 = bowtie = 0
    for n0, n1, n3, cn, xv, yv in rows:
        a0 += n0
        a1 += n1
        a3 += n3
        a5 += yv
        bowtie += cn * xv - yv
    p4 = exact_div(a5, 2)
    p2 = bowtie - 2 * p4
    closed = a0 - a1 - p2 - a3
    if closed < 0:
        raise ArithmeticError(f"negative 6-cycle pattern balance: {closed}")
    return (exact_div(closed, 2), a0, a1, p2, a3, p4)


# ---------------------------------------------------------------------------
# Plan table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KindSpec:
    """How one kind is counted.

    ``program`` runs on the bag of subgraphs of radius ``hops`` (the
    smallest that is exact, and the default) that ``engine.RootedRun``
    derives from the identifiers it reads.  Each subgraph yields a row of
    ``readouts``; ``combine`` maps a root's rows to its count, followed by
    the 6-cycle pattern counts when ``patterns`` is set.
    The graph count is the node-count sum divided by ``graph_divisor``.
    """

    program: MPProgram
    hops: int
    readouts: tuple[Readout, ...]
    combine: Callable[[list[tuple[int, ...]]], tuple[int, ...]]
    graph_divisor: int
    patterns: bool = False


KIND_SPECS: dict[str, KindSpec] = {
    "path2": KindSpec(PROG_P2, 2, _SUM, _summed(1), 2),
    "path3": KindSpec(PROG_P3, 3, _SUM, _summed(1), 2),
    "path4": KindSpec(PROG_P4, 4, _SUM, _summed(1), 2),
    "cycle3": KindSpec(PROG_P2, 1, _SUM_OVER_N_ROOT, _summed(2), 3),
    "cycle4": KindSpec(PROG_P3, 2, _SUM_OVER_N_ROOT, _summed(2), 4),
    "cycle5": KindSpec(PROG_P4, 2, _SUM_OVER_N_ROOT, _summed(2), 5),
    "cycle6": KindSpec(PROG_CYCLE6, 3, _CYCLE6_READOUTS, _cycle6_patterns, 6, True),
    "tailed_triangle": KindSpec(_walk_program(2), 1, _AT_ROOT + _SUM_OVER_N_ROOT, _tailed, 1),
    "chordal_cycle": KindSpec(PROG_CHORDAL, 2, _SUM, _summed(2), 2),
    "clique4": KindSpec(PROG_CLIQUE4, 1, _SUM, _summed(6), 4),
    "triangle_rectangle": KindSpec(PROG_TRIANGLE_RECTANGLE, 2, _SUM, _summed(2), 1),
}

# Closed-walk counts, kept out of KIND_SPECS, whose keys callers list as the
# substructure kinds.  A closed L-walk never leaves the root's
# radius-max(1, L//2) ego-network.
_WALK_SPECS = {
    f"walk{n}": KindSpec(_walk_program(n), max(1, n // 2), _AT_ROOT, _summed(1), 1)
    for n in range(1, 9)
}
_PLANS = {**KIND_SPECS, **_WALK_SPECS}

# Marked-endpoint path counting and the 4-path graphlet are the same count.
KIND_ALIASES = {"path4_graphlet": "path4"}

CYCLE_KINDS = ("cycle3", "cycle4", "cycle5", "cycle6")


def resolve_kind(kind: str) -> str:
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in _PLANS:
        raise ValueError(f"unknown substructure kind {kind!r}")
    return kind


def _resolve_hops(kind: str, hops: int | None) -> int:
    spec = _PLANS[kind]
    k = spec.hops if hops is None else hops
    if k < spec.hops:
        raise InsufficientHopsError(kind, k, spec.hops)
    return k


# ---------------------------------------------------------------------------
# Per-root evaluation.  One root is one unit of work, so the roots can be
# evaluated in strided shares: with threads > 1 the parent counts share 0
# and threads - 1 forked children count the others, each with its own copy
# of the buffers, and the shares are merged back in root order, so results
# stay deterministic.
# ---------------------------------------------------------------------------

_PHASES = ("extraction", "message_passing", "readout")


def _rooted_run(spec: KindSpec, g: Graph, hops: int, hook=None) -> RootedRun:
    return RootedRun(spec.program, g.adjacency, hops, spec.readouts, hook)


def _timed_values(
    spec: KindSpec, runner: RootedRun, roots: range, timings: dict[str, float]
) -> list:
    """Each root's value, adding the wall time of each phase to ``timings``
    (names in ``_PHASES``): the root's labels and balls, the kernel call
    (every subgraph's steps and readout sums) and the combine step."""
    phases = [0.0] * len(_PHASES)
    values = []
    for i in roots:
        t0 = time.perf_counter()
        runner.root(i)
        t1 = time.perf_counter()
        rows = runner.kernel(i)
        t2 = time.perf_counter()
        values.append(spec.combine(rows))
        phases[0] += t1 - t0
        phases[1] += t2 - t1
        phases[2] += time.perf_counter() - t2
    for name, dt in zip(_PHASES, phases):
        timings[name] = timings.get(name, 0.0) + dt
    return values


def _child(
    values: Callable[[range], list], share: range, w: int, unread: list[int]
) -> NoReturn:
    """A forked child's whole life: close the pipe ends it does not write,
    send ``values(share)`` (or the exception it raised) pickled down ``w``,
    and end, exit status 0 only once the result is written."""
    code = 1
    try:
        for fd in unread:
            os.close(fd)
        try:
            result = values(share)
        except Exception as exc:
            result = exc
        with open(w, "wb") as pipe:
            pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _fork_join(values: Callable[[range], list], roots: range, threads: int) -> list:
    """``values(roots)`` in ``threads`` strided shares, share t being
    ``roots[t::threads]``.  Children count shares 1.. and the parent share
    0; it then reads each child's pipe and reaps it, in share order.  A
    child's exception is raised again here, and a child that ends without
    a result raises ``WorkerError``.  On any failure the unread pipes are
    closed and the unreaped children killed and reaped."""
    out: list = [None] * len(roots)
    pipes: list[int] = []  # read ends not yet read, in share order
    pids: list[int] = []  # children not yet reaped, in share order
    try:
        for t in range(1, threads):
            r, w = os.pipe()
            pipes.append(r)
            try:
                if (pid := os.fork()) == 0:
                    _child(values, roots[t::threads], w, pipes)  # never returns
            finally:
                os.close(w)
            pids.append(pid)
        out[0::threads] = values(roots[0::threads])
        for t in range(1, threads):
            with open(pipes.pop(0), "rb") as pipe:
                data = pipe.read()
            pid, status = os.waitpid(pids[0], 0)
            del pids[0]
            if status:
                raise WorkerError(pid, status)
            part = pickle.loads(data)
            if isinstance(part, BaseException):
                raise part
            out[t::threads] = part
        return out
    finally:
        for r in pipes:
            os.close(r)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _map_roots(
    kind: str,
    g: Graph,
    hops: int,
    threads: int,
    timings: dict[str, float] | None,
) -> list:
    spec = _PLANS[kind]
    runner = _rooted_run(spec, g, hops)
    roots = range(g.node_count)
    if timings is not None:
        return _timed_values(spec, runner, roots, timings)

    def values(share: range) -> list:
        return [spec.combine(runner.rows(i)) for i in share]

    if threads <= 1 or len(roots) < 64:
        return values(roots)
    return _fork_join(values, roots, min(threads, len(roots)))


# ---------------------------------------------------------------------------
# Public counting operations.
# ---------------------------------------------------------------------------


def count(
    kind: str,
    g: Graph,
    hops: int | None = None,
    threads: int = 1,
    timings: dict[str, float] | None = None,
) -> CountReport:
    """Count one substructure kind at node and graph level.

    ``timings`` (optional dict) accumulates a wall-time breakdown per root:
    extraction (the root's labels and balls), message passing (the kernel
    call: every subgraph's steps and readout sums) and readout (the combine
    step); when supplied the evaluation runs serially.
    """
    kind = resolve_kind(kind)
    spec = _PLANS[kind]
    values = _map_roots(kind, g, _resolve_hops(kind, hops), threads, timings)
    per_node = tuple(v[0] for v in values)
    patterns = None
    if spec.patterns:
        patterns = PatternCounts(*(tuple(v[c] for v in values) for c in range(1, 6)))
    graph_count = exact_div(sum(per_node), spec.graph_divisor)
    return CountReport(kind, per_node, graph_count, patterns)


def count_path4_edge(g: Graph, hops: int = 3) -> dict[tuple[int, int], dict[int, int]]:
    """Per ordered adjacent pair (i, j): 4-path counts i->j->..->k, keyed by k.

    With radius 3 the table is exact for every endpoint k inside the root's
    subgraph (which covers all k within 3 hops); radius >= 4 makes it exact
    for all endpoints.
    """
    if hops < 3:
        raise InsufficientHopsError("path4_edge", hops, 3)
    table: dict[tuple[int, int], dict[int, int]] = {}

    def record(j, steps):
        # PROG_P4's last step computes column 0, which is 0 off its nodes
        (paths, *_), nodes = steps[-1]
        table[i, j] = {k: paths[k] for k in sorted(nodes) if paths[k]}

    runner = RootedRun(PROG_P4, g.adjacency, hops, _SUM, hook=record)
    for i in range(g.node_count):
        runner.rows(i)
    return table


def count_walks(g: Graph, length: int, i: int, j: int) -> int:
    """Number of length-L walks from i to j, propagated over i's ego-network
    of radius L, which holds every such walk."""
    if length < 1:
        raise ValueError("walk length must be >= 1")
    g._check_node(i)
    g._check_node(j)
    walks = []

    def record(_, steps):
        state, _ = steps[-1]
        walks.append(state[0][j])

    RootedRun(_walk_program(length), g.adjacency, length, _SUM, record).rows(i)
    return walks[0]


@dataclass(frozen=True)
class CorpusStats:
    name: str
    graphs: int
    avg_cycle_counts: tuple[float, float, float, float]
    errors: tuple[str, ...]


def corpus_cycle_stats(
    corpora: Sequence[tuple[str, Sequence[str | Path]]],
    fmt: str = "edgelist",
    threads: int = 1,
) -> list[CorpusStats]:
    """Average per-graph 3/4/5/6-cycle counts for each corpus of graph files.

    Files that fail to parse are reported per corpus and skipped; the
    computation continues.
    """
    out = []
    for name, paths in corpora:
        totals = [0, 0, 0, 0]
        n_ok = 0
        errors = []
        for path in paths:
            try:
                g = load_graph(path, fmt)
            except Exception as exc:
                errors.append(f"{path}: {exc}")
                continue
            for pos, kind in enumerate(CYCLE_KINDS):
                totals[pos] += count(kind, g, threads=threads).graph_count
            n_ok += 1
        avgs = tuple(t / n_ok if n_ok else 0.0 for t in totals)
        out.append(CorpusStats(name, n_ok, avgs, tuple(errors)))
    return out
