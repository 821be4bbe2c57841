"""The benchmark workloads.

Each workload makes its inputs from a seed, writes whatever files its ops
read, warms the process up on small inputs of the same family (that fills
the engine's compile cache, whose key does not depend on graph size), and
lists the ops of one pass.  Set-up does the same work for every seed: the
warm-up inputs come from a fixed seed, and random regular graphs come from
``random_regular``, whose cost does not depend on the seed.  An op is one
public call into graphcount; its ``run`` is timed, its ``collect`` turns
the raw result into a canonical value outside the timed region.  ``verify``
checks the outputs of one pass against a route that shares no code with
the one being timed: the DFS
oracle for counts, the exact joint refinement and the README witness
verdicts for ``distinguish``, and ``graphcount oracle`` CSV for the CLI.

Ops call graphcount through module attributes (``counting.count``, not a
name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from graphcount import cli, counting, graph, oracle, refinement
from graphcount.extraction import ego
from graphcount.generators import (
    gen_coned_cycles,
    gen_cycle_pair,
    gen_random,
    gen_rook4x4,
    gen_shrikhande,
)
from graphcount.graph import Graph, from_edges, save_graph

DEFAULT_SEED = 0
WARM_UP_SEED = 10**6  # warm-up inputs are the same whatever the run's seed

# every counting program kind, plus the quadratic closed-walk count
COUNT_KINDS = tuple(sorted(counting.KIND_SPECS)) + ("walk4",)

# enumeration guard for the oracles; the graphs here are small enough that
# the enumeration itself stays around a second
ORACLE_BUDGET = 10**12


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    collect: Callable[[Any], Any]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fresh(g: Graph) -> Graph:
    """A new Graph object with the same edges, so no op can reuse state that
    an earlier pass attached to the object."""
    return from_edges(g.node_count, g.edges())


def report_tuple(rep: counting.CountReport) -> tuple:
    pats = rep.patterns
    patterns = None if pats is None else (pats.p0, pats.p1, pats.p2, pats.p3, pats.p4)
    return (rep.kind, rep.node_counts, rep.graph_count, patterns)


def oracle_tuple(kind: str, g: Graph) -> tuple:
    """The DFS-oracle counterpart of ``report_tuple(counting.count(kind, g))``."""
    if kind.startswith("walk"):
        per_node = oracle.oracle_closed_walks(g, int(kind[4:]))
        return (kind, per_node, sum(per_node), None)
    if kind.startswith("cycle"):
        res = oracle.oracle_cycles(g, int(kind[5:]), ORACLE_BUDGET)
        patterns = None
        if kind == "cycle6":
            p = oracle.oracle_cycle6_patterns(g, ORACLE_BUDGET)
            patterns = (p.p0, p.p1, p.p2, p.p3, p.p4)
        return (kind, res.per_node, res.graph_count, patterns)
    if kind.startswith("path"):
        res = oracle.oracle_paths(g, int(kind[4:]), ORACLE_BUDGET)
        return (kind, res.starts_at, res.graph_count, None)
    res = oracle.oracle_graphlets(g, kind)
    return (kind, res.per_node, res.graph_count, None)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """A random simple ``d``-regular graph on ``n`` nodes.

    Pairs shuffled stubs, then repairs each loop or repeated edge by a
    random double-edge switch, which keeps every degree.  Unlike redrawing
    the whole pairing until it is simple, the cost hardly depends on the
    seed, so set-up time does not either.
    """
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]

    def key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    multiplicity: dict[tuple[int, int], int] = {}
    for u, v in pairs:
        multiplicity[key(u, v)] = multiplicity.get(key(u, v), 0) + 1

    def bad(i: int) -> bool:
        u, v = pairs[i]
        return u == v or multiplicity[key(u, v)] > 1

    todo = [i for i in range(len(pairs)) if bad(i)]
    while todo:
        i = todo[-1]
        if not bad(i):
            todo.pop()
            continue
        j = rng.randrange(len(pairs))
        (a, b), (c, e) = pairs[i], pairs[j]
        new1, new2 = key(a, c), key(b, e)
        if a == c or b == e or new1 == new2 or new1 in multiplicity or new2 in multiplicity:
            continue
        for old in (key(a, b), key(c, e)):
            multiplicity[old] -= 1
            if not multiplicity[old]:
                del multiplicity[old]
        multiplicity[new1] = multiplicity[new2] = 1
        pairs[i], pairs[j] = (a, c), (b, e)
    return from_edges(n, pairs)


def _count_op(kind: str, g: Graph) -> Op:
    return Op(kind, lambda: counting.count(kind, g), report_tuple)


def _mismatch(got, want, what: str) -> str | None:
    return None if got == want else f"{what} differs from the reference"


# ---------------------------------------------------------------------------
# count-regular
# ---------------------------------------------------------------------------


class CountRegular:
    """Every counting kind, serially, on one random 4-regular graph."""

    parallel = False  # whether ops fork a worker pool
    name = "count-regular"
    N = 1000
    DEGREE = 4

    def inputs(self, seed: int, workdir: Path) -> Graph:
        return random_regular(self.N, self.DEGREE, seed)

    def warm_up(self, workdir: Path) -> None:
        g = random_regular(40, self.DEGREE, WARM_UP_SEED)
        for kind in COUNT_KINDS:
            counting.count(kind, g)

    def pass_ops(self, g: Graph, threads: int) -> list[Op]:
        g = fresh(g)
        return [_count_op(kind, g) for kind in COUNT_KINDS]

    def verify(self, g: Graph, outputs: list) -> list[str | None]:
        return [
            _mismatch(out, oracle_tuple(kind, g), kind)
            for kind, out in zip(COUNT_KINDS, outputs)
        ]


# ---------------------------------------------------------------------------
# corpus-small
# ---------------------------------------------------------------------------


def to_graph6(g: Graph) -> str:
    """graph6 encoding for n <= 62 (the parser under test is read-only)."""
    n = g.node_count
    if n > 62:
        raise ValueError("graph6 encoder handles n <= 62 only")
    bits = [
        1 if g.has_edge(u, v) else 0 for v in range(1, n) for u in range(v)
    ]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


class CorpusSmall:
    """The tier-1 corpus shape: many tiny G(n, p) graphs stored as graph6."""

    parallel = False  # whether ops fork a worker pool
    name = "corpus-small"
    NS = (8, 12, 16, 20)
    PS = (0.2, 0.4)
    PER_CELL = 25

    def _graphs(self, seed: int, per_cell: int) -> list[Graph]:
        # seed 0 reproduces the tier-1 corpus (graph seeds 0..24 per cell)
        return [
            gen_random(n, p, per_cell * seed + s)
            for n in self.NS
            for p in self.PS
            for s in range(per_cell)
        ]

    def inputs(self, seed: int, workdir: Path) -> list[str]:
        path = workdir / "corpus.g6"
        path.write_text(
            "".join(to_graph6(g) + "\n" for g in self._graphs(seed, self.PER_CELL))
        )
        return path.read_text().splitlines()

    def warm_up(self, workdir: Path) -> None:
        for g in self._graphs(WARM_UP_SEED, 1):
            for kind in COUNT_KINDS:
                counting.count(kind, g)

    def pass_ops(self, lines: list[str], threads: int) -> list[Op]:
        return [
            Op(f"g{i}", lambda line=line: self._op(line), lambda out: out)
            for i, line in enumerate(lines)
        ]

    @staticmethod
    def _op(line: str) -> tuple:
        g = graph.parse_graph6(line)
        return tuple(report_tuple(counting.count(kind, g)) for kind in COUNT_KINDS)

    def verify(self, lines: list[str], outputs: list) -> list[str | None]:
        errors = []
        for i, (line, out) in enumerate(zip(lines, outputs)):
            g = graph.parse_graph6(line)
            want = tuple(oracle_tuple(kind, g) for kind in COUNT_KINDS)
            errors.append(_mismatch(out, want, f"graph {i} counts"))
        return errors


# ---------------------------------------------------------------------------
# refine-pairs
# ---------------------------------------------------------------------------

REFINE_METHODS = (
    ("wl1", "wl1", {}),
    ("subgraph_wl", "subgraph_wl", {"policy": ego(3)}),
    ("i2_wl-h1", "i2_wl", {"hops": 1}),
    ("i2_wl-h2", "i2_wl", {"hops": 2}),
    ("i2_wl-spd", "i2_wl", {"hops": 1, "labeling": "spd"}),
)

# verdicts the README states for its witness pairs
README_VERDICTS = {
    **{(f"cycles{L}", "wl1"): False for L in range(3, 8)},
    **{(f"cycles{L}", "subgraph_wl"): True for L in range(3, 8)},
    ("rook-shrikhande", "subgraph_wl"): False,
    ("rook-shrikhande", "i2_wl-h1"): True,
}


class RefinePairs:
    """``distinguish`` over the README witness pairs and random regular pairs."""

    parallel = False  # whether ops fork a worker pool
    name = "refine-pairs"
    REGULAR_SIZES = (200, 300)

    def _witness_pairs(self) -> list[tuple[str, Graph, Graph]]:
        pairs = [(f"cycles{L}", *gen_cycle_pair(L)) for L in range(3, 8)]
        pairs += [(f"cones{L}", *gen_coned_cycles(L)) for L in range(3, 7)]
        pairs.append(("rook-shrikhande", gen_rook4x4(), gen_shrikhande()))
        return pairs

    def inputs(self, seed: int, workdir: Path) -> list[tuple[str, Graph, Graph]]:
        pairs = self._witness_pairs()
        for k, n in enumerate(self.REGULAR_SIZES):
            base = 1000 * (k + 1) + 2 * seed
            pairs.append(
                (
                    f"regular{n}",
                    random_regular(n, 4, base),
                    random_regular(n, 4, base + 1),
                )
            )
        return pairs

    def warm_up(self, workdir: Path) -> None:
        for _, g1, g2 in self._witness_pairs()[:2]:
            for _, method, kw in REFINE_METHODS:
                for exact in (False, True):
                    refinement.distinguish(g1, g2, method, exact=exact, **kw)

    def _keys(self, pairs) -> list[tuple[str, str, bool]]:
        return [
            (tag, label, exact)
            for tag, _, _ in pairs
            for label, _, _ in REFINE_METHODS
            for exact in (False, True)
        ]

    def pass_ops(self, pairs, threads: int) -> list[Op]:
        ops = []
        for tag, g1, g2 in pairs:
            g1, g2 = fresh(g1), fresh(g2)
            for label, method, kw in REFINE_METHODS:
                for exact in (False, True):
                    ops.append(
                        Op(
                            f"{tag}/{label}/{'exact' if exact else 'digest'}",
                            lambda g1=g1, g2=g2, m=method, kw=kw, e=exact: (
                                refinement.distinguish(g1, g2, m, exact=e, **kw)
                            ),
                            bool,
                        )
                    )
        return ops

    def verify(self, pairs, outputs: list) -> list[str | None]:
        keys = self._keys(pairs)
        verdict = dict(zip(keys, outputs))
        errors: list[str | None] = []
        for tag, label, exact in keys:
            got = verdict[(tag, label, exact)]
            err = None
            if got != verdict[(tag, label, not exact)]:
                err = f"{tag}/{label}: digest and exact verdicts disagree"
            want = README_VERDICTS.get((tag, label))
            if tag.startswith("regular") and label == "wl1":
                want = False  # 1-WL never separates two d-regular graphs of one size
            if want is not None and got != want:
                err = f"{tag}/{label}: verdict {got}, expected {want}"
            errors.append(err)
        return errors


# ---------------------------------------------------------------------------
# cli-clustered
# ---------------------------------------------------------------------------

CLI_KINDS = (
    "cycle6",
    "path4",
    "cycle5",
    "clique4",
    "chordal_cycle",
    "triangle_rectangle",
    "tailed_triangle",
)


def rewired_ring_lattice(n: int, k: int, p: float, seed: int) -> Graph:
    """Ring lattice with ``k`` neighbours per side; each edge keeps one end
    and moves the other to a uniform random node with probability ``p``,
    never creating a loop or a duplicate edge (Watts-Strogatz)."""
    rng = random.Random(seed)
    lattice = sorted(
        (min(i, (i + j) % n), max(i, (i + j) % n)) for i in range(n) for j in range(1, k + 1)
    )
    taken = set(lattice)
    edges = []
    for u, v in lattice:
        if rng.random() < p:
            while True:
                w = rng.randrange(n)
                key = (min(u, w), max(u, w))
                if w != u and key not in taken:
                    break
            taken.add(key)
            edges.append(key)
        else:
            edges.append((u, v))
    return from_edges(n, edges)


@dataclass(frozen=True)
class CliInputs:
    graph_file: Path
    out_dir: Path


class CliClustered:
    """``graphcount count`` in-process on a clustered bounded-degree graph."""

    parallel = True  # whether ops fork a worker pool
    name = "cli-clustered"
    N = 2000

    def _write(self, g: Graph, workdir: Path, stem: str) -> CliInputs:
        path = workdir / f"{stem}.el"
        save_graph(g, path)
        out_dir = workdir / f"{stem}-out"
        out_dir.mkdir(exist_ok=True)
        return CliInputs(path, out_dir)

    def inputs(self, seed: int, workdir: Path) -> CliInputs:
        return self._write(rewired_ring_lattice(self.N, 3, 0.1, seed), workdir, "clustered")

    def warm_up(self, workdir: Path) -> None:
        # 100 roots is above the size at which count() forks its pool
        small = self._write(rewired_ring_lattice(100, 3, 0.1, WARM_UP_SEED), workdir, "warm")
        for op in self.pass_ops(small, nproc()):
            op.run()

    @staticmethod
    def argv(command: str, kind: str, inp: CliInputs, out: Path) -> list[str]:
        argv = [command, "--input", str(inp.graph_file), "--substructure", kind,
                "--out", str(out)]
        if kind == "cycle6":
            argv.append("--verbose")
        return argv

    def pass_ops(self, inp: CliInputs, threads: int) -> list[Op]:
        ops = []
        for kind in CLI_KINDS:
            out = inp.out_dir / f"{kind}.csv"
            argv = self.argv("count", kind, inp, out) + ["--threads", str(threads)]
            ops.append(
                Op(
                    kind,
                    lambda argv=argv: cli.main(argv),
                    lambda rc, out=out: (rc, out.read_bytes()),
                )
            )
        return ops

    def verify(self, inp: CliInputs, outputs: list) -> list[str | None]:
        errors = []
        for kind, out in zip(CLI_KINDS, outputs):
            ref = inp.out_dir / f"{kind}.oracle.csv"
            argv = self.argv("oracle", kind, inp, ref) + ["--budget", str(ORACLE_BUDGET)]
            rc = cli.main(argv)
            want = (0, ref.read_bytes()) if rc == 0 else ("oracle exit", rc)
            errors.append(_mismatch(out, want, f"{kind} CSV"))
        return errors


WORKLOADS = {w.name: w for w in (CountRegular(), CorpusSmall(), RefinePairs(), CliClustered())}
