"""Command-line front end: count, oracle, distinguish, gen, stats, bench.

Exit code contract (for CI scripting):
  0  success
  2  input error (parse/validation/usage, or an input or output file that
     cannot be read or written)
  3  unmet precondition (insufficient subgraph radius, enumeration budget)
  4  arithmetic integrity failure (a remainder/nonnegativity check fired;
     states are arbitrary-precision integers, so true overflow cannot occur
     and this code is effectively reserved)
  5  internal fault (a malformed counting program or a label it needs is
     missing, or a worker process of ``--threads`` ended without returning
     its result: a defect in graphcount or its host, not in the input)

The ``count`` and ``oracle`` subcommands emit byte-identical CSV schemas
(report schema v1, see README) so their outputs can be diffed directly.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import Counter
from pathlib import Path

from . import bench as bench_mod
from . import counting, generators, oracle, refinement
from .counting import InsufficientHopsError, WorkerError
from .engine import ProgramError
from .extraction import LABELINGS, node_deletion
from .graph import (
    GraphFormatError,
    GraphValidationError,
    format_edgelist,
    iter_graph6,
    load_graph,
)

_COUNT_KINDS = sorted(counting._PLANS) + sorted(counting.KIND_ALIASES)
_ORACLE_KINDS = sorted(oracle.TWINS) + sorted(counting.KIND_ALIASES)


def _cpu_default() -> int:
    """The CPUs this process may run on, where the platform can tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _sizes(text: str) -> tuple[int, ...]:
    """An argparse type: one or more comma-separated node counts, each >= 1."""
    sizes = tuple(_positive_int(x) for x in text.split(",") if x != "")
    if not sizes:
        raise argparse.ArgumentTypeError(f"needs at least one size, got {text!r}")
    return sizes


def _write_report(
    out: str | None, level: str, rep: oracle.CountReport, verbose: bool
) -> None:
    """The report CSV, with pattern columns for ``verbose`` cycle6 reports."""
    handle = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(handle, lineterminator="\n")
        if level == "graph":
            writer.writerow(["count"])
            writer.writerow([rep.graph_count])
            return
        pats = rep.patterns if verbose else None
        if pats is not None:
            writer.writerow(
                ["node", "count", "pattern0", "pattern1", "pattern2", "pattern3", "pattern4"]
            )
            for i, c in enumerate(rep.node_counts):
                writer.writerow(
                    [i, c, pats.p0[i], pats.p1[i], pats.p2[i], pats.p3[i], pats.p4[i]]
                )
        else:
            writer.writerow(["node", "count"])
            for i, c in enumerate(rep.node_counts):
                writer.writerow([i, c])
    finally:
        if out:
            handle.close()


def _cmd_count(args) -> int:
    g = load_graph(args.input, args.format)
    rep = counting.count(args.substructure, g, hops=args.hops, threads=args.threads)
    _write_report(args.out, args.level, rep, args.verbose)
    return 0


def _cmd_oracle(args) -> int:
    g = load_graph(args.input, args.format)
    kind = counting.KIND_ALIASES.get(args.substructure, args.substructure)
    rep = oracle.TWINS[kind](g, args.budget)
    _write_report(args.out, args.level, rep, args.verbose)
    return 0


def _refinement_kwargs(args) -> dict:
    kw = {"hops": args.hops, "labeling": args.labeling, "exact": args.exact_compare}
    if args.method == "subgraph_wl" and args.policy == "node_deletion":
        kw["policy"] = node_deletion()
    return kw


def _verdict(d: bool) -> str:
    return "distinguished" if d else "not_distinguished"


def _cmd_distinguish(args) -> int:
    kw = _refinement_kwargs(args)
    if args.corpus:
        return _distinguish_corpus(args, kw)
    if len(args.graphs) != 2:
        raise GraphFormatError("distinguish needs exactly two graph files")
    g1 = load_graph(args.graphs[0], args.format)
    g2 = load_graph(args.graphs[1], args.format)
    print(_verdict(refinement.distinguish(g1, g2, args.method, **kw)))
    return 0


def _distinguish_corpus(args, kw) -> int:
    """Corpus mode over graph6 files: two files pair up line by line, a
    single file is compared all-against-all.  Digest mode fingerprints each
    graph once; exact mode refines every graph in one id-kernel run, whose
    colors are canonical across all of them, and compares node-key
    multisets per pair."""
    files = args.graphs
    if len(files) == 2:
        left = list(iter_graph6(files[0]))
        right = list(iter_graph6(files[1]))
        if len(left) != len(right):
            raise GraphFormatError(
                f"corpus files hold {len(left)} vs {len(right)} graphs"
            )
        pairs = [(i, i) for i in range(len(left))]
    elif len(files) == 1:
        left = right = list(iter_graph6(files[0]))
        pairs = [(i, j) for i in range(len(left)) for j in range(i + 1, len(left))]
    else:
        raise GraphFormatError("corpus mode takes one or two graph6 files")
    kw = dict(kw)
    if kw.pop("exact"):
        graphs = left if right is left else left + right
        keys, _ = refinement._node_keys(graphs, refinement._IDS, args.method, **kw)
        hists = [Counter(k) for k in keys]
        offset = len(graphs) - len(right)
        verdicts = (hists[i] != hists[offset + j] for i, j in pairs)
    else:
        left_fp = [refinement.fingerprint(g, args.method, **kw).digest for g in left]
        right_fp = left_fp if right is left else [
            refinement.fingerprint(g, args.method, **kw).digest for g in right
        ]
        verdicts = (left_fp[i] != right_fp[j] for i, j in pairs)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["pair", "verdict"])
    n_dist = 0
    for (i, j), d in zip(pairs, verdicts):
        n_dist += d
        writer.writerow([f"{i}-{j}", _verdict(d)])
    print(f"distinguished {n_dist}/{len(pairs)}", file=sys.stderr)
    return 0


# ``graphcount gen`` names, in the order ``--help`` lists them
_GENERATORS = {
    "cycle": lambda a: generators.gen_cycle(a.L),
    "cycle-pair": lambda a: (
        generators.gen_cycle_pair(a.L)[0 if a.variant == "disjoint" else 1]
    ),
    "coned": lambda a: (
        generators.gen_coned_cycles(a.L)[0 if a.variant == "joined" else 1]
    ),
    "rook": lambda a: generators.gen_rook4x4(),
    "shrikhande": lambda a: generators.gen_shrikhande(),
    "petersen": lambda a: generators.gen_petersen(),
    "complete": lambda a: generators.gen_complete(a.n),
    "path": lambda a: generators.gen_path(a.n),
    "star": lambda a: generators.gen_star(a.n),
    "random": lambda a: generators.gen_random(a.n, a.p, a.seed),
    "random-regular": lambda a: generators.gen_random_regular(a.n, a.d, a.seed),
}


def _cmd_gen(args) -> int:
    g = _GENERATORS[args.graph](args)
    text = format_edgelist(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stats(args) -> int:
    corpora = []
    for item in args.inputs:
        p = Path(item)
        if p.is_dir():
            files = sorted(q for q in p.iterdir() if q.is_file())
            if files:
                corpora.append((p.name, files))
        elif p.is_file():
            corpora.append((p.name, [p]))
        else:
            raise FileNotFoundError(f"{item}: not a file or directory")
    results = counting.corpus_cycle_stats(corpora, fmt=args.format, threads=args.threads)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["corpus", "graphs", "avg_cycle3", "avg_cycle4", "avg_cycle5", "avg_cycle6"]
    )
    for row in results:
        for err in row.errors:
            print(f"error: {err}", file=sys.stderr)
        writer.writerow(
            [row.name, row.graphs]
            + [f"{v:.6g}" for v in row.avg_cycle_counts]
        )
    return 0


def _cmd_bench(args) -> int:
    rows = bench_mod.run_bench(
        sizes=args.sizes, degree=args.degree, kind=args.substructure, seed=args.seed
    )
    handle = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "seconds", *counting._PHASES, "graph_count", "ratio_vs_prev"])
        for r in rows:
            writer.writerow(
                [r.n, *(f"{t:.4f}" for t in (r.seconds, *r.phases)), r.graph_count,
                 "" if r.ratio is None else f"{r.ratio:.3f}"]
            )
    finally:
        if args.out:
            handle.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcount",
        description="Exact substructure counting, brute-force oracles, and "
        "color-refinement graph tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="graph file")
        p.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
        p.add_argument("--level", choices=("node", "graph"), default="node")
        p.add_argument("--verbose", action="store_true",
                       help="include 6-cycle pattern columns")
        p.add_argument("--out", help="write CSV here instead of stdout")

    p_count = sub.add_parser("count", help="run a message-passing counting program")
    add_io(p_count)
    p_count.add_argument("--substructure", required=True, choices=_COUNT_KINDS)
    p_count.add_argument("--hops", type=int, default=None,
                         help="subgraph radius (default per substructure)")
    p_count.add_argument("--threads", type=_positive_int, default=_cpu_default())
    p_count.set_defaults(func=_cmd_count)

    p_oracle = sub.add_parser("oracle", help="run the brute-force enumeration oracle")
    add_io(p_oracle)
    p_oracle.add_argument("--substructure", required=True, choices=_ORACLE_KINDS)
    p_oracle.add_argument("--budget", type=_positive_int, default=oracle.DEFAULT_BUDGET,
                          help="enumeration step budget")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_dist = sub.add_parser("distinguish", help="compare two graphs by refinement digests")
    p_dist.add_argument("graphs", nargs="+", help="two graph files, or corpus file(s)")
    p_dist.add_argument("--method", choices=refinement.METHODS, default="wl1")
    p_dist.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p_dist.add_argument("--policy", choices=("ego", "node_deletion"), default="ego")
    p_dist.add_argument("--hops", type=int, default=None,
                        help="subgraph radius (default: 3 for subgraph_wl, 1 for i2_wl)")
    p_dist.add_argument("--labeling", choices=LABELINGS, default="identity")
    p_dist.add_argument("--exact-compare", action="store_true",
                        help="joint refinement instead of digest comparison")
    p_dist.add_argument("--corpus", action="store_true",
                        help="treat inputs as graph6 corpora and compare pairs")
    p_dist.set_defaults(func=_cmd_distinguish)

    p_gen = sub.add_parser("gen", help="generate a named graph as an edge list")
    p_gen.add_argument("graph", choices=tuple(_GENERATORS))
    p_gen.add_argument("--L", type=int, default=3, help="cycle length parameter")
    p_gen.add_argument("--n", type=int, default=8, help="node count")
    p_gen.add_argument("--p", type=float, default=0.3, help="edge probability")
    p_gen.add_argument("--d", type=int, default=4, help="regular degree")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--variant", choices=("joined", "disjoint"), default="joined",
                       help="cycle-pair/coned: one 2L-cycle vs two L-cycles")
    p_gen.add_argument("--out", help="output file (default stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_stats = sub.add_parser("stats", help="corpus cycle statistics")
    p_stats.add_argument("inputs", nargs="+",
                         help="directories (one corpus each) or single files")
    p_stats.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p_stats.add_argument("--threads", type=_positive_int, default=_cpu_default())
    p_stats.set_defaults(func=_cmd_stats)

    p_bench = sub.add_parser("bench", help="near-linear scaling benchmark")
    p_bench.add_argument("--sizes", type=_sizes, default="1000,2000,4000",
                         help="comma-separated node counts, each at least 1")
    p_bench.add_argument("--degree", type=int, default=4)
    p_bench.add_argument("--substructure", choices=_COUNT_KINDS, default="cycle6")
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--out", help="write CSV here instead of stdout")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def _joined_sizes(argv: list[str]) -> list[str]:
    """``argv`` with a ``--sizes`` value that starts with a minus sign joined
    to the option by "=": argparse takes "-4,8" for an option, and its error
    would not name the bad size."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--sizes" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--sizes={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_sizes(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ProgramError, WorkerError) as exc:
        # ProgramError is a ValueError, so it must be caught before input errors
        print(f"error: internal fault: {exc}", file=sys.stderr)
        return 5
    except (GraphFormatError, GraphValidationError, OSError, ValueError) as exc:
        if isinstance(exc, InsufficientHopsError):
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except oracle.OracleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: arithmetic integrity check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
