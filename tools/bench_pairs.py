"""Run the benchmark from two checkouts in alternating pairs and tabulate them.

Usage:

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --label L
        [--seed S] [--seconds T] [--out DIR]

PARENT and CHANGE are checkouts of the repository.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds T`` once from each, the
parent first in even pairs and the change first in odd ones, so that a
drift of the host over the pairs falls on both sides alike.  The runs get
the same seed and measuring time (``--seconds``: by default the
``run_seconds`` of CHANGE's ``BENCHMARK.json``).

``BENCH_<L>.json`` (in ``--out``, by default the working directory) holds:
every run's metrics with its ``correct``, ``attempted`` and ``failed``
fields and the ``N passes started`` count of its report; each side's
median and quartiles per metric; each pair's change/parent ratio per
metric and the side that won it (by the ``better`` direction of
``BENCHMARK.json``'s end-to-end metrics, else lower); the parent's quartile
distance per metric; the best of five ``compile()`` times of each side's
``src/graphcount/engine.py``; each side's git commit; the command line;
and the host's ``nproc``, Python version, ``PYTHONDONTWRITEBYTECODE`` and
the median time to replace a one-block file in ``--out``.
The tool judges no metric against a bound.  It exits 1 if any run is not
correct (or prints no result), else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

_PASSES = re.compile(r"(\d+) passes started")


def command(workload: str, seed: int, seconds: float) -> list[str]:
    """The benchmark's command line, run from a checkout's root."""
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One measured run from ``checkout``: its result line's fields, its
    passes started and its exit code."""
    cmd = [sys.executable, *command(workload, seed, seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    passes = [int(m[1]) for m in map(_PASSES.search, lines) if m]
    return {
        "correct": bool(result.get("correct")) and proc.returncode == 0,
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "passes_started": passes[0] if passes else None,
        "exit_code": proc.returncode,
        "metrics": {k: m["value"] for k, m in result.get("metrics", {}).items()},
    }


def compile_s(checkout: Path) -> float:
    """Best of five wall times to ``compile()`` the checkout's engine.py."""
    path = checkout / "src" / "graphcount" / "engine.py"
    source = path.read_text()
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        compile(source, str(path), "exec")
        best = min(best, time.perf_counter() - t0)
    return best


def replace_ms(directory: Path) -> float:
    """Median of five wall times, in ms, to replace a one-block file in
    ``directory`` by opening it with O_TRUNC: what freeing a file's blocks
    costs there, which on some file systems (ext4 mounted with ``discard``)
    is tens of ms."""
    path = directory / ".bench_pairs_probe"
    block = b"\0" * 4096
    path.write_bytes(block)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        path.write_bytes(block)
        samples.append((time.perf_counter() - t0) * 1e3)
    path.unlink()
    return statistics.median(samples)


def commit(checkout: Path) -> str | None:
    """The checkout's git commit, if it is a git checkout."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() or None


def spread(values: list[float]) -> dict:
    """Median and quartiles of ``values``."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [
        values[0]] * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def directions(checkout: Path) -> dict:
    """Each end-to-end metric's ``better`` direction in BENCHMARK.json."""
    path = checkout / "BENCHMARK.json"
    spec = json.loads(path.read_text()) if path.is_file() else {}
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def tabulate(runs: list[dict], better: dict) -> dict:
    """Per-side spreads, per-pair ratios and winners, and the parent's
    quartile distance, of the metrics every run reports."""
    names = sorted(set.intersection(*(set(r["metrics"]) for r in runs))) if runs else []
    sides = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
    out: dict = {"sides": {}, "pairs": [], "parent_quartile_distance": {}}
    for side, rs in sides.items():
        out["sides"][side] = {} if not rs else {k: spread([r["metrics"][k] for r in rs]) for k in names}
    by_pair = {(r["pair"], r["side"]): r for r in runs}
    for n in sorted({r["pair"] for r in runs}):
        if (n, "parent") not in by_pair or (n, "change") not in by_pair:
            continue
        parent, change = by_pair[n, "parent"], by_pair[n, "change"]
        pair: dict = {"pair": n, "ratio": {}, "winner": {}}
        for k in names:
            a, b = parent["metrics"][k], change["metrics"][k]
            pair["ratio"][k] = b / a if a else None
            higher = better.get(k, "lower") == "higher"
            pair["winner"][k] = "tie" if a == b else "change" if (b > a) == higher else "parent"
        out["pairs"].append(pair)
    for k, q in out["sides"]["parent"].items():
        out["parent_quartile_distance"][k] = q["q3"] - q["q1"]
    out["wins"] = {
        k: sum(p["winner"][k] == "change" for p in out["pairs"]) for k in names
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for n in range(args.pairs):
        for side in ("parent", "change")[:: 1 if n % 2 == 0 else -1]:
            run = {"pair": n, "side": side, **run_once(checkouts[side], args.workload, args.seed, seconds)}
            print(f"pair {n} {side}: correct={run['correct']} {json.dumps(run['metrics'])}", flush=True)
            runs.append(run)
    report = {
        "workload": args.workload,
        "command": command(args.workload, args.seed, seconds),
        "seconds": seconds,
        "commits": {k: commit(v) for k, v in checkouts.items()},
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "file_replace_ms": replace_ms(args.out),
        },
        "engine_compile_s": {k: compile_s(v) for k, v in checkouts.items()},
        "runs": runs,
        **tabulate([r for r in runs if r["correct"]], directions(checkouts["change"])),
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
