"""Run-to-run steadiness of the benchmark.

    python3 perfbench/steady.py --workload NAME [--workload NAME ...]
        [--seeds 10] [--first-seed 0] [--fixed-seed] [--traced]

Runs ``run.py`` once per seed on each workload, for ``run_seconds`` of
``BENCHMARK.json``, and prints, for every end-to-end metric, the median and
the quartile spread (third minus first quartile of
``statistics.quantiles(values, n=4)``, as a share of the median) next to
the metric's bound from ``BENCHMARK.json``.  The target is a spread below a
third of the bound.  The wall-clock latency figures that ``run.py`` prints
beside its calibrated ones get their spreads too, for comparison.
``--fixed-seed`` runs the first seed every time, so the spread is the
run-to-run noise alone.  ``--traced`` instead runs the traced run twice on
the first seed and checks that every deterministic work counter repeats
exactly.  Exits 1 when a run fails, a spread reaches its bound, or a
counter differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WALL_PREFIX = "wall clock: "  # the line of run.py's output with wall-clock figures


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stdout}")
    res = json.loads(lines[-1])
    res["wall_s"] = wall
    res["wall_clock"] = {}
    for line in lines:
        if line.strip().startswith(WALL_PREFIX):
            for item in line.strip()[len(WALL_PREFIX):].split(", "):
                name, value = item.split()
                res["wall_clock"][name] = float(value)
    return res


def spreads(workload: str, seeds: list[int]) -> bool:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    values: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    for seed in seeds:
        res = run(workload, seed, 0)
        if not res["correct"]:
            print(f"{workload} seed {seed}: {res['failed']} failed ops")
            return False
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in res["wall_clock"].items():
            wall.setdefault(name, []).append(v)
        print(f"{workload} seed {seed} ({res['wall_s']:.1f}s): " + " ".join(
            f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()), flush=True)

    def spread(vals: list[float]) -> tuple[float, float]:
        q1, med, q3 = statistics.quantiles(vals, n=4)
        return med, (q3 - q1) / med

    ok = True
    for name, vals in values.items():
        med, s = spread(vals)
        bound = bounds[name]
        verdict = "ok" if s < bound / 3 else ("over target" if s < bound else "OVER BOUND")
        ok &= s < bound
        beside = f"  (wall clock: spread {spread(wall[name])[1]:.4f})" if name in wall else ""
        print(f"  {workload:<14} {name:<12} median {med:<12.6g} spread {s:7.4f} "
              f"bound {bound:.2f}  {verdict}{beside}")
    return ok


def counters_repeat(workload: str, seed: int) -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import DETERMINISTIC

    a, b = (run(workload, seed, 1)["metrics"] for _ in range(2))
    bad = [k for k in DETERMINISTIC if a[k]["value"] != b[k]["value"]]
    print(f"  {workload}: deterministic counters "
          + ("repeat exactly" if not bad else f"differ: {bad}"))
    return not bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--fixed-seed", action="store_true",
                        help="run the first seed every time")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    ok = True
    for w in args.workload:
        if args.traced:
            ok &= counters_repeat(w, args.first_seed)
        else:
            seeds = [args.first_seed + (0 if args.fixed_seed else k) for k in range(args.seeds)]
            ok &= spreads(w, seeds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
