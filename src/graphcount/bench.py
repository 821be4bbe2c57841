"""Wall-clock scaling harness for the counting path.

Counting with bounded-radius subgraphs does constant work per root on
bounded-degree graphs, so wall time should grow linearly with the node count.
The harness times the full counting pipeline on random d-regular graphs at a
ladder of sizes and reports the per-phase breakdown plus the growth ratio
between successive sizes.  One warm-up count runs first; then the ladder
is timed ``REPEATS`` times over and each size reports its fastest run, so a
slow spell of the host, which tends to cover consecutive runs, does not skew
a ratio.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .counting import _PHASES, count
from .generators import gen_random_regular

REPEATS = 3


@dataclass(frozen=True)
class BenchRow:
    n: int
    seconds: float
    phases: tuple[float, ...]  # wall time of each phase, in ``_PHASES`` order
    graph_count: int
    ratio: float | None  # wall time vs the previous (half-size) run


def run_bench(
    sizes: tuple[int, ...] = (1000, 2000, 4000),
    degree: int = 4,
    kind: str = "cycle6",
    seed: int = 7,
) -> list[BenchRow]:
    graphs = [gen_random_regular(n, degree, seed) for n in sizes]
    if graphs:
        count(kind, graphs[0])  # warm-up
    runs: list[list[tuple[float, dict[str, float], int]]] = [[] for _ in sizes]
    for _ in range(REPEATS):
        for g, size_runs in zip(graphs, runs):
            timings: dict[str, float] = {}
            t0 = time.perf_counter()
            rep = count(kind, g, timings=timings)
            size_runs.append((time.perf_counter() - t0, timings, rep.graph_count))
    rows: list[BenchRow] = []
    prev: float | None = None
    for n, size_runs in zip(sizes, runs):
        dt, timings, graph_count = min(size_runs, key=lambda run: run[0])
        ratio = dt / prev if prev else None
        phases = tuple(timings.get(name, 0.0) for name in _PHASES)
        rows.append(BenchRow(n, dt, phases, graph_count, ratio))
        prev = dt
    return rows
