"""graphcount benchmark: end-to-end metrics, and a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` (measured run) starts a fresh worker process that sets the
workload up, runs whole passes of its ops for ``--seconds`` (at least one
pass; by default ``run_seconds`` of ``BENCHMARK.json``), checks every
output, and reports:

* ``setup_s``: median of six set-up times, each from spawning a fresh
  process to its being ready: interpreter start, import, input generation
  and file writes, and a warm-up pass on small inputs of the workload's
  family that fills the compile cache.  Three set-ups run before the
  measured worker and three after it, so the samples span the run.
  Set-up does the same work for every seed (see ``workloads.py``).
* ``ops_per_s``: ops in one pass divided by the sum of each op's median
  latency over the passes run.
* ``op_ms_p50``, ``op_ms_p90``: percentiles of the per-op median latencies;
  one sample per op of the pass (count-regular: 12, corpus-small: 200,
  refine-pairs: 120, cli-clustered: 7), so on count-regular and
  cli-clustered fewer than ten samples lie beyond p90.
* ``peak_rss_mb``: the larger of the worker's peak RSS and that of its
  largest fork-pool child, sampled right after the measured passes.

``failed_frac`` (failed ops over attempted ops) is printed above the result
line; the result line carries it as ``failed`` and ``attempted``.

``--trace 1`` (traced run) sets up in its own process and runs one
untraced pass and one traced pass, whatever ``--seconds`` says (for
cli-clustered serially, plus an untraced pass with ``--threads nproc`` for
``counting.parallel_efficiency``), checks every output, writes the spans to
``.perfbench/`` and prints the per-layer metrics of ``tracer.py``.  Measured
runs are never traced.

An op that raises or whose output differs from the independent reference
(see ``workloads.py``) is a failed op; for the default seed, outputs must
also match the per-op digests in ``digests.json`` (rewrite them with
``--record-digests`` after a change that is meant to alter a count).  Any
failed op makes the exit code 1.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Op and set-up times above are in reference seconds.  On a shared 2-core
host, op CPU time varies by about +-15% at fixed code even with the garbage
collector frozen, and by up to 1.6x over minutes; process_time tracks wall
time, so the cause is the host, not GC.  So every op is followed by a run
of ``calibrate``, a fixed pure-Python kernel that shares no code with
graphcount, and each latency figure is scaled by ``CAL_REF_S`` over the
median kernel time of the run: the figure the run would give on a host
where the kernel takes ``CAL_REF_S``.  A change to graphcount moves these
figures exactly as it moves wall time; a change of host speed between runs
cancels, and one within a run is left to the per-op medians.  Set-up times
are scaled the same way, by the kernel run just before and just after each
set-up process: set-up is interpreter start, imports and Python work, all
of it CPU-bound.  The wall-clock figures are printed alongside, and
``steady.py`` gives their spreads beside the calibrated ones.

Measured spreads (quartile distance over median) over ten seeds on that
host, wall clock, then scaled op by op by the kernel next to each op, then
scaled by the run's median kernel time: ops_per_s 0.03, 0.04, 0.02 and
op_ms_p90 0.04, 0.09, 0.05 on count-regular; op_ms_p50 0.11, 0.08, 0.05
and op_ms_p90 0.12, 0.09, 0.06 on cli-clustered; setup_s 0.14, 0.15, 0.11
on count-regular and 0.13, 0.10, 0.15 on cli-clustered.  At other times
the host drifted more: wall-clock ops_per_s spread 0.22 on count-regular
and 0.25 on cli-clustered, against 0.04 and 0.05 calibrated.  cli-clustered
forks a pool over both cores, yet a kernel run on both cores at once
tracked it no better than the single-core one: over eight seeds, op by op,
ops_per_s, op_ms_p50 and op_ms_p90 spread 0.25, 0.23 and 0.27 in wall
time, 0.05, 0.13 and 0.12 with the single-core kernel, and 0.10, 0.07 and
0.15 with both cores.  Per-layer times of the traced run are wall time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("count-regular", "corpus-small", "refine-pairs", "cli-clustered")
PROBES_EACH_SIDE = 3
CAL_REF_S = 0.002  # reference duration of calibrate(); its scale is arbitrary


def _import_program() -> None:
    """Put the checkout's own sources first on the path; refuse to run
    against anything else."""
    package = SRC / "graphcount"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no graphcount sources at {package}")
    sys.path.insert(0, str(SRC))
    import graphcount

    if Path(graphcount.__file__).resolve().parent != package:
        sys.exit(f"error: imported graphcount from {graphcount.__file__}, not {package}")


def digest(output) -> str:
    return hashlib.blake2b(repr(output).encode(), digest_size=8).hexdigest()


class Raised:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"<raised {self.text}>"


def calibrate() -> float:
    """The host's current speed: the median wall time of three runs of a
    fixed pure-Python kernel, so that one preempted run does not count."""
    return statistics.median(_kernel() for _ in range(3))


def _kernel() -> float:
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    items = []
    total = 0
    for i in range(20000):
        total += i * i
        table[i & 255] = total
        items.append(i)
    return time.perf_counter() - t0


def run_op(op) -> tuple[float, object]:
    t0 = time.perf_counter()
    try:
        raw = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, Raised(exc)
    dt = time.perf_counter() - t0
    return dt, op.collect(raw)


def set_up(w, seed: int, workdir: Path):
    inputs = w.inputs(seed, workdir)
    w.warm_up(workdir)
    return inputs


class Outcome:
    """Every execution of every op of one run, and the checks on them."""

    def __init__(self, n_ops: int):
        self.first: list = [None] * n_ops  # first output per op
        self.digests: list[list[str]] = [[] for _ in range(n_ops)]
        self.wall: list[list[float]] = [[] for _ in range(n_ops)]
        self.kernels: list[float] = []  # calibrate() after every op
        self.attempted = 0

    def add(self, i: int, dt: float, output) -> None:
        if self.first[i] is None:
            self.first[i] = output
        self.digests[i].append(digest(output))
        self.wall[i].append(dt)
        self.attempted += 1

    def check(self, w, inputs, seed: int, ops) -> tuple[int, list[str]]:
        """Return (failed executions, error messages)."""
        from workloads import DEFAULT_SEED

        errors = w.verify(inputs, self.first)
        recorded = None
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            recorded = json.loads(DIGESTS.read_text()).get(w.name)
        if recorded is not None and len(recorded) != len(ops):
            return self.attempted, [f"digests.json holds {len(recorded)} ops, pass has {len(ops)}"]
        failed = 0
        messages = []
        for i, op in enumerate(ops):
            ref = digest(self.first[i])
            err = errors[i]
            if isinstance(self.first[i], Raised):
                err = f"raised {self.first[i].text}"
            elif recorded is not None and ref != recorded[i]:
                err = err or "output differs from the digest recorded for the default seed"
            bad = [d for d in self.digests[i] if d != ref]
            if err:
                failed += len(self.digests[i])
                messages.append(f"{op.name}: {err}")
            elif bad:
                failed += len(bad)
                messages.append(f"{op.name}: {len(bad)} repeats differ from the first output")
        return failed, messages


def run_pass(ops, outcome: Outcome, deadline: float | None = None) -> float:
    """Run the ops in order, each followed by ``calibrate``, stopping early
    once ``deadline`` has passed; return the wall time inside the ops."""
    total = 0.0
    for i, op in enumerate(ops):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        dt, output = run_op(op)
        outcome.add(i, dt, output)
        outcome.kernels.append(calibrate())
        total += dt
    return total


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(w, inputs, seed: int, seconds: float) -> dict:
    """The measured passes of a worker process, after its set-up."""
    from workloads import nproc

    gc.collect()
    gc.freeze()
    threads = nproc()
    ops = w.pass_ops(inputs, threads)
    outcome = Outcome(len(ops))
    deadline = time.perf_counter() + seconds
    run_pass(ops, outcome)
    passes = 1
    while time.perf_counter() < deadline:
        run_pass(w.pass_ops(inputs, threads), outcome, deadline)
        passes += 1
    rss = peak_rss_mb()
    failed, messages = outcome.check(w, inputs, seed, ops)
    def latency(times: list[list[float]]) -> tuple[float, float, float]:
        med = [statistics.median(d) for d in times]
        p90 = statistics.quantiles(med, n=10, method="inclusive")[8]
        return len(med) / sum(med), statistics.median(med) * 1e3, p90 * 1e3

    wall = latency(outcome.wall)
    scale = CAL_REF_S / statistics.median(outcome.kernels)
    metrics = {
        "ops_per_s": (wall[0] / scale, "1/s"),
        "op_ms_p50": (wall[1] * scale, "ms"),
        "op_ms_p90": (wall[2] * scale, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = [
        f"{passes} passes started, {len(ops)} ops per pass, threads={threads}; "
        f"latency percentiles over the {len(ops)} per-op medians",
    ]
    result = _result(w.name, outcome.attempted, failed, messages, metrics, info)
    result["wall_clock"] = dict(zip(("ops_per_s", "op_ms_p50", "op_ms_p90"), wall))
    return result


def spawn_until_ready(workload: str, seed: int, child: str, seconds: float) -> tuple[float, str]:
    """Start a fresh benchmark process; return the wall seconds from
    spawning it to its 'ready' line, and the rest of its standard output."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--child", child]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=600)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or not (rest.strip() or child == "probe"):
        raise RuntimeError(f"{child} process for {workload} failed (exit code {proc.returncode})")
    return ready, rest


def measured_run(workload: str, seed: int, seconds: float) -> dict:
    setups, kernels = [], []

    def probe() -> None:
        kernels.append(calibrate())
        setups.append(spawn_until_ready(workload, seed, "probe", seconds)[0])
        kernels.append(calibrate())

    for _ in range(PROBES_EACH_SIDE):
        probe()
    ready, out = spawn_until_ready(workload, seed, "measure", seconds)
    for _ in range(PROBES_EACH_SIDE):
        probe()
    result = json.loads(out.splitlines()[-1])
    setup_s = statistics.median(setups)
    result["json"]["metrics"] = {
        "setup_s": {"value": setup_s * CAL_REF_S / statistics.median(kernels), "unit": "s"},
        **result["json"]["metrics"],
    }
    result["wall_clock"] = {"setup_s": setup_s, **result["wall_clock"]}
    result["info"].append(f"set-up wall times (s): {' '.join(f'{s:.4f}' for s in setups)}, "
                          f"measured worker's {ready:.4f}")
    return result


def traced_run(w, seed: int, workdir: Path) -> dict:
    from tracer import Tracer, layer_metrics
    from workloads import nproc

    inputs = set_up(w, seed, workdir)
    gc.collect()
    gc.freeze()
    ops = w.pass_ops(inputs, 1)
    outcome = Outcome(len(ops))
    untraced = run_pass(ops, outcome)
    efficiency = 0.0
    info = []
    if w.parallel:
        threads = nproc()
        parallel = run_pass(w.pass_ops(inputs, threads), outcome)
        efficiency = untraced / (threads * parallel)
        info.append(f"serial pass {untraced:.4f}s, {threads}-thread pass {parallel:.4f}s")
    traced_ops = w.pass_ops(inputs, 1)
    with Tracer() as t:
        traced = run_pass(traced_ops, outcome)
    failed, messages = outcome.check(w, inputs, seed, ops)
    spans = OUT_DIR / f"spans-{w.name}-seed{seed}.tsv"
    t.write(spans)
    info.append(f"untraced pass {untraced:.4f}s, traced pass {traced:.4f}s, "
                f"{len(t.start)} spans written to {spans.relative_to(ROOT)}")
    metrics = layer_metrics(t, traced, untraced, efficiency)
    return _result(w.name, outcome.attempted, failed, messages, metrics, info)


def _result(name, attempted, failed, messages, metrics, info) -> dict:
    return {
        "workload": name,
        "info": info,
        "messages": messages,
        "failed_frac": failed / attempted,
        "json": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _report(result: dict) -> None:
    print(f"workload {result['workload']}")
    for line in result["info"]:
        print(f"  {line}")
    if "wall_clock" in result:
        print("  wall clock: " + ", ".join(
            f"{k} {v:.6g}" for k, v in result["wall_clock"].items()))
    for msg in result["messages"]:
        print(f"  FAILED {msg}")
    for name, m in result["json"]["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<34} {result['failed_frac']:>14.6g} "
          f"({result['json']['failed']}/{result['json']['attempted']} ops)")


def _print(result: dict) -> None:
    _report(result)
    print(json.dumps(result["json"]))


def record_digests(w, seed: int, workdir: Path) -> int:
    inputs = set_up(w, seed, workdir)
    ops = w.pass_ops(inputs, 1)
    outputs = [run_op(op)[1] for op in ops]
    errors = [e for e in w.verify(inputs, outputs) if e]
    if errors or any(isinstance(o, Raised) for o in outputs):
        print(f"error: {w.name} outputs fail their check, not recorded: {errors[:3]}",
              file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[w.name] = [digest(o) for o in outputs]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(outputs)} op digests for {w.name}")
    return 0


def run_all(args) -> int:
    """Every workload, one after another.  Measured runs already isolate
    each set-up and measurement in fresh processes; traced runs and digest
    recording set up in-process, so each workload gets a process of its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        if not (args.trace or args.record_digests):
            result = measured_run(name, args.seed, args.seconds)
            _report(result)
            res = result["json"]
            code = code or int(not res["correct"])
        else:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(args.trace)]
            if args.record_digests:
                cmd.append("--record-digests")
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            code = code or proc.returncode
            if args.record_digests:
                print("\n".join(lines))
                continue
            print("\n".join(lines[:-1]))
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"error: {name} printed no result (exit code {proc.returncode})",
                      file=sys.stderr)
                return proc.returncode or 1
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            summary["metrics"][f"{name}/{k}"] = v
    if not args.record_digests:
        print(json.dumps(summary))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of a measured run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store per-op output digests for the default seed")
    # a child process sets the workload up, prints 'ready', then stops
    # (probe) or runs the measured passes and prints their result (measure)
    parser.add_argument("--child", choices=("probe", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    _import_program()
    if args.workload == "all":
        return run_all(args)
    if not (args.trace or args.record_digests or args.child):
        result = measured_run(args.workload, args.seed, args.seconds)
        _print(result)
        return 0 if result["json"]["correct"] else 1

    from workloads import DEFAULT_SEED, WORKLOADS

    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{w.name}-", dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        if args.record_digests:
            return record_digests(w, DEFAULT_SEED, workdir)
        if args.trace:
            result = traced_run(w, args.seed, workdir)
            _print(result)
            return 0 if result["json"]["correct"] else 1
        inputs = set_up(w, args.seed, workdir)
        print("ready", flush=True)
        if args.child == "measure":
            print(json.dumps(measure(w, inputs, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
