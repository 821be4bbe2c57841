"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces the module attributes through which graphcount's layers
call each other with wrappers that record one span per call: name, start,
end and parent span.  Spans live in flat arrays in memory and are written
out once the run ends.  A span's self time is its duration minus the part
of it that its child spans cover.  The time a wrapper spends computing a
span's work counters is covered by the span as seen from its parent but is
not part of its own duration, so it lands in no layer.

Layers are graphcount's modules.  What each per-layer metric should move:

* ``graph.parse_s``: ``ops_per_s`` on corpus-small and cli-clustered.
* ``extraction.*``: ``ops_per_s`` on count-regular and refine-pairs;
  ``us_per_subgraph`` growing with N exposes quadratic extraction paths.
* ``engine.*``: ``ops_per_s`` on count-regular and cli-clustered and
  ``op_ms_p50`` on corpus-small; flat (zero) on refine-pairs.
* ``counting.*``: ``ops_per_s`` on the counting workloads;
  ``edge_visits_per_root`` stays constant in N for every kind except the
  closed-walk counts, which run over the whole graph per root.
* ``refinement.*``: ``ops_per_s`` and ``op_ms_p90`` on refine-pairs only.
* ``cli.*``: ``ops_per_s`` on cli-clustered.

Work counters (subgraphs, nodes, edges, calls, edge visits, roots, CSV
bytes) come from the arguments and results of the traced calls, so they
repeat exactly for one seed.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

from graphcount import cli, counting, engine, extraction, graph, refinement

from workloads import COUNT_KINDS


def _extraction_counters(args, kwargs, sub):
    return len(sub.nodes), sum(map(len, sub.adj))


def _message_layers(prog) -> int:
    return sum(1 for layer in prog.layers if layer.message)


def _run_program_counters(args, kwargs, states):
    sub, prog = args
    return sum(map(len, sub.adj)) * _message_layers(prog), 0


def _run_counters(args, kwargs, states):
    prog, adjacency = args[0], args[1]
    return sum(map(len, adjacency)) * _message_layers(prog), 0


def _count_counters(args, kwargs, rep):
    kind = COUNT_KINDS.index(rep.kind) if rep.kind in COUNT_KINDS else -1
    return len(rep.node_counts), kind


def _cli_counters(args, kwargs, rc):
    argv = args[0]
    out = Path(argv[argv.index("--out") + 1])
    return (out.stat().st_size if out.exists() else 0), 0


# (module, attribute, layer, counters); the attribute is the name the
# calling module looks the function up by at call time
TARGETS = (
    (graph, "parse_graph6", "graph", None),
    (cli, "load_graph", "graph", None),
    (counting, "extract_rooted", "extraction", _extraction_counters),
    (counting, "with_branching", "extraction", _extraction_counters),
    (counting, "identity_labeled_graph", "extraction", _extraction_counters),
    (refinement, "extract_rooted", "extraction", _extraction_counters),
    (extraction, "extract_rooted", "extraction", _extraction_counters),
    (extraction, "with_branching", "extraction", _extraction_counters),
    (counting, "run_program", "engine", _run_program_counters),
    (counting, "run", "engine", _run_counters),
    (counting, "apply_readout", "engine", None),
    (engine, "required_labels", "engine", None),
    (counting, "count", "counting", _count_counters),
    (refinement, "distinguish", "refinement", None),
    (cli, "main", "cli", _cli_counters),
)


class Tracer:
    """Records spans while installed; ``with Tracer() as t:`` patches the
    targets and restores them on exit."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # name id -> (layer, "module.attr")
        self.start = array("q")
        self.end = array("q")  # end of the wrapped call
        self.close = array("q")  # end including counter bookkeeping
        self.parent = array("q")
        self.name = array("H")
        self.c1 = array("q")
        self.c2 = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, counters):
        start, end, close, parent = self.start, self.end, self.close, self.parent
        names, c1, c2, stack = self.name, self.c1, self.c2, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(clock())
            end.append(0)
            close.append(0)
            parent.append(stack[-1])
            names.append(name_id)
            c1.append(0)
            c2.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = close[idx] = clock()
                stack.pop()
            if counters is not None:
                c1[idx], c2[idx] = counters(args, kwargs, result)
                close[idx] = clock()
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, layer, counters in TARGETS:
            fn = getattr(module, attr)
            self.names.append((layer, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"))
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(len(self.names) - 1, fn, counters))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """One span per line: id, parent, layer, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tlayer\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                layer, name = self.names[self.name[i]]
                fh.write(
                    f"{i}\t{self.parent[i]}\t{layer}\t{name}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )


def layer_metrics(
    t: Tracer,
    traced_wall_s: float,
    untraced_wall_s: float,
    parallel_efficiency: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    n = len(t.start)
    layer_of = [t.names[i][0] for i in t.name]
    name_of = [t.names[i][1] for i in t.name]
    covered = [0] * n
    root_cover = 0
    for i in range(n):
        span = t.close[i] - t.start[i]
        p = t.parent[i]
        if p < 0:
            root_cover += span
        else:
            covered[p] += span
    self_s = {"graph": 0.0, "extraction": 0.0, "engine": 0.0, "counting": 0.0,
              "refinement": 0.0, "cli": 0.0}
    parse_s = run_s = required_s = readout_s = 0.0
    subgraphs = nodes = edges = calls = visits = roots = csv_bytes = refined = 0
    kind_s = dict.fromkeys(COUNT_KINDS, 0.0)
    for i in range(n):
        dur = (t.end[i] - t.start[i]) / 1e9
        layer, name = layer_of[i], name_of[i]
        self_s[layer] += dur - covered[i] / 1e9
        if layer == "graph":
            parse_s += dur
        elif layer == "extraction":
            subgraphs += 1
            nodes += t.c1[i]
            edges += t.c2[i]
            p = t.parent[i]
            if p >= 0 and layer_of[p] == "refinement":
                refined += 1
        elif name.endswith(".required_labels"):
            required_s += dur
        elif name.endswith(".apply_readout"):
            readout_s += dur
        elif layer == "engine":
            run_s += dur
            calls += 1
            visits += t.c1[i]
        elif layer == "counting":
            roots += t.c1[i]
            if t.c2[i] >= 0:
                kind_s[COUNT_KINDS[t.c2[i]]] += dur
        elif layer == "cli":
            csv_bytes += t.c1[i]
    wall = traced_wall_s

    def share(layer: str) -> float:
        return self_s[layer] / wall if wall else 0.0

    m: dict[str, tuple[float, str]] = {
        "graph.parse_s": (parse_s, "s"),
        "extraction.self_s": (self_s["extraction"], "s"),
        "extraction.share": (share("extraction"), "frac"),
        "extraction.subgraphs": (subgraphs, "count"),
        "extraction.nodes": (nodes, "count"),
        "extraction.edges": (edges, "count"),
        "extraction.us_per_subgraph": (
            self_s["extraction"] / subgraphs * 1e6 if subgraphs else 0.0, "us"),
        "engine.run_s": (run_s, "s"),
        "engine.share": (share("engine"), "frac"),
        "engine.required_labels_s": (required_s, "s"),
        "engine.readout_s": (readout_s, "s"),
        "engine.calls": (calls, "count"),
        "engine.edge_visits": (visits, "count"),
        "engine.ns_per_edge_visit": (run_s / visits * 1e9 if visits else 0.0, "ns"),
        "counting.self_s": (self_s["counting"], "s"),
        "counting.roots": (roots, "count"),
        "counting.edge_visits_per_root": (visits / roots if roots else 0.0, "count"),
        "counting.parallel_efficiency": (parallel_efficiency, "frac"),
    }
    for kind in COUNT_KINDS:
        m[f"counting.kind_s.{kind}"] = (kind_s[kind], "s")
    m.update({
        "refinement.self_s": (self_s["refinement"], "s"),
        "refinement.share": (share("refinement"), "frac"),
        "refinement.subgraphs": (refined, "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.csv_bytes": (csv_bytes, "bytes"),
        "trace.overhead_frac": (
            traced_wall_s / untraced_wall_s - 1.0 if untraced_wall_s else 0.0, "frac"),
        "trace.unattributed_s": (wall - root_cover / 1e9, "s"),
    })
    return m


# counters that must repeat exactly across traced runs of one seed
DETERMINISTIC = (
    "extraction.subgraphs",
    "extraction.nodes",
    "extraction.edges",
    "engine.calls",
    "engine.edge_visits",
    "counting.roots",
    "counting.edge_visits_per_root",
    "refinement.subgraphs",
    "cli.csv_bytes",
)
