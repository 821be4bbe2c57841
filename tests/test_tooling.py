"""Guards for the benchmark's hooks into graphcount.

The tracer patches graphcount by module attribute, so a rename inside
graphcount breaks ``perfbench/run.py --trace 1``; and the workloads check
counts against their own kind-to-oracle dispatch and ``graphcount oracle``,
and verdicts against the README's witness verdicts.  These guards make such a
break fail the tests instead.  Another keeps kernel compilation in each
workload's warm-up, out of its timed ops, two find top-level names of the
library that nothing uses, and imports that ``counting`` keeps only for the
tracer, and one keeps ``multiprocessing`` out of the CLI's imports.  The
tools under ``tools/`` are checked too: the code-line counter, with the size
of each module that it measures, the pytest plugin that records the kernel
sources a run compiles, and the script that digests every count report."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphcount
from graphcount import cli, counting, engine, oracle, refinement
from graphcount.generators import gen_complete, gen_cycle, gen_random
from test_engine import _KERNEL_MD5

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_every_traced_attribute_exists(monkeypatch):
    tracer = _perfbench_module(monkeypatch, "tracer")
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracer.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert tracer.TARGETS and missing == []


def test_workload_oracle_dispatch_matches_the_twins(monkeypatch):
    workloads = _perfbench_module(monkeypatch, "workloads")
    g = gen_random(12, 0.4, 3)
    for kind in workloads.COUNT_KINDS:
        twin = oracle.TWINS[kind](g, oracle.DEFAULT_BUDGET)
        assert workloads.oracle_tuple(kind, g) == workloads.report_tuple(twin), kind


def test_workload_cli_kinds_are_oracle_choices(monkeypatch):
    workloads = _perfbench_module(monkeypatch, "workloads")
    assert set(workloads.CLI_KINDS) <= set(cli._ORACLE_KINDS)


def test_workload_readme_verdicts_match_distinguish(monkeypatch):
    workloads = _perfbench_module(monkeypatch, "workloads")
    pairs = {tag: (g1, g2) for tag, g1, g2 in workloads.RefinePairs()._witness_pairs()}
    methods = {label: (method, kw) for label, method, kw in workloads.REFINE_METHODS}
    assert workloads.README_VERDICTS
    for (tag, label), want in workloads.README_VERDICTS.items():
        method, kw = methods[label]
        for exact in (False, True):
            got = refinement.distinguish(*pairs[tag], method, exact=exact, **kw)
            assert got == want, (tag, label, exact)


@pytest.mark.parametrize("name", ["count-regular", "corpus-small", "cli-clustered"])
def test_warm_up_compiles_every_kernel_the_timed_ops_use(monkeypatch, tmp_path, name):
    # the ops run with one thread, so that every kernel they use is compiled
    # in this process, where the warm-up must already have compiled it
    workloads = _perfbench_module(monkeypatch, "workloads")
    # the kernel cache key covers each kernel's radius analysis too
    monkeypatch.setattr(engine, "_KERNELS", {})
    workload = workloads.WORKLOADS[name]
    workload.warm_up(tmp_path)
    compiled = dict(engine._KERNELS)
    for op in workload.pass_ops(workload.inputs(0, tmp_path), 1):
        op.run()
    assert engine._KERNELS == compiled


ROOT = PERFBENCH.parent


def _trees(*dirs):
    return {
        path: ast.parse(path.read_text())
        for d in dirs for path in sorted((ROOT / d).rglob("*.py"))
    }


def _definitions(tree):
    """(name, node) for each name a module's top level defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _mentions(tree):
    """(identifier, node) for each name, attribute, import or string a tree
    holds: the tracer names its targets by strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.asname or node.name, node
        elif isinstance(node, ast.Constant) and type(node.value) is str:
            yield node.value, node


def test_every_library_name_is_used():
    # a top-level name of the library that nothing reads outside its own
    # definition, and that is not exported, is dead code
    trees = _trees("src", "tests", "perfbench")
    mentions: dict = {}
    for path, tree in trees.items():
        for name, node in _mentions(tree):
            mentions.setdefault(name, []).append((path, node.lineno))
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {name}"
        for path, tree in trees.items() if (ROOT / "src") in path.parents
        for name, node in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in graphcount.__all__
        and all(
            at == path and node.lineno <= line <= node.end_lineno
            for at, line in mentions.get(name, ())
        )
    ]
    assert unused == []


def test_counting_imports_only_what_it_uses_or_the_tracer_wraps(monkeypatch):
    # an import that counting does not use must be one the tracer wraps on
    # counting, and each such name must be imported, not defined there
    tracer = _perfbench_module(monkeypatch, "tracer")
    tree = ast.parse((ROOT / "src" / "graphcount" / "counting.py").read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    defined = {name for name, _ in _definitions(tree)}
    wrapped = {attr for module, attr, _, _ in tracer.TARGETS if module is counting}
    assert imported - used == wrapped - defined


_FIXTURE = '''"""A module docstring
over two lines."""

# a comment-only line
import os


def f(a,
      b):
    """One docstring line."""

    return (a +  # a trailing comment
            b)


class C:
    """A class docstring,

    with a blank line inside."""

    x = """a string
that is not a docstring"""
'''


def test_code_line_counter_skips_blanks_comments_and_docstrings(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    tool = importlib.import_module("code_lines")
    # 22 lines; the 8 code lines are the import, the two lines of f's
    # signature, the two of its return, the class line and the two lines of
    # the string assigned to x
    assert tool.code_lines(_FIXTURE) == (22, 8)
    # its 38 parser tokens hold its NEWLINE, INDENT, DEDENT and ENDMARKER
    # tokens, but neither its comments nor the NL of blank and continued lines
    assert tool.parser_tokens(_FIXTURE) == 38
    path = tmp_path / "fixture.py"
    path.write_text(_FIXTURE)
    assert tool.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total\t44\t16\t76"
    assert tool.main([]) == 2


def test_every_module_stays_below_two_to_the_fourteen_parser_tokens(monkeypatch):
    """Each process compiles the modules it imports where no bytecode is
    written, as in the benchmark's runs.  With tracemalloc on Python 3.11,
    compile() of engine.py peaked about 0.9 MB higher once its source
    passed 16,384 parser tokens (CHANGES.md records the measurement), and
    every workload's peak_rss_mb would carry that."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    tool = importlib.import_module("code_lines")
    tokens = {
        path.name: tool.parser_tokens(path.read_text())
        for path in sorted((ROOT / "src" / "graphcount").glob("*.py"))
    }
    assert "engine.py" in tokens and max(tokens.values()) < 2**14, tokens


def test_importing_the_cli_leaves_multiprocessing_out():
    # count() forks its workers itself; importing multiprocessing cost every
    # process that imports graphcount about 7 ms of start-up
    src = Path(engine.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, graphcount.cli; print('multiprocessing' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout == "False\n", proc.stderr


def test_count_digests_cover_every_report(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    tool = importlib.import_module("count_digests")
    named = {"k4": gen_complete(4), "c7": gen_cycle(7)}
    lines = tool.digests(named)
    assert lines == sorted(lines) and len(set(lines)) == len(lines)
    # per graph: 19 plans at two radii, two path4-edge tables, and the walks
    # of 6 lengths from 2 nodes
    assert len(lines) == 2 * (19 * 2 + 2 + 6 * 2)
    report = hashlib.md5(repr(counting.count("tailed_triangle", named["k4"], 2)).encode())
    assert f"k4 count-tailed_triangle-2 {report.hexdigest()}" in lines
    assert len(tool.graphs()) == 87


def test_kernel_capture_records_every_compiled_kernel(tmp_path):
    # the plugin that proves kernels byte-identical between two checkouts
    # must see each kernel the frozen-source test compiles
    out = tmp_path / "kernels.txt"
    src = Path(engine.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "tools")])}
    test = "tests/test_engine.py::test_kernel_sources_are_frozen"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "kernel_capture",
         "--kernel-md5", str(out), test],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout
    digests = out.read_text().split()
    assert digests == sorted(set(digests))
    assert {d for row in _KERNEL_MD5.values() for d in row} <= set(digests)


_STUB_RUN = '''import json
print("workload count-regular")
print("  {passes} passes started, 12 ops per pass, threads=2; latency percentiles")
print(json.dumps({{"correct": {correct}, "attempted": 12, "failed": {failed},
                  "metrics": {{"ops_per_s": {{"value": {ops}, "unit": "1/s"}},
                              "setup_s": {{"value": 0.2, "unit": "s"}}}}}}))
'''


def _stub_checkout(root, ops, correct=True):
    (root / "perfbench").mkdir(parents=True)
    (root / "src" / "graphcount").mkdir(parents=True)
    (root / "src" / "graphcount" / "engine.py").write_text("x = 1\n")
    (root / "BENCHMARK.json").write_text(
        '{"run_seconds": 20, "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}')
    run = _STUB_RUN.format(passes=7, correct=correct, failed=int(not correct), ops=ops)
    (root / "perfbench" / "run.py").write_text(run)
    return root


def test_bench_pairs_tabulates_alternating_runs_of_two_checkouts(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    tool = importlib.import_module("bench_pairs")
    parent = _stub_checkout(tmp_path / "parent", 100.0)
    change = _stub_checkout(tmp_path / "change", 110.0)
    argv = [str(parent), str(change), "--workload", "count-regular", "--pairs", "3", "--label", "t"]
    assert tool.main([*argv, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    # the parent runs first in even pairs, the change first in odd ones
    assert [(r["pair"], r["side"]) for r in report["runs"]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"), (2, "change")]
    assert all(r["correct"] and r["failed"] == 0 and r["passes_started"] == 7 for r in report["runs"])
    assert report["sides"]["change"]["ops_per_s"] == {"median": 110.0, "q1": 110.0, "q3": 110.0}
    assert report["parent_quartile_distance"] == {"ops_per_s": 0.0, "setup_s": 0.0}
    # higher ops_per_s wins by BENCHMARK.json; setup_s, not listed, ties
    assert [p["winner"] for p in report["pairs"]] == [{"ops_per_s": "change", "setup_s": "tie"}] * 3
    assert report["pairs"][0]["ratio"]["ops_per_s"] == pytest.approx(1.1)
    assert report["wins"]["ops_per_s"] == 3 and report["seconds"] == 20
    assert report["command"][-4:] == ["--seed", "0", "--seconds", "20"]
    assert set(report["engine_compile_s"]) == {"parent", "change"}
    assert set(report["host"]) == {"nproc", "python", "PYTHONDONTWRITEBYTECODE"}
    # a run that is not correct makes the exit code nonzero
    broken = _stub_checkout(tmp_path / "broken", 90.0, correct=False)
    assert tool.main([str(parent), str(broken), *argv[2:], "--out", str(tmp_path)]) == 1
