"""Guards for the benchmark's hooks into graphcount.

The tracer patches graphcount by module attribute, so a rename inside
graphcount breaks ``perfbench/run.py --trace 1``; and the workloads check
counts against their own kind-to-oracle dispatch and ``graphcount oracle``,
and verdicts against the README's witness verdicts.  These guards make such a
break fail the tests instead.  Another keeps kernel compilation in each
workload's warm-up, out of its timed ops, and two last ones find top-level
names of the library that nothing uses, and imports that ``counting`` keeps
only for the tracer."""

import ast
import importlib
from pathlib import Path

import pytest

import graphcount
from graphcount import cli, counting, engine, oracle, refinement
from graphcount.generators import gen_random

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
    monkeypatch.setattr(engine, "_KERNELS", {})
    monkeypatch.setattr(engine, "_RADII", {})
    workload = workloads.WORKLOADS[name]
    workload.warm_up(tmp_path)
    compiled = dict(engine._KERNELS), dict(engine._RADII)
    for op in workload.pass_ops(workload.inputs(0, tmp_path), 1):
        op.run()
    assert (engine._KERNELS, engine._RADII) == compiled


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
