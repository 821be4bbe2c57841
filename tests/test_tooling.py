"""Guards for the benchmark's hooks into graphcount.

The tracer patches graphcount by module attribute, so a rename inside
graphcount breaks ``perfbench/run.py --trace 1``; and the workloads check
counts against their own kind-to-oracle dispatch and ``graphcount oracle``,
and verdicts against the README's witness verdicts.  These guards make such a
break fail the tests instead.  A last guard keeps kernel compilation in
each workload's warm-up, out of its timed ops."""

import importlib
from pathlib import Path

import pytest

from graphcount import cli, engine, oracle, refinement
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
