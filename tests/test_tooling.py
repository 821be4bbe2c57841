"""Guards for the benchmark's hooks into graphcount.

The tracer patches graphcount by module attribute, so a rename inside
graphcount breaks ``perfbench/run.py --trace 1``; and the workloads check
counts against their own kind-to-oracle dispatch and ``graphcount oracle``.
These guards make such a break fail the tests instead."""

import importlib
from pathlib import Path

from graphcount import cli, oracle
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
