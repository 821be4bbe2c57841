import errno
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from conftest import BAD_EDGELISTS, BAD_GRAPH6_FILES, to_graph6
from graphcount import cli, counting, refinement
from graphcount.bench import BenchRow
from graphcount.cli import main
from graphcount.engine import MissingLabelError, ProgramError
from graphcount.extraction import node_deletion
from graphcount.generators import (
    gen_complete,
    gen_coned_cycles,
    gen_cycle,
    gen_cycle_pair,
    gen_random,
    gen_rook4x4,
    gen_shrikhande,
)
from graphcount.graph import save_graph


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def c6_file(tmp_path):
    path = tmp_path / "c6.el"
    save_graph(gen_cycle(6), path)
    return str(path)


def test_count_cycle6_node_level(c6_file, capsys):
    code, out, _ = run_cli(
        ["count", "--input", c6_file, "--substructure", "cycle6"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "node,count"
    assert lines[1:] == [f"{i},1" for i in range(6)]


def test_count_graph_level_matches_oracle(tmp_path, capsys):
    rook = tmp_path / "rook.el"
    save_graph(gen_rook4x4(), rook)
    code, out, _ = run_cli(
        ["count", "--input", str(rook), "--substructure", "cycle3",
         "--level", "graph"], capsys
    )
    assert code == 0
    assert out.splitlines() == ["count", "32"]
    code, oracle_out, _ = run_cli(
        ["oracle", "--input", str(rook), "--substructure", "cycle3",
         "--level", "graph"], capsys
    )
    assert code == 0
    assert oracle_out == out


def test_count_insufficient_hops_exit_3(c6_file, capsys):
    for kind, hops in (("cycle6", "2"), ("path2", "1")):
        code, _, err = run_cli(
            ["count", "--input", c6_file, "--substructure", kind, "--hops", hops],
            capsys,
        )
        assert code == 3
        assert "radius" in err


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad"
    cases = [("edgelist", "2 1\n0 0\n", "self-loop")]
    cases += [("edgelist", *case) for case in BAD_EDGELISTS.items()]
    cases += [("graph6", *case) for case in BAD_GRAPH6_FILES.items()]
    for fmt, text, message in cases:
        bad.write_text(text)
        code, out, err = run_cli(
            ["count", "--input", str(bad), "--format", fmt, "--substructure", "cycle3"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(
        ["count", "--input", "/nonexistent.el", "--substructure", "cycle3"], capsys
    )
    assert code == 2


def test_directory_as_input_or_output_exit_2(c6_file, tmp_path, capsys):
    code, _, err = run_cli(
        ["count", "--input", str(tmp_path), "--substructure", "cycle3"], capsys
    )
    assert code == 2
    assert err.startswith("error: ")
    code, _, err = run_cli(
        ["count", "--input", c6_file, "--substructure", "cycle3",
         "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert err.startswith("error: ")


def test_threads_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._cpu_default() == 1
    args = cli.build_parser().parse_args(["count", "--input", "g", "--substructure", "cycle3"])
    assert args.threads == 1
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    assert cli._cpu_default() == 8


@pytest.mark.parametrize("fault", [ProgramError, MissingLabelError])
def test_internal_fault_exit_5(c6_file, capsys, monkeypatch, fault):
    def broken(*args, **kwargs):
        raise fault("program references state component 9")

    monkeypatch.setattr(counting, "count", broken)
    code, _, err = run_cli(
        ["count", "--input", c6_file, "--substructure", "cycle3"], capsys
    )
    assert code == 5
    assert "internal fault" in err


def test_cycle9_usage_error(c6_file):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--input", c6_file, "--substructure", "cycle9"])
    assert exc.value.code == 2


def test_oracle_supports_cycles_7_and_8(tmp_path, capsys):
    c8 = tmp_path / "c8.el"
    save_graph(gen_cycle(8), c8)
    code, out, _ = run_cli(
        ["oracle", "--input", str(c8), "--substructure", "cycle8",
         "--level", "graph"], capsys
    )
    assert (code, out.splitlines()[1]) == (0, "1")
    code, out, _ = run_cli(
        ["oracle", "--input", str(c8), "--substructure", "cycle7",
         "--level", "graph"], capsys
    )
    assert (code, out.splitlines()[1]) == (0, "0")


def test_oracle_budget_exit_3(tmp_path, capsys):
    k20 = tmp_path / "k20.el"
    save_graph(gen_complete(20), k20)
    code, _, err = run_cli(
        ["oracle", "--input", str(k20), "--substructure", "cycle8"], capsys
    )
    assert code == 3
    assert "budget" in err


def test_graphlet_oracle_budget_exit_3(tmp_path, capsys):
    k20 = tmp_path / "k20.el"
    save_graph(gen_complete(20), k20)
    for kind in ("clique4", "chordal_cycle", "tailed_triangle", "triangle_rectangle"):
        code, _, err = run_cli(
            ["oracle", "--input", str(k20), "--substructure", kind, "--budget", "1"],
            capsys,
        )
        assert code == 3, kind
        assert "budget" in err


@pytest.mark.parametrize("kind", ["cycle6", "walk3"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_oracle_budget_below_one_usage_error(c6_file, capsys, kind, budget):
    # walk twins ignore the budget, so without the check walk3 exits 0
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--input", c6_file, "--substructure", kind, "--budget", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--budget: must be at least 1, got {budget}" in captured.err


def test_count_and_oracle_outputs_diff_clean(tmp_path, capsys):
    runs = [(kind, level, []) for kind in cli._COUNT_KINDS for level in ("node", "graph")]
    runs.append(("cycle6", "node", ["--verbose"]))
    for seed in range(3):
        g = gen_random(10, 0.35, seed)
        path = tmp_path / f"g{seed}.el"
        save_graph(g, path)
        for kind, level, extra in runs:
            args = ["--input", str(path), "--substructure", kind, "--level", level]
            code, count_out, _ = run_cli(["count"] + args + extra, capsys)
            assert code == 0
            code, oracle_out, _ = run_cli(["oracle"] + args + extra, capsys)
            assert code == 0
            assert count_out == oracle_out, (kind, level, extra)


def test_count_out_file(c6_file, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, stdout, _ = run_cli(
        ["count", "--input", c6_file, "--substructure", "cycle3",
         "--out", str(out)], capsys
    )
    assert code == 0
    assert stdout == ""
    assert out.read_text().splitlines()[0] == "node,count"


def _count_c6(c6_file, capsys, out=None):
    """``count`` of cycle6 with pattern columns, to ``out`` or to stdout."""
    argv = ["count", "--input", c6_file, "--substructure", "cycle6", "--verbose",
            "--threads", "1"]
    return run_cli(argv + ([] if out is None else ["--out", str(out)]), capsys)


def test_count_out_overwrites_a_longer_or_shorter_file_exactly(c6_file, tmp_path, capsys):
    code, want, _ = _count_c6(c6_file, capsys)
    assert code == 0
    out = tmp_path / "report.csv"
    for old in ("x" * (3 * len(want) + 5000), "y\n"):
        out.write_text(old)
        code, stdout, _ = _count_c6(c6_file, capsys, out)
        assert (code, stdout) == (0, "")
        assert out.read_text() == want


def test_count_out_to_dev_null_exits_0(c6_file, capsys):
    # a character device is written and not cut: ftruncate would fail on it
    code, stdout, err = _count_c6(c6_file, capsys, os.devnull)
    assert (code, stdout, err) == (0, "", "")


def test_rewriting_a_report_neither_truncates_on_open_nor_cuts_below_it(
    c6_file, tmp_path, capsys, monkeypatch
):
    # the saving of an in-place write, without timing it: opening with
    # O_TRUNC frees the old file's blocks, which can cost tens of ms
    out = tmp_path / "report.csv"
    assert _count_c6(c6_file, capsys, out)[0] == 0
    size = out.stat().st_size
    opens, cuts = [], []
    real_open, real_ftruncate = os.open, os.ftruncate
    monkeypatch.setattr(os, "open", lambda path, flags, *a, **kw: opens.append(
        (str(path), flags)) or real_open(path, flags, *a, **kw))
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: cuts.append(n) or real_ftruncate(fd, n))
    assert _count_c6(c6_file, capsys, out)[0] == 0
    written = [flags for path, flags in opens if path == str(out)]
    assert len(written) == 1 and not written[0] & os.O_TRUNC
    assert cuts == [size] and out.stat().st_size == size


def test_a_failed_report_write_leaves_a_prefix_and_exits_2(c6_file, tmp_path, capsys, monkeypatch):
    code, want, _ = _count_c6(c6_file, capsys)
    out = tmp_path / "report.csv"
    out.write_text("z" * (2 * len(want)))
    real_write = os.write
    calls = []

    def write(fd, data):
        # the first call writes one chunk, the next finds the disk full
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, bytes(data[:10]))

    monkeypatch.setattr(os, "write", write)
    code, stdout, err = _count_c6(c6_file, capsys, out)
    monkeypatch.undo()
    assert (code, stdout) == (2, "") and "No space left on device" in err
    assert len(calls) == 2 and out.read_text() == want[:10]


def test_verbose_pattern_columns(c6_file, capsys):
    code, out, _ = run_cli(
        ["count", "--input", c6_file, "--substructure", "cycle6", "--verbose"],
        capsys,
    )
    lines = out.splitlines()
    assert lines[0] == "node,count,pattern0,pattern1,pattern2,pattern3,pattern4"
    assert lines[1] == "0,1,2,0,0,0,0"
    code, oracle_out, _ = run_cli(
        ["oracle", "--input", c6_file, "--substructure", "cycle6", "--verbose"],
        capsys,
    )
    assert oracle_out.splitlines()[0] == lines[0]
    assert oracle_out == out


def test_empty_graph_empty_report(tmp_path, capsys):
    empty = tmp_path / "empty.el"
    empty.write_text("0 0\n")
    code, out, _ = run_cli(
        ["oracle", "--input", str(empty), "--substructure", "cycle4"], capsys
    )
    assert code == 0
    assert out == "node,count\n"


def test_threads_flag_deterministic(tmp_path, capsys):
    path = tmp_path / "g.el"
    save_graph(gen_random(70, 0.08, 5), path)
    outputs = []
    for t in ("1", "2", "3"):
        code, out, _ = run_cli(
            ["count", "--input", str(path), "--substructure", "cycle6",
             "--threads", t], capsys
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("error, code", [(ArithmeticError, 4), (ProgramError, 5)])
def test_a_worker_exception_keeps_its_type(tmp_path, capsys, monkeypatch, error, code):
    parent, spec = os.getpid(), counting._PLANS["cycle3"]

    def combine(rows):
        if os.getpid() != parent:
            raise error("raised in a worker")
        return spec.combine(rows)

    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    monkeypatch.setitem(counting._PLANS, "cycle3", replace(spec, combine=combine))
    g = gen_random(101, 0.1, 21)
    with pytest.raises(error, match="raised in a worker") as exc:
        counting.count("cycle3", g, threads=3)
    assert type(exc.value) is error
    assert_no_child_left()
    path = tmp_path / "g.el"
    save_graph(g, path)
    result = run_cli(
        ["count", "--input", str(path), "--substructure", "cycle3", "--threads", "3"], capsys
    )
    assert result[0] == code and "raised in a worker" in result[2]
    assert_no_child_left()


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
@pytest.mark.parametrize("command", ["count", "stats"])
def test_threads_below_one_usage_error(c6_file, capsys, command, threads):
    args = ["--input", c6_file, "--substructure", "cycle3"] if command == "count" else [c6_file]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--threads", threads])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threads" in captured.err


def test_distinguish_verdicts(tmp_path, capsys):
    rook, shr = tmp_path / "rook.el", tmp_path / "shr.el"
    save_graph(gen_rook4x4(), rook)
    save_graph(gen_shrikhande(), shr)
    code, out, _ = run_cli(
        ["distinguish", "--method", "i2_wl", str(rook), str(shr)], capsys
    )
    assert (code, out.strip()) == (0, "distinguished")
    code, out, _ = run_cli(
        ["distinguish", "--method", "subgraph_wl", str(rook), str(shr)], capsys
    )
    assert (code, out.strip()) == (0, "not_distinguished")
    code, out, _ = run_cli(
        ["distinguish", "--method", "wl1", str(rook), str(rook)], capsys
    )
    assert (code, out.strip()) == (0, "not_distinguished")
    code, out, _ = run_cli(
        ["distinguish", "--method", "i2_wl", "--exact-compare",
         str(rook), str(shr)], capsys
    )
    assert (code, out.strip()) == (0, "distinguished")


def test_distinguish_corpus_mode(tmp_path, capsys):
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    a.write_text(to_graph6(gen_rook4x4()) + "\n" + to_graph6(gen_cycle(8)) + "\n")
    b.write_text(to_graph6(gen_shrikhande()) + "\n" + to_graph6(gen_cycle(8)) + "\n")
    code, out, err = run_cli(
        ["distinguish", "--corpus", "--method", "i2_wl", str(a), str(b)], capsys
    )
    assert code == 0
    assert out.splitlines() == ["pair,verdict", "0-0,distinguished",
                                "1-1,not_distinguished"]
    assert "distinguished 1/2" in err
    code, out, _ = run_cli(
        ["distinguish", "--corpus", "--method", "wl1", str(a)], capsys
    )
    assert out.splitlines() == ["pair,verdict", "0-1,distinguished"]


def test_distinguish_corpus_fingerprints_each_graph_once(tmp_path, capsys, monkeypatch):
    graphs = [gen_rook4x4(), gen_shrikhande(), gen_cycle(8), gen_cycle(8)]
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    calls = []
    fingerprint = refinement.fingerprint

    def counted(g, *args, **kw):
        calls.append(g)
        return fingerprint(g, *args, **kw)

    monkeypatch.setattr(refinement, "fingerprint", counted)
    code, out, err = run_cli(
        ["distinguish", "--corpus", "--method", "i2_wl", str(corpus)], capsys
    )
    assert code == 0
    assert len(calls) == len(graphs)
    assert out.splitlines() == [
        "pair,verdict", "0-1,distinguished", "0-2,distinguished", "0-3,distinguished",
        "1-2,distinguished", "1-3,distinguished", "2-3,not_distinguished",
    ]
    assert err == "distinguished 5/6\n"



@pytest.mark.parametrize(
    "method, extra",
    [("wl1", []), ("subgraph_wl", []), ("i2_wl", []), ("i2_wl", ["--labeling", "spd"]),
     ("i2_wl", ["--hops", "2"]), ("subgraph_wl", ["--policy", "node_deletion"])],
)
def test_exact_corpus_verdicts_match_pairwise_distinguish(tmp_path, capsys, method, extra):
    graphs = [gen_rook4x4(), gen_shrikhande(), *gen_cycle_pair(4), *gen_coned_cycles(3)]
    graphs += [gen_random(9, 0.4, seed) for seed in range(3)] + [gen_cycle(8)]
    left, right = graphs[::2], graphs[1::2]
    files = []
    for name, corpus in (("all", graphs), ("left", left), ("right", right)):
        files.append(tmp_path / f"{name}.g6")
        files[-1].write_text("".join(to_graph6(g) + "\n" for g in corpus))
    kw = {"hops": int(extra[1]) if "--hops" in extra else None}
    if "spd" in extra:
        kw["labeling"] = "spd"
    if "node_deletion" in extra:
        kw["policy"] = node_deletion()
    for inputs, pairs in (
        ([files[0]], [(a, b) for i, a in enumerate(graphs) for b in graphs[i + 1 :]]),
        (files[1:], list(zip(left, right))),
    ):
        code, out, _ = run_cli(
            ["distinguish", "--corpus", "--exact-compare", "--method", method,
             *extra, *map(str, inputs)],
            capsys,
        )
        assert code == 0
        verdicts = [line.split(",")[1] == "distinguished" for line in out.splitlines()[1:]]
        want = [refinement.distinguish(a, b, method, exact=True, **kw) for a, b in pairs]
        assert verdicts == want

def test_gen_subcommands(tmp_path, capsys):
    code, out, _ = run_cli(["gen", "rook"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "16 48"
    code, out, _ = run_cli(["gen", "cycle", "--L", "6"], capsys)
    assert out.splitlines()[0] == "6 6"
    code, out, _ = run_cli(["gen", "coned", "--L", "3", "--variant", "joined"], capsys)
    assert out.splitlines()[0] == "7 12"
    out_path = tmp_path / "two.el"
    code, _, _ = run_cli(
        ["gen", "cycle-pair", "--L", "3", "--variant", "disjoint",
         "--out", str(out_path)], capsys
    )
    assert out_path.read_text().splitlines()[0] == "6 6"
    # over a longer file, gen --out leaves exactly its output
    code, want, _ = run_cli(["gen", "petersen"], capsys)
    out_path.write_text("9" * 1000)
    assert run_cli(["gen", "petersen", "--out", str(out_path)], capsys)[:2] == (0, "")
    assert out_path.read_text() == want
    code, out, _ = run_cli(["gen", "random", "--n", "6", "--p", "0.5", "--seed", "1"], capsys)
    code2, out2, _ = run_cli(["gen", "random", "--n", "6", "--p", "0.5", "--seed", "1"], capsys)
    assert out == out2


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["gen", "random-regular", "--n", "4", "--d", "-2"], "degree must be >= 0, got -2"),
        (["gen", "star", "--n", "-1"], "leaf count must be >= 0, got -1"),
        (["gen", "star", "--n", "-3"], "leaf count must be >= 0, got -3"),
        (["bench", "--sizes", "16", "--degree", "-2"], "degree must be >= 0, got -2"),
    ],
)
def test_negative_generator_sizes_exit_2(capsys, argv, bad):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and bad in err


def test_gen_graph6_ingestion(tmp_path, capsys):
    g6 = tmp_path / "k3.g6"
    g6.write_text(to_graph6(gen_complete(3)) + "\n")
    code, out, _ = run_cli(
        ["count", "--input", str(g6), "--format", "graph6",
         "--substructure", "cycle3", "--level", "graph"], capsys
    )
    assert (code, out.splitlines()[1]) == (0, "1")


def test_stats_command(tmp_path, capsys):
    corpus = tmp_path / "c6s"
    corpus.mkdir()
    for i in range(3):
        save_graph(gen_cycle(6), corpus / f"g{i}.el")
    (corpus / "broken.el").write_text("junk\n")
    code, out, err = run_cli(["stats", str(corpus)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "corpus,graphs,avg_cycle3,avg_cycle4,avg_cycle5,avg_cycle6"
    assert lines[1] == "c6s,3,0,0,0,1"
    assert "broken.el" in err
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = run_cli(["stats", str(empty)], capsys)
    assert code == 0
    assert out.splitlines() == ["corpus,graphs,avg_cycle3,avg_cycle4,avg_cycle5,avg_cycle6"]


def test_stats_missing_path_exit_2(tmp_path, capsys):
    # not a corpus named after the path, with a row of zeros
    missing = tmp_path / "does_not_exist"
    code, out, err = run_cli(["stats", str(tmp_path), str(missing)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err


def test_bench_command_tiny(capsys):
    code, out, _ = run_cli(
        ["bench", "--sizes", "32,64", "--degree", "4", "--seed", "3"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "n,seconds,extraction,message_passing,readout,graph_count,ratio_vs_prev"
    )
    assert lines[1].startswith("32,")
    assert lines[2].startswith("64,")


def test_bench_out_overwrites_a_longer_file_exactly(tmp_path, capsys, monkeypatch):
    # fixed rows, so that the file and stdout can be compared byte for byte
    rows = [BenchRow(8, 0.5, (0.25, 0.125, 0.0625), 3, None),
            BenchRow(16, 1.0, (0.5, 0.25, 0.125), 7, 2.0)]
    monkeypatch.setattr(cli.bench_mod, "run_bench", lambda **kw: rows)
    code, want, _ = run_cli(["bench", "--sizes", "8,16"], capsys)
    assert code == 0 and len(want.splitlines()) == 3
    out = tmp_path / "bench.csv"
    out.write_text("w" * 5000)
    assert run_cli(["bench", "--sizes", "8,16", "--out", str(out)], capsys)[:2] == (0, "")
    assert out.read_text() == want


@pytest.mark.parametrize("sizes, bad", [("0", "0"), ("-4", "-4"), ("64,0", "0")])
def test_bench_sizes_below_one_usage_error(capsys, sizes, bad):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", sizes])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--sizes: must be at least 1, got {bad}" in captured.err


@pytest.mark.parametrize("sizes", [",", "", ",,"])
def test_bench_sizes_without_a_size_usage_error(capsys, sizes):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", sizes])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sizes: needs at least one size" in captured.err


@pytest.mark.parametrize("argv", [["--sizes", "-4,8"], ["--sizes=-4,8"]])
def test_bench_negative_size_list_names_the_bad_size(capsys, argv):
    # argparse reads "-4,8" after an option as an option of its own
    with pytest.raises(SystemExit) as exc:
        main(["bench", *argv, "--degree", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sizes: must be at least 1, got -4" in captured.err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "graphcount.cli", "gen", "petersen"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "10 15"
