import os
import re
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest

from conftest import (
    ROOTED_LAYOUT,
    assert_states_match_ego,
    branches,
    exhaustive_graphs,
    random_permutation,
    reference_states,
)
from graphcount import engine as E
from graphcount import oracle
from graphcount.counting import (
    _PLANS,
    KIND_SPECS,
    InsufficientHopsError,
    KindSpec,
    corpus_cycle_stats,
    count,
    count_path4_edge,
    count_walks,
    resolve_kind,
)
from graphcount.extraction import ego, extract_rooted, with_branching
from graphcount.generators import (
    gen_complete,
    gen_coned_cycles,
    gen_cycle,
    gen_path,
    gen_petersen,
    gen_random,
    gen_random_regular,
    gen_star,
)
from graphcount.graph import (
    GraphValidationError,
    disjoint_union,
    from_edges,
    permute,
    shortest_path_distances,
)

PAW = from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
DIAMOND = from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])

ALL_KINDS = (
    "path2",
    "path3",
    "path4",
    "cycle3",
    "cycle4",
    "cycle5",
    "cycle6",
    "clique4",
    "chordal_cycle",
    "tailed_triangle",
    "triangle_rectangle",
)


def test_path2_examples():
    assert count("path2", gen_path(3)).node_counts == (1, 0, 1)
    assert count("path2", gen_complete(3)).node_counts == (2, 2, 2)
    assert count("path2", gen_star(4)).node_counts == (0, 3, 3, 3, 3)


def test_path3_examples():
    assert count("path3", gen_path(4)).node_counts[0] == 1
    assert count("path3", gen_cycle(4)).node_counts == (2, 2, 2, 2)


def test_cycle3_cycle4_examples():
    assert count("cycle3", gen_complete(3)).node_counts == (1, 1, 1)
    assert count("cycle3", gen_complete(4)).node_counts == (3, 3, 3, 3)
    assert count("cycle4", gen_complete(4)).node_counts == (3, 3, 3, 3)
    assert count("cycle4", gen_cycle(4)).node_counts == (1, 1, 1, 1)
    assert count("cycle3", gen_cycle(4)).node_counts == (0, 0, 0, 0)


def test_cycle5_examples():
    assert count("cycle5", gen_cycle(5)).node_counts == (1,) * 5
    joined, _ = gen_coned_cycles(3)
    assert count("cycle5", joined).node_counts[0] == 6
    rep = count("cycle5", gen_petersen())
    assert rep.node_counts == (6,) * 10
    assert rep.graph_count == 12


def test_cycle6_examples():
    rep = count("cycle6", gen_cycle(6))
    assert rep.node_counts == (1,) * 6
    assert rep.patterns.p1 == (0,) * 6
    assert rep.patterns.p2 == (0,) * 6
    assert rep.patterns.p3 == (0,) * 6
    assert count("cycle6", gen_complete(4)).node_counts == (0, 0, 0, 0)


def test_path4_examples():
    assert count("path4", gen_path(5)).node_counts == (1, 0, 0, 0, 1)
    assert count("path4", gen_cycle(5)).node_counts == (2,) * 5


def test_graphlet_examples():
    assert count("clique4", gen_complete(4)).node_counts == (1, 1, 1, 1)
    assert count("chordal_cycle", DIAMOND).node_counts == (1, 0, 0, 1)
    assert count("tailed_triangle", PAW).node_counts == (1, 0, 0, 0)
    tri_rect = from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (4, 2)])
    assert count("triangle_rectangle", tri_rect).node_counts == (1, 0, 0, 0, 0)


def test_path4_edge_table():
    table = count_path4_edge(gen_path(5), hops=4)
    assert table[(0, 1)] == {4: 1}
    c5 = gen_cycle(5)
    t = count_path4_edge(c5, hops=3)
    for i in range(5):
        for j in c5.adjacency[i]:
            other = next(k for k in c5.adjacency[i] if k != j)
            assert t[(i, j)] == {other: 1}
    with pytest.raises(InsufficientHopsError):
        count_path4_edge(c5, hops=2)


def test_path4_edge_matches_oracle_with_domain():
    g = gen_random(12, 0.3, 6)
    full = count_path4_edge(g, hops=4)
    restricted = count_path4_edge(g, hops=3)
    orc = oracle.oracle_path4_first_step(g)
    for key, row in orc.items():
        assert full[key] == row
        domain = set(extract_rooted(g, key[0], ego(3)).nodes)
        assert restricted[key] == {k: v for k, v in row.items() if k in domain}


def test_walk_examples():
    assert count_walks(gen_complete(3), 3, 0, 0) == 2
    assert count_walks(gen_path(2), 2, 0, 0) == 1
    assert count_walks(gen_path(2), 4, 0, 0) == 1
    assert count_walks(gen_cycle(4), 5, 0, 0) == 0
    with pytest.raises(ValueError):
        count_walks(gen_path(2), 0, 0, 0)
    # an endpoint out of range is rejected, not read from the end or past it
    path = from_edges(3, [(0, 1), (1, 2)])
    for j in (-1, 5):
        for walks in (count_walks, oracle.oracle_walks):
            with pytest.raises(GraphValidationError):
                walks(path, 2, 0, j)


def test_walk_is_not_path_counting():
    # nonzero closed 4-walks at a node lying on no 4-cycle
    walks = count("walk4", PAW).node_counts
    cycles = oracle.oracle_cycles(PAW, 4).per_node
    assert all(w > 0 for w in walks)
    assert cycles == (0, 0, 0, 0)
    g = gen_random(10, 0.35, 3)
    for length in (2, 3, 4):
        pairs = oracle.oracle_paths(g, length).pairs
        for (i, j), c in pairs.items():
            assert oracle.oracle_walks(g, length, i, j) >= c


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_oracle_equivalence_random(kind, unit_corpus):
    for g in unit_corpus[:8]:
        assert count(kind, g) == oracle.TWINS[kind](g, oracle.DEFAULT_BUDGET)


def test_pattern_counts_match_enumerators(unit_corpus):
    for g in unit_corpus[:6]:
        rep = count("cycle6", g)
        pat = oracle.oracle_cycle6_patterns(g)
        assert rep.patterns.p0 == pat.p0
        assert rep.patterns.p1 == pat.p1
        assert rep.patterns.p2 == pat.p2
        assert rep.patterns.p3 == pat.p3
        assert rep.patterns.p4 == pat.p4
        for i in range(g.node_count):
            closed = (
                rep.patterns.p0[i]
                - rep.patterns.p1[i]
                - rep.patterns.p2[i]
                - rep.patterns.p3[i]
            )
            assert closed == 2 * rep.node_counts[i]
            assert closed >= 0


def test_disjoint_union_locality():
    g1 = gen_random(8, 0.4, 0)
    g2 = gen_random(7, 0.5, 1)
    u = disjoint_union(g1, g2)
    for kind in ALL_KINDS:
        ru = count(kind, u)
        r1 = count(kind, g1)
        r2 = count(kind, g2)
        assert ru.node_counts == r1.node_counts + r2.node_counts
        assert ru.graph_count == r1.graph_count + r2.graph_count


def test_extra_hops_do_not_change_counts():
    g = gen_random(10, 0.4, 9)
    for kind in ALL_KINDS:
        spec = KIND_SPECS[kind]
        base = count(kind, g, hops=spec.hops)
        more = count(kind, g, hops=spec.hops + 1)
        assert base.node_counts == more.node_counts


# G(n, p) graphs and a 4-regular one, on which every plan's readouts differ
_READOUT_CORPUS = [gen_random(n, 0.3, s) for n in (10, 16) for s in range(6)] + [
    gen_random_regular(60, 4, 3)
]


@pytest.mark.parametrize("kind", [k for k, spec in _PLANS.items() if len(spec.readouts) > 1])
def test_no_plan_computes_a_readout_twice(kind):
    # two readouts that agree on every row are one integrand computed twice
    spec = _PLANS[kind]
    rows = []
    for g in _READOUT_CORPUS:
        runner = E.RootedRun(spec.program, g.adjacency, spec.hops, spec.readouts)
        for i in range(g.node_count):
            rows += runner.rows(i)
    columns = list(zip(*rows))
    assert len(columns) == len(spec.readouts)
    assert [(a, b) for a, b in combinations(range(len(columns)), 2) if columns[a] == columns[b]] == []


@pytest.mark.parametrize("kind", ["cycle4", "cycle6", "walk4"])
def test_counts_match_the_hooked_kernels_at_bench_size(kind):
    # A second route at the benchmark's size, where the DFS oracle gives
    # up: a kernel with a hook keeps every column over one list per step,
    # and none of the hook-free kernels' rewrites applies to it.
    spec = _PLANS[kind]
    for g in (gen_random_regular(1000, 4, 7), gen_random(60, 0.3, 1)):
        hooked = E.RootedRun(spec.program, g.adjacency, spec.hops, spec.readouts, lambda *_: None)
        values = [spec.combine(hooked.rows(i)) for i in range(g.node_count)]
        report = count(kind, g)
        assert report.node_counts == tuple(v[0] for v in values)
        if spec.patterns:
            assert report.patterns == oracle.PatternCounts(*tuple(zip(*values))[1:])


def test_insufficient_hops():
    # every plan refuses any radius below its own
    g = gen_cycle(6)
    for kind, spec in _PLANS.items():
        with pytest.raises(InsufficientHopsError) as info:
            count(kind, g, hops=spec.hops - 1)
        assert (info.value.kind, info.value.minimum) == (kind, spec.hops)


def test_permutation_equivariance_counts():
    g = gen_random(11, 0.4, 13)
    perm = random_permutation(11, seed=2)
    gp = permute(g, perm)
    for kind in ALL_KINDS:
        base = count(kind, g).node_counts
        permuted = count(kind, gp).node_counts
        for i in range(11):
            assert permuted[perm[i]] == base[i]


def test_threads_do_not_change_results():
    # none of the thread counts divides the 101 roots into equal shares
    g = gen_random(101, 0.1, 21)
    for kind in ("cycle6", "cycle3"):
        serial = count(kind, g, threads=1)
        for threads in (2, 3, 4):
            assert count(kind, g, threads=threads) == serial, (kind, threads)


def test_fork_workers_inherit_the_kernel_compiled_before_the_fork(monkeypatch):
    parent, real = os.getpid(), E._generate

    def generate(*key):
        assert os.getpid() == parent, "a worker compiled a kernel"
        return real(*key)

    monkeypatch.setattr(E, "_KERNELS", {})
    monkeypatch.setattr(E, "_generate", generate)
    g = gen_random(80, 0.1, 21)
    assert count("cycle5", g, threads=2) == count("cycle5", g, threads=1)


# Run by ``_run_isolated`` ahead of each script: cycle3's combine step is
# replaced through ``patch``, and ``no_child_left`` tells whether every
# forked child has been reaped.
_ISOLATED_PRELUDE = """
import os, signal, time
from dataclasses import replace
from graphcount import cli, counting
from graphcount.generators import gen_random
from graphcount.graph import save_graph

parent = os.getpid()
real = counting._PLANS["cycle3"]


def patch(combine):
    counting._PLANS["cycle3"] = replace(real, combine=combine)


def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def _run_isolated(script: str, cwd) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter with a timeout, so that a hang
    fails the test instead of stalling the suite."""
    src = Path(E.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", _ISOLATED_PRELUDE + textwrap.dedent(script)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )


def test_a_dead_worker_raises_instead_of_hanging(tmp_path):
    proc = _run_isolated(
        """
        def combine(rows):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real.combine(rows)

        patch(combine)
        g = gen_random(80, 0.1, 21)
        try:
            counting.count("cycle3", g, threads=2)
        except counting.WorkerError as exc:
            print(exc, no_child_left())
        save_graph(g, "g.el")
        argv = ["count", "--input", "g.el", "--substructure", "cycle3", "--threads", "2"]
        print(cli.main(argv), no_child_left())
        """,
        tmp_path,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stderr
    assert re.fullmatch(
        r"worker process \d+ ended without a result \(killed by signal 9\) True", lines[0]
    )
    # exit 5, an internal fault: not 2, which the CLI gives an OSError
    assert lines[1] == "5 True"
    assert "internal fault: worker process" in proc.stderr


def test_a_failed_parent_share_leaves_no_child_blocked(tmp_path):
    proc = _run_isolated(
        """
        def combine(rows):
            if os.getpid() == parent:
                time.sleep(0.5)  # the child is blocked writing its share by now
                raise ArithmeticError("the parent's share failed")
            return (0, bytes(4096))  # 50 roots: 200 KiB, more than a pipe holds

        patch(combine)
        start = time.perf_counter()
        try:
            counting.count("cycle3", gen_random(101, 0.1, 21), threads=2)
        except ArithmeticError as exc:
            print(exc, no_child_left(), time.perf_counter() - start < 10)
        """,
        tmp_path,
    )
    assert proc.stdout == "the parent's share failed True True\n", proc.stderr


def test_kind_resolution():
    assert resolve_kind("path4_graphlet") == "path4"
    assert resolve_kind("walk4") == "walk4"
    with pytest.raises(ValueError):
        resolve_kind("heptagon")


def test_walk_kind_report():
    # the plan at radius 2 agrees with count_walks, which propagates over
    # the radius-4 ego-network
    for g in (PAW, gen_random(12, 0.3, 5)):
        rep = count("walk4", g)
        assert rep.node_counts == tuple(
            count_walks(g, 4, i, i) for i in range(g.node_count)
        )
        assert rep.graph_count == sum(rep.node_counts)


def test_corpus_cycle_stats(tmp_path):
    from graphcount.graph import save_graph

    c6dir = tmp_path / "c6s"
    c6dir.mkdir()
    for i in range(10):
        save_graph(gen_cycle(6), c6dir / f"g{i}.el")
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    save_graph(gen_complete(3), mixed / "k3.el")
    save_graph(gen_cycle(4), mixed / "c4.el")
    (mixed / "broken.el").write_text("not a graph\n")
    rows = corpus_cycle_stats(
        [
            ("c6s", sorted(c6dir.iterdir())),
            ("mixed", sorted(mixed.iterdir())),
        ]
    )
    assert rows[0].avg_cycle_counts == (0.0, 0.0, 0.0, 1.0)
    assert rows[0].graphs == 10
    assert rows[1].avg_cycle_counts == (0.5, 0.5, 0.0, 0.0)
    assert rows[1].graphs == 2
    assert len(rows[1].errors) == 1
    # means match the oracle on a random corpus
    rand = tmp_path / "rand"
    rand.mkdir()
    graphs = [gen_random(10, 0.35, seed) for seed in range(5)]
    for i, g in enumerate(graphs):
        save_graph(g, rand / f"r{i}.el")
    (row,) = corpus_cycle_stats([("rand", sorted(rand.iterdir()))])
    for pos, length in enumerate((3, 4, 5, 6)):
        expect = sum(oracle.oracle_cycles(g, length).graph_count for g in graphs) / 5
        assert row.avg_cycle_counts[pos] == expect


def test_empty_graph_reports():
    empty = from_edges(0, [])
    for kind in ALL_KINDS:
        rep = count(kind, empty)
        assert rep.node_counts == ()
        assert rep.graph_count == 0


# ---------------------------------------------------------------------------
# Counting on the parent graph against the extracted subgraphs.
# ---------------------------------------------------------------------------

# Every plan, and one more whose scattering step also pulls at its
# receivers (no plan's does: in each, every neighbor of a receiver that can
# hear a nonzero message is a sender the scatter reaches): each neighbor of
# the root counts its neighbors outside the root's neighborhood.
_PARITY_PLANS = {
    **_PLANS,
    "outside-degree": KindSpec(
        E.MPProgram(
            "outside-degree",
            (E.LSelf("in_n_root"),),
            (E.Layer((E.Self(0) + E.Nbr(0),), (E.Msg(0),)),),
        ),
        2,
        (E.Readout(0),),
        None,
        1,
    ),
}


def _assert_parent_states_match_egos(g, spec, hops, steps, within):
    """On every node within a step's radius of the root, each column a step
    computes on the parent graph equals that of the extracted subgraph, run
    through the reference interpreter; on every other node it is 0."""
    seen = {}

    def record(j, states):
        seen[j] = [[list(column) for column in state] for state, _ in states]

    runner = E.RootedRun(spec.program, g.adjacency, hops, spec.readouts, hook=record)
    for root in range(g.node_count):
        dist = shortest_path_distances(g, root)
        base = extract_rooted(g, root, ego(hops))
        seen.clear()
        runner.rows(root)
        for j in branches(g.adjacency, root, spec.program, spec.readouts):
            sub = base if j is None else with_branching(g, base, j)
            ego_states = reference_states(spec.program, sub.adj, sub.labels)
            assert_states_match_ego(
                seen[j], ego_states, sub.nodes, dist, steps, within, (hops, root, j)
            )


@pytest.mark.parametrize("kind", sorted(_PARITY_PLANS))
def test_parent_graph_states_equal_the_extracted_subgraphs(kind):
    spec = _PARITY_PLANS[kind]
    graphs = list(exhaustive_graphs())
    # larger graphs, where node lists are sparse
    graphs += [gen_random(40, 0.1, 3), _hub_cliques(8, 6)]
    steps = E._steps(spec.program, ROOTED_LAYOUT)
    for hops in (spec.hops, spec.hops + 1):
        within, _ = E._radii(steps, hops, spec.readouts, spec.program.name)
        for g in graphs:
            _assert_parent_states_match_egos(g, spec, hops, steps, within)


def test_the_bag_follows_from_the_identifiers_a_plan_reads():
    # the kinds whose programs read the branching neighbor run one subgraph
    # per neighbor of the root; every other kind runs the ego-network alone
    g = gen_random(12, 0.4, 1)
    degrees = [len(g.adjacency[i]) for i in range(g.node_count)]
    assert min(degrees) > 1
    pairs = set()
    for kind, spec in _PLANS.items():
        runner = E.RootedRun(spec.program, g.adjacency, spec.hops, spec.readouts)
        rows = [len(runner.rows(i)) for i in range(g.node_count)]
        if rows == degrees:
            pairs.add(kind)
        else:
            assert rows == [1] * g.node_count, kind
    assert pairs == {
        "path4", "cycle5", "cycle6", "chordal_cycle", "clique4", "triangle_rectangle",
    }


def _hub_cliques(cliques: int, size: int):
    """``cliques`` copies of K_size, each joined to one extra hub node by
    two of its nodes."""
    edges = []
    for c in range(cliques):
        nodes = range(c * size, (c + 1) * size)
        edges += [(u, v) for u in nodes for v in nodes if u < v]
        edges += [(nodes[0], cliques * size), (nodes[1], cliques * size)]
    return from_edges(cliques * size + 1, edges)


def _regular_with_hub():
    """A random 4-regular graph, N=1000, plus one node joined to 50 of it."""
    g = gen_random_regular(1000, 4, 7)
    return from_edges(1001, list(g.edges()) + [(k, 1000) for k in range(0, 1000, 20)])


_HUB_BUDGET = 10**14  # the degree-50 hub puts the enumeration bound above the default


def test_hub_family_matches_the_twins():
    kinds = sorted(KIND_SPECS) + ["walk4"]
    for g in (_regular_with_hub(), _hub_cliques(8, 6)):
        for kind in kinds:
            assert count(kind, g) == oracle.TWINS[kind](g, _HUB_BUDGET), kind


# The pair plan that counted tailed triangles before they moved to the root
# bag: per (root i, neighbor j), twice the triangles at i that avoid j.
# Summed over j it is 2 * t(i) * (deg(i) - 2), t(i) being i's triangles.
_TAILED_PAIRS = E.MPProgram(
    "tailed-triangles",
    (E.LSelf("in_n_root") * (1 - E.LSelf("is_branch")),),
    (E.Layer((E.Nbr(0),), (E.Self(0) * E.Msg(0),)),),
)
_TAILED_GRAPHS = {
    "regular": lambda: gen_random_regular(1000, 4, 7),
    "hub": lambda: _hub_cliques(8, 6),
    "dense": lambda: gen_random(60, 0.3, 1),
}


@pytest.mark.parametrize("name", sorted(_TAILED_GRAPHS))
def test_tailed_triangles_match_the_pair_plan(name):
    # a second route at sizes where the DFS twin is out of reach
    g = _TAILED_GRAPHS[name]()
    runner = E.RootedRun(_TAILED_PAIRS, g.adjacency, 1, (E.Readout(0),))
    want = tuple(E.exact_div(sum(r[0] for r in runner.rows(i)), 2) for i in range(g.node_count))
    assert any(want) and count("tailed_triangle", g).node_counts == want


@pytest.mark.parametrize("n", [31, 32, 33])
def test_counts_match_the_twins_at_31_to_33_nodes(n):
    for g in (gen_random(n, 0.15, n), gen_random(n, 0.3, n)):
        for kind in sorted(_PLANS):
            assert count(kind, g) == oracle.TWINS[kind](g, oracle.DEFAULT_BUDGET), (kind, n)


def _ring_lattice(n: int, k: int):
    """The ring of ``n`` nodes, each joined to the ``k`` nearest on each side."""
    return from_edges(n, [(u, (u + d) % n) for u in range(n) for d in range(1, k + 1)])


def _irregular():
    """70 nodes: a hub joined to nodes 1-50, a sparse random graph on those,
    nodes 51-60 each a leaf of one of them, and nodes 61-69 isolated."""
    g = gen_random(50, 0.06, 4)
    edges = [(u + 1, v + 1) for u, v in g.edges()] + [(0, k) for k in range(1, 51)]
    return from_edges(70, edges + [(50 + k, 7 * k % 50 + 1) for k in range(1, 11)])


# Graphs for the plans whose kernels run over the common neighbors of the
# root and the branching node, N(i)&N(j), or sum a message's receiver part
# with degree terms: a bipartite graph, where no edge has a common
# neighbor, ring lattices, where every edge has some, a random graph, where
# some edges have them and some do not, and a graph of unlike degrees, with
# isolated nodes, leaves and a degree-50 hub.
_MEET_GRAPHS = {
    "triangle-free": (
        from_edges(40, [(u, v) for u in range(20) for v in range(20, 40) if (3 * u + v) % 4 == 0]),
        {False},
    ),
    "triangle-rich": (_ring_lattice(40, 3), {True}),
    "triangle-rich-16": (_ring_lattice(16, 3), {True}),
    "mixed": (gen_random(40, 0.15, 3), {False, True}),
    "irregular": (_irregular(), {False, True}),
}


@pytest.mark.parametrize("name", sorted(_MEET_GRAPHS))
@pytest.mark.parametrize(
    "kind", ["clique4", "cycle4", "cycle5", "cycle6", "path3", "path4", "triangle_rectangle"]
)
def test_meet_plans_match_the_hooked_kernels_and_the_oracle(kind, name):
    g, shared = _MEET_GRAPHS[name]
    adj = g.adjacency
    assert {bool(set(adj[i]) & set(adj[j])) for i in range(g.node_count) for j in adj[i]} == shared
    if name == "irregular":
        degrees = sorted(map(len, adj))
        assert degrees[:9] == [0] * 9 and degrees[9] == 1 and degrees[-1] == 50
    spec = _PLANS[kind]
    budget = _HUB_BUDGET if name == "irregular" else oracle.DEFAULT_BUDGET
    twin = oracle.TWINS[kind](g, budget)
    # the kernels of rules T and P also at one more radius, on the hub
    wider = name == "irregular" and kind in ("cycle5", "cycle6", "path4")
    for hops in (spec.hops, spec.hops + 1)[: 1 + wider]:
        # a kernel with a hook stores every column over one node list per
        # step, and sums every message over each receiver's neighbors
        hooked = E.RootedRun(spec.program, adj, hops, spec.readouts, lambda j, steps: None)
        plain = E.RootedRun(spec.program, adj, hops, spec.readouts)
        for i in range(g.node_count):
            assert plain.rows(i) == hooked.rows(i), (hops, i)
        assert count(kind, g, hops) == twin
