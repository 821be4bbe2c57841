"""Print an md5 digest of every count report over a fixed set of graphs.

    PYTHONPATH=src python tools/count_digests.py > digests.txt

Each line is a label and the md5 of one report's ``repr``, sorted by
label.  The reports are, per graph: ``count`` of each kind (the eleven
substructure kinds and walk1 to walk8) at its default radius and one more,
cycle6's carrying its pattern counts; ``count_path4_edge`` at radii 3 and
4; and ``count_walks`` for L 1 to 6 from nodes 0 and 1 to each of the
first 20 nodes.  The graphs are two random regular graphs, 80 small and 5
dense G(n, p) graphs.  Two checkouts count alike on all of them when their
files are equal: run the same script with each checkout's ``src`` first on
``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib

from graphcount.counting import _PLANS, count, count_path4_edge, count_walks
from graphcount.generators import gen_random, gen_random_regular
from graphcount.graph import Graph


def graphs() -> dict[str, Graph]:
    out = {
        "regular-1000-4-7": gen_random_regular(1000, 4, 7),
        "regular-300-6-1": gen_random_regular(300, 6, 1),
    }
    out.update((f"gnp-{8 + k % 13}-0.3-{k}", gen_random(8 + k % 13, 0.3, k)) for k in range(80))
    out.update((f"gnp-25-0.6-{k}", gen_random(25, 0.6, k)) for k in range(5))
    return out


def _md5(value) -> str:
    return hashlib.md5(repr(value).encode()).hexdigest()


def digests(named: dict[str, Graph]) -> list[str]:
    """The sorted lines ``<graph> <report> <md5>`` of every report on the
    graphs of ``named``."""
    lines = []
    for name, g in named.items():
        for kind, spec in _PLANS.items():
            for hops in (spec.hops, spec.hops + 1):
                lines.append(f"{name} count-{kind}-{hops} {_md5(count(kind, g, hops))}")
        for hops in (3, 4):
            table = sorted(count_path4_edge(g, hops).items())
            lines.append(f"{name} path4-edge-{hops} {_md5(table)}")
        ends = range(min(20, g.node_count))
        for length in range(1, 7):
            for i in (0, 1):
                walks = [count_walks(g, length, i, j) for j in ends]
                lines.append(f"{name} walks-{length}-{i} {_md5(walks)}")
    return sorted(lines)


if __name__ == "__main__":
    print("\n".join(digests(graphs())))
