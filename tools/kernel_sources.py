"""Print a labelled md5 of the source of every kernel ``src/`` can build.

    PYTHONPATH=src python tools/kernel_sources.py > kernels.txt

One line per kernel, ``<label> <md5>``: the 19 counting plans at radii h to
h+6, each without and with a hook (``plan <kind> <radius> hook-free`` and
``... hooked``); ``count_path4_edge`` at radii 3 to 9 (``path4_edge
<radius>``); ``count_walks`` at lengths 1 to 12 (``walks <length>``); and
``run``'s plain kernel of each plan's program over the rooted labels
(``plain <kind>``).  A kernel's source does not depend on the graph, so
each is built once, on a 6-cycle.  Nor should it follow the string hash
seed (``tests/test_engine.py`` checks that it does not); the script runs
itself again under ``PYTHONHASHSEED=0`` unless that is set, so that two
checkouts compare alike even where one of them breaks that.  Two
checkouts build the same kernels when their outputs are equal: run the
script with each checkout's ``src`` first on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import os
import sys

from graphcount import engine
from graphcount.counting import _PLANS, count_path4_edge, count_walks
from graphcount.generators import gen_cycle


def sources() -> list[str]:
    """The lines ``<label> <md5>``, in the order the kernels are built."""
    built: list = []
    real = engine._exec

    def capture(lines, name):
        built.append(hashlib.md5("\n".join(lines).encode()).hexdigest())
        return real(lines, name)

    g = gen_cycle(6)
    layout = tuple(sorted(engine._IDENTIFIERS))
    jobs = [
        (f"plan {kind} {hops} {'hooked' if hook else 'hook-free'}",
         lambda spec=spec, hops=hops, hook=hook: engine.RootedRun(
             spec.program, g.adjacency, hops, spec.readouts, hook))
        for kind, spec in _PLANS.items()
        for hops in range(spec.hops, spec.hops + 7)
        for hook in (None, lambda *_: None)
    ]
    jobs += [(f"path4_edge {hops}", lambda hops=hops: count_path4_edge(g, hops)) for hops in range(3, 10)]
    jobs += [(f"walks {length}", lambda length=length: count_walks(g, length, 0, 1)) for length in range(1, 13)]
    jobs += [
        (f"plain {kind}", lambda spec=spec: engine.run(
            spec.program, g.adjacency, {x: [0] * g.node_count for x in layout}))
        for kind, spec in _PLANS.items()
    ]
    out = []
    engine._exec = capture
    try:
        for label, build in jobs:
            engine._KERNELS.clear()
            built.clear()
            build()
            (digest,) = built
            out.append(f"{label} {digest}")
    finally:
        engine._exec = real
    return out


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    print("\n".join(sources()))
