"""A pytest plugin that records which kernel sources a test run compiles.

Load it with ``tools/`` on the path and name the output file:

    PYTHONPATH=src:tools PYTHONHASHSEED=0 python -m pytest -p kernel_capture \\
        --kernel-md5 OUT [pytest arguments]

At the end of the session OUT holds the md5 of every distinct source that
``graphcount.engine._exec`` compiled, one per line, sorted.  Two runs of
the same tests compiled the same kernels when their files are equal.  Fix
``PYTHONHASHSEED`` and ``--hypothesis-seed`` so that both runs draw the
same programs.

Each compile is appended to OUT as it happens, so kernels compiled in
forked workers are recorded too; the session's end sorts the file and
drops repeats.
"""

from __future__ import annotations

import hashlib


def pytest_addoption(parser):
    parser.addoption(
        "--kernel-md5",
        metavar="OUT",
        help="write the sorted md5 of every kernel source compiled to OUT",
    )


def pytest_configure(config):
    out = config.getoption("kernel_md5")
    if not out:
        return
    from graphcount import engine

    open(out, "w").close()
    seen: set[str] = set()
    real = engine._exec

    def capture(lines, name):
        digest = hashlib.md5("\n".join(lines).encode()).hexdigest()
        if digest not in seen:
            seen.add(digest)
            # one short append per line, so lines from forked workers do not interleave
            with open(out, "a") as f:
                f.write(f"{digest}\n")
        return real(lines, name)

    engine._exec = capture


def pytest_unconfigure(config):
    out = config.getoption("kernel_md5")
    if not out:
        return
    with open(out) as f:
        digests = sorted(set(f.read().split()))
    with open(out, "w") as f:
        f.writelines(f"{d}\n" for d in digests)
