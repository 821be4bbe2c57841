"""Exact substructure counting on simple graphs.

The package pairs hand-built message-passing counting programs (run on
labeled rooted subgraphs with exact integer arithmetic) with independent
brute-force oracles, and adds color-refinement tests that realize the
distinguishing-power hierarchy between plain neighbor refinement, per-root
subgraph refinement, and pair (root, branching-neighbor) refinement.
"""

from .counting import (
    InsufficientHopsError,
    WorkerError,
    corpus_cycle_stats,
    count,
    count_path4_edge,
    count_walks,
)
from .extraction import (
    ExtractionPolicy,
    RootedSubgraph,
    ego,
    extract_rooted,
    node_deletion,
)
from .graph import (
    Graph,
    GraphFormatError,
    GraphValidationError,
    UNREACHABLE,
    disjoint_union,
    from_edges,
    load_graph,
    parse_edgelist,
    parse_graph6,
    permute,
    save_graph,
    shortest_path_distances,
)
from .oracle import CountReport, PatternCounts
from .refinement import (
    ColorPartition,
    GraphFingerprint,
    distinguish,
    fingerprint,
    i2_wl,
    node_colors,
    subgraph_wl,
    wl1,
)

__version__ = "0.1.0"

__all__ = [
    "ColorPartition",
    "CountReport",
    "ExtractionPolicy",
    "Graph",
    "GraphFingerprint",
    "GraphFormatError",
    "GraphValidationError",
    "InsufficientHopsError",
    "PatternCounts",
    "RootedSubgraph",
    "UNREACHABLE",
    "WorkerError",
    "corpus_cycle_stats",
    "count",
    "count_path4_edge",
    "count_walks",
    "disjoint_union",
    "distinguish",
    "ego",
    "extract_rooted",
    "fingerprint",
    "from_edges",
    "i2_wl",
    "load_graph",
    "node_colors",
    "node_deletion",
    "parse_edgelist",
    "parse_graph6",
    "permute",
    "save_graph",
    "shortest_path_distances",
    "subgraph_wl",
    "wl1",
]
