"""fuzzmap: compress a graph to k-dimensional points with per-node radii.

Adjacency queries against the compressed model come back definite
(guaranteed correct) when a radius decides them, otherwise as a fuzzy
likelihood from a two-rule Mamdani system.
"""

from .fastmap import (
    Embedding,
    choose_pivots,
    fastmap_embed,
    graph_distance_row,
    project,
    residual_distance,
)
from .fuzzy import (
    FclParseError,
    FuzzyRule,
    FuzzySystem,
    MembershipFunction,
    default_fcl_text,
    default_system,
    evaluate,
    evaluate_many,
    parse_fcl,
    to_fcl,
)
from .generate import gnp_random_graph, preferential_attachment_graph
from .graph import (
    Graph,
    GraphParseError,
    canonical_edge_list,
    graph_from_edges,
    load_edge_list,
    parse_edge_list,
)
from .harness import EvalReport, evaluate_model, reports_to_csv, sweep_k
from .oracle import (
    Answer,
    CompressedGraph,
    ModelFormatError,
    build,
    load,
    load_file,
    query,
    query_arrays,
    save,
    save_file,
)
from .radii import NodeRadii, compute_all_radii

__version__ = "0.1.0"


__all__ = [
    "Answer",
    "CompressedGraph",
    "Embedding",
    "EvalReport",
    "FclParseError",
    "FuzzyRule",
    "FuzzySystem",
    "Graph",
    "GraphParseError",
    "MembershipFunction",
    "ModelFormatError",
    "NodeRadii",
    "build",
    "canonical_edge_list",
    "choose_pivots",
    "compute_all_radii",
    "default_fcl_text",
    "default_system",
    "evaluate",
    "evaluate_many",
    "evaluate_model",
    "fastmap_embed",
    "gnp_random_graph",
    "graph_distance_row",
    "graph_from_edges",
    "load",
    "load_edge_list",
    "load_file",
    "parse_edge_list",
    "parse_fcl",
    "preferential_attachment_graph",
    "project",
    "query",
    "query_arrays",
    "reports_to_csv",
    "residual_distance",
    "save",
    "save_file",
    "sweep_k",
    "to_fcl",
]
