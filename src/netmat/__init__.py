"""Network structure and utilization matrix algebra with an audited identity catalogue.

Builds the structural matrices of a directed graph (adjacency, hop-count
distance, external) and aggregates trajectory data into utilization matrices
(flow, origin-destination, indirect / alternative / substitute route flows),
then mechanically audits the catalogue of Hadamard-product identities and
mutual-exclusivity relations tying the two families together.
"""

__version__ = "0.1.0"

from .errors import (
    CrossCheckFailure,
    DimensionMismatch,
    InfiniteOperand,
    MissingEdge,
    NegativeResult,
    NetmatError,
    ParseError,
    RepeatedNode,
    TooShort,
    TrajectoryError,
    UndefinedProduct,
    UnknownIdentity,
)
from .matrices import (
    INF,
    BinaryMatrix,
    CountMatrix,
    ExtendedCount,
    binarize,
    ew_add,
    ew_leq,
    ew_sub,
    hadamard,
    is_zero,
    mutually_exclusive,
)
from .structure import (
    Graph,
    StructureBundle,
    build_adjacency,
    build_structure,
    distance_matrix,
    external_matrix,
)
from .utilization import (
    Dataset,
    Trajectory,
    UtilizationBundle,
    build_utilization,
    is_fully_utilized,
    validate_trajectory,
)
from .generators import (
    GenConfig,
    gen_dataset,
    gen_digraph,
    gen_fully_utilized,
    gen_trajectory,
    sweep_configs,
)
from .identities import (
    CATALOGUE,
    AuditReport,
    IdentityClass,
    IdentitySpec,
    IdentityVerdict,
    Witness,
    audit_dataset,
    catalogue_to_json,
    evaluate_identity,
    get_identity,
    list_identities,
    render_table,
    report_to_json_obj,
    search_counterexample,
    specs_from_json,
)

__all__ = [
    "__version__",
    # errors
    "NetmatError",
    "DimensionMismatch",
    "UndefinedProduct",
    "InfiniteOperand",
    "NegativeResult",
    "TrajectoryError",
    "TooShort",
    "RepeatedNode",
    "MissingEdge",
    "CrossCheckFailure",
    "ParseError",
    "UnknownIdentity",
    # matrices
    "INF",
    "ExtendedCount",
    "CountMatrix",
    "BinaryMatrix",
    "binarize",
    "hadamard",
    "ew_add",
    "ew_sub",
    "ew_leq",
    "is_zero",
    "mutually_exclusive",
    # structure
    "Graph",
    "StructureBundle",
    "build_adjacency",
    "distance_matrix",
    "external_matrix",
    "build_structure",
    # utilization
    "Trajectory",
    "Dataset",
    "UtilizationBundle",
    "validate_trajectory",
    "build_utilization",
    "is_fully_utilized",
    # generators
    "GenConfig",
    "gen_digraph",
    "gen_trajectory",
    "gen_dataset",
    "gen_fully_utilized",
    "sweep_configs",
    # identities
    "IdentityClass",
    "IdentitySpec",
    "Witness",
    "IdentityVerdict",
    "AuditReport",
    "CATALOGUE",
    "list_identities",
    "get_identity",
    "evaluate_identity",
    "audit_dataset",
    "search_counterexample",
    "catalogue_to_json",
    "specs_from_json",
    "report_to_json_obj",
    "render_table",
]
