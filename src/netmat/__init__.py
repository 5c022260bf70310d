"""Network structure and utilization matrix algebra with an audited identity catalogue.

Builds the structural matrices of a directed graph (adjacency, hop-count
distance, external) and aggregates trajectory data into utilization matrices
(flow, origin-destination, indirect / alternative / substitute route flows),
then mechanically audits the catalogue of Hadamard-product identities and
mutual-exclusivity relations tying the two families together.

``__all__`` below is the package's one list of public names; everything
else is imported from its own module, e.g. ``netmat.matrices.hadamard``.
"""

__version__ = "0.1.0"

from .errors import (
    InfiniteOperand,
    NegativeResult,
    NetmatError,
    ParseError,
    UndefinedProduct,
)
from .matrices import INF
from .structure import Graph, build_structure
from .utilization import Dataset, Trajectory, build_utilization
from .generators import gen_dataset, sweep_configs
from .identities import (
    audit_dataset,
    catalogue_to_json,
    evaluate_identity,
    get_identity,
    list_identities,
)

__all__ = [
    "__version__",
    "INF",
    # errors
    "NetmatError",
    "ParseError",
    "UndefinedProduct",
    "InfiniteOperand",
    "NegativeResult",
    # building and auditing a dataset
    "Graph",
    "Trajectory",
    "Dataset",
    "build_structure",
    "build_utilization",
    "audit_dataset",
    "evaluate_identity",
    "catalogue_to_json",
    # catalogue and random datasets
    "list_identities",
    "get_identity",
    "gen_dataset",
    "sweep_configs",
]
