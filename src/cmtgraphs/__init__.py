"""Cohen-Macaulay codimension of bipartite graphs.

Structural classification through pure orders and complete bipartite
blocks, an exact simplicial-homology oracle to check it against, block
expansion and contraction, and exhaustive enumeration of the small
example families.

Value types are `NamedTuple`s or `bigraph._Frozen` classes, not dataclasses:
importing `dataclasses` and defining eleven took 11-17 ms of a 37-50 ms import.
"""

from .bigraph import (
    BipartiteGraph,
    BlockDecomposition,
    ConsistencyError,
    GraphFormatError,
    IsolatedVertexError,
    PureOrder,
    connected_components,
    cross_blocks,
    delete_closed_neighborhood,
    disjoint_union,
    find_pure_order,
    is_connected,
    is_pure_order,
    is_unmixed,
    parse_graph,
    to_document,
)
from .simplicial import (
    HomologyProfile,
    SimplicialComplex,
    cm_codim,
    cm_codim_recursive,
    dim,
    faces,
    from_facets,
    independence_complex,
    is_cm_t,
    is_cohen_macaulay,
    is_pure,
    join,
    link,
    reduced_euler_characteristic,
    reduced_homology,
)
from .classify import (
    CmtClassification,
    MacaulayOrder,
    OracleAgreement,
    classification_json,
    classify,
    disjoint_union_codim,
    is_buchsbaum,
    macaulay_order,
    verify_against_oracle,
)
from .construct import (
    Expansion,
    contract,
    expand,
    expansion_document,
    parse_expansion,
    predicted_codim,
)
from .enumeration import (
    CanonicalForm,
    CmtFamily,
    canonical_form,
    enumerate_cm,
    enumerate_sharp_cmt,
    enumerate_unmixed,
    write_enumeration,
)
from .figures import BUILTIN_NAMES, builtin_document, builtin_graph

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph", "BlockDecomposition", "ConsistencyError", "GraphFormatError",
    "IsolatedVertexError", "PureOrder", "connected_components", "cross_blocks",
    "delete_closed_neighborhood", "disjoint_union", "find_pure_order", "is_connected",
    "is_pure_order", "is_unmixed", "parse_graph", "to_document",
    "HomologyProfile", "SimplicialComplex", "cm_codim", "cm_codim_recursive", "dim",
    "faces", "from_facets", "independence_complex", "is_cm_t", "is_cohen_macaulay",
    "is_pure", "join", "link", "reduced_euler_characteristic", "reduced_homology",
    "CmtClassification", "MacaulayOrder", "OracleAgreement",
    "classification_json", "classify", "disjoint_union_codim", "is_buchsbaum",
    "macaulay_order", "verify_against_oracle",
    "Expansion", "contract", "expand", "expansion_document", "parse_expansion",
    "predicted_codim",
    "CanonicalForm", "CmtFamily", "canonical_form", "enumerate_cm",
    "enumerate_sharp_cmt", "enumerate_unmixed", "write_enumeration",
    "BUILTIN_NAMES", "builtin_document", "builtin_graph",
    "__version__",
]
