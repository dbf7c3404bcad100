"""crslab: completeness-resolving sets and the resolvable graph families.

A connected graph is completeness-resolvable when some vertex subset W
makes the distance-vector map of the remaining vertices a bijection onto
the full box [m(W)]^|W|.  This package builds the two constructive families
realizing every such graph beyond paths and universal-vertex graphs,
verifies certificates and family membership with witnesses, enumerates the
minimal members exhaustively at k = 2, and checks the edge-count bounds
with their tightness characterizations.
"""

from .errors import (
    CrslabError,
    CrossEdgeMismatch,
    DisconnectedGraph,
    EnumerationCapExceeded,
    FormatError,
    IndexOutOfRange,
    InvalidCertificate,
    InvalidGraph,
    InvalidW,
    NotMember,
    NotMinimal,
    OrderCapExceeded,
    SizeOverflow,
    UnknownName,
    UnknownVertex,
    WrongVertexSet,
)
from .graph import (
    BaseVertex,
    Graph,
    LatticeVector,
    LatticeVertex,
    PlainVertex,
    Vertex,
    diameter,
    distances,
    is_connected,
    is_path,
    is_spanning_subgraph,
    plain_graph,
    universal_vertices,
)
from .graph6 import read_graph6, write_graph6
from .resolving import (
    DEFAULT_ORDER_CAP,
    ClassificationVerdict,
    CrsCertificate,
    CrsFailure,
    check_crs,
    find_all_crs,
    is_completeness_resolvable,
    is_perfectness_resolvable,
    is_resolving_set,
    metric_dimension,
)
from .families import (
    CompositeGraph,
    MembershipReport,
    base_complete,
    base_null,
    canonical_relabel,
    compose,
    example_graph,
    gamma,
    lattice_complete,
    lattice_vertices,
    member_b,
    member_c,
    s_set,
    scaffold,
    span_lattice,
)
from .extremal import (
    BoundsReport,
    CriticalEdgeSets,
    MinimalityReport,
    bounds_b,
    bounds_c,
    composite_size_bounds,
    critical_edges,
    enumerate_minimal,
    is_h1_minimal,
    is_k_minimal,
    tightness_b,
)

__version__ = "0.1.0"
