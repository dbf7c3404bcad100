"""Exception hierarchy shared by all crslab modules."""


class CrslabError(Exception):
    """Base class for every error raised by this package."""


class InvalidGraph(CrslabError):
    """Raised when a graph violates the basic representation contract
    (fewer than two vertices, loops, undeclared edge endpoints...)."""


class UnknownVertex(CrslabError):
    """A vertex label is not present in the graph."""


class DisconnectedGraph(CrslabError):
    """An operation that needs finite distances met an unreachable pair."""


class InvalidW(CrslabError):
    """W must be a nonempty proper subset of the vertex set."""


class OrderCapExceeded(CrslabError):
    """Graph order exceeds the configured search cap."""


class SizeOverflow(CrslabError):
    """A requested lattice or product would exceed the size cap."""


class IndexOutOfRange(CrslabError):
    """A coordinate index i must satisfy 1 <= i <= k."""


class WrongVertexSet(CrslabError):
    """An operation requires the canonical vertex set ([k], [m]^k or both)."""


class UnknownName(CrslabError):
    """Unrecognized named example graph."""


class EnumerationCapExceeded(CrslabError):
    """The enumeration space is larger than the configured cap."""


class NotMinimal(CrslabError):
    """The operation requires a minimality certificate that does not hold."""


class NotMember(CrslabError):
    """The operation requires family membership that does not hold."""


class InvalidCertificate(CrslabError):
    """A completeness-resolving certificate does not match the graph."""


class CrossEdgeMismatch(CrslabError):
    """Relabeling consistency check failed: cross edges disagree with
    adjacency to W.  Signals a broken certificate."""


class FormatError(CrslabError):
    """Malformed serialized graph data (JSON, graph6, DOT input...)."""
