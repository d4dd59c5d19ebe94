"""Exception types raised across the library."""


class ScanrankError(Exception):
    """Base class for all library-specific errors."""


# --- storage ---

class MagicMismatchError(ScanrankError):
    """File does not start with the expected archive magic bytes."""


class DimMismatchError(ScanrankError):
    """Declared dimensions disagree with payload or with each other."""


class TruncatedFileError(ScanrankError):
    """File ended before the payload declared in its header."""


class DuplicateIdError(ScanrankError):
    """The same scan id appears more than once in a manifest."""


class MissingFileError(ScanrankError):
    """A manifest references a file that does not exist."""


class InconsistentDimsError(ScanrankError):
    """Scans in one dataset declare different feature/descriptor dims."""


class IoError(ScanrankError):
    """Read/write failure of a scan archive, results file or export."""


# --- matching / spectral ---

class EmptyScanError(ScanrankError):
    """Operation requires at least one point."""


class NonPositiveThresholdError(ScanrankError):
    """A distance threshold must be strictly positive."""


class EmptyMatrixError(ScanrankError):
    """Spectral solve requires a non-empty matrix."""


# --- registration ---

class TooFewCorrespondencesError(ScanrankError):
    """Registration needs at least three correspondences."""


class DegenerateConfigurationError(ScanrankError):
    """Point configuration does not constrain a unique rigid fit."""


class EmptySetError(ScanrankError):
    """Operation requires a non-empty correspondence set."""


# --- retrieval / rerank ---

class EmptyDatabaseError(ScanrankError):
    """Descriptor index cannot be built from zero scans."""


class UnresolvedCandidateError(ScanrankError):
    """A ranked list names a row its database does not have."""


class ZeroVectorError(ScanrankError):
    """Aggregated query descriptor collapsed to the zero vector."""


# --- metrics ---

class NoEvaluableQueriesError(ScanrankError):
    """No query has a ground-truth positive, metric is undefined."""


# --- synthgen / cli ---

class InvalidConfigError(ScanrankError):
    """Configuration value out of range or unknown key."""
