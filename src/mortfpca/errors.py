"""Error taxonomy shared across the package.

Every failure mode that callers are expected to handle gets its own class so
the CLI can report ``module=... type=...`` lines and tests can assert on the
exact condition.  The ``module`` attribute names the subsystem that owns the
contract being violated.
"""


class MortfpcaError(Exception):
    """Base class for all package errors."""

    module = "mortfpca"


# ---------------------------------------------------------------------------
# data ingestion

class MalformedRow(MortfpcaError):
    """A data row does not match the expected column layout."""

    module = "hmd"


class NonContiguousYears(MortfpcaError):
    """Year coverage has gaps."""

    module = "hmd"


class EmptyInput(MortfpcaError):
    """No data rows found."""

    module = "hmd"


class AllMissingYear(MortfpcaError):
    """A year has no observed rate at any age, so nothing to interpolate."""

    module = "hmd"


class SchemaMismatch(MortfpcaError):
    """A persisted surface file violates the CSV schema."""

    module = "hmd"


class IoError(MortfpcaError):
    """Filesystem read or write failed."""

    module = "hmd"


# ---------------------------------------------------------------------------
# smoothing

class NonFiniteInput(MortfpcaError):
    """Input contains NaN or infinity where finite values are required."""

    module = "smoothing"


class SingularSystem(MortfpcaError):
    """The penalized least-squares system cannot be solved."""

    module = "smoothing"


# ---------------------------------------------------------------------------
# functional PCA

class KappaOutOfRange(MortfpcaError):
    """Geometric decay parameter outside the open interval (0, 1)."""

    module = "ufpca"


class InsufficientYears(MortfpcaError):
    """Too few annual curves to estimate a covariance."""

    module = "ufpca"


class EmptyBundle(MortfpcaError):
    """A multi-population operation received no populations."""

    module = "mfpca"


# ---------------------------------------------------------------------------
# time-series models

class SeriesTooShort(MortfpcaError):
    """Score series shorter than the minimum the grid search supports."""

    module = "tsmodels"


class OptimFailed(MortfpcaError):
    """Likelihood optimization produced no usable estimate."""

    module = "tsmodels"


# ---------------------------------------------------------------------------
# forecasting and evaluation

class AlphaOutOfRange(MortfpcaError):
    """Interval level must lie strictly between 0 and 1."""

    module = "forecasters"


class ShapeMismatch(MortfpcaError):
    """Paired arrays disagree in shape."""

    module = "demographics"


class InsufficientSpan(MortfpcaError):
    """Observed years cannot accommodate the rolling evaluation design."""

    module = "evaluation"


class ConfigError(MortfpcaError):
    """Invalid command-line or config-file settings."""

    module = "cli"
