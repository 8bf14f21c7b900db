"""Exception hierarchy shared by all lungrisk modules."""


class LungRiskError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(LungRiskError):
    """Array shapes do not satisfy an operation's contract."""


class ConfigError(LungRiskError):
    """Invalid configuration value (rates, fold counts, missing weight keys)."""


class FormatError(LungRiskError):
    """A file or volume does not conform to its declared format."""


class ChecksumError(FormatError):
    """Stored checksum does not match the file contents."""


class VersionError(FormatError):
    """File carries a format version this build does not understand."""


class TruncatedFileError(FormatError):
    """File ends before its declared payload does."""


class DataConsistencyError(LungRiskError):
    """Input data disagree with each other or cannot support the computation
    asked of them (candidates without labels, a candidate outside its volume,
    a one-class cohort)."""


class OutOfBoundsError(DataConsistencyError):
    """Requested region lies entirely outside the volume."""


class InvalidBatchError(LungRiskError):
    """Batch statistics requested over an empty batch."""


class MissingGradientError(LungRiskError):
    """A learnable parameter did not receive a gradient during backward."""


class NumericError(LungRiskError):
    """Non-finite value encountered where finite numbers are required."""


class PairingError(DataConsistencyError):
    """Two cohorts passed to a paired test do not share scans/labels."""


class DegenerateCohortError(DataConsistencyError):
    """Cohort lacks one of the two classes needed for ROC statistics."""


class NoNoduleError(DataConsistencyError):
    """Patient-level aggregation over an empty nodule list."""


class FoldWorkerError(LungRiskError):
    """A fold-training worker process ended without returning its result."""


class ZeroNoduleWarning(UserWarning):
    """A scan without nodule patches was scored with the 0.0 convention."""
