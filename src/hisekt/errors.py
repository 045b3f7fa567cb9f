"""Exception hierarchy shared across the pipeline."""


class HisektError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(HisektError, ValueError):
    """Raised when a configuration field holds a value outside its allowed set."""


class IngestError(HisektError):
    """Raised when an input file cannot be parsed; message carries the row number."""


class EmptyDatasetError(HisektError):
    """Raised when filtering leaves zero interactions."""


class ModelError(HisektError):
    """Raised when a fitted model is unusable (too few students, singular covariance, ...)."""


class ScoringError(HisektError):
    """Raised when the scoring backend returns unusable output after retries."""

    def __init__(self, message: str, raw_response: str = ""):
        super().__init__(message)
        self.raw_response = raw_response


class PredictionError(HisektError):
    """Raised when the prediction backend returns unusable output after retries."""

    def __init__(self, message: str, transcript: str = ""):
        super().__init__(message)
        self.transcript = transcript


class TransportError(HisektError):
    """Raised on network-level failure talking to an LLM endpoint.

    ``retryable`` is False when repeating the request cannot help, such as an
    HTTP 4xx reply other than 408 (timeout) or 429 (rate limit).
    """

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


class UndefinedMetricError(HisektError):
    """Raised when a metric is undefined for the given inputs (single-class AUC)."""


class StageDependencyError(HisektError):
    """Raised when a CLI stage is missing an upstream cache artifact."""

    def __init__(self, stage: str, missing: str):
        super().__init__(f"stage '{stage}' requires output of stage '{missing}' (not found in cache)")
        self.stage = stage
        self.missing = missing
