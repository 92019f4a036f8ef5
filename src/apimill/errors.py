"""Exception types shared across the pipeline."""

from __future__ import annotations


class ApimillError(Exception):
    """Base class for all package-specific errors."""


class FetchFailed(ApimillError):
    def __init__(self, origin: str, cause: str):
        self.origin = origin
        self.cause = cause
        super().__init__(f"could not load {origin!r}: {cause}")


class EmptyDocument(ApimillError):
    """Nothing survived markup cleaning."""


class JudgeUnavailable(ApimillError):
    """Remote judge backend failed; callers may fall back to the heuristic."""


class RepairFailure(ApimillError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class BackendUnreachable(ApimillError):
    """Remote extraction/guess backend transport failure."""


class EmbeddingUnavailable(ApimillError):
    """Embedding provider failed for a batch of texts."""


class DimensionMismatch(ApimillError):
    def __init__(self, got: int, expected: int):
        super().__init__(f"vector dimension {got} != {expected}")


class EmptyCorpus(ApimillError):
    """Metrics requested over zero extraction results."""


class MalformedUrl(ApimillError):
    pass


class MixedHosts(ApimillError):
    """Tools handed to a single export document do not share one host."""


class MissingRequiredParameter(ApimillError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing required parameter: {name}")


class UnboundPathParam(ApimillError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound path placeholder: {name}")


class NegativeCount(ApimillError):
    pass


class NoCandidates(ApimillError):
    def __init__(self, param: str):
        self.param = param
        super().__init__(f"no usable candidates for parameter {param!r}")


class InsufficientCorpus(ApimillError):
    """Leave-one-source-out needs at least two distinct source documents."""


class MissingStageInput(ApimillError):
    def __init__(self, stage: str, detail: str = ""):
        self.stage = stage
        msg = f"stage {stage!r} is missing its input artifacts"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ConfigInvalid(ApimillError):
    pass


class OfflineViolation(ApimillError):
    """A non-loopback request was attempted while offline mode is active."""


class TransportFailed(ApimillError):
    """An HTTP request got no complete response (connection, TLS, timeout)."""
