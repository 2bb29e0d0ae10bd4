"""Exception types shared across the package."""


class CyberlogError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CyberlogError):
    """Syntax or static-semantics error in rulesheet source."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col or 0}: {message}"
        super().__init__(message)


class EvaluationError(CyberlogError):
    """Runtime failure while evaluating a rule body (overflow, type misuse)."""


class EvidenceError(CyberlogError):
    """A claim's evidence failed a structural or cryptographic check."""


class LogIntegrityError(CyberlogError):
    """The tamper-evident log failed verification (bad proof, bad hash)."""


class SignatureError(LogIntegrityError):
    """A logged revision is not signed by its owner under a trusted key."""


class UnsupportedClaimError(LogIntegrityError):
    """A logged revision, `record`, holds a claim, `claim`, that the revisions it names do not support."""

    def __init__(self, message: str, record, claim):
        super().__init__(message)
        self.record, self.claim = record, claim


class NotFoundError(CyberlogError):
    """A requested entity does not exist."""


class SubmitError(CyberlogError):
    """Claim database rejected a submission. `code` mirrors HTTP semantics."""

    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


class ConfigError(CyberlogError):
    """Invalid configuration or scenario file."""
