"""Exception types shared across the package."""


class JamError(Exception):
    """Base class for all package errors."""


class InvalidInput(JamError):
    """Arguments violate a precondition (shape, range, finiteness)."""


class DegenerateInput(JamError):
    """Input is structurally valid but numerically degenerate (zero variance,
    empty neighbor mask, zero-norm rows)."""


class FormatError(JamError):
    """Embedding file is corrupt: bad magic, truncated payload, bad values."""


class ManifestError(JamError):
    """Dataset manifest is inconsistent or references missing files."""


class ConfigError(JamError):
    """Run configuration is malformed (unknown keys, values of the wrong type)."""


class UsageError(JamError):
    """API misuse, e.g. consuming a gradient tape twice."""


class NonFiniteGradient(JamError):
    """An optimizer step received NaN/Inf gradients."""


class NonFiniteLoss(JamError):
    """Training hit a non-finite loss. Carries the partial history and the
    last-good model snapshot so callers can salvage the run."""

    def __init__(self, message, history=None, model=None):
        super().__init__(message)
        self.history = history
        self.model = model
