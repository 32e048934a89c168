"""Exception taxonomy shared across the pipeline.

Every failure mode raised by this package derives from MultishotError so
callers (and the CLI exit-code mapping) can distinguish validation problems
from transport / I/O problems.
"""


class MultishotError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MultishotError):
    """Invalid configuration value or parameter combination."""


class ShapeError(MultishotError):
    """Array shapes disagree with the operation's contract."""


class ScheduleError(MultishotError):
    """Step index out of range or mis-ordered against the schedule."""


class NumericError(MultishotError):
    """Non-finite values where finite ones are required."""


class InputError(MultishotError):
    """Bad user-facing input (empty prompt, unknown domain, empty timeline)."""


class ParseError(MultishotError):
    """A JSON document or LLM completion is not valid JSON, or a field of it
    is missing, of the wrong type or blank; the message names it or the
    field's JSON path."""


class ValidationError(MultishotError):
    """Referential-integrity violation (dangling ids, gaps, duplicates)."""


class StateError(MultishotError):
    """Operation invoked before its prerequisites were populated."""


class TransportError(MultishotError):
    """LLM client failure (network, HTTP status, malformed payload); the
    message names the task that called the client."""


class FormatError(MultishotError):
    """Binary tensor file has a bad magic, version, or rank."""


class LengthError(FormatError):
    """Binary tensor file payload is truncated or has trailing bytes."""


class StageFailure(MultishotError):
    """A pipeline stage aborted; ``stage`` names it, the cause is chained."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
