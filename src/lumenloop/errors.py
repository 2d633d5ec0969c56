"""Exception hierarchy shared across the package."""


class LumenloopError(Exception):
    """Base class for all errors raised by lumenloop."""


class SchemaError(LumenloopError):
    """An input file or document is malformed."""


class ValidationError(LumenloopError):
    """A well-formed document violates a semantic invariant.

    ``path`` points at the offending field (e.g. ``people[2].destination``)
    when the error comes from scenario validation.
    """

    def __init__(self, message, path=None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class ControllerError(LumenloopError):
    """A controller faulted during simulation; carries tick and pole id."""

    def __init__(self, message, tick, pole_id):
        self.tick = tick
        self.pole_id = pole_id
        super().__init__(f"tick {tick}, pole {pole_id}: {message}")


class LexError(LumenloopError):
    """Lexical error in rule-language source."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ParseError(LumenloopError):
    """Syntax error in rule-language source."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        super().__init__(f"line {line}, column {column}: {message}")


class UnknownBaseline(LumenloopError):
    """Requested built-in controller name does not exist."""


class DegenerateSystem(LumenloopError):
    """Weight-recovery rows are rank-deficient."""


class LengthMismatch(LumenloopError):
    """Genome length does not match the network layout."""


class NoCodeBlock(LumenloopError):
    """A model response contained no fenced code block."""


class MissingMetrics(LumenloopError):
    """A feedback prompt was requested for a record without metrics."""


class ProviderError(LumenloopError):
    """Unrecoverable failure talking to a completion provider."""


class AuthError(ProviderError):
    """Credential rejected (401/403); never retried."""


class MalformedResponse(ProviderError):
    """Provider payload did not contain the expected fields."""


class ScriptExhausted(ProviderError):
    """Replay provider received more requests than scripted responses."""


class TranscriptWriteError(LumenloopError):
    """Transcript file could not be written."""
