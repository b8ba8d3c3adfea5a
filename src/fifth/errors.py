"""Exception types shared across the engine."""


class FifthError(Exception):
    """Base class for all engine errors."""


class StructuralError(FifthError):
    """A structural misuse: unknown cell, bad arity, invalid frame transition."""


class ParseError(FifthError):
    """Syntax or binding error in program text, with source position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class BundleError(FifthError):
    """A model bundle file that is truncated, incomplete, or in an older
    layout; the message names the file."""


class TrainingDivergence(FifthError):
    """Training produced a non-finite loss; carries the abort report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}
