"""Exception types shared across the package."""


class SinkeqError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SinkeqError):
    """A game or machine was constructed with inconsistent data.

    Raised at construction time, never during evaluation.
    """


class CapExceededError(SinkeqError):
    """An enumeration exceeded its configured cap.

    ``explored`` counts what was searched before the stop, or is None when
    the search was refused outright.
    """

    def __init__(self, message, explored=None):
        super().__init__(message)
        self.explored = explored


class SymbolError(SinkeqError, KeyError):
    """A symbol table lacks a role or strategy; its text is not quoted like a key's."""

    __str__ = Exception.__str__


class UnsupportedGameError(SinkeqError):
    """An operation was applied to a game class it is not defined for."""


class TapeBoundError(SinkeqError):
    """A machine step would move the head outside the bounded tape."""


class FormatError(SinkeqError):
    """A document failed to parse; ``path`` points into the document."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
