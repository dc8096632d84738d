"""Exception types shared across the package."""


class PolyteamError(Exception):
    """Base class for all errors raised by this package."""


class SortedDomainError(PolyteamError):
    """A variable, team, or tuple violates the sort/domain discipline."""


class InvalidChoiceError(PolyteamError):
    """A per-row value choice function returned an empty set."""


class ParseError(PolyteamError):
    """Syntax or sort error in a textual formula, atom, or dependency."""

    def __init__(self, message, line=None, col=None):
        self.reason = message
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class RuleApplicationError(PolyteamError):
    """Premises do not match the shape required by an inference rule."""


class RewriteError(PolyteamError):
    """A formula transformation was requested on an unsupported input."""


class RegistryError(PolyteamError):
    """Unknown generalized atom name or mismatched atom type."""


class ResourceExhausted(PolyteamError):
    """An evaluation cap or timeout tripped; never coerced to a verdict."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"resource limit exceeded: {limit}")
