"""Exception hierarchy shared across the package."""


class BetacoverError(Exception):
    """Base class for all library errors."""


class EmptyFamilyError(BetacoverError):
    """A meet/join was requested over an empty family of interval values."""


class UniverseMismatchError(BetacoverError):
    """Two values defined over different universes were combined."""


class UnknownObjectError(BetacoverError):
    """An object identifier is not part of the universe."""


class UnknownParameterError(BetacoverError):
    """A parameter identifier is not part of the soft mapping."""


class NotACoveringError(BetacoverError):
    """The mapping fails the beta-covering condition; ``report`` lists where."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class DocumentError(BetacoverError):
    """Base class for ingestion errors."""


class SpaceSyntaxError(DocumentError):
    """Malformed document; carries a human-locatable position or key path."""

    def __init__(self, message, location=None):
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)
        self.location = location


class IncompleteTableError(DocumentError):
    """A (parameter, object) cell is missing from a membership table."""

    def __init__(self, parameter, obj):
        super().__init__(f"missing membership cell ({parameter!r}, {obj!r})")
        self.parameter = parameter
        self.object = obj


class UnknownTheoremError(BetacoverError):
    """A theorem id is not in the audit registry."""
