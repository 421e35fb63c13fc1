"""Exception hierarchy shared across the package."""

# Characters of a document's literal that an error message quotes.
EXCERPT_CHARS = 40
# Failing objects a covering error names before it counts the rest.
_NAMED_FAILURES = 5


def excerpt(value) -> str:
    """repr of a literal from a document, cut to a bounded length.

    A string of at most EXCERPT_CHARS characters is quoted whole; a longer
    one, or a long repr of another value, by its start and its length.
    """
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= EXCERPT_CHARS:
        return repr(value)
    return f"{text[:EXCERPT_CHARS]!r}... ({len(text)} characters)"


def cut_name(name: str) -> str:
    """A parameter or object name as an error message shows it: whole if short."""
    return name if len(name) <= EXCERPT_CHARS else excerpt(name)


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
    """The mapping fails the beta-covering condition; ``report`` lists where.

    The message is built only when shown, and names the first few objects.
    """

    def __init__(self, report):
        super().__init__(report)
        self.report = report

    def __str__(self):
        failures = self.report.failures
        shown = ", ".join(
            f"{cut_name(o)}:{cut_name(str(j))}" for o, j in failures[:_NAMED_FAILURES]
        )
        more = len(failures) - _NAMED_FAILURES
        tail = f", and {more} more" if more > 0 else ""
        return f"beta-covering condition fails at {shown}{tail}"


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
        super().__init__(f"missing membership cell ({excerpt(parameter)}, {excerpt(obj)})")
        self.parameter = parameter
        self.object = obj


class UnknownTheoremError(BetacoverError):
    """A theorem id is not in the audit registry."""
