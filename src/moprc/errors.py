"""Exception types shared across the package."""


class MoprcError(Exception):
    """Base class for all library-specific errors."""


class DomainError(MoprcError):
    """A parameter is outside the supported domain (bad n, bad color, ...)."""


class FormatError(MoprcError):
    """A text file does not match the expected format.

    Carries a 1-based line number when the failing line is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidAttachment(MoprcError):
    """A construction row names an attachment edge not on the exterior face."""

    def __init__(self, vertex: int, low: int, high: int):
        self.vertex = vertex
        self.low = low
        self.high = high
        super().__init__(
            f"row for vertex {vertex}: attachment edge ({low}, {high}) "
            "is not an exterior edge of the partial graph"
        )


class NotMop(MoprcError):
    """The graph is not a maximal outerplanar graph."""


class NotChordal(MoprcError):
    """The graph admits no perfect elimination ordering."""


class NotACut(MoprcError):
    """An edge set claimed to be a cut does not disconnect the graph."""


class ScaleLimit(MoprcError):
    """An exhaustive routine was asked to run beyond its configured caps."""
