"""Exception types shared across the package."""


class SparseBenchError(Exception):
    """Base class for all sparsebench errors."""


class MalformedStream(SparseBenchError):
    """A serialized tensor/feature-map stream failed validation.

    Carries the byte offset at which parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ShapeMismatch(SparseBenchError):
    """Tensor or layer dimensions are inconsistent."""


class Underdetermined(SparseBenchError):
    """A solver was given more than one unknown."""


class MissingArtifact(SparseBenchError):
    """A file that is missing or cannot be read or written; the message
    names the path and the OS reason."""


class EquivalenceFailure(SparseBenchError):
    """The sparse and dense engines disagreed where they must agree; a bug
    in the engines, not in the input."""
