"""Exception types shared across the package."""


class WulffkitError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(WulffkitError, ValueError):
    """Operands live on spheres of different ambient dimension."""


class NonFiniteError(WulffkitError, ValueError):
    """Input coordinates contain NaN or infinity."""


class NormalizationError(WulffkitError):
    """A vector too close to zero was asked to become a unit vector."""


class PolarEmptyError(WulffkitError):
    """The polar set is empty (the dual cone is the origin alone)."""

    def __init__(self, message="polar-empty"):
        super().__init__(message)


class NotAWulffShapeError(WulffkitError):
    """An operation restricted to Wulff shapes got something else."""

    def __init__(self, message="not-a-wulff-shape"):
        super().__init__(message)


class NonHemisphericalError(WulffkitError):
    """A hull was requested for a point set that is not hemispherical."""


class SeparationError(WulffkitError):
    """No q puts the first body in {q . x > 0} and the second in {q . x < 0}
    (the bodies touch or overlap, or one is a hemisphere or a lune)."""

    def __init__(self, message="no-separator"):
        super().__init__(message)


class GenerationError(WulffkitError):
    """A randomly drawn shape failed its validity check."""


class ShapeFileError(WulffkitError):
    """A shape file failed to parse or validate.

    Carries enough location detail (line or field path) for a CLI
    diagnostic.
    """

    def __init__(self, message, *, path=None, line=None, field=None):
        self.path = path
        self.line = line
        self.field = field
        where = []
        if path is not None:
            where.append(str(path))
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field}")
        prefix = ": ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class ResolutionError(WulffkitError):
    """A sampling resolution outside the supported range was requested."""
