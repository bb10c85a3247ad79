"""Exception hierarchy shared by all rhalylab modules."""


class RhalyError(Exception):
    """Base class for all rhalylab errors."""


class OversamplingViolation(RhalyError):
    """Circle grid too coarse for the polynomial degree being evaluated."""


class IndexOrder(RhalyError):
    """Partial sum requested below index 0."""


class AlphaRange(RhalyError):
    """Weight exponent outside the admissible range."""


class ParamOrder(RhalyError):
    """Mixed-norm parameters supplied in the wrong order (q > p)."""


class RadiusRange(RhalyError):
    """Radius outside (0, 1)."""


class PRange(RhalyError):
    """Integrability exponent outside the admissible range."""


class DegreeTooSmall(RhalyError):
    """Polynomial degree too small for the requested dyadic block range."""


class TruncationMismatch(RhalyError):
    """Input degree exceeds the sequence truncation."""


class TruncationTooSmall(RhalyError):
    """Truncation leaves a non-negligible geometric tail."""


class NotMonotone(RhalyError):
    """Sequence is not certified monotone, monotone-only rule refused."""


class ShapeMismatch(RhalyError):
    """Array argument has the wrong length for the requested construction."""


class MalformedSpec(RhalyError):
    """JSON input that does not have the documented shape."""
