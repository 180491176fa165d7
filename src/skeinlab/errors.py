"""Exception hierarchy shared across the library."""


class SkeinlabError(Exception):
    """Base class for all library errors."""


class InvalidTolerance(SkeinlabError, ValueError):
    """A tolerance that is not finite, not positive or too loose, or an
    SKEINLAB_TOL that does not parse."""


class NonFiniteScalar(SkeinlabError):
    """An operation produced (or received) a NaN or infinity."""


class DegenerateLeadingCoefficient(SkeinlabError):
    """Quadratic solve requested with |c2| below tolerance."""


class NonRealInput(SkeinlabError):
    """A value required to be real has a significant imaginary part."""


class NoRealRoot(SkeinlabError):
    """Polynomial has no real root within tolerance."""


class SideMismatch(SkeinlabError):
    """Linear or bilinear operation on 2-boxes of different shadings."""


class InadmissibleDelta(SkeinlabError):
    """Loop value outside the classification locus."""


class ChiralityMismatch(SkeinlabError):
    """sigma = +1 requested at a loop value other than the depth-3 one."""


class ChiralityInfeasible(SkeinlabError):
    """sigma = +1 branch has no positive trace-ratio solution (delta > 9/4)."""


class NoPositiveRoot(SkeinlabError):
    """Trace-ratio quadratic has no positive root."""


class BrauerDegenerate(SkeinlabError):
    """Braid construction at q = 1 outside the explicit limit handling."""


class ParameterMismatch(SkeinlabError):
    """(q, r) inconsistent with the model's loop value."""


class DegenerateParameters(SkeinlabError):
    """BMW trace formulas evaluated at q in {+-1, +-i} or r = 0."""


class NoSolution(SkeinlabError):
    """No sign candidate satisfies the closure equation."""


class MultipleSolutions(SkeinlabError):
    """More than one sign candidate satisfies the closure equation."""


class DegenerateDenominator(SkeinlabError):
    """Parameter recovery hit a vanishing denominator."""


class NoCanonicalRepresentative(SkeinlabError):
    """Parameter orbit misses the normalization region."""


class NonPlanar(SkeinlabError):
    """Euler characteristic check failed for a diagram component."""


class ShadingInconsistent(SkeinlabError):
    """Shading parity disagrees around a face."""


class MalformedPairing(SkeinlabError):
    """Dart pairing is not a fixed-point-free involution covering all darts."""


class InvariantViolation(SkeinlabError):
    """Internal invariant broken (indicates a bug or corrupted input)."""


class TriangleTableRequired(SkeinlabError):
    """A 3-gon face was met and no triangle table was supplied."""


class InternalEnumerationMismatch(SkeinlabError):
    """3-box basis enumeration produced wrong diagram counts."""


class GramRankDeficient(SkeinlabError):
    """Gram matrix rank dropped below 14."""


class SupportAmbiguous(SkeinlabError):
    """A coproduct support coefficient sits within tolerance of zero."""
