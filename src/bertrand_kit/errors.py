"""Exception hierarchy shared by all modules."""


class BertrandKitError(Exception):
    """Base class for all library errors."""


class ExprSyntaxError(BertrandKitError):
    """Malformed expression text.

    Carries the character position and the set of tokens that would have
    been accepted there.
    """

    def __init__(self, position, expected, message=None):
        self.position = position
        self.expected = tuple(expected)
        super().__init__(
            message
            or f"syntax error at position {position}: expected one of {self.expected}"
        )


class UnknownFunctionError(BertrandKitError):
    def __init__(self, name, position=None):
        self.name = name
        self.position = position
        super().__init__(f"unknown function {name!r}")


class NonConstantExponentError(BertrandKitError):
    def __init__(self, position=None):
        self.position = position
        super().__init__("exponent of '^' must be a numeric constant")


class DomainError(BertrandKitError):
    """log/sqrt of a non-positive value, tan at a pole, division by zero."""


class OrderOverflowError(BertrandKitError):
    def __init__(self, order, max_order):
        self.order = order
        self.max_order = max_order
        super().__init__(f"jet order {order} exceeds maximum {max_order}")


class ParameterError(BertrandKitError, ValueError):
    """A numeric argument outside its range: the generator's a or omega,
    or an offset lambda that is not finite."""


class OutOfDomainError(BertrandKitError):
    """Parameter value outside the curve's domain."""


class SingularPointError(BertrandKitError):
    """Speed or curvature below the regularity floor: frame undefined."""


class DegenerateRatioError(BertrandKitError):
    """g undefined (helical) or g = f (planar-type degeneracy)."""


class NotAPairError(BertrandKitError):
    """Two curves failed the Bertrand-pair checks.

    ``reason`` is one of 'offset-not-normal' (curves that coincide
    included: a pair's offset is not zero), 'lambda-varies',
    'normals-not-aligned'.
    """

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__(f"not a Bertrand pair ({reason}){': ' + detail if detail else ''}")


class IllConditionedError(BertrandKitError):
    """Least-squares system rank deficient (e.g. constant curvature/torsion)."""


class NotSphericalError(BertrandKitError):
    """Generator input curve does not lie on the unit sphere."""


class DegenerateSphereCurveError(BertrandKitError):
    """Spherical input has c x c' ~ 0 somewhere: output would be helical."""


class GridMismatchError(BertrandKitError):
    """Pair operations given curves with non-overlapping parameter ranges."""


class TooFewSamplesError(BertrandKitError):
    """Classification asked for fewer samples than the method supports."""
