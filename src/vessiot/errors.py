"""Exception types shared across the engine."""


class VessiotError(Exception):
    """Base class for all engine errors."""


class ExprSyntaxError(VessiotError):
    """Malformed expression text; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifier(ExprSyntaxError):
    """Identifier is neither a coordinate of the chart nor a declared parameter."""


class DivisionByZero(VessiotError):
    """Denominator normalizes to the zero polynomial."""


class DivisionByZeroLiteral(DivisionByZero):
    """Division by a literal zero inside expression text."""


class InputTooLarge(VessiotError):
    """An expression would grow past the engine's input budget, or its gcd
    defeats the heuristic gcd."""


class SingularPoint(VessiotError):
    """A denominator vanishes at the requested evaluation point."""


class OrderOverflow(VessiotError):
    """A jet computation would exceed the configured maximum jet order."""


class DegenerateSection(VessiotError):
    """The section's nondegeneracy witness is identically zero."""


class DegenerateMetric(DegenerateSection):
    """det(w) is identically zero."""


class DegeneratePair(DegenerateSection):
    """The 3-form alpha^beta is identically zero."""


class KindMismatch(VessiotError):
    """Operation needs sections of one (supported) kind."""


class NotAPerfectSquare(VessiotError):
    """No rational square root is available for the given component."""


class NotProportional(VessiotError):
    """Componentwise quotients disagree: no single factor exists."""


class ZeroScale(VessiotError):
    """Scaling parameter is zero."""


class NotIntegrable(VessiotError):
    """Operation requires integrable inputs (constant structure functions)."""


class DegreeOverflow(VessiotError):
    """Exterior derivative applied at top degree."""


class InputFormatError(VessiotError):
    """Malformed section file or CC specification."""
