"""Exception types shared across the package."""


class TreepropError(Exception):
    pass


class MalformedNodeError(TreepropError, ValueError):
    """Node text does not parse under the declared branching."""


class FormulaError(TreepropError, ValueError):
    """Formula text or a structure document fails to parse, or evaluation
    hits an unbound name."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class ResourceCapError(TreepropError, RuntimeError):
    """An enumeration would exceed its configured cap."""

    def __init__(self, message, cap):
        super().__init__(f"{message} (cap {cap})")
        self.cap = cap


class WitnessError(TreepropError, ValueError):
    """Witness data violates its declared backend contract."""
