"""Exception types shared across the package."""

# items of a list that an error message shows before it gives only the count
MESSAGE_ITEMS = 3


def shown_items(items: list) -> str:
    """A list for an error message: the whole list, or its first few items
    and the count of the rest, so a message stays one short line."""
    if len(items) <= MESSAGE_ITEMS:
        return str(items)
    return f"{str(items[:MESSAGE_ITEMS])[:-1]}, ... ({len(items) - MESSAGE_ITEMS} more)]"


class TreepropError(Exception):
    pass


class FormulaError(TreepropError, ValueError):
    """Formula text or a structure document fails to parse, or evaluation
    hits an unbound name."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class ResourceCapError(TreepropError, RuntimeError):
    """A size would exceed its cap, a module-level constant of the module that
    raises it."""

    def __init__(self, message, cap):
        super().__init__(f"{message} (cap {cap})")
        self.cap = cap


class WitnessError(TreepropError, ValueError):
    """Witness data violates its declared backend contract."""
