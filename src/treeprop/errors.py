"""Exception types shared across the package, the helpers that write lists
and sizes in their messages, and `record`, the base of its immutable record classes."""

import collections

# items of a list that an error message shows before it gives only the count
MESSAGE_ITEMS = 3


def shown_items(items: list) -> str:
    """A list for an error message: the whole list, or its first few items
    and the count of the rest, so a message stays one short line."""
    if len(items) <= MESSAGE_ITEMS:
        return str(items)
    return f"{str(items[:MESSAGE_ITEMS])[:-1]}, ... ({len(items) - MESSAGE_ITEMS} more)]"


def shown_size(n: int) -> str:
    """A size for an error message: n itself, or, past the digits that the
    interpreter prints (a deep domain's node count), a power of two below it."""
    try:
        return str(n)
    except ValueError:
        return f"(at least 2^{n.bit_length() - 1})"


def repeated_items(items) -> list:
    """The items that occur more than once, each named once."""
    return [x for x, n in collections.Counter(items).items() if n > 1]


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


class _Record:
    """What `record` adds to a named tuple: equality and hash within its own
    class only, no order, no attribute assignment, and `_make` and
    `_replace` that build through the class's constructor and its checks.
    The tuple's items are read with tuple's own iterator, so a record may
    define its own `__iter__`."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash((type(self), tuple.__hash__(self)))

    __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, tuple.__iter__(self)))

    def _replace(self, /, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __getnewargs__(self):
        return tuple(tuple.__iter__(self))


def record(fields: str, defaults=()) -> type:
    """The base of an immutable record class with these fields (names split
    on spaces) and defaults for the last ones: a named tuple, which takes no
    generated code to create, unlike a dataclass. A subclass that checks its
    fields does so in `__new__`, before it calls `super().__new__`."""
    return type("Record", (_Record, collections.namedtuple("Record", fields, defaults=defaults)),
                {})
