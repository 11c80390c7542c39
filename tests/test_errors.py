from hypothesis import given
from hypothesis import strategies as st

from treeprop.errors import MESSAGE_CHARS, MESSAGE_ITEMS, shown

# a list's text: its brackets, MESSAGE_ITEMS cut items and their separators,
# and the count of the rest (a list's length has at most 19 digits)
MOST_CHARS = 1 + MESSAGE_ITEMS * (MESSAGE_CHARS + 2) + len(" ... ( more)]") + 19


def test_a_short_value_shows_as_its_repr():
    for value in ["sop9", "", "a\nb", 0, -7, 10 ** 39, None, True, 3.0, (0, 1), (), {"k": 1},
                  [], ["0", (1,)], [1, 2, 3], [[1, 2, 3, 4], None]]:
        assert shown(value) == repr(value), value


def test_a_long_value_is_cut():
    assert shown("x" * 100_000) == "'" + "x" * (MESSAGE_CHARS - 1)
    assert shown(10 ** 100) == "1" + "0" * (MESSAGE_CHARS - 1)
    assert shown((("x" * 50),)) == "('" + "x" * (MESSAGE_CHARS - 2)


def test_a_long_list_shows_its_first_items_and_the_count_of_the_rest():
    assert shown(list(range(4))) == "[0, 1, 2, ... (1 more)]"
    assert shown(["x" * 100] * 5) == "[" + ", ".join(["'" + "x" * 39] * 3) + ", ... (2 more)]"
    # a list inside a list is one item, cut as a whole
    assert shown([list(range(100))]) == "[" + repr(list(range(100)))[:MESSAGE_CHARS] + "]"


def test_deep_nesting_is_not_walked():
    value = []
    for _ in range(500):
        value = [value, 0]
    assert shown(value) == "[" + "[" * MESSAGE_CHARS + ", 0]"


values = st.recursive(st.none() | st.integers() | st.text(),
                      lambda inner: st.lists(inner) | st.lists(inner).map(tuple),
                      max_leaves=60)


@given(values)
def test_shown_is_one_short_line(value):
    text = shown(value)
    assert "\n" not in text and len(text) <= MOST_CHARS
    if not isinstance(value, list):
        assert text == repr(value)[:MESSAGE_CHARS]
