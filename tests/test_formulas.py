import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprop import (FiniteStructure, FormulaError, TreepropError,
                      divisor_structure, eval_formula, parse_formula)
from treeprop.formulas import (And, Apply, Atom, Equals, Implies, Literal,
                               Name, Not, Or, Quantifier, _Parser)

from references import reference_tokens


def test_parse_precedence():
    f = parse_formula("a = 1 | b = 2 & c = 3 -> d = 4")
    assert isinstance(f, Implies)
    assert isinstance(f.left, Or)
    assert isinstance(f.left.right, And)


def test_parse_quantifier_and_negation():
    f = parse_formula("forall x. ! p(x) | x = c")
    assert isinstance(f, Quantifier) and f.kind == "forall" and f.var == "x"
    assert isinstance(f.body, Or)
    assert isinstance(f.body.left, Not)


def test_parse_terms():
    f = parse_formula("f(x, g(1)) = y")
    assert f == Equals(
        Apply("f", (Name("x"), Apply("g", (Literal(1),)))), Name("y")
    )


def test_parse_relation_atom_and_inequality():
    assert parse_formula("divides(x, y)") == Atom("divides", (Name("x"), Name("y")))
    assert parse_formula("x != y").negated


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaError) as err:
        parse_formula("x = ")
    assert err.value.position == 4
    with pytest.raises(FormulaError):
        parse_formula("x")
    with pytest.raises(FormulaError):
        parse_formula("x = 1 )")
    with pytest.raises(FormulaError):
        parse_formula("x = 1 $")
    # an integer is ASCII digits: other digits are refused where they stand
    for text, position in [("x = \u0663", 4), ("divides(x, \u0661\u0660)", 11),
                           ("x = 1\u0660", 5), ("x = 1 $", 6)]:
        with pytest.raises(FormulaError) as err:
            parse_formula(text)
        assert err.value.position == position, text


def test_divisor_structure():
    s = divisor_structure(12)
    assert sorted(s.universe) == [1, 2, 3, 4, 6, 12]
    assert s.constants["1"] == 1
    assert (12, 12) in s.relations["divides"]
    assert (4, 6) not in s.relations["divides"]


def test_eval_on_divisors():
    s = divisor_structure(210)
    f = parse_formula("x != 1 & divides(x, y)")
    assert eval_formula(s, f, {"x": 3, "y": 6})
    assert not eval_formula(s, f, {"x": 5, "y": 6})
    assert not eval_formula(s, f, {"x": 1, "y": 6})


def test_eval_quantifiers():
    s = divisor_structure(6)
    assert eval_formula(s, parse_formula("forall x. divides(1, x)"), {})
    assert eval_formula(s, parse_formula("exists x. x != 1 & divides(x, 6)"), {})
    assert not eval_formula(s, parse_formula("forall x. divides(2, x)"), {})


def test_eval_negation_and_implication_on_divisors():
    s = divisor_structure(12)
    cases = [  # (formula, x, y, truth value)
        ("! divides(x, y)", 2, 6, False),
        ("! divides(x, y)", 4, 6, True),
        ("!!divides(x, y)", 4, 6, False),
        ("divides(x, 4) -> divides(x, y)", 2, 6, True),
        ("divides(x, 4) -> divides(x, y)", 4, 6, False),
        ("divides(x, 4) -> divides(x, y)", 3, 4, True),  # a false premise
        ("divides(x, 4) -> divides(x, y)", 6, 1, True),
        ("! x = y -> divides(x, y)", 2, 3, False),
        ("! x = y -> divides(x, y)", 3, 3, True),
        ("divides(x, y) -> divides(y, x)", 1, 2, False),
        # right-associative: p -> (q -> r), which is true at (1, 2) as q is false
        ("divides(x, y) -> divides(y, x) -> x = y", 1, 2, True),
        ("(divides(x, y) -> divides(y, x)) -> x = y", 1, 2, True),
        ("(divides(x, y) -> divides(y, x)) -> x = y", 2, 4, True),
        ("(divides(x, y) -> divides(y, x)) -> x = y", 3, 4, False),
    ]
    for text, x, y, truth in cases:
        assert eval_formula(s, parse_formula(text), {"x": x, "y": y}) is truth, (text, x, y)
    antisymmetry = parse_formula("forall x. forall y. divides(x, y) -> divides(y, x) -> x = y")
    assert eval_formula(s, antisymmetry, {})
    assert not eval_formula(s, parse_formula("forall x. divides(x, 4) -> divides(x, 6)"), {})


def test_eval_function_terms():
    # successor mod 4, addition mod 4, and halving, defined on even elements only
    s = FiniteStructure(
        [0, 1, 2, 3],
        functions={"succ": {(0,): 1, (1,): 2, (2,): 3, (3,): 0},
                   "add": {(a, b): (a + b) % 4 for a in range(4) for b in range(4)},
                   "half": {(0,): 0, (2,): 1}},
        constants={"zero": 0})
    cases = [  # (formula, x, y, truth value)
        ("succ(x) = y", 0, 1, True),
        ("succ(x) = y", 3, 0, True),
        ("succ(x) = y", 1, 1, False),
        ("succ(succ(x)) = y", 3, 1, True),
        ("add(x, succ(x)) = y", 1, 3, True),
        ("add(x, succ(x)) = y", 2, 1, True),
        ("add(x, y) = zero", 1, 3, True),
        ("add(x, y) = 0", 2, 1, False),
        ("add(x, y) != succ(y)", 1, 2, False),
        ("half(x) = y", 2, 1, True),
        ("half(add(x, x)) = x", 1, 0, True),
        ("! succ(x) = x -> half(x) = y", 0, 0, True),
    ]
    for text, x, y, truth in cases:
        assert eval_formula(s, parse_formula(text), {"x": x, "y": y}) is truth, (text, x, y)
    assert eval_formula(s, parse_formula("forall x. exists y. succ(y) = x"), {})
    assert not eval_formula(s, parse_formula("exists x. succ(x) = x"), {})
    with pytest.raises(FormulaError, match=r"function 'half' undefined on \(1,\)"):
        eval_formula(s, parse_formula("half(x) = y"), {"x": 1, "y": 0})
    # x = 0 holds (half of 2 is 1), and x = 1 asks for half of 3
    with pytest.raises(FormulaError, match=r"function 'half' undefined on \(3,\)"):
        eval_formula(s, parse_formula("forall x. half(succ(succ(x))) = 1"), {})
    with pytest.raises(FormulaError, match="unknown function 'g'"):
        eval_formula(s, parse_formula("g(x) = x"), {"x": 0})
    # the same tables read from a structure document
    again = FiniteStructure.from_json(json.dumps(s.to_json()))
    assert again.functions == s.functions
    for text, x, y, truth in cases:
        assert eval_formula(again, parse_formula(text), {"x": x, "y": y}) is truth


def test_eval_unbound_name_is_error():
    s = divisor_structure(6)
    with pytest.raises(FormulaError):
        eval_formula(s, parse_formula("divides(x, y)"), {"x": 2})


def test_structure_json_round_trip():
    s = divisor_structure(30)
    doc = s.to_json()
    again = FiniteStructure.from_json(json.dumps(doc))
    assert sorted(again.universe) == sorted(s.universe)
    assert again.relations == s.relations
    assert again.constants == s.constants


def test_structure_validation():
    with pytest.raises(ValueError):
        FiniteStructure([1, 2], relations={"r": [[1, 3]]})
    with pytest.raises(ValueError):
        FiniteStructure([1, 2], constants={"c": 9})
    with pytest.raises(FormulaError, match="universe has duplicate elements"):
        FiniteStructure([1, 2, 1])
    with pytest.raises(FormulaError, match=r"function f entry \(3,\) leaves the universe"):
        FiniteStructure([1, 2], functions={"f": {(1,): 2, (3,): 1}})
    with pytest.raises(FormulaError, match=r"function f entry \(1,\) leaves the universe"):
        FiniteStructure([1, 2], functions={"f": {(1,): 7}})


def test_a_token_other_than_the_expected_one_is_refused():
    for text, message, position in [("exists x y = x", "expected '.', found 'y'", 9),
                                    ("f(x = y", r"expected '\)', found '='", 4)]:
        with pytest.raises(FormulaError, match=message) as err:
            parse_formula(text)
        assert err.value.position == position, text


def test_a_literal_outside_the_universe_is_refused():
    s = divisor_structure(6)
    assert eval_formula(s, parse_formula("divides(x, 6)"), {"x": 2})
    with pytest.raises(FormulaError, match="literal 7 not in universe"):
        eval_formula(s, parse_formula("divides(x, 7)"), {"x": 2})


@pytest.mark.parametrize("doc", [{}, [1], {"universe": 5}, {"universe": "ab"},
                                 {"universe": [[1]]}, {"universe": [1], "constants": [1]},
                                 {"universe": [1], "functions": {"f": [1]}},
                                 {"universe": [1], "relations": {"r": 1}},
                                 {"universe": [10 ** 5000]}])
def test_structure_from_json_rejects_malformed_documents(doc):
    with pytest.raises(FormulaError):
        FiniteStructure.from_json(doc)
    with pytest.raises(FormulaError):
        FiniteStructure.from_json("[" * 100_000)


def test_formula_past_the_limits_raises_formula_error():
    with pytest.raises(FormulaError, match="nested"):
        parse_formula("(" * 1200 + "x = 1" + ")" * 1200)
    with pytest.raises(FormulaError, match="5000 digits"):
        parse_formula("1" * 5000)
    chain = parse_formula(" & ".join(["1 = 1"] * 3000))
    with pytest.raises(FormulaError, match="nested"):
        eval_formula(divisor_structure(6), chain, {})


_TOKENS = ["x", "y", "c", "f", "divides", "exists", "forall", "1", "12", "(", ")",
           ",", ".", "=", "!=", "!", "&", "|", "->", " ", "$", "\u0663"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=30),
                 st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join)))
def test_parse_formula_raises_only_formula_errors(text):
    try:
        parse_formula(text)
    except FormulaError:
        pass


def _tokens(tokenize, text):
    """The (token, position) pairs, or the error message and position."""
    try:
        return tokenize(text)
    except FormulaError as exc:
        return str(exc), exc.position


# the text strategy of test_parse_formula_raises_only_formula_errors
@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=30),
                 st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join)))
def test_tokens_and_error_positions_match_the_slicing_loop(text):
    assert _tokens(lambda t: _Parser(t).tokens, text) == _tokens(reference_tokens, text)


def test_tokenizing_is_linear():
    # the loop that sliced the rest of the text per token took 3.3 s on a
    # 2-core Xeon under CPython 3.11, and this one 0.22 s
    text = "x = y" + " & x = y" * 99_999
    start = time.perf_counter()
    tokens = _Parser(text).tokens
    assert time.perf_counter() - start < 1
    assert len(tokens) == 4 * 100_000 - 1 and tokens[-1] == ("y", len(text) - 1)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_STRUCTURE_DOCS = st.dictionaries(
    st.sampled_from(["universe", "relations", "functions", "constants"]),
    _JSON_VALUES, max_size=4,
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_JSON_VALUES, _STRUCTURE_DOCS,
                 st.builds(lambda doc: {**divisor_structure(6).to_json(), **doc},
                           _STRUCTURE_DOCS)))
def test_structure_from_json_raises_only_treeprop_errors(doc):
    for data in (doc, json.dumps(doc), json.dumps(doc)[:-1]):
        try:
            FiniteStructure.from_json(data)
        except TreepropError:
            pass
