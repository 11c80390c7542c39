import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprop import (FiniteStructure, FormulaError, TreepropError,
                      divisor_structure, eval_formula, parse_formula)
from treeprop.formulas import (And, Apply, Atom, Equals, Implies, Literal,
                               Name, Not, Or, Quantifier)


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
