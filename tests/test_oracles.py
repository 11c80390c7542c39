import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeprop import (BitsetOracle, ConjunctionOracle, FoOracle, GcdOracle,
                      Witness, WitnessError, divisor_structure, exact_family,
                      fatten, make_pattern, oracle_for, parse_formula,
                      synth_boolean, synth_skolem)
from treeprop.oracles import BOOLEAN, SKOLEM, STRUCTURE, TupleWitness


def skolem(params):
    return Witness(SKOLEM, tuple(params), dict(params))


def test_witness_validation():
    with pytest.raises(WitnessError):
        Witness(SKOLEM, ("a",), {})
    with pytest.raises(WitnessError):
        Witness(SKOLEM, ("a",), {"a": 0})
    with pytest.raises(WitnessError):
        Witness(BOOLEAN, ("a",), {"a": 1})  # no width
    with pytest.raises(WitnessError):
        Witness(BOOLEAN, ("a",), {"a": 8}, width=3)
    with pytest.raises(WitnessError):
        Witness("other", ("a",), {"a": 1})
    with pytest.raises(WitnessError, match=r"^repeated labels \['a'\]$"):
        Witness(SKOLEM, ("a", "a"), {"a": 2})
    with pytest.raises(WitnessError, match=r"^repeated labels \['a', 'c'\]$"):
        Witness(SKOLEM, ("a", "b", "c", "a", "c"), {"a": 2, "b": 2, "c": 2})
    with pytest.raises(WitnessError,
                       match=r"^parameter map does not match labels: extra keys \['b'\]$"):
        Witness(SKOLEM, ("a",), {"a": 2, "b": 3})
    with pytest.raises(WitnessError, match=r"^repeated labels \['a'\]$"):
        Witness(SKOLEM, ("a", "a"), {"a": 2, "b": 3})
    w = Witness(SKOLEM, ("a",), {"a": 2})
    with pytest.raises(WitnessError, match=r"^no provenance for labels \['x'\]$"):
        TupleWitness(w, ("x",), {}, 1)
    with pytest.raises(WitnessError, match=r"^repeated labels \['x'\]$"):
        TupleWitness(w, ("x", "x"), {"x": ("a",)}, 1)
    with pytest.raises(WitnessError, match=r"^no provenance for labels \['y', 'z'\]$"):
        TupleWitness(w, ("x", "y", "x", "z"), {"x": ("a",)}, 1)
    with pytest.raises(WitnessError, match=r"^provenance for unknown labels \['y'\]$"):
        TupleWitness(w, ("x",), {"x": ("a",), "y": ("a",)}, 1)


def test_witness_refuses_params_that_are_not_plain_ints():
    # a bool is an int to isinstance, and a skolem True would be written as 0x1
    for backend, width in [(SKOLEM, None), (BOOLEAN, 3)]:
        for bad in [1.5, "1", None, True, False, (1,)]:
            with pytest.raises(WitnessError,
                               match=rf"^{backend} parameters must be ints: \['b'\]$"):
                Witness(backend, ("a", "b"), {"a": 1, "b": bad}, width)
        with pytest.raises(WitnessError, match=r"must be ints: \[0, 1, 2, \.\.\. \(7 more\)\]$"):
            Witness(backend, tuple(range(10)), dict.fromkeys(range(10), 2.0), width)
        assert Witness(backend, ("a",), {"a": 1}, width).params == {"a": 1}


def test_witness_errors_list_a_few_labels_and_a_count():
    labels = tuple(range(1000))
    with pytest.raises(WitnessError, match=r"missing \[0, 1, 2, \.\.\. \(997 more\)\]$"):
        Witness(SKOLEM, labels, {})
    with pytest.raises(WitnessError, match=r">= 1: \[0, 1, 2, \.\.\. \(997 more\)\]$"):
        Witness(SKOLEM, labels, dict.fromkeys(labels, 0))
    with pytest.raises(WitnessError, match=r"width 3: \[0, 1, 2, \.\.\. \(997 more\)\]$"):
        Witness(BOOLEAN, labels, dict.fromkeys(labels, 8), width=3)
    with pytest.raises(WitnessError, match=r"width 3: \[0, 1, 2\]$"):
        Witness(BOOLEAN, labels[:3], dict.fromkeys(labels[:3], 8), width=3)


def test_gcd_oracle():
    oracle = GcdOracle(skolem({"a": 6, "b": 10, "c": 15, "d": 7}))
    assert oracle.consistent([])  # empty set by convention
    assert oracle.consistent(["a"]) and oracle.consistent(["a", "b"])
    assert not oracle.consistent(["a", "b", "c"])
    assert not oracle.consistent(["a", "c", "d"])
    unit = GcdOracle(skolem({"a": 1}))
    assert not unit.consistent(["a"])


def test_bitset_oracle():
    w = Witness(BOOLEAN, ("a", "b", "c"), {"a": 0b011, "b": 0b110, "c": 0b100},
                width=3)
    oracle = BitsetOracle(w)
    assert oracle.consistent([])
    assert oracle.consistent(["a", "b"])
    assert not oracle.consistent(["a", "c"])
    zero = BitsetOracle(Witness(BOOLEAN, ("a",), {"a": 0}, width=3))
    assert not zero.consistent(["a"])


def test_backend_mismatch():
    w = skolem({"a": 2})
    with pytest.raises(WitnessError):
        BitsetOracle(w)
    with pytest.raises(WitnessError):
        GcdOracle(Witness(BOOLEAN, ("a",), {"a": 1}, width=1))


def test_oracle_for_dispatch():
    assert isinstance(oracle_for(skolem({"a": 2})), GcdOracle)
    assert isinstance(
        oracle_for(Witness(BOOLEAN, ("a",), {"a": 1}, width=1)), BitsetOracle
    )
    with pytest.raises(WitnessError):
        oracle_for(Witness(STRUCTURE, ("a",), {"a": (2,)}))
    family = exact_family(make_pattern("atp", depth=4))
    for base in (synth_skolem(family), synth_boolean(family)):
        tw = fatten(base, 1)  # an ATP d3 witness
        oracle = oracle_for(tw)
        assert isinstance(oracle, ConjunctionOracle)
        direct = ConjunctionOracle(oracle_for(base), tw)
        subsets = [s for r in range(len(tw.labels) + 1)
                   for s in itertools.combinations(tw.labels, r)]
        verdicts = [oracle.consistent(s) for s in subsets]
        assert verdicts == [direct.consistent(s) for s in subsets]
        assert set(verdicts) == {True, False}


def test_fo_oracle_matches_gcd():
    structure = divisor_structure(210)
    formula = parse_formula("x != 1 & divides(x, y)")
    params = {"a": 6, "b": 10, "c": 15, "d": 7}
    fo = FoOracle(structure, formula,
                  Witness(STRUCTURE, tuple(params), {k: (v,) for k, v in params.items()}))
    gcd = GcdOracle(skolem(params))
    labels = list(params)
    for mask in range(1 << len(labels)):
        subset = [x for i, x in enumerate(labels) if mask >> i & 1]
        assert fo.consistent(subset) == gcd.consistent(subset)


def test_fo_oracle_refuses_a_witness_that_is_not_a_structure_witness():
    with pytest.raises(WitnessError, match="fo oracle needs a structure witness, got skolem"):
        FoOracle(divisor_structure(6), parse_formula("divides(x, y)"), skolem({"a": 2}))


def test_fo_oracle_arity_check():
    structure = divisor_structure(6)
    formula = parse_formula("divides(x, y)")
    with pytest.raises(WitnessError):
        FoOracle(structure, formula,
                 Witness(STRUCTURE, ("a",), {"a": (2, 3)}))


@given(st.dictionaries(st.integers(0, 7), st.integers(1, 10_000), min_size=1),
       st.data())
def test_gcd_monotone(params, data):
    oracle = GcdOracle(skolem(params))
    big = data.draw(st.sets(st.sampled_from(sorted(params))))
    small = data.draw(st.sets(st.sampled_from(sorted(big)))) if big else set()
    if oracle.consistent(big):
        assert oracle.consistent(small)


@given(st.dictionaries(st.integers(0, 7), st.integers(0, 255), min_size=1),
       st.data())
def test_bitset_monotone(params, data):
    oracle = BitsetOracle(Witness(BOOLEAN, tuple(params), dict(params), width=8))
    big = data.draw(st.sets(st.sampled_from(sorted(params))))
    small = data.draw(st.sets(st.sampled_from(sorted(big)))) if big else set()
    if oracle.consistent(big):
        assert oracle.consistent(small)
