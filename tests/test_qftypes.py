import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeprop import (ResourceCapError, TreeDomain, closure, delta_type, qftype0,
                      sim0, sim0_atomic, sim0_sets, sim_delta, verify_ss_ll)
from treeprop.qftypes import SsLlReport, atomic_pattern

binary_nodes = st.lists(st.integers(0, 1), max_size=5).map(tuple)


def test_sim0_shift_invariance():
    # prefixing every entry with the same digits preserves the type
    t = ((0,), (1, 0), (1, 1))
    shifted = tuple((1, 0) + x for x in t)
    assert sim0(t, shifted)


def test_sim0_distinguishes_orders():
    assert not sim0(((0,), (1,)), ((0,), (0, 1)))  # antichain vs chain
    assert not sim0(((0,), (1,)), ((1,), (0,)))  # lex order flipped
    assert not sim0(((0,),), ((0,), (1,)))  # arity


def test_sim0_sets_ignores_presentation():
    assert sim0_sets({(0,), (1,)}, [(1, 1), (1, 0)])


def test_sim0_sees_meet_structure():
    # same pairwise comparabilities and lex order, different meet pattern
    a = ((0, 0), (0, 1), (1, 0))
    b = ((0, 0), (1, 0), (1, 1))
    assert sim0_atomic(a, b)
    assert not sim0(a, b)


@given(st.lists(binary_nodes, min_size=1, max_size=3))
def test_sim0_reflexive(ts):
    t = tuple(ts)
    assert sim0(t, t)
    assert sim_delta(t, t)
    assert sim0_atomic(t, t)


@given(st.lists(binary_nodes, min_size=1, max_size=3),
       st.lists(binary_nodes, min_size=1, max_size=3))
def test_sim0_refines_atomic(t1, t2):
    if sim0(tuple(t1), tuple(t2)):
        assert sim0_atomic(tuple(t1), tuple(t2))


def test_qftype_forms_are_hashable():
    t = ((0,), (1,))
    forms = {qftype0(t), delta_type(t), atomic_pattern(t)}
    assert len(forms) == 3
    assert qftype0(t) == qftype0(((1, 0), (1, 1)))


def test_delta_type_rejects_empty():
    with pytest.raises(ValueError):
        delta_type(())


def test_sim_delta_examples():
    assert sim_delta(((0, 0), (0, 1)), ((1, 0), (1, 1)))
    # equal-depth leaf pairs always share their delta type (no level data in
    # the language), but meet nesting separates triples
    assert sim_delta(((0, 0), (0, 1)), ((0, 0), (1, 1)))
    assert not sim_delta(((0, 0), (0, 1), (1, 0)), ((0, 0), (1, 0), (1, 1)))
    assert not sim_delta(((0, 0),), ((0, 0), (1, 1)))


def test_ss_ll_pairs_depth_two():
    report = verify_ss_ll(2, 2, 2)
    assert report.passed and report.counterexample is None
    assert report.tuple_count == 12  # ordered pairs of the 4 leaves
    assert report.pair_count == 144


def test_ss_ll_triples_depth_two():
    report = verify_ss_ll(2, 2, 3)
    assert report.passed
    assert report.tuple_count == 24


def test_ss_ll_cap():
    with pytest.raises(ResourceCapError):
        verify_ss_ll(2, 3, 3, pair_cap=1000)


def test_ss_ll_cap_before_any_tuple(monkeypatch):
    def no_leaves(self, n):
        raise AssertionError("leaves listed before the cap check")
    monkeypatch.setattr(TreeDomain, "level", no_leaves)
    # the message stays printable when the count passes the int-to-str digit limit
    for args in [(2, 7, 4), (2, 30, 10 ** 6), (3, 20, 2), (2, 20000, 2)]:
        with pytest.raises(ResourceCapError, match=r"at least 2\^\d+ pair comparisons"):
            verify_ss_ll(*args)


def test_ss_ll_reports():
    for args, tuples in [((2, 3, 3), 336), ((3, 2, 3), 504), ((2, 4, 2), 240),
                         ((2, 3, 4), 1680), ((2, 4, 3), 3360)]:
        assert verify_ss_ll(*args) == SsLlReport(True, tuples, tuples ** 2, None)


def test_ss_ll_more_leaves_requested_than_exist():
    report = verify_ss_ll(2, 2, 5)
    assert report.passed and (report.tuple_count, report.pair_count) == (0, 0)


def test_ss_ll_validates_arguments():
    with pytest.raises(ValueError):
        verify_ss_ll(1, 3, 2)
    with pytest.raises(ValueError):
        verify_ss_ll(2, 0, 2)


def test_closure_of_leaf_pair_recovers_meet():
    t = ((0, 0, 1), (0, 1, 0))
    assert closure(t)[1] == (0,)
