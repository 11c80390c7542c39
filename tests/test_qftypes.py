import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeprop import (ResourceCapError, TreeDomain, closure, delta_type, qftype0,
                      sim0, sim0_atomic, sim0_sets, sim_delta, verify_ss_ll)
from treeprop import nodes, qftypes
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


def test_qftype0_ranks_2k_minus_1_points_and_builds_no_closure(monkeypatch):
    def no_closure(t):
        raise AssertionError("closure built")
    monkeypatch.setattr(qftypes, "closure", no_closure)
    monkeypatch.setattr(nodes, "closure", no_closure)
    ranked, order_type = [], qftypes._order_type
    monkeypatch.setattr(qftypes, "_order_type", lambda points: (
        ranked.append(len(points)), order_type(points))[1])
    t = ((1, 0), (0,), (1, 0, 1), (1, 0), (0, 1, 1))
    for k in range(1, len(t) + 1):
        ranks, _ = qftype0(t[:k])
        assert ranked[-1] == len(ranks) == 2 * k - 1
    assert sim0(t, tuple((2,) + x for x in t))
    assert not sim0(t, t[::-1])
    assert sim0_sets({(0,), (1,)}, [(1, 1), (1, 0)])
    assert not sim0_sets({(0,), (1,)}, [(1,), (1, 0)])


def test_sim0_walks_2k_minus_1_points_and_builds_no_form(monkeypatch):
    def no_form(points):
        raise AssertionError("form built")
    monkeypatch.setattr(qftypes, "_order_type", no_form)
    walked, walk = [], qftypes._same_order_type
    monkeypatch.setattr(qftypes, "_same_order_type", lambda t1, t2: (
        walked.append((len(t1), len(t2))), walk(t1, t2))[1])
    t = ((1, 0), (0,), (1, 0, 1), (1, 0), (0, 1, 1))
    for k in range(1, len(t) + 1):
        assert sim0(t[:k], tuple((2,) + x for x in t[:k]))
        assert walked[-1] == (2 * k - 1, 2 * k - 1)
    assert not sim0(t, t[::-1]) and not sim0(t, t[:4])
    assert sim0_atomic(t, tuple((2,) + x for x in t)) and walked[-1] == (5, 5)
    assert not sim0_atomic(t, t[::-1])
    assert sim0_sets({(0,), (1,)}, [(1, 1), (1, 0)])


def test_sim0_sets_calls_sim0_through_the_module(monkeypatch):
    # so a wrapper set on qftypes.sim0, as a tracer's call counter is, sees
    # every sim0_sets call
    calls, real = [], qftypes.sim0
    monkeypatch.setattr(qftypes, "sim0", lambda t1, t2: (calls.append((t1, t2)), real(t1, t2))[1])
    sets = [{(0,), (1,)}, [(1, 1), (1, 0)], {(0,), (0, 1)}]
    assert [sim0_sets(x, sets[0]) for x in sets] == [True, True, False]
    assert calls == [(sorted(x), sorted(sets[0])) for x in sets]


def test_empty_tuples_rejected(monkeypatch):
    # refused by qftype0 itself, not by a closure of no nodes
    monkeypatch.setattr(qftypes, "closure", lambda t: ())
    for call in (lambda: qftype0(()), lambda: sim0((), ()), lambda: sim0_sets(set(), set())):
        with pytest.raises(ValueError, match="empty"):
            call()


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


def test_ss_ll_cap(monkeypatch):
    # 56 increasing triples of 8 leaves, 9 closure entries each: 504 entries
    monkeypatch.setattr(qftypes, "SS_LL_CELL_CAP", 500)
    with pytest.raises(ResourceCapError, match=r"2\^8 closure entries \(cap 500\)"):
        verify_ss_ll(2, 3, 3)
    # 28 increasing pairs of 8 leaves, 4 entries each: 112 entries pass a cap
    # of 112 only, and the report still counts all 3136 ordered pairs of tuples
    monkeypatch.setattr(qftypes, "SS_LL_CELL_CAP", 112)
    assert verify_ss_ll(2, 3, 2).pair_count == 3136
    monkeypatch.setattr(qftypes, "SS_LL_CELL_CAP", 111)
    with pytest.raises(ResourceCapError, match=r"2\^6 closure entries \(cap 111\)"):
        verify_ss_ll(2, 3, 2)


def test_ss_ll_cap_admits_length_five_and_refuses_past_it(monkeypatch):
    # C(32, 5) x 25 = 5,034,400 entries pass; C(32, 6) x 36 and C(64, 4) x 16 do not
    def sized(self, n):
        raise AssertionError("admitted")
    monkeypatch.setattr(TreeDomain, "level", sized)
    with pytest.raises(AssertionError, match="admitted"):
        verify_ss_ll(2, 5, 5)
    with pytest.raises(AssertionError, match="admitted"):
        verify_ss_ll(2, 6, 62)
    for args, bits in [((2, 5, 6), 24), ((2, 6, 4), 23), ((2, 6, 60), 27)]:
        with pytest.raises(ResourceCapError, match=rf"at least 2\^{bits} closure entries"):
            verify_ss_ll(*args)


def test_ss_ll_cap_before_any_tuple(monkeypatch):
    def no_leaves(self, n):
        raise AssertionError("leaves listed before the cap check")
    monkeypatch.setattr(TreeDomain, "level", no_leaves)
    # the message stays printable when the count passes the int-to-str digit
    # limit, and the binomial is not taken in full for a 65,537-bit leaf count
    for args in [(2, 7, 4), (2, 30, 10 ** 6), (3, 20, 2), (2, 20000, 2), (2, 65536, 2),
                 (2, 65536, 2 ** 65535), (2, 65536, 2 ** 65536 - 1), (2, 65536, 2 ** 65536),
                 (2, 12, 4096)]:
        with pytest.raises(ResourceCapError, match=r"at least 2\^\d+ closure entries"):
            verify_ss_ll(*args)


def test_ss_ll_reports():
    for args, tuples in [((2, 3, 3), 336), ((3, 2, 3), 504), ((2, 4, 2), 240),
                         ((2, 3, 4), 1680), ((2, 4, 3), 3360), ((3, 3, 3), 17550),
                         ((2, 4, 4), 43680)]:
        assert verify_ss_ll(*args) == SsLlReport(True, tuples, tuples ** 2, None)


def test_ss_ll_more_leaves_requested_than_exist():
    for tuple_len in (5, 10 ** 20):
        report = verify_ss_ll(2, 2, tuple_len)
        assert report.passed and (report.tuple_count, report.pair_count) == (0, 0)


def test_ss_ll_validates_arguments():
    with pytest.raises(ValueError):
        verify_ss_ll(1, 3, 2)
    with pytest.raises(ValueError):
        verify_ss_ll(2, 0, 2)


def test_closure_of_leaf_pair_recovers_meet():
    t = ((0, 0, 1), (0, 1, 0))
    assert closure(t)[1] == (0,)
