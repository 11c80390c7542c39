import itertools
import math
import tracemalloc

import pytest

from treeprop import (ConsistencyFamily, PatternSpec, ResourceCapError,
                      TreeDomain, make_pattern, exact_family,
                      maximal_antichains, oracle_for, required_consistent,
                      required_inconsistent, verify)
from treeprop import antichains, patterns
from treeprop.oracles import SKOLEM, Witness
from treeprop.patterns import ATP, KATP, SOP1, SOP2, TP, TP2
from treeprop.synth import synth_boolean, synth_skolem

from references import contains, is_antichain, is_chain, listed


@pytest.mark.parametrize("value", [2.0, 2.5, True, "2"])
@pytest.mark.parametrize("kind,field", [(KATP, "branching"), (KATP, "depth"), (KATP, "k"),
                                        (TP2, "rows"), (TP2, "cols")])
def test_make_pattern_refuses_sizes_that_are_not_plain_ints(kind, field, value):
    args = dict(depth=3, k=3) if kind == KATP else dict(rows=2, cols=2)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        make_pattern(kind, **{**args, field: value})


def test_make_pattern_validation():
    with pytest.raises(ValueError):
        make_pattern("nope", depth=3)
    with pytest.raises(ValueError):
        make_pattern(ATP, depth=0)
    with pytest.raises(ValueError):
        make_pattern(ATP, depth=3, k=2)
    with pytest.raises(ValueError):
        make_pattern(KATP, depth=3)
    with pytest.raises(ValueError):
        make_pattern(KATP, depth=3, k=1)
    with pytest.raises(ValueError):
        make_pattern(ATP, depth=3, branching=3)
    with pytest.raises(ValueError):
        make_pattern(TP2, rows=0, cols=3)
    with pytest.raises(ValueError, match="tp2 takes no k"):
        make_pattern(TP2, rows=2, cols=2, k=7)
    # arguments the kind does not use are refused, not ignored
    with pytest.raises(ValueError, match="tp2 takes no depth or branching"):
        make_pattern(TP2, rows=2, cols=2, depth=9)
    with pytest.raises(ValueError, match="tp2 takes no depth or branching"):
        make_pattern(TP2, rows=2, cols=2, branching=7)
    for kind, extra in [(ATP, {"rows": 5}), (SOP1, {"cols": 9}), (TP, {"k": 2, "rows": 1})]:
        with pytest.raises(ValueError, match=f"{kind} takes no rows or cols"):
            make_pattern(kind, depth=2, **extra)
    assert make_pattern("TP2", rows=2, cols=2) == make_pattern(TP2, rows=2, cols=2)


def test_a_pattern_built_by_its_class_verifies_as_make_pattern_does():
    # the class once skipped make_pattern's checks: its "ATP" kind fell
    # through to TP2's family, and exhaustive verify passed this witness on
    # 0 consistent and 127 inconsistent subsets
    witness = synth_skolem(exact_family(make_pattern(ATP, depth=3)))
    for exhaustive, counts in [(True, (25, 102)), (False, (25, 10))]:
        made, built = [verify(oracle_for(witness), witness, p, exhaustive=exhaustive)
                       for p in (make_pattern(ATP, depth=3), PatternSpec("ATP", depth=3))]
        assert made == built and built.passed
        assert (built.consistent_checked, built.inconsistent_checked) == counts


def test_membership_and_meet_tables_of_unequal_length_raise():
    # zip would truncate the meets to the one membership entry
    with pytest.raises(ValueError, match="zip"):
        patterns._classes([-1], list(range(8)))
    assert patterns._classes([-1, 1, 1], [0, 2, 2]) == {(-1, 0): [0, 1], (1, 2): [1, 2]}


def test_pattern_index_labels():
    p = make_pattern(ATP, depth=3)
    assert len(p.index_labels()) == 7
    q = make_pattern(TP2, rows=2, cols=3)
    assert q.index_labels() == tuple(
        (i, j) for i in range(2) for j in range(3)
    )
    with pytest.raises(ValueError):
        q.domain()


def test_pattern_json_round_trip():
    for p in [make_pattern(ATP, depth=3),
              make_pattern(KATP, depth=4, k=3),
              make_pattern(TP, depth=2, branching=3, k=2),
              make_pattern(TP2, rows=3, cols=3)]:
        assert PatternSpec.from_json(p.to_json()) == p


def test_atp_required_families():
    p = make_pattern(ATP, depth=3)
    cons = listed(p, required_consistent(p))
    incons = listed(p, required_inconsistent(p))
    assert len(cons) == 25  # nonempty antichains of the 7-node tree
    assert all(is_antichain(s) for s in cons)
    assert len(incons) == 10  # comparable pairs
    assert all(len(s) == 2 and is_chain(s) for s in incons)


def test_katp_required_inconsistent_are_chains():
    p = make_pattern(KATP, depth=3, k=3)
    incons = listed(p, required_inconsistent(p))
    assert incons == [frozenset({(), (0,), (0, 0)}), frozenset({(), (0,), (0, 1)}),
                      frozenset({(), (1,), (1, 0)}), frozenset({(), (1,), (1, 1)})]


def test_sop2_required_families():
    p = make_pattern(SOP2, depth=3)
    assert all(is_chain(s) for s in listed(p, required_consistent(p)))
    assert all(len(s) == 2 and not is_chain(s) for s in listed(p, required_inconsistent(p)))


def test_sop1_forbidden_pairs():
    p = make_pattern(SOP1, depth=3)
    incons = listed(p, required_inconsistent(p))
    assert frozenset({(1,), (0,)}) in incons
    assert frozenset({(1,), (0, 0)}) in incons
    assert frozenset({(0, 1), (0, 0)}) in incons
    assert frozenset({(0,), (1, 0)}) not in incons


def test_tp_sibling_sets():
    p = make_pattern(TP, depth=2, branching=3, k=2)
    incons = listed(p, required_inconsistent(p))
    assert len(incons) == 3  # pairs among the root's three children
    assert all(s <= {(0,), (1,), (2,)} for s in incons)


def test_tp2_families():
    p = make_pattern(TP2, rows=2, cols=2)
    cons = listed(p, required_consistent(p))
    assert frozenset({(0, 0), (1, 1)}) in cons
    assert frozenset({(0, 0), (0, 1)}) not in cons
    assert listed(p, required_inconsistent(p)) == [
        frozenset({(0, 0), (0, 1)}), frozenset({(1, 0), (1, 1)})
    ]


def test_exact_family_atp_matches_maximal_antichains():
    p = make_pattern(ATP, depth=3)
    family = exact_family(p)
    assert set(family.maximal) == set(maximal_antichains(3).items)
    assert contains(family, {(0,), (1, 0)})
    assert not contains(family, {(), (0,)})
    assert not contains(family, [])


def test_exact_family_sop2_is_paths():
    family = exact_family(make_pattern(SOP2, depth=3))
    assert len(family.maximal) == 4
    assert frozenset({(), (0,), (0, 1)}) in family.maximal


def test_exact_family_tp2_counts():
    family = exact_family(make_pattern(TP2, rows=3, cols=3))
    assert len(family.maximal) == 27
    assert all(len(m) == 3 for m in family.maximal)


def test_consistency_family_invariants():
    # from_members refuses labels outside the index set and repeated labels,
    # and drops empty, repeated and nested members
    with pytest.raises(ValueError):
        ConsistencyFamily.from_members(("a", "b"), (frozenset({"c"}),))
    with pytest.raises(ValueError, match=r"^repeated labels \['a'\]$"):
        ConsistencyFamily.from_members(("a", "a", "b"), [{"a"}, {"b"}])
    assert ConsistencyFamily.from_members(("a", "b"), (frozenset(),)).masks == ()
    fam = ConsistencyFamily.from_members(
        ("a", "b", "c"), [{"a"}, {"a", "b"}, {"c"}, {"a", "b"}]
    )
    assert fam.maximal == (frozenset({"a", "b"}), frozenset({"c"}))
    assert fam == ConsistencyFamily(("a", "b", "c"), (0b01, 0b01, 0b10), 2)
    assert fam.masks == (0b011, 0b100) and fam.count == 2
    assert fam.columns == (0b01, 0b01, 0b10)


def test_from_members_checks_labels_before_sorting():
    # a label of another type must not reach the sort, which would raise TypeError
    with pytest.raises(ValueError, match="index set"):
        ConsistencyFamily.from_members(("a", "b", "c"), [{"c", 9}])
    with pytest.raises(ValueError, match="index set"):
        ConsistencyFamily.from_members(("a", "b", "c"), [{"a"}, {"c", 9}])


def test_verify_pattern_and_exhaustive():
    p = make_pattern(ATP, depth=2)
    witness = synth_skolem(exact_family(p))
    report = verify(oracle_for(witness), witness, p, exhaustive=True)
    assert report.passed and report.exhaustive
    assert report.consistent_checked + report.inconsistent_checked == 7
    assert "pass (exhaustive)" in report.summary()


def test_verify_reports_counterexample():
    p = make_pattern(ATP, depth=2)
    witness = synth_skolem(exact_family(p))
    bad = Witness(SKOLEM, witness.labels,
                  {**witness.params, (0,): witness.params[()]})
    report = verify(oracle_for(bad), bad, p)
    assert not report.passed
    subset, expected, actual = report.counterexample
    # sharing the root's prime breaks the sibling antichain first
    assert subset == frozenset({(0,), (1,)})
    assert expected == "consistent" and actual == "inconsistent"
    assert "fail" in report.summary()


def test_exhaustive_cap_at_its_boundary(monkeypatch):
    p = make_pattern(ATP, depth=4)  # 15 labels
    witness = synth_skolem(exact_family(p))
    monkeypatch.setattr(antichains, "DEFAULT_SUBSET_CAP", 2 ** 15)
    assert verify(oracle_for(witness), witness, p, exhaustive=True).passed
    monkeypatch.setattr(antichains, "DEFAULT_SUBSET_CAP", 2 ** 15 - 1)
    with pytest.raises(ResourceCapError, match="2\\^15 subsets"):
        verify(oracle_for(witness), witness, p, exhaustive=True)


def test_exhaustive_cap_before_any_work(monkeypatch):
    witness = synth_boolean(exact_family(make_pattern(SOP2, depth=9)))

    def no_work(*args):
        raise AssertionError("work done before the cap check")
    monkeypatch.setattr(patterns, "required_consistent", no_work)
    monkeypatch.setattr(TreeDomain, "nodes", no_work)
    for depth, shown in [(9, "2\\^511 "), (8, "2\\^255 "), (30, "2\\^1073741823 ")]:
        with pytest.raises(ResourceCapError, match=shown):
            verify(oracle_for(witness), witness, make_pattern(SOP2, depth=depth),
                   exhaustive=True)
    monkeypatch.setattr(antichains, "DEFAULT_SUBSET_CAP", 2 ** 11)
    with pytest.raises(ResourceCapError, match="2\\^12 "):
        verify(oracle_for(witness), witness, make_pattern(TP2, rows=3, cols=4),
               exhaustive=True)


def test_pattern_verify_holds_one_set_at_a_time(monkeypatch):
    # streaming peaked at 0.03 and 0.05 MB; listing the required inconsistent
    # sets whole before the first check, at 1.08 and 1.72 MB
    bound = 2 ** 19

    def peak(oracle, witness, p):
        tracemalloc.start()
        try:
            assert verify(oracle, witness, p).passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for p in [make_pattern(TP, branching=200, depth=2, k=2), make_pattern(SOP2, depth=8)]:
        witness = synth_boolean(exact_family(p))
        oracle = oracle_for(witness)
        assert peak(oracle, witness, p) < bound, p
        with monkeypatch.context() as patch:
            patch.setattr(patterns, "required_inconsistent",
                          lambda spec: list(required_inconsistent(spec)))
            assert peak(oracle, witness, p) > bound, p


def test_tp2_pattern_verify_within_the_cap():
    # 1 x 400 has 400 required consistent sets, though 2^400 subsets
    for rows, cols in [(1, 400), (4, 4)]:
        p = make_pattern(TP2, rows=rows, cols=cols)
        witness = synth_skolem(exact_family(p))
        report = verify(oracle_for(witness), witness, p)
        assert report.passed and report.consistent_checked == (cols + 1) ** rows - 1


def test_tp2_cap_at_its_exact_count(monkeypatch):
    p = make_pattern(TP2, rows=4, cols=4)  # 5^4 - 1 = 624 required consistent sets
    witness = synth_boolean(exact_family(p))
    monkeypatch.setattr(antichains, "DEFAULT_SUBSET_CAP", 624)
    assert verify(oracle_for(witness), witness, p).passed
    monkeypatch.setattr(antichains, "DEFAULT_SUBSET_CAP", 623)
    with pytest.raises(ResourceCapError, match="5\\^4 - 1 sets"):
        verify(oracle_for(witness), witness, p)
    # 20 rows of one cell give 2^20 - 1 sets, which fill a cap of 2^20 - 1
    # though the rows reach its bit length
    monkeypatch.setattr(antichains, "DEFAULT_SUBSET_CAP", 2 ** 20 - 1)
    antichains._check_row_choices(20, 1)
    monkeypatch.setattr(antichains, "DEFAULT_SUBSET_CAP", 2 ** 20 - 2)
    with pytest.raises(ResourceCapError, match="2\\^20 - 1 sets"):
        antichains._check_row_choices(20, 1)


def test_tp_sibling_sets_cap_at_their_cells(monkeypatch):
    p = make_pattern(TP, branching=4, depth=3, k=2)  # 5 internal nodes x C(4, 2) x 2 = 60 cells
    witness = synth_boolean(exact_family(p))
    monkeypatch.setattr(antichains, "FAMILY_CELL_CAP", 60)
    assert verify(oracle_for(witness), witness, p).passed
    monkeypatch.setattr(antichains, "FAMILY_CELL_CAP", 59)
    # refused when called, before the consistent sets are streamed
    with pytest.raises(ResourceCapError, match="5 x C\\(4, 2\\) sets of 2 siblings"):
        required_inconsistent(p)
    with pytest.raises(ResourceCapError):
        verify(oracle_for(witness), witness, p)


def test_tp_sibling_sets_cap_bounds_the_binomial_first(monkeypatch):
    # 24,995,000 cells pass; C(400, 200) and C(10^6, 5 x 10^5) are refused by
    # their bit bound, without taking the binomial
    required_inconsistent(make_pattern(TP, branching=5000, depth=2, k=2))

    def no_comb(n, k):
        raise AssertionError("binomial taken before the bit bound")
    monkeypatch.setattr(math, "comb", no_comb)
    for b, k in [(400, 200), (10 ** 6, 5 * 10 ** 5)]:
        with pytest.raises(ResourceCapError, match=f"C\\({b}, {k}\\)"):
            required_inconsistent(make_pattern(TP, branching=b, depth=2, k=k))


def test_verify_rejects_label_mismatch():
    p = make_pattern(ATP, depth=2)
    witness = synth_skolem(exact_family(make_pattern(ATP, depth=3)))
    with pytest.raises(ValueError):
        verify(oracle_for(witness), witness, p)


def test_required_sets_within_index_set():
    for p in [make_pattern(ATP, depth=3), make_pattern(SOP1, depth=3),
              make_pattern(KATP, depth=3, k=3),
              make_pattern(TP, depth=3, branching=2, k=2),
              make_pattern(TP2, rows=2, cols=3)]:
        labels = set(p.index_labels())
        for s in listed(p, itertools.chain(required_consistent(p), required_inconsistent(p))):
            assert s and s <= labels
