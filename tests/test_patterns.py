import itertools

import pytest

from treeprop import (ConsistencyFamily, PatternSpec, ResourceCapError,
                      TreeDomain, make_pattern, exact_family,
                      maximal_antichains, oracle_for, required_consistent,
                      required_inconsistent, verify)
from treeprop import patterns
from treeprop.nodes import is_antichain, is_chain
from treeprop.oracles import SKOLEM, Witness
from treeprop.patterns import ATP, KATP, SOP1, SOP2, TP, TP2
from treeprop.synth import synth_boolean, synth_skolem


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
    cons = required_consistent(p)
    incons = required_inconsistent(p)
    assert len(cons) == 25  # nonempty antichains of the 7-node tree
    assert all(is_antichain(s) for s in cons)
    assert len(incons) == 10  # comparable pairs
    assert all(len(s) == 2 and is_chain(s) for s in incons)


def test_katp_required_inconsistent_are_chains():
    p = make_pattern(KATP, depth=3, k=3)
    incons = required_inconsistent(p)
    assert incons == [frozenset({(), (0,), (0, 0)}), frozenset({(), (0,), (0, 1)}),
                      frozenset({(), (1,), (1, 0)}), frozenset({(), (1,), (1, 1)})]


def test_sop2_required_families():
    p = make_pattern(SOP2, depth=3)
    assert all(is_chain(s) for s in required_consistent(p))
    assert all(len(s) == 2 and not is_chain(s) for s in required_inconsistent(p))


def test_sop1_forbidden_pairs():
    p = make_pattern(SOP1, depth=3)
    incons = required_inconsistent(p)
    assert frozenset({(1,), (0,)}) in incons
    assert frozenset({(1,), (0, 0)}) in incons
    assert frozenset({(0, 1), (0, 0)}) in incons
    assert frozenset({(0,), (1, 0)}) not in incons


def test_tp_sibling_sets():
    p = make_pattern(TP, depth=2, branching=3, k=2)
    incons = required_inconsistent(p)
    assert len(incons) == 3  # pairs among the root's three children
    assert all(s <= {(0,), (1,), (2,)} for s in incons)


def test_tp2_families():
    p = make_pattern(TP2, rows=2, cols=2)
    cons = required_consistent(p)
    assert frozenset({(0, 0), (1, 1)}) in cons
    assert frozenset({(0, 0), (0, 1)}) not in cons
    assert required_inconsistent(p) == [
        frozenset({(0, 0), (0, 1)}), frozenset({(1, 0), (1, 1)})
    ]


def test_exact_family_atp_matches_maximal_antichains():
    p = make_pattern(ATP, depth=3)
    family = exact_family(p)
    assert set(family.maximal) == set(maximal_antichains(3).items)
    assert family.contains({(0,), (1, 0)})
    assert not family.contains({(), (0,)})
    assert not family.contains([])


def test_exact_family_sop2_is_paths():
    family = exact_family(make_pattern(SOP2, depth=3))
    assert len(family.maximal) == 4
    assert frozenset({(), (0,), (0, 1)}) in family.maximal


def test_exact_family_tp2_counts():
    family = exact_family(make_pattern(TP2, rows=3, cols=3))
    assert len(family.maximal) == 27
    assert all(len(m) == 3 for m in family.maximal)


def test_consistency_family_invariants():
    with pytest.raises(ValueError):
        ConsistencyFamily(("a", "b"), (frozenset(),))
    with pytest.raises(ValueError):
        ConsistencyFamily(("a", "b"), (frozenset({"c"}),))
    with pytest.raises(ValueError):
        ConsistencyFamily(("a", "b"),
                          (frozenset({"a"}), frozenset({"a", "b"})))
    fam = ConsistencyFamily.from_members(
        ("a", "b", "c"), [{"a"}, {"a", "b"}, {"c"}, {"a", "b"}]
    )
    assert fam.maximal == (frozenset({"a", "b"}), frozenset({"c"}))


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


def test_exhaustive_cap_at_its_boundary():
    p = make_pattern(ATP, depth=4)  # 15 labels
    witness = synth_skolem(exact_family(p))
    assert verify(oracle_for(witness), witness, p, exhaustive=True, cap=2 ** 15).passed
    with pytest.raises(ResourceCapError, match="2\\^15 subsets"):
        verify(oracle_for(witness), witness, p, exhaustive=True, cap=2 ** 15 - 1)


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
    with pytest.raises(ResourceCapError, match="2\\^12 "):
        verify(oracle_for(witness), witness, make_pattern(TP2, rows=3, cols=4),
               exhaustive=True, cap=2 ** 11)


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
        for s in itertools.chain(required_consistent(p), required_inconsistent(p)):
            assert s and s <= labels
