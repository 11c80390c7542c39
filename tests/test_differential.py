"""Differential tests of the fast paths against the plain references in
`references.py`: the column-mask consistency family against the pairwise
O(m^2) maximality filter, the reference subset scan against a direct
enumeration of all 2^n subsets, the column recursion for maximal
k-chain-free sets, transposed to masks, against the frozenset recursions and
the k-chain scan it replaced, the choice routine against the brute-force
product and the SOP1, SOP2 and TP families it builds against the subset scan
they replaced, every family of forbidden pairs against Bron-Kerbosch up to
depth 5 or 6, each family builder's own count against its build and the
closed forms, the column builders against the member-mask builders they
replaced and their transpose, the canonical type forms and the grouped ss-ll check against byte-packed relation
tables compared pair by pair, with the symmetry that lets the check form
increasing tuples only, and the run-length type forms and the meet-tree
shape iso-copy search against the quadratic prefix matrix and the
combination scan, the joint walk that decides sim0 and sim0_atomic against
equality of the quadratic forms, qftype0's 2k - 1 points against the
classes of the closure's relation bytes, the meet-tree shape against closure types and the
pairwise antichain test, the subtree walk over chains and antichains against brute force and
the scan and sorts it replaced, every pattern's required sets against the
sorted references, and exhaustive verification by the oracles'
semilattice meets, whose report is the class-pair tables' own, against one
consistent() call per subset in mask order, with deliberately broken copies
that the comparison must catch."""

import functools
import inspect
import itertools
import operator
import random
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprop import (BitsetOracle, ConjunctionOracle, ConsistencyFamily,
                      FoOracle, FormulaError, GcdOracle, ResourceCapError,
                      TreeDomain, TreepropError, Witness, alpha, divisor_structure,
                      elongate, enumerate_antichains, eval_formula,
                      exact_family, fatten, make_pattern, maximal_antichains,
                      oracle_for, parse_formula,
                      required_consistent, required_inconsistent,
                      synth_boolean, synth_skolem, verify)
from treeprop import antichains, formulas, oracles, patterns, qftypes
from treeprop.antichains import (_choose, _shape, _transpose, chain_free_columns,
                                 chain_free_count, choice_columns, find_iso_copy,
                                 finite_antichain_stream, mask_labels, mask_set,
                                 maximal_chain_free_binary, subtree_walk,
                                 universal_prefix)
from treeprop.nodes import closure, sorted_nodes
from treeprop.oracles import SKOLEM, STRUCTURE, TupleWitness, semilattice
from treeprop.patterns import ATP, KATP, SOP1, SOP2, TP, TP2, PatternSpec
from treeprop.synth import _first_primes
from treeprop.transforms import build_onevar_scaffold

from references import (RecordingOracle, ReferenceConjunctionOracle,
                        canonical_sets, chains, contains, forbidden_free_table,
                        has_chain, incomparable, is_antichain,
                        is_chain, listed,
                        max_chain_bounded_sets,
                        reference_antichain_stream, reference_choose,
                        reference_atomic, reference_boolean_params,
                        reference_columns, reference_exact_masks,
                        reference_atomic_form, reference_chain_free_binary,
                        reference_delta, reference_delta_form,
                        reference_family, reference_family_count,
                        reference_find_iso_copy,
                        reference_fo_consistent, reference_free_sets,
                        reference_from_members, reference_maximal_antichains,
                        reference_maximal_free,
                        reference_members, reference_qftype0,
                        reference_qftype0_form, reference_closure_form,
                        reference_order_type,
                        reference_required_consistent,
                        reference_required_inconsistent,
                        reference_scan_masks, reference_skolem_params,
                        reference_ss_ll,
                        reference_verify, required_sets)

def random_families(count, seed=20240817):
    """Random families in the style of acceptance criterion 8: 3-6 labels
    and 1-5 random members."""
    rng = random.Random(seed)
    for _ in range(count):
        labels = tuple(range(rng.randint(3, 6)))
        members = [
            frozenset(rng.sample(labels, rng.randint(1, len(labels))))
            for _ in range(rng.randint(1, 5))
        ]
        yield labels, members


def test_column_family_matches_pairwise_reference():
    for labels, members in random_families(400):
        family = ConsistencyFamily.from_members(labels, members)
        expected = reference_from_members(labels, members)
        assert family.maximal == expected
        for r in range(len(labels) + 1):
            for subset in itertools.combinations(labels, r):
                inside = bool(subset) and any(set(subset) <= m for m in expected)
                assert contains(family, subset) == inside
        assert synth_boolean(family).params == reference_boolean_params(family)


def test_column_family_rejects_bad_members():
    labels = ("a", "b", "c")
    a, ab = frozenset("a"), frozenset("ab")
    for members in [[{"z"}], [{"a"}, {"a", "z"}], [{"a", "b"}, {"c", "z"}], [{"a", "z"}]]:
        with pytest.raises(ValueError):
            reference_from_members(labels, members)
        with pytest.raises(ValueError):
            ConsistencyFamily.from_members(labels, members)
    # empty, repeated and nested members are filtered, not rejected
    for members in [[a, a], [ab, a], [a, ab], [frozenset()], [a, ab, ab, {"c"}, a]]:
        family = ConsistencyFamily.from_members(labels, members)
        assert family.maximal == reference_from_members(labels, members), members
    assert not contains(family, {"z"}) and not contains(family, ())


# the SOP1, SOP2 and TP families small enough for the subset scan; the last
# has k > b + 1, so its family is one member, the whole tree
RECURSION_SPECS = [make_pattern(kind, depth=d) for kind in (SOP1, SOP2) for d in range(1, 5)] + [
    make_pattern(TP, branching=b, depth=d, k=k)
    for b, d, k in [(3, 3, 2), (3, 3, 3), (2, 4, 2), (4, 2, 2), (4, 2, 3), (3, 2, 5)]]


def test_scanner_matches_plain_scan_on_patterns():
    for p in RECURSION_SPECS:
        _, maximal = reference_free_sets(p.index_labels(),
                                         listed(p, required_inconsistent(p)))
        assert exact_family(p).maximal == tuple(canonical_sets(maximal)), p
    assert exact_family(RECURSION_SPECS[-1]).masks == (0b1111,)
    assert len(exact_family(make_pattern(SOP1, depth=5)).masks) == 1806


def test_tp_recursion_builds_only_parts_of_members():
    # k > b + 1 leaves one member; a recursion that kept every row of partial
    # sets would build sum_j C(b, j) = 2^b of them on the way
    tracemalloc.start()
    try:
        assert choice_columns(20, 2, 20)[1:] == ((1,) * 21, 1)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    assert exact_family(make_pattern(TP, branching=40, depth=2, k=41)).masks == ((1 << 41) - 1,)
    # pick = b: one row per child, not one per child and count, so b = 20000 is quick
    assert choice_columns(20000, 2, 20000)[1:] == ((1,) * 20001, 1)
    family = exact_family(make_pattern(TP, branching=30, depth=2, k=30))
    assert len(family.masks) == 30 and all(m.bit_count() == 30 for m in family.masks)


def test_scanner_matches_plain_scan_on_chain_free_sets():
    for depth in range(1, 5):
        domain = TreeDomain(2, depth)
        nodes = list(domain.nodes())
        for k in (2, 3, 4):
            k_chains = [c for c in itertools.combinations(nodes, k) if is_chain(c)]
            free, maximal = reference_free_sets(nodes, k_chains)
            assert max_chain_bounded_sets(domain, k) == canonical_sets(maximal)
            if k == 2:
                antichains = canonical_sets(s for s in free if s)
                assert list(enumerate_antichains(domain).items) == antichains


def test_chain_generator_lists_each_chain_once():
    for b, depth in [(2, 3), (3, 2), (2, 4)]:
        domain = TreeDomain(b, depth)
        nodes = list(domain.nodes())
        generated = list(chains(domain))
        assert len(generated) == len(set(generated))
        brute = {
            frozenset(c)
            for r in range(1, depth + 1)
            for c in itertools.combinations(nodes, r)
            if is_chain(c)
        }
        assert set(generated) == brute


def test_boolean_witness_is_the_member_loop():
    specs = [make_pattern(ATP, depth=4), make_pattern(KATP, depth=4, k=3),
             make_pattern(SOP1, depth=3), make_pattern(SOP2, depth=4),
             make_pattern(TP, branching=3, depth=3, k=2),
             make_pattern(TP2, rows=3, cols=3)]
    for p in specs:
        family = exact_family(p)
        assert synth_boolean(family).params == reference_boolean_params(family)


def test_exact_family_keeps_the_atp_catalog_cap():
    with pytest.raises(ResourceCapError):
        exact_family(make_pattern(ATP, depth=7))


def test_sop2_family_is_the_root_to_leaf_paths():
    family = exact_family(make_pattern(SOP2, depth=10))
    assert len(family.maximal) == 2 ** 9
    assert all(len(m) == 10 and is_chain(m) for m in family.maximal)


# --- the mask recursion against the frozenset recursions ---

# the families the benchmark builds (build-deep) and verifies (verify-exact)
BENCH_SPECS = [
    make_pattern(KATP, depth=5, k=3), make_pattern(KATP, depth=5, k=4),
    make_pattern(ATP, depth=5), make_pattern(SOP1, depth=4),
    make_pattern(TP, branching=3, depth=3, k=2), make_pattern(SOP2, depth=5),
    make_pattern(TP2, rows=4, cols=4), make_pattern(ATP, depth=4),
    make_pattern(KATP, depth=4, k=3), make_pattern(SOP2, depth=4),
    make_pattern(TP2, rows=3, cols=4), make_pattern(ATP, depth=3),
]


def test_chain_free_recursion_matches_frozenset_recursions():
    for n in range(6):
        for k in (2, 3, 4, 5):
            expected = reference_chain_free_binary(n, k)
            assert maximal_chain_free_binary(n, k) == expected, (n, k)
            nodes = list(TreeDomain(2, n).nodes()) if n else []
            masks = chain_free_columns(n, k).masks
            assert [mask_set(nodes, m) for m in masks] == expected
            assert chain_free_count(n, k) == len(masks)
        old = reference_maximal_antichains(n)
        assert maximal_antichains(n).items == tuple(canonical_sets(old))
        if n:
            assert old[-1] == frozenset({()}) == maximal_antichains(n).items[0]


def test_exact_family_matches_the_former_from_members_path():
    for p in BENCH_SPECS:
        family = exact_family(p)
        labels = p.index_labels()
        old_members = reference_members(p)
        maximal, columns = reference_family(labels, old_members)
        rebuilt = ConsistencyFamily.from_members(labels, old_members)
        assert family.maximal == rebuilt.maximal == maximal, p
        assert family.columns == rebuilt.columns == tuple(columns.values()), p
        assert family == rebuilt, p


def test_chain_free_count_is_exact():
    for n in range(7):
        for k in range(1, 9):
            if (n, k) not in {(6, 3), (6, 4), (6, 5)}:  # these three pass the cap
                assert chain_free_count(n, k) == len(chain_free_columns(n, k).masks)
    # deeper than the cap allows, but no k-chain fits: the whole tree, once
    assert chain_free_columns(8, 9).masks == ((1 << 255) - 1,)


def test_chain_free_cap_fires_before_any_work(monkeypatch):
    def no_nodes(self):
        raise AssertionError("nodes listed before the cap check")
    monkeypatch.setattr(TreeDomain, "nodes", no_nodes)
    for p, size in [
            # refused by its own count, the depth-6 count's square plus one
            (make_pattern(ATP, depth=7), "family of 210066388901 maximal members over 127"),
            (make_pattern(KATP, depth=6, k=3), "family of 10545305 maximal members over 63"),
            (make_pattern(ATP, depth=40), "index set of 1099511627775")]:
        with pytest.raises(ResourceCapError, match=f"{size} labels \\(cap 268435456\\)"):
            exact_family(p)


def test_family_size_cap_fires_before_any_label(monkeypatch):
    def no_nodes(self):
        raise AssertionError("nodes listed before the cap check")
    monkeypatch.setattr(TreeDomain, "nodes", no_nodes)
    for p, size in [(make_pattern(SOP2, depth=30), "index set of 1073741823 labels"),
                    (make_pattern(KATP, depth=30, k=40), "index set of 1073741823 labels"),
                    (make_pattern(KATP, depth=20000, k=20001),
                     r"index set of \(at least 2\^19999\) labels"),
                    # refused at depth 10, where 512 paths over 2^20 - 1 labels pass the cap
                    (make_pattern(SOP2, depth=20),
                     "family of at least 512 maximal members over 1048575 labels"),
                    (make_pattern(TP2, rows=40, cols=3), r"at least 2\^40 maximal members"),
                    # 10^10 >= 2^(10 x 3), a bound taken before the power
                    (make_pattern(TP2, rows=10, cols=10), r"family of at least 2\^30 maximal"),
                    (make_pattern(SOP1, depth=30), "index set of 1073741823 labels"),
                    (make_pattern(SOP1, depth=7),
                     "family of at least 3263442 maximal members over 127 labels"),
                    (make_pattern(SOP1, depth=8),
                     "family of at least 3263442 maximal members over 255 labels"),
                    (make_pattern(TP, branching=3, depth=5, k=2),
                     r"family of at least 2\^61 maximal members"),
                    # C(2^24, 2^23 - 1) is refused by a bound before it is taken
                    (make_pattern(TP, branching=2 ** 24, depth=2, k=2 ** 23),
                     r"at least 2\^8388607 maximal members"),
                    # C(3000, 20) at depth 2 of 3, a lower bound past 64 bits
                    (make_pattern(TP, branching=3000, depth=3, k=21),
                     r"family of \(at least 2\^\d+\) maximal members over 9003001 labels")]:
        with pytest.raises(ResourceCapError, match=size) as refused:
            exact_family(p)
        assert "at least (at least" not in str(refused.value), p


# --- each builder's own count against its build and the closed forms ---

# ATP, SOP1 and SOP2 at depths 1-7, k-ATP for k = 3..6 at depths 1-7, TP for
# b = 2, 3, 4, 10 at depths 1-4 and k = 2, 3, b, b + 1, TP2 up to 5 x 5, and
# six extremes (C(2^24, 2^23 - 1), whose closed form is too large to take,
# is in the test above)
COUNT_GRID = (
    [make_pattern(kind, depth=d) for kind in (ATP, SOP1, SOP2) for d in range(1, 8)]
    + [make_pattern(KATP, depth=d, k=k) for k in range(3, 7) for d in range(1, 8)]
    + [make_pattern(TP, branching=b, depth=d, k=k) for b in (2, 3, 4, 10) for d in range(1, 5)
       for k in sorted({2, 3, b, b + 1})]
    + [make_pattern(TP2, rows=r, cols=c) for r in range(1, 6) for c in range(1, 6)]
    + [make_pattern(KATP, depth=30, k=40), make_pattern(KATP, depth=20000, k=20001),
       make_pattern(SOP2, depth=30), make_pattern(TP, branching=20000, depth=2, k=20001),
       make_pattern(TP2, rows=10, cols=10), make_pattern(TP2, rows=100000, cols=1)]
)


def family_count(p):
    """The count of p's family by the `antichains` builder that `exact_family` calls."""
    if p.kind in (ATP, KATP):
        return antichains.chain_free_count(p.depth, 2 if p.kind == ATP else p.k)
    if p.kind in (SOP1, SOP2):
        return antichains.choice_count(2, p.depth, 1, (0,) if p.kind == SOP1 else (0, 1))
    if p.kind == TP:
        return antichains.choice_count(p.branching, p.depth, min(p.k - 1, p.branching))
    return antichains.row_choice_count(p.rows, p.cols)


def refused_by_closed_form(p):
    labels = p.index_count()
    cap = antichains.FAMILY_CELL_CAP
    return labels > cap or reference_family_count(p) * labels > cap


def first_count_fault():
    """The first COUNT_GRID pattern whose builder count differs from its
    built family's count or from the closed form, or that is not refused,
    under the cap, before a column product or repeat is made or a node is
    listed (all made to raise); None if there is none."""
    def no_work(*args):
        raise AssertionError("a column or a label built before the cap check")
    for p in COUNT_GRID:
        if not refused_by_closed_form(p):
            if not family_count(p) == exact_family(p).count == reference_family_count(p):
                return p
            continue
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(antichains, "_product", no_work)
            patch.setattr(antichains, "_repeat", no_work)
            patch.setattr(TreeDomain, "nodes", no_work)
            try:
                exact_family(p)
            except ResourceCapError:
                continue
            except AssertionError:
                pass
        return p
    return None


def test_builder_counts_mirror_their_builds():
    assert first_count_fault() is None
    refused = sum(map(refused_by_closed_form, COUNT_GRID))
    # SOP1 d6 and TP b3 d4 (k = 2, 3) are built: 2^28 cells take them
    assert (refused, len(COUNT_GRID) - refused) == (22, 110)


def test_broken_counts_fail_the_gate(monkeypatch):
    breaks = [
        # the kept emptied children dropped from the exponent
        ("choice_count", "* c ** (rest + t) for t in terms", "* c ** rest for t in terms"),
        # each level's count checked at the next level, so the last never
        ("chain_free_count", """\
        row = {b: row.get(b - 1, 1) ** 2 + row.get(b, 1) ** 2
               for b in range(max(2, k - n + d), min(k, d) + 1)}
        _check_cells(max(row.values(), default=1), labels, d == n)
""", """\
        _check_cells(max(row.values(), default=1), labels, d == n)
        row = {b: row.get(b - 1, 1) ** 2 + row.get(b, 1) ** 2
               for b in range(max(2, k - n + d), min(k, d) + 1)}
"""),
    ]
    for name, old, new in breaks:
        with monkeypatch.context() as patch:
            patch.setattr(antichains, name, mutant(antichains, name, old, new))
            assert first_count_fault() is not None, name


def test_skolem_bits_bound_holds_on_benchmark_families():
    from treeprop import synth

    for p in BENCH_SPECS:
        family = exact_family(p)
        bound = synth._skolem_bits_bound(family)
        bits = sum(v.bit_length() for v in synth_skolem(family).params.values())
        assert bits <= bound <= synth.SKOLEM_BITS_CAP, p


def _column_product_calls(monkeypatch, family):
    """The skolem params of the family, and the columns that synth_skolem
    asks `_column_product` for."""
    from treeprop import synth

    product, calls = synth._column_product, []

    def counted(ps, column):
        calls.append(column)
        return product(ps, column)
    with monkeypatch.context() as patch:
        patch.setattr(synth, "_column_product", counted)
        return synth.synth_skolem(family).params, calls


def test_skolem_takes_one_product_per_distinct_column(monkeypatch):
    # at depth 5 the two sibling leaves under each of the 8 nodes of depth 3
    # share their column: 23 distinct columns among 31 labels
    for p in [make_pattern(KATP, depth=5, k=3), make_pattern(KATP, depth=5, k=4),
              make_pattern(ATP, depth=5)]:
        _, calls = _column_product_calls(monkeypatch, exact_family(p))
        assert len(calls) == len(set(calls)) == 23, p
    for p in BENCH_SPECS:
        family = exact_family(p)
        params, calls = _column_product_calls(monkeypatch, family)
        assert sorted(calls) == sorted(set(family.columns)), p
        assert params == reference_skolem_params(family), p


def skolem_mismatches(synth_skolem):
    """The BENCH_SPECS patterns whose skolem params differ from the running
    product."""
    families = [(p, exact_family(p)) for p in BENCH_SPECS]
    return [p for p, family in families
            if synth_skolem(family).params != reference_skolem_params(family)]


def test_broken_product_sharing_fails_the_gate():
    from treeprop import synth

    assert skolem_mismatches(synth_skolem) == []
    # each label given the product of the first column of its popcount
    broken = mutant(synth, "synth_skolem", "products[column] for label",
                    "next(v for c, v in products.items() if c.bit_count() == column.bit_count())"
                    " for label")
    assert skolem_mismatches(broken)


def test_broken_column_products_fail_the_gate(monkeypatch):
    from treeprop import synth

    breaks = [
        # a pairing level dropping its odd last product instead of carrying it up
        ("level[-1:] if len(level) & 1 else []", "[]"),
        # the leaves' slices of picked primes shifted by one
        ("picked[i:i + _LEAF_PRIMES]", "picked[i + 1:i + 1 + _LEAF_PRIMES]"),
    ]
    for old, new in breaks:
        with monkeypatch.context() as patch:
            patch.setattr(synth, "_column_product", mutant(synth, "_column_product", old, new))
            assert skolem_mismatches(synth_skolem), new


def test_atp_depth_six_boolean_witness_sets_member_bits():
    p = make_pattern(ATP, depth=6)
    family = exact_family(p)
    assert len(family.masks) == alpha(6) == 458330
    params = synth_boolean(family).params
    labels = p.index_labels()
    for n in random.Random(6).sample(range(len(family.masks)), 1000):
        member = mask_set(labels, family.masks[n])
        assert not has_chain(member, 2)
        assert {x for x in labels if params[x] >> n & 1} == member


# --- exhaustive verification against a frozenset per subset ---

VERIFY_SPECS = (
    [make_pattern(kind, depth=d) for kind in (ATP, SOP1, SOP2) for d in range(1, 5)]
    + [make_pattern(KATP, depth=d, k=k) for k in (2, 3) for d in range(1, 5)]
    + [make_pattern(TP, branching=3, depth=3, k=k) for k in (2, 3)]
    + [make_pattern(TP2, rows=r, cols=c) for r in range(1, 4) for c in range(1, 5)]
)


def _same_as_reference(witness, p, target=None):
    """verify and reference_verify agree on the report, and the oracle is asked
    about the same subsets in the same order: every nonempty mask in
    increasing order up to the first failing one, and nothing after."""
    fast = RecordingOracle(oracle_for(witness), target)
    slow = RecordingOracle(oracle_for(witness), target)
    report = verify(fast, witness, p, exhaustive=True)
    assert report == reference_verify(slow, witness, p), (p, witness.backend)
    assert fast.seen == slow.seen
    return report


def _broken_witnesses(family, witness, p):
    """The witness with one label dropping one of its members, for a middle and
    the last label, and with the first forbidden set given a shared fresh
    member."""
    labels = family.labels
    fresh = len(family.maximal)
    out = []
    primes = _first_primes(fresh + 1)
    for i in (len(labels) // 2, -1):
        label, column = labels[i], family.columns[i]
        n = (column & -column).bit_length() - 1
        value = witness.params[label]
        value = value // primes[n] if witness.backend == SKOLEM else value & ~(1 << n)
        out.append(Witness(witness.backend, witness.labels, {**witness.params, label: value},
                           witness.width))
    forbidden = next(required_inconsistent(p), None)
    if forbidden is not None:
        params = dict(witness.params)
        for label in mask_labels(labels, forbidden):
            if witness.backend == SKOLEM:
                params[label] *= primes[fresh]
            else:
                params[label] |= 1 << fresh
        width = None if witness.backend == SKOLEM else fresh + 1
        out.append(Witness(witness.backend, witness.labels, params, width))
    return out


def test_exhaustive_verify_matches_reference():
    in_loop = 0  # broken witnesses that fail first outside the required sets
    for p in VERIFY_SPECS:
        family = exact_family(p)
        required = required_sets(p)
        for witness in (synth_skolem(family), synth_boolean(family)):
            report = _same_as_reference(witness, p)
            assert report.passed
            for broken in _broken_witnesses(family, witness, p):
                report = _same_as_reference(broken, p)
                assert not report.passed
                in_loop += report.counterexample[0] not in required
    assert in_loop >= 10


def test_exhaustive_verify_counterexamples_match_reference():
    """A verdict inverted on one subset outside the pattern's required sets
    passes the pattern pass and fails in the exhaustive loop at that subset:
    every such subset up to 7 labels, two random ones above."""
    failures = 0
    for p in VERIFY_SPECS:
        witness = synth_skolem(exact_family(p))
        labels = p.index_labels()
        required = required_sets(p)
        masks = range(1, 1 << len(labels))
        if len(labels) > 7:
            masks = random.Random(len(labels)).sample(masks, 2)
        for mask in masks:
            target = mask_set(labels, mask)
            if target in required:
                continue
            report = _same_as_reference(witness, p, target)
            assert not report.passed and report.counterexample[0] == target
            assert report.consistent_checked + report.inconsistent_checked == mask
            failures += 1
    assert failures > len(VERIFY_SPECS)


def test_exhaustive_verify_makes_no_subset_scan(monkeypatch):
    """Exhaustive verify over 15 labels builds the exact family once and four
    tables over 7 or 8 labels (the oracle's meets and the columns' ANDs), and
    no table over all 15: no module keeps a subset scanner."""
    tables, families = [], []
    meet_table = patterns._meet_table

    def recording_table(top, meet, elements):
        tables.append(len(elements))
        return meet_table(top, meet, elements)

    def recording_family(p):
        families.append(p)
        return exact_family(p)
    monkeypatch.setattr(patterns, "_meet_table", recording_table)
    monkeypatch.setattr(patterns, "exact_family", recording_family)
    for p in [make_pattern(ATP, depth=4), make_pattern(KATP, depth=4, k=2),
              make_pattern(SOP1, depth=4), make_pattern(TP, branching=2, depth=4, k=2)]:
        witness = synth_skolem(exact_family(p))
        tables.clear()
        families.clear()
        assert verify(oracle_for(witness), witness, p, exhaustive=True).passed
        assert sorted(tables) == [7, 7, 8, 8] and families == [p]
    assert not [name for module in (antichains, patterns) for name in vars(module)
                if name in ("forbidden_free_table", "maximal_free_masks")]


# --- the column builders against the mask builders they replaced ---

# SOP1 d1-5, the TP cases of RECURSION_SPECS, ATP d1-6, k-ATP with k = 3, 4
# at d <= 5 and TP2 up to 4 x 4
COLUMN_SPECS = (
    [make_pattern(SOP1, depth=d) for d in range(1, 6)]
    + [p for p in RECURSION_SPECS if p.kind == TP]
    + [make_pattern(ATP, depth=d) for d in range(1, 7)]
    + [make_pattern(KATP, depth=d, k=k) for k in (3, 4) for d in range(1, 6)]
    + [make_pattern(TP2, rows=r, cols=c) for r in range(1, 5) for c in range(1, 5)]
)


@functools.lru_cache(maxsize=None)
def reference_family_masks(p):
    """The mask builders' members of p's family and their columns."""
    masks = reference_exact_masks(p)
    return tuple(masks), tuple(reference_columns(p.index_labels(), masks).values())


def column_mismatches(specs):
    """The patterns whose family's columns, count or transposed masks differ
    from the mask builders' members and their columns."""
    out = []
    for p in specs:
        family = exact_family(p)
        masks, columns = reference_family_masks(p)
        if family.columns != columns or family.count != len(masks) or family.masks != masks:
            out.append(p)
    return out


def test_columns_match_the_mask_builders():
    assert column_mismatches(COLUMN_SPECS) == []


def test_broken_column_operations_fail_the_gate(monkeypatch):
    small = [p for p in COLUMN_SPECS if p.index_count() * reference_family_count(p) < 10 ** 5]
    breaks = [
        # a widened bit one short of its run
        (antichains, "_widen", "(spread << run) - spread", "(spread << run - 1) - spread"),
        # the string base of the spread with one zero too many between bits
        (antichains, "_spread", '"0" * (run - 1)', '"0" * run'),
        # one copy too few past the first doubling
        (antichains, "_repeat", "column |= column << width", "column |= column << width + 1"),
        # Y's sets shifted by |Y| instead of |X|
        (antichains, "_concat", "a | b << x_count", "a | b << y_count"),
        # the root column over every set of the chain-free family
        (antichains, "_chain_free", "(1 << with_root[1] ** 2) - 1", "(1 << count) - 1"),
        # each cell's run one period late
        (patterns, "row_columns", "(1 << run) - 1 << c * run", "(1 << run) - 1 << (c + 1) * run"),
    ]
    for module, name, old, new in breaks:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, mutant(antichains, name, old, new))
            assert column_mismatches(small), (name, new)


# --- the choice routine against brute force, and the tree families it
# builds against the subset scan they replaced ---

def random_choices(count, seed=20261019):
    """Random (parts, widths, pick): up to 4 (shift, kept, dropped) parts side
    by side, each with 0-3 kept and 0-3 dropped masks of its width, and every
    pick from 0 to the number of parts."""
    rng = random.Random(seed)
    for _ in range(count):
        parts, widths, shift = [], [], 0
        for _ in range(rng.randint(0, 4)):
            width = rng.randint(1, 4)
            kept, dropped = ([rng.randrange(1 << width) for _ in range(rng.randint(0, 3))]
                             for _ in range(2))
            parts.append((shift, kept, dropped))
            widths.append(width)
            shift += width
        yield parts, widths, rng.randint(0, len(parts))


def choose_mismatches(choose):
    """The random cases on which choose, given each part's kept and dropped
    masks as column families, builds other columns or another count than the
    transposed brute-force product, whose order is canonical."""
    out = []
    for parts, widths, pick in random_choices(400):
        families = [tuple((_transpose(masks, width), len(masks)) for masks in (kept, dropped))
                    for (_, kept, dropped), width in zip(parts, widths)]
        columns, count = choose(families, pick)
        masks = reference_choose(parts, pick)
        if (list(columns), count) != (_transpose(masks, sum(widths)), len(masks)):
            out.append((parts, pick))
    return out


def test_choose_matches_the_product():
    assert choose_mismatches(_choose) == []
    assert _choose([], 0) == ([], 1) and _choose([(([1], 1), ([0], 0))], 2) == ([0], 0)


def test_broken_choose_fails_the_gate():
    breaks = [
        # dropped sets before kept ones
        ("((kept, j - 1), (dropped, j))", "((dropped, j), (kept, j - 1))"),
        # the rows one short at the top and at the bottom
        ("min(pick, len(parts) - i) + 1", "min(pick, len(parts) - i)"),
        ("max(pick - i, 0)", "max(pick - i + 1, 0)"),
    ]
    for old, new in breaks:
        assert choose_mismatches(mutant(antichains, "_choose", old, new)), new


@functools.lru_cache(maxsize=None)
def scanned_masks(p):
    return tuple(reference_scan_masks(p))


def recursion_mismatches():
    """The RECURSION_SPECS on which `exact_family` lists other masks than the
    sorted scan, or another order."""
    return [p for p in RECURSION_SPECS if exact_family(p).masks != scanned_masks(p)]


def test_broken_tp_recursion_fails_the_gate(monkeypatch):
    assert recursion_mismatches() == []
    # the kept parts taken one combination at a time, outermost
    combinations_outermost = mutant(antichains, "_choose", """\
    tails, labels = {0: ([], 1)}, 0
    for i in reversed(range(len(parts))):
        kept, dropped = parts[i]
        labels += len(kept[0])
        rows = {}
        for j in range(max(pick - i, 0), min(pick, len(parts) - i) + 1):
            blocks = [_product(part, tails[t]) for part, t in ((kept, j - 1), (dropped, j))
                      if t in tails]
            columns, count = _concat(*blocks) if len(blocks) == 2 else blocks[0]
            rows[j] = list(columns), count
        tails = rows
    return tails.get(pick, ([0] * labels, 0))
""", """\
    out = None
    for chosen in itertools.combinations(range(len(parts)), pick):
        tail = ([], 1)
        for i in reversed(range(len(parts))):
            columns, count = _product(parts[i][i not in chosen], tail)
            tail = list(columns), count
        columns, count = tail if out is None else _concat(out, tail)
        out = list(columns), count
    return out
""")
    monkeypatch.setattr(antichains, "_choose", combinations_outermost)
    bad = recursion_mismatches()
    assert make_pattern(TP, branching=3, depth=3, k=2) in bad
    # the same sets: only the order is wrong
    assert all(sorted(exact_family(p).masks) == sorted(scanned_masks(p)) for p in bad)


# --- every family against Bron-Kerbosch on its forbidden pairs ---

# the patterns whose forbidden sets are all pairs, so that each exact family
# is the maximal independent sets of a conflict graph; k-ATP with k >= 3
# forbids k-chains and is left out
CONFLICT_SPECS = (
    [make_pattern(ATP, depth=d) for d in range(1, 7)]
    + [make_pattern(SOP1, depth=d) for d in range(1, 6)]
    + [make_pattern(SOP2, depth=d) for d in range(1, 7)]
    + [make_pattern(TP2, rows=r, cols=c) for r in range(1, 5) for c in range(1, 6)]
    + [make_pattern(TP, branching=3, depth=3, k=2)]
)


def conflict_free_mismatches(specs):
    """The patterns whose exact family repeats a member or is not, as a set
    of masks, every maximal set free of its forbidden pairs."""
    out = []
    for p in specs:
        labels = p.index_labels()
        index = {x: i for i, x in enumerate(labels)}
        conflicts = [[index[x] for x in s] for s in reference_required_inconsistent(p)]
        masks = exact_family(p).masks
        if (len(set(masks)) != len(masks)
                or set(masks) != set(reference_maximal_free(len(labels), conflicts))):
            out.append(p)
    return out


def test_families_are_the_maximal_conflict_free_sets():
    assert conflict_free_mismatches(CONFLICT_SPECS) == []


def test_broken_builders_fail_the_conflict_free_gate(monkeypatch):
    depth_five = [p for p in CONFLICT_SPECS if p.depth == 5]
    breaks = [
        # a `_choose` row one short at the top: members dropped
        (antichains, "_choose", "min(pick, len(parts) - i) + 1", "min(pick, len(parts) - i)"),
        # the choice parts without their rootless options: members dropped
        (patterns, "choice_columns", "else rootless", "else ([0] * len(columns), 0)"),
        # the choice parts with whole subtrees for rootless ones: members repeated
        (patterns, "choice_columns", "else rootless", "else family"),
        # the chain-free sets without the root left out: members dropped
        (antichains, "_chain_free",
         "_concat(_product(with_root, with_root),\n"
         "                                 _product(without_root, without_root))",
         "_product(with_root, with_root)"),
    ]
    for module, name, old, new in breaks:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, mutant(antichains, name, old, new))
            assert conflict_free_mismatches(depth_five), (name, new)


# --- exhaustive verification by semilattice meets ---

@functools.lru_cache(maxsize=None)
def meet_cases():
    """(pattern, witness, reference report) for every VERIFY_SPECS witness on
    both backends and each of its broken copies, the report made by
    `reference_verify` through the unwrapped oracle."""
    out = []
    for p in VERIFY_SPECS:
        family = exact_family(p)
        for witness in (synth_skolem(family), synth_boolean(family)):
            for w in [witness, *_broken_witnesses(family, witness, p)]:
                out.append((p, w, reference_verify(oracle_for(w), w, p)))
    return tuple(out)


def first_meet_mismatch(verify_fn):
    """The first case where verify_fn, given the unwrapped oracle, so reading
    the oracle's meets, reports otherwise than the reference; None if none."""
    for p, witness, expected in meet_cases():
        if verify_fn(oracle_for(witness), witness, p, exhaustive=True) != expected:
            return p, witness
    return None


def test_meet_verify_matches_reference():
    assert first_meet_mismatch(verify) is None
    assert sum(not report.passed for _, _, report in meet_cases()) > len(VERIFY_SPECS)


def test_broken_meet_tables_fail_the_gate(monkeypatch):
    # a table that leaves out its last label: top stands in for its element
    skips_last = mutant(patterns, "_meet_table", "for e in elements:",
                        "for e in [*elements[:-1], top]:")
    with monkeypatch.context() as patch:
        patch.setattr(patterns, "_meet_table", skips_last)
        assert first_meet_mismatch(verify) is not None

    def broken_pairs(old, new):
        """The first mismatch of verify over a copy of `_class_pairs` with one change."""
        with monkeypatch.context() as patch:
            patch.setattr(patterns, "_class_pairs", mutant(patterns, "_class_pairs", old, new))
            return first_meet_mismatch(verify)
    # the high meet or membership table split off one label before the low
    # one ends: the two high tables differ in length, which `_classes`
    # refuses rather than truncate
    for old, new in [("elements[half:]", "elements[half - 1:]"),
                     ("columns[half:]", "columns[half - 1:]")]:
        with pytest.raises(ValueError, match="zip\\(\\) argument 2 is"):
            broken_pairs(old, new)
    # classes keyed on the meet alone: an index joins the first class of its
    # meet, whatever its membership
    meet_alone = mutant(patterns, "_classes", "classes.setdefault(pair, [i, 0])",
                        "classes.setdefault(next((key for key in classes if key[1] == pair[1]),"
                        " pair), [i, 0])")
    with monkeypatch.context() as patch:
        patch.setattr(patterns, "_classes", meet_alone)
        assert first_meet_mismatch(verify) is not None
    # a class pair counted as many masks as its low class has indices
    assert broken_pairs("expected * count_l * count_h", "expected * count_l") is not None
    # the empty-set skip widened to every mask with an empty high half
    assert broken_pairs("if h0 == l0 == 0:", "if h0 == 0:") is not None


def test_broken_recount_fails_the_gate(monkeypatch):
    # the membership recount of a table failure taking one row more or fewer
    # below the failing row
    for new in ("in_high[:h0 + 1]", "in_high[:h0 - 1]"):
        with monkeypatch.context() as patch:
            patch.setattr(patterns, "_members_up_to",
                          mutant(patterns, "_members_up_to", "in_high[:h0]", new))
            assert first_meet_mismatch(verify) is not None, new


def test_broken_verify_orders_fail_the_gate():
    # the class-pair tables replaced by the stream of required sets, so the
    # stream decides alone: it passes broken witnesses that fail only outside
    # the required sets
    stream_only = mutant(patterns, "verify",
                         "return _class_pairs(semilattice(oracle), labels, p)",
                         "return _stream(oracle, labels, p)")
    assert first_meet_mismatch(stream_only) is not None
    assert any(stream_only(oracle_for(w), w, p, exhaustive=True).passed
               for p, w, report in meet_cases() if not report.passed)


# the patterns of the verify-exact benchmark workload, all also in VERIFY_SPECS
VERIFY_EXACT_SPECS = (
    make_pattern(ATP, depth=4), make_pattern(KATP, depth=4, k=3), make_pattern(SOP1, depth=4),
    make_pattern(SOP2, depth=4), make_pattern(TP, branching=3, depth=3, k=2),
    make_pattern(TP2, rows=3, cols=4), make_pattern(ATP, depth=3),
)


def test_required_sets_split_by_family_membership():
    """Every required consistent set is an exact-family member and no required
    inconsistent set is one, read from the family's columns: so a witness that
    passes the class-pair tables passes the stream of required sets too."""
    assert set(VERIFY_EXACT_SPECS) <= set(VERIFY_SPECS)
    for p in VERIFY_SPECS:
        family, labels = exact_family(p), p.index_labels()

        def member(mask):
            return functools.reduce(operator.and_, mask_labels(family.columns, mask), -1) != 0
        assert all(member(m) for m in required_consistent(p)), p
        assert not any(member(m) for m in required_inconsistent(p)), p


@pytest.mark.parametrize("synth, oracle_class", [(synth_skolem, GcdOracle),
                                                 (synth_boolean, BitsetOracle)])
def test_exhaustive_verify_judges_each_class_pair_once(synth, oracle_class):
    """A passing exhaustive ATP d4 run asks consistent() nothing, and calls
    holds at most once per pair of a low and a high class of equal
    (membership, meet), not once per each of the 32,767 masks."""
    p = make_pattern(ATP, depth=4)
    family = exact_family(p)
    witness = synth(family)
    labels, half = p.index_labels(), p.index_count() // 2

    class Counting(oracle_class):
        calls = asked = 0

        def holds(self, value):
            self.calls += 1
            return super().holds(value)

        def consistent(self, labels):
            self.asked += 1
            return super().consistent(labels)

    oracle = Counting(witness)
    top, meet, element, _ = semilattice(oracle)
    classes = []
    for part, columns in ((labels[:half], family.columns[:half]),
                          (labels[half:], family.columns[half:])):
        values = patterns._meet_table(top, meet, [element(x) for x in part])
        members = patterns._meet_table(-1, operator.and_, columns)
        classes.append(len(set(zip(members, values))))
    report = verify(oracle, witness, p, exhaustive=True)
    assert (report.passed, report.consistent_checked, report.inconsistent_checked) == \
        (True, 676, 32091)
    assert oracle.asked == 0 and oracle.calls <= classes[0] * classes[1] < 300


def _folded(oracle, labels):
    """holds of the meet of the labels' elements, folded from top in full."""
    top, meet, element, holds = semilattice(oracle)
    value = top
    for x in labels:
        value = meet(value, element(x))
    return holds(value)


def meet_oracles():
    """Small oracles of every built-in kind with their labels: gcd and bitset
    on random families and small patterns, first-order over the divisors of
    210 and 2310, and conjunctions over elongated and fattened gcd and bitset
    witnesses."""
    for labels, members in random_families(100):
        family = ConsistencyFamily.from_members(labels, members)
        for witness in (synth_skolem(family), synth_boolean(family)):
            yield oracle_for(witness), labels
    for p in VERIFY_SPECS:
        if p.index_count() <= 8:
            family = exact_family(p)
            for witness in (synth_skolem(family), synth_boolean(family)):
                yield oracle_for(witness), witness.labels
    for fo in [*criterion_8_fo_oracles(100), _divisor_2310_oracle()]:
        yield fo, fo.witness.labels
    for synth in (synth_skolem, synth_boolean):
        katp = synth(exact_family(make_pattern(KATP, depth=5, k=3)))
        atp = synth(exact_family(make_pattern(ATP, depth=4)))
        for tw in (elongate(katp, 2), fatten(atp, 1)):
            yield ConjunctionOracle(oracle_for(tw.base), tw), tw.labels


def test_consistent_is_the_meet_fold():
    kinds = set()
    for oracle, labels in meet_oracles():
        kinds.add(type(oracle))
        for subset in _all_subsets(labels):
            assert oracle.consistent(subset) == _folded(oracle, subset), (oracle, subset)
    assert kinds == {GcdOracle, BitsetOracle, FoOracle, ConjunctionOracle}


def _own_sources(witness):
    """The tuple witness of arity 1 whose every label is its own source."""
    return TupleWitness(witness, witness.labels, {x: (x,) for x in witness.labels}, 1)


def _swapped_sources(tw, rng, count):
    """Copies of the tuple witness, each with the sources of two random labels
    swapped."""
    for _ in range(count):
        a, b = rng.sample(tw.labels, 2)
        provenance = {**tw.provenance, a: tw.provenance[b], b: tw.provenance[a]}
        yield TupleWitness(tw.base, tw.labels, provenance, tw.arity)


def test_conjunction_matches_source_unions():
    """Exhaustive verify of the conjunction over a built-in base gets the
    report of the reference, which asks the base once per set about the
    union of its labels' sources: on every VERIFY_SPECS witness and broken
    copy, on both backends, through `_own_sources`; and on the elongated and
    the fattened witness over ATP d3, on both backends, with two labels'
    sources swapped."""
    for p, witness, expected in meet_cases():
        tw = _own_sources(witness)
        oracle = ConjunctionOracle(oracle_for(witness), tw)
        assert verify(oracle, tw, p, exhaustive=True) == expected, (p, witness.backend)
    p = make_pattern(ATP, depth=3)
    rng = random.Random(3)
    reports = []
    for synth in (synth_skolem, synth_boolean):
        katp = synth(exact_family(make_pattern(KATP, depth=5, k=3)))
        atp = synth(exact_family(make_pattern(ATP, depth=4)))
        for tw in (elongate(katp, 2), fatten(atp, 1)):
            assert verify(ConjunctionOracle(oracle_for(tw.base), tw), tw, p,
                          exhaustive=True).passed
            for broken in _swapped_sources(tw, rng, 6):
                report = verify(ConjunctionOracle(oracle_for(tw.base), broken), broken, p,
                                exhaustive=True)
                expected = reference_verify(
                    ReferenceConjunctionOracle(oracle_for(tw.base), broken), broken, p)
                assert report == expected, (synth.__name__, broken.provenance)
                reports.append(report)
    assert sum(not report.passed for report in reports) > len(reports) // 2


class RaisingOracle(RecordingOracle):
    """A RecordingOracle that raises LookupError on one chosen subset."""

    def __init__(self, oracle, raise_on):
        super().__init__(oracle)
        self.raise_on = raise_on

    def consistent(self, labels) -> bool:
        verdict = super().consistent(labels)
        if self.seen[-1] == self.raise_on:
            raise LookupError(self.raise_on)
        return verdict


def _verify_outcome(verify_fn, oracle, witness, p):
    """The report, or the type and subset of a LookupError."""
    try:
        return verify_fn(oracle, witness, p)
    except LookupError as exc:
        return type(exc), exc.args[0]


def test_a_raising_consistent_only_oracle_is_asked_each_mask_up_to_its_subset():
    """An oracle with only consistent() that raises on one subset, inside the
    required sets or outside them, is asked every mask in increasing order up
    to that subset and nothing after, as by the reference, and its exception
    propagates."""
    for p in (make_pattern(ATP, depth=3), make_pattern(TP2, rows=2, cols=3)):
        labels = p.index_labels()
        witness = synth_skolem(exact_family(p))
        required = required_sets(p)
        rng = random.Random(p.index_count())
        masks = range(1, 1 << len(labels))
        for inside in (True, False):
            mask = rng.choice([m for m in masks if (mask_set(labels, m) in required) == inside])
            target = mask_set(labels, mask)
            fast = RaisingOracle(oracle_for(witness), target)
            slow = RaisingOracle(oracle_for(witness), target)
            outcome = _verify_outcome(functools.partial(verify, exhaustive=True), fast, witness, p)
            assert outcome == _verify_outcome(reference_verify, slow, witness, p) \
                == (LookupError, target)
            assert fast.seen == slow.seen == [mask_set(labels, m) for m in range(1, mask + 1)]


class ConsistentOnly:
    """An oracle's consistent() alone, without its lattice."""

    def __init__(self, oracle):
        self.consistent = oracle.consistent


class NoHolds:
    """An oracle's top, meet and element, without its holds."""

    def __init__(self, oracle):
        self.top, self.meet, self.element = oracle.top, oracle.meet, oracle.element


def test_conjunction_refuses_a_base_without_a_lattice():
    """A base without top, meet, element and holds is refused with one line,
    whether it has consistent() alone, records its asks or lacks only holds;
    only exhaustive verify adapts such an oracle."""
    witness = synth_skolem(exact_family(make_pattern(ATP, depth=2)))
    tw = _own_sources(witness)
    for base in (ConsistentOnly(oracle_for(witness)), RecordingOracle(oracle_for(witness)),
                 NoHolds(oracle_for(witness))):
        with pytest.raises(TreepropError) as refused:
            ConjunctionOracle(base, tw)
        assert str(refused.value) == (f"conjunction base {type(base).__name__} has no lattice: "
                                      "it needs top, meet, element and holds")
        assert type(refused.value) is TreepropError


@pytest.mark.parametrize("synth", [synth_skolem, synth_boolean])
def test_broken_family_builders_fail_the_verify_gate(monkeypatch, synth):
    """Exhaustive verify passes a witness built from a wrong family, since it
    reads membership from that same family; `reference_verify`, run under
    the same builder, reads it from the forbidden sets, so the comparison
    fails, at ATP d4, for a builder that drops its last mask and for one that
    adds a non-member."""
    p = make_pattern(ATP, depth=4)

    def from_masks(masks):
        return ConsistencyFamily(p.index_labels(), tuple(_transpose(masks, p.index_count())),
                                 len(masks))
    builders = [
        lambda n, k: from_masks(chain_free_columns(n, k).masks[:-1]),
        # the root and its first child, a 2-chain
        lambda n, k: from_masks(chain_free_columns(n, k).masks + (0b11,)),
    ]
    for builder in builders:
        with monkeypatch.context() as patch:
            patch.setattr(patterns, "chain_free_columns", builder)
            witness = synth(exact_family(p))
            report = verify(oracle_for(witness), witness, p, exhaustive=True)
            assert report.passed
            assert report != reference_verify(oracle_for(witness), witness, p)


# --- the subtree walk against brute force and the former scan and sorts ---

# (branching, depth) domains where every subset, or for chains every subset
# of at most depth nodes, can be listed and filtered
WALK_DOMAINS = [(2, d) for d in range(1, 5)] + [(3, 1), (3, 2), (3, 3), (4, 1),
                                               (4, 2), (11, 1), (11, 2)]
CHAIN_DOMAINS = WALK_DOMAINS + [(2, 5), (3, 4), (4, 3), (11, 3)]


@functools.lru_cache(maxsize=None)
def brute_masks(domain, chains):
    """The nonempty antichains, or chains, of the domain as masks, in canonical
    order: node combinations (for chains, of at most depth nodes) filtered by
    is_antichain or is_chain, then sorted."""
    nodes = list(domain.nodes())
    index = {x: i for i, x in enumerate(nodes)}
    most, keep = (domain.depth, is_chain) if chains else (len(nodes), is_antichain)
    sets = canonical_sets(c for r in range(1, most + 1)
                          for c in itertools.combinations(nodes, r) if keep(c))
    return [sum(1 << index[x] for x in s) for s in sets]


def walk_mismatches(walk):
    """The domains on which the walk lists other antichains or chains than
    brute force, or in another order. The walk is read only up to its first
    difference, so a walk that repeats a set forever is caught too."""
    bad = []
    for chains, domains in [(False, WALK_DOMAINS), (True, CHAIN_DOMAINS)]:
        for b, depth in domains:
            domain = TreeDomain(b, depth)
            pairs = itertools.zip_longest(walk(domain.subtree_sizes(), chains=chains),
                                          brute_masks(domain, chains))
            if any(x != y for x, y in pairs):
                bad.append((b, depth, chains))
    return bad


def test_subtree_walk_matches_brute_force():
    assert walk_mismatches(subtree_walk) == []


def test_broken_walks_fail_the_gate():
    breaks = [
        # an antichain extended from the last node of the chosen node's subtree
        ("(mask, i + runs[i], hi)", "(mask, i + runs[i] - 1, hi)"),
        # a chain extended by the node just past the chosen node's subtree
        ("(mask, i + 1, i + runs[i])", "(mask, i + 1, i + runs[i] + 1)"),
    ]
    for old, new in breaks:
        assert walk_mismatches(mutant(antichains, "subtree_walk", old, new)), new


def _outcome(f, p):
    """What f gives for p as a list of frozensets (the library's masks read
    over p's labels), or the message of the cap error it raises, or of the
    IndexError of a mask with a bit past the labels."""
    try:
        return [s if isinstance(s, frozenset) else mask_set(p.index_labels(), s)
                for s in f(p)]
    except (ResourceCapError, IndexError) as exc:
        return str(exc)


# ATP, SOP1 and SOP2 at depths 1-5, k-ATP for k = 2..4 at depths 1-5, ten TP
# shapes (b, d, k) and TP2 up to 4 x 5
REQUIRED_SPECS = (
    [make_pattern(kind, depth=d) for kind in (ATP, SOP1, SOP2) for d in range(1, 6)]
    + [make_pattern(KATP, depth=d, k=k) for k in (2, 3, 4) for d in range(1, 6)]
    + [make_pattern(TP, branching=b, depth=d, k=k) for b, d, k in
       [(2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3), (4, 2, 2),
        (4, 2, 3), (3, 2, 5), (4, 3, 4)]]
    + [make_pattern(TP2, rows=r, cols=c) for r in range(1, 5) for c in range(1, 6)]
)


def required_mismatches(consistent, inconsistent):
    """The patterns whose required sets from the two functions differ from
    the references', in content or order, or in the cap message."""
    return [p for p in REQUIRED_SPECS + VERIFY_SPECS + BENCH_SPECS
            if _outcome(consistent, p) != _outcome(reference_required_consistent, p)
            or _outcome(inconsistent, p) != _outcome(reference_required_inconsistent, p)]


def test_required_sets_match_the_former_scan_and_sorts():
    assert required_mismatches(required_consistent, required_inconsistent) == []
    # the depth-5 antichains stay past the subset cap
    assert "2^31" in _outcome(required_consistent, make_pattern(ATP, depth=5))


def test_broken_required_sets_fail_the_gate(monkeypatch):
    # a TP sibling one label past the start of its subtree
    broken = mutant(patterns, "required_inconsistent", "i + c * runs[i]", "i + c * runs[i] + 1")
    assert required_mismatches(required_consistent, broken)
    # a TP2 cell's run one cell into the next row
    monkeypatch.setattr(PatternSpec, "runs", mutant(patterns, "PatternSpec.runs",
                                                    "self.cols - c", "self.cols - c + 1"))
    assert required_mismatches(required_consistent, required_inconsistent)


def test_required_k_chains_walk_no_longer_chains(monkeypatch):
    walked = []

    def recording_walk(runs, chains=False, most=None):
        for mask in subtree_walk(runs, chains, most):
            walked.append(mask)
            yield mask
    monkeypatch.setattr(patterns, "subtree_walk", recording_walk)
    for p, k, count in [(make_pattern(ATP, depth=10), 2, 8194),
                        (make_pattern(KATP, depth=10, k=3), 3, 29692)]:
        walked.clear()
        assert len(list(required_inconsistent(p))) == count
        assert max(m.bit_count() for m in walked) == k


def test_stream_matches_the_seen_set_stream():
    new = list(itertools.islice(finite_antichain_stream(), 676))
    assert new == list(itertools.islice(reference_antichain_stream(), 676))
    # the first new antichain of depth 5, read without listing the others
    assert next(itertools.islice(finite_antichain_stream(), 676, None)) == \
        frozenset({(0,), (1, 0), (1, 1, 0), (1, 1, 1, 0)})


def test_scanner_table_is_exact_family_membership():
    for p in VERIFY_SPECS:
        labels = p.index_labels()
        family = exact_family(p)
        free = forbidden_free_table(labels, listed(p, required_inconsistent(p)))
        assert len(free) == 1 << len(labels)
        for mask in range(1, len(free)):
            assert free[mask] == contains(family, mask_set(labels, mask)), (p, mask)


# --- type forms against byte-packed relation tables ---

def same_partition(keys_a, keys_b):
    """Whether a[i] == a[j] exactly when b[i] == b[j], for every pair i, j:
    the pairs (a[i], b[i]) then make a bijection between the two key sets."""
    pairs = set(zip(keys_a, keys_b))
    return len(set(keys_a)) == len(set(keys_b)) == len(pairs)


SS_LL_CASES = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4),
               (3, 1, 2), (3, 1, 3), (2, 3, 2), (2, 3, 3)]


def _leaf_tuples(branching, leaf_depth, tuple_len):
    leaves = TreeDomain(branching, leaf_depth).level(leaf_depth)
    return list(itertools.permutations(leaves, tuple_len))


def test_forms_match_bytes_on_ss_ll_tuples():
    for case in SS_LL_CASES:
        tuples = _leaf_tuples(*case)
        for form, reference in [(qftypes.qftype0, reference_qftype0),
                                (qftypes.delta_type, reference_delta),
                                (qftypes.atomic_pattern, reference_atomic)]:
            assert same_partition([form(t) for t in tuples],
                                  [reference(t) for t in tuples]), (case, form)
        # the closure side of the lemma: sim0 of closure tuples is sim0 of tuples
        assert same_partition([qftypes.qftype0(t) for t in tuples],
                              [reference_qftype0(closure(t)) for t in tuples]), case


node_tuples = st.integers(1, 4).flatmap(lambda n: st.tuples(
    *[st.lists(st.integers(0, 2), max_size=4).map(tuple)] * n))


@settings(max_examples=300, deadline=None)
@given(node_tuples, st.data())
def test_forms_match_bytes_on_random_tuples(t1, data):
    # same-length pairs, with comparable and repeated nodes; the second tuple
    # is often a relabelling of the first, so equal types are common
    digits = data.draw(st.permutations([0, 1, 2]))
    relabelled = tuple(tuple(digits[d] for d in x) for x in t1)
    t2 = data.draw(st.sampled_from([relabelled, t1[::-1]]) | node_tuples.filter(
        lambda t: len(t) == len(t1)))
    assert qftypes.sim0(t1, t2) == (reference_qftype0(t1) == reference_qftype0(t2))
    assert qftypes.sim_delta(t1, t2) == (reference_delta(t1) == reference_delta(t2))
    assert qftypes.sim0_atomic(t1, t2) == (reference_atomic(t1) == reference_atomic(t2))


def test_ss_ll_reads_both_forms_from_one_closure():
    # the closure side is the closure tuple's own order type, not qftype0
    for case in SS_LL_CASES:
        for t in _leaf_tuples(*case):
            assert qftypes._forms(t) == (qftypes.delta_type(t), reference_closure_form(t)), t


def test_grouped_ss_ll_matches_pairwise():
    for case in SS_LL_CASES + [(3, 2, 2)]:
        report = qftypes.verify_ss_ll(*case)
        passed, tuple_count, counterexample = reference_ss_ll(*case)
        assert (report.passed, report.tuple_count, report.counterexample) == \
            (passed, tuple_count, counterexample), case
        assert report.pair_count == tuple_count ** 2


def test_ss_ll_at_length_five_matches_grouped_reference():
    # all 6,720 tuples of 5 of the 8 leaves, grouped by reference forms: the
    # lemma holds when delta forms and closure types make the same partition.
    # The closure type is the closure tuple's atomic table, since sim0 of a
    # closure tuple (its own closure's 625 points per tuple, about 0.1 s
    # each) partitions as that table does, checked on SS_LL_CASES
    for case in SS_LL_CASES:
        tuples = _leaf_tuples(*case)
        assert same_partition([reference_atomic(closure(t)) for t in tuples],
                              [reference_qftype0(closure(t)) for t in tuples]), case
    tuples = _leaf_tuples(2, 3, 5)
    assert len(tuples) == 6720
    passed = same_partition([reference_delta(t) for t in tuples],
                            [reference_atomic(closure(t)) for t in tuples])
    assert qftypes.verify_ss_ll(2, 3, 5) == qftypes.SsLlReport(passed, 6720, 6720 ** 2, None)
    assert passed


def _permuted_forms(forms, p):
    """The forms of t.p, where (t.p)[i] = t[p[i]], rebuilt from t's forms
    alone: closure entry (i, j) of t.p is t's entry (p[i], p[j]), over the
    same distinct values, so the closure ranks move and the rows stay; the
    delta classes move too, are numbered again by first occurrence, and
    their prefix rows follow them; the entries' lex ranks, if any, move."""
    (classes, moved, *lex), (ranks, rows) = forms
    k = len(p)
    at = [p[i] * k + p[j] for i in range(k) for j in range(k)]
    old = [classes[a] for a in at]
    new = {c: i for i, c in enumerate(dict.fromkeys(old))}
    new_moved = [0] * len(moved)
    for c, row in enumerate(moved):
        new_moved[new[c]] = sum(1 << new[d] for d in range(len(moved)) if row >> d & 1)
    return ((tuple(map(new.__getitem__, old)), tuple(new_moved),
             *(tuple(ranks_[i] for i in p) for ranks_ in lex)),
            (tuple(ranks[a] for a in at), rows))


def ss_ll_symmetry_breaks(forms, case):
    """The (t, p), t an increasing leaf tuple and p a permutation of its
    positions, where forms(t.p) is not p acting on forms(t), or where the
    entries' lex ranks in either form of t.p are not p: the two facts that
    let verify_ss_ll check the increasing tuples alone."""
    branching, leaf_depth, k = case
    breaks = []
    for t in itertools.combinations(TreeDomain(branching, leaf_depth).level(leaf_depth), k):
        forms_t = forms(t)
        for p in itertools.permutations(range(k)):
            delta, (ranks, rows) = moved = forms(tuple(t[i] for i in p))
            diagonal = ranks[::k + 1]
            if (moved != _permuted_forms(forms_t, p) or delta[2:] != (p,)
                    or tuple(map(sorted(diagonal).index, diagonal)) != p):
                breaks.append((t, p))
    return breaks


def test_forms_move_with_the_positions_of_increasing_tuples():
    for case in SS_LL_CASES:
        assert ss_ll_symmetry_breaks(qftypes._forms, case) == [], case


def _assert_real_counterexample(report, delta, closure_type, case):
    assert not report.passed
    t1, t2, same_delta, same_closure = report.counterexample
    assert same_delta == (delta(t1) == delta(t2))
    assert same_closure == (closure_type(t1) == closure_type(t2))
    assert same_delta != same_closure
    assert not reference_ss_ll(*case, delta=delta, closure_type=closure_type)[0]


def closure_form(t):
    return qftypes._order_type(closure(t))


def test_broken_forms_give_real_counterexamples(monkeypatch):
    delta_type = qftypes.delta_type
    # verify_ss_ll reads both forms of a tuple from one closure, in _forms
    with monkeypatch.context() as patch:
        # forgetting the lex ranks merges (a, b) with (b, a): same delta, new
        # closure. Every increasing tuple has the same lex ranks, so the check
        # over them is blind to it; the forms no longer read p back, which the
        # symmetry check catches
        delta = lambda t: delta_type(t)[:2]
        patch.setattr(qftypes, "_forms", lambda t: (delta(t), closure_form(t)))
        for case in [(2, 2, 2), (2, 3, 3)]:
            assert qftypes.verify_ss_ll(*case).passed
            assert ss_ll_symmetry_breaks(qftypes._forms, case)
            assert not reference_ss_ll(*case, delta=delta, closure_type=closure_form)[0]
    breaks = [
        # splitting by the first entry: same closure type, new delta
        (lambda t: (delta_type(t), t[0]), closure_form),
        (delta_type, lambda t: (closure_form(t), t[-1])),
    ]
    for delta, closure_type in breaks:
        monkeypatch.setattr(qftypes, "_forms", lambda t: (delta(t), closure_type(t)))
        for case in [(2, 2, 2), (2, 3, 3)]:
            report = qftypes.verify_ss_ll(*case)
            _assert_real_counterexample(report, delta, closure_type, case)
            assert all(t == tuple(sorted(t)) for t in report.counterexample[:2])


# --- run-length forms and the pruned iso search against the quadratic
# prefix matrix and the combination scan ---

def _random_antichain(domain, rng, size):
    """Up to `size` nodes of the domain, taken in a random order when
    incomparable with every node taken before."""
    nodes = list(domain.nodes())
    rng.shuffle(nodes)
    out = []
    for x in nodes:
        if len(out) < size and all(incomparable(x, y) for y in out):
            out.append(x)
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def iso_cases():
    """(y, x, the combination scan's mapping): the first m stream antichains
    into universal_prefix(m) for m in 5, 12 and 20, and random antichains
    into random antichains and into random node sets, comparable nodes
    included, of TreeDomain(2, 5) and TreeDomain(3, 3)."""
    pairs = []
    for m in (5, 12, 20):
        host = universal_prefix(m)
        pairs += [(y, host) for y in itertools.islice(finite_antichain_stream(), m)]
    rng = random.Random(7)
    for domain in (TreeDomain(2, 5), TreeDomain(3, 3)):
        for _ in range(60):
            host = _random_antichain(domain, rng, rng.randint(1, 10))
            pairs.append((_random_antichain(domain, rng, rng.randint(1, 4)), host))
    for domain in (TreeDomain(2, 5), TreeDomain(3, 3)):
        nodes = list(domain.nodes())
        for _ in range(60):
            host = frozenset(rng.sample(nodes, rng.randint(1, 12)))
            pairs.append((_random_antichain(domain, rng, rng.randint(1, 4)), host))
    return tuple((y, x, reference_find_iso_copy(y, x)) for y, x in pairs)


def iso_mismatches(find):
    return [(y, x) for y, x, expected in iso_cases() if find(y, x) != expected]


def test_iso_search_matches_the_combination_scan():
    cases = iso_cases()
    assert iso_mismatches(find_iso_copy) == []
    found = [expected is not None for _, _, expected in cases]
    assert all(found[:5 + 12 + 20])  # the universal antichains hold every copy
    assert 10 < found.count(False) and 40 < found.count(True)
    assert any(not is_antichain(x) and expected is not None for _, x, expected in cases)
    with pytest.raises(ValueError, match="empty"):
        find_iso_copy(frozenset(), universal_prefix(3))
    for y in [{(0,), (0, 1)}, {(1,), (0,), (0, 0, 1)}, {(), (2,)}]:
        with pytest.raises(ValueError, match="not an antichain"):
            find_iso_copy(frozenset(y), universal_prefix(3))


def test_shapes_partition_antichains_as_closure_types():
    # among the antichains of each size, equal shapes are equal qftype0s:
    # the first 300 stream antichains, every scaffold family for m <= 4 and,
    # since no binary meet joins a third child, every ternary antichain of
    # depth 3
    sets = list(itertools.islice(finite_antichain_stream(), 300))
    sets += [x for m in range(1, 5) for x in build_onevar_scaffold(m, {(0,)}).families]
    sets += enumerate_antichains(TreeDomain(3, 3)).items
    by_size = {}
    for x in map(sorted_nodes, sets):
        by_size.setdefault(len(x), []).append(x)
    assert sorted(by_size) == list(range(1, 10))
    for xs in by_size.values():
        assert same_partition([_shape(x) for x in xs], [qftypes.qftype0(x) for x in xs])
    assert len({_shape(x) for x in by_size[3]}) == 3


def test_shape_refuses_exactly_the_node_sets_that_are_not_antichains():
    rng = random.Random(28)
    refused = []
    for domain in (TreeDomain(2, 5), TreeDomain(3, 3)):
        nodes = list(domain.nodes())
        for _ in range(400):
            x = sorted_nodes(rng.sample(nodes, rng.randint(1, 6)))
            try:
                _shape(x)
            except ValueError:
                refused.append(True)
            else:
                refused.append(False)
            assert refused[-1] == (not is_antichain(x)), x
    assert 100 < refused.count(True) and 100 < refused.count(False)


def _form_values(tuples):
    return [(qftypes.qftype0(t), qftypes.atomic_pattern(t), qftypes.delta_type(t),
             qftypes._forms(t)[1]) for t in tuples]


def _reference_form_values(tuples):
    return [(reference_qftype0_form(t), reference_atomic_form(t), reference_delta_form(t),
             reference_closure_form(t)) for t in tuples]


FORM_TUPLES = [t for case in [(2, 2, 3), (3, 1, 3), (2, 3, 2)] for t in _leaf_tuples(*case)] + [
    ((), (0,), (0, 1), (0,)), ((1, 0), (0,), (1, 0), (), (1,)), ((0, 0, 1), (0, 1), (0,))]


def test_run_length_forms_equal_the_quadratic_forms():
    assert _form_values(FORM_TUPLES) == _reference_form_values(FORM_TUPLES)


@settings(max_examples=300, deadline=None)
@given(node_tuples)
def test_run_length_forms_equal_the_quadratic_forms_on_random_tuples(t):
    assert _form_values([t]) == _reference_form_values([t])


def mutant(module, name, old, new):
    """A copy of module.name, or of a method "Class.method", with one change
    to its source, defined in a copy of the module's namespace, so the module
    itself is untouched."""
    source = textwrap.dedent(inspect.getsource(functools.reduce(getattr, name.split("."), module)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name.split(".")[-1]]


def test_broken_iso_searches_fail_the_gate(monkeypatch):
    shape_breaks = [
        # a meet popping an equal length off the stack instead of joining it
        ("stack[-1 - popped] > length:\n", "stack[-1 - popped] >= length:\n"),
        # a meet never joining an equal length, so a third child reads as a push
        ("popped, popped < len(stack) and stack[-1 - popped] == length", "popped, False"),
    ]
    for old, new in shape_breaks:
        with monkeypatch.context() as patch:
            patch.setattr(antichains, "_shape_step", mutant(antichains, "_shape_step", old, new))
            assert iso_mismatches(find_iso_copy), new
    search_breaks = [
        # a candidate kept when the last chosen host is its prefix
        ("if length < len(last):", "if True:"),
        # never trying the last host node that still leaves room for the rest
        ("start <= n - k + j", "start < n - k + j"),
    ]
    for old, new in search_breaks:
        assert iso_mismatches(mutant(antichains, "find_iso_copy", old, new)), new


def _deep_tuples():
    """Every permutation of up to 3 of the level-4 scaffold's embedding images
    (17 to 36 digits deep) and the closure tuple of every ordered pair, each
    also with its nodes copied, so that equal nodes are distinct objects."""
    images = sorted(build_onevar_scaffold(4, {(0,)}).embedding.values())
    tuples = [t for r in (1, 2, 3) for t in itertools.permutations(images, r)]
    tuples += [closure(t) for t in itertools.permutations(images, 2)]
    return tuples + [tuple(tuple(list(x)) for x in t) for t in tuples]


def test_run_length_forms_equal_the_quadratic_forms_on_deep_nodes():
    tuples = _deep_tuples()
    assert max(len(x) for t in tuples for x in t) == 36
    assert _form_values(tuples) == _reference_form_values(tuples)


class UnhashableNode(tuple):
    __hash__ = None


def test_forms_hash_no_node():
    wrapped = [tuple(map(UnhashableNode, t)) for t in FORM_TUPLES]
    with pytest.raises(TypeError):
        hash(wrapped[0][0])
    assert _form_values(wrapped) == _reference_form_values(FORM_TUPLES)
    # the walks behind sim0, sim0_atomic and sim0_sets hash none either
    pairs = list(itertools.product(range(0, len(FORM_TUPLES), 3), repeat=2))
    for name, sim, form in [("sim0", qftypes.sim0, reference_qftype0_form),
                            ("sim0_atomic", qftypes.sim0_atomic, reference_atomic_form),
                            ("sim0_sets", qftypes.sim0_sets,
                             lambda t: reference_qftype0_form(sorted(t)))]:
        got = [sim(wrapped[i], wrapped[j]) for i, j in pairs]
        expected = [form(FORM_TUPLES[i]) == form(FORM_TUPLES[j]) for i, j in pairs]
        assert got == expected, name
        assert 30 < got.count(True) < len(pairs) - 30, name


def test_broken_run_length_forms_fail_the_gate(monkeypatch):
    breaks = [
        # a run that goes on past the first value that does not extend it,
        # while the first digit agrees
        ("_order_type", "if b[:len(a)] == a:", "if b[:1] == a[:1]:"),
        # the runs still open at the end stopping one value short
        ("_order_type", "(1 << len(values)) - (1 << i)", "(1 << len(values) - 1) - (1 << i)"),
        # duplicates dropped by comparing with the first distinct value, not the last
        ("_order_type", "b != values[-1]", "b != values[0]"),
        # delta rows left in sorted order instead of moved to the meet classes
        ("_delta_form", "moved[classes[i]] =", "moved[i] ="),
        # the entries' lex ranks taken raw from the closure ranks, not made dense
        ("_delta_form", "tuple(map(dense.__getitem__, diagonal))", "diagonal"),
    ]
    for name, old, new in breaks:
        with monkeypatch.context() as patch:
            patch.setattr(qftypes, name, mutant(qftypes, name, old, new))
            assert _form_values(FORM_TUPLES) != _reference_form_values(FORM_TUPLES), new


# --- qftype0's 2k - 1 points against the closure's k^2 ---

@functools.lru_cache(maxsize=None)
def qftype0_gate_cases():
    """Named groups of tuples for the qftype0 gate, each with the closure's
    relation bytes and the quadratic 2k - 1-point forms of its tuples: every
    SS_LL_CASES tuple, the deep tuples, the 26 level-4 scaffold families
    sorted and reversed, and FORM_TUPLES, with comparable and repeated nodes."""
    families = [sorted_nodes(x) for x in build_onevar_scaffold(4, {(0,)}).families]
    assert len(families) == 26
    groups = [(case, _leaf_tuples(*case)) for case in SS_LL_CASES]
    groups += [("deep", _deep_tuples()), ("scaffold 4", families + [x[::-1] for x in families]),
               ("form tuples", FORM_TUPLES)]
    return tuple((name, tuples, [reference_qftype0(t) for t in tuples],
                  [reference_qftype0_form(t) for t in tuples]) for name, tuples in groups)


def qftype0_gate_failures(qftype0):
    """The groups where qftype0 splits the tuples into other classes than
    the closure's relation bytes, or differs by value from the quadratic
    reference of the 2k - 1-point form."""
    failures = []
    for name, tuples, relation_bytes, reference_forms in qftype0_gate_cases():
        forms = [qftype0(t) for t in tuples]
        if not same_partition(forms, relation_bytes):
            failures.append((name, "classes"))
        if forms != reference_forms:
            failures.append((name, "values"))
    return failures


def test_qftype0_classes_are_the_closure_classes():
    assert qftype0_gate_failures(qftypes.qftype0) == []


def test_broken_qftype0_fails_the_gate(monkeypatch):
    breaks = [
        # adjacent meets of the tuple as given, not of its lex-sorted entries
        ("s = sorted(t)", "s = t"),
        # the last adjacent meet dropped
        ("s[1:]", "s[1:-1]"),
        # the meets deduplicated through a set, so their order follows hashes
        ("tuple(map(meet, s, s[1:]))", "tuple(set(map(meet, s, s[1:])))"),
        # repeated entries deduplicated through a set before the meets
        ("sorted(t)", "sorted(set(t))"),
    ]
    for old, new in breaks:
        with monkeypatch.context() as patch:
            patch.setattr(qftypes, "_points", mutant(qftypes, "_points", old, new))
            assert qftype0_gate_failures(qftypes.qftype0), new


# --- sim0 and sim0_atomic, one walk over both tuples, against form equality ---

def _prefixed(t, digits=(1, 0)):
    """t with `digits` prefixed to every entry: each prefix, lex and meet
    relation is kept, so every form of t is kept."""
    return tuple(digits + x for x in t)


def _near_misses(t):
    """t paired with its prefixed copy, and with each copy of t whose entry i
    is another entry, that entry one digit longer or one digit shorter: such
    pairs agree up to one entry, so the walk runs far before it can tell."""
    pairs = [(t, _prefixed(t))]
    for i, x in enumerate(t):
        for y in dict.fromkeys((*t, x + (0,), x + (2,), x[:-1])):
            if y != x:
                pairs.append((t, t[:i] + (y,) + t[i + 1:]))
    return pairs


def _scaffold_pairs():
    """Each tuple of `_deep_tuples()` whose entries are level-4 scaffold
    embedding images, paired with its preimage, and each closure tuple there
    with the closure of the preimage pair on its diagonal; the embedding
    keeps closure types of pairs, but not always of triples."""
    back = {v: k for k, v in build_onevar_scaffold(4, {(0,)}).embedding.items()}
    pairs = []
    for t in _deep_tuples():
        if all(x in back for x in t):
            pairs.append((tuple(back[x] for x in t), t))
        else:
            pairs.append((closure((back[t[0]], back[t[-1]])), t))
    return pairs


@functools.lru_cache(maxsize=None)
def sim0_walk_cases():
    """Named groups of tuple pairs for the walk gate, each with the reference
    verdicts (sim0, sim0_atomic, one order type) of every pair, read as
    equality of the quadratic forms: every ordered pair of FORM_TUPLES,
    lengths unequal included; near misses of FORM_TUPLES, also as lists and
    with the nodes of one side copied; and the scaffold pairs."""
    near = [pair for t in FORM_TUPLES for pair in _near_misses(t)]
    groups = [("form tuples", list(itertools.product(FORM_TUPLES, repeat=2))),
              ("near misses", near),
              ("near misses as lists", [(list(a), list(b)) for a, b in near]),
              ("copied nodes", [(a, tuple(tuple(list(x)) for x in a)) for a, _ in near[::6]]
               + [(a, tuple(tuple(list(x)) for x in b)) for a, b in near[1::6]]),
              ("scaffold", _scaffold_pairs())]
    forms = [reference_qftype0_form, reference_atomic_form, reference_order_type]
    return tuple((name, pairs, [tuple(f(a) == f(b) for f in forms) for a, b in pairs])
                 for name, pairs in groups)


def sim0_walk_failures():
    """The groups where sim0, sim0_atomic or `_same_order_type`, each read
    from qftypes at the call, differs from the reference verdicts."""
    return [name for name, pairs, expected in sim0_walk_cases()
            if [(qftypes.sim0(a, b), qftypes.sim0_atomic(a, b), qftypes._same_order_type(a, b))
                for a, b in pairs] != expected]


def test_sim0_walks_agree_with_form_equality():
    assert sim0_walk_failures() == []
    for name, pairs, expected in sim0_walk_cases():
        equal = [sum(verdicts[column] for verdicts in expected) for column in range(3)]
        if name == "scaffold":  # the embedding keeps every atomic pattern
            assert 0 < equal[0] < len(pairs) == equal[1] == equal[2]
        else:
            assert all(0 < n < len(pairs) for n in equal), name
    lengths = {(len(a), len(b)) for a, b in sim0_walk_cases()[0][1]}
    assert any(m != n for m, n in lengths)


@settings(max_examples=300, deadline=None)
@given(node_tuples, st.data())
def test_sim0_walks_agree_with_form_equality_on_random_pairs(t1, data):
    # half the pairs are t1 and a prefixed copy, so the forms are equal and
    # the walk runs to the end; the rest change one entry or draw afresh, at
    # any length
    kind = data.draw(st.integers(0, 3))
    if kind < 2:
        t2 = _prefixed(t1, data.draw(st.lists(st.integers(0, 2), max_size=3).map(tuple)))
    elif kind == 2:
        i = data.draw(st.integers(0, len(t1) - 1))
        t2 = t1[:i] + data.draw(node_tuples)[:1] + t1[i + 1:]
    else:
        t2 = data.draw(node_tuples)
    if data.draw(st.booleans()):
        t1, t2 = list(t1), list(t2)
    for sim, form in [(qftypes.sim0, reference_qftype0_form),
                      (qftypes.sim0_atomic, reference_atomic_form),
                      (qftypes._same_order_type, reference_order_type)]:
        assert sim(t1, t2) == (form(t1) == form(t2)), sim


def test_broken_sim0_walks_fail_the_gate(monkeypatch):
    breaks = [
        # t2 left free where t1 repeats a value
        ("if b2 != s2[-1]:", "if False:"),
        # t2 allowed to repeat where t1 rises
        ("not b2 > s2[-1]", "not b2 >= s2[-1]"),
        # a pop decided by t1 alone
        ("if below != (b2[:len(s2[-1])] == s2[-1]):", "if False:"),
        # s2 not popped in step with s1
        ("s2.pop()", "pass"),
    ]
    for old, new in breaks:
        with monkeypatch.context() as patch:
            patch.setattr(qftypes, "_same_order_type",
                          mutant(qftypes, "_same_order_type", old, new))
            assert sim0_walk_failures(), new


# --- the first-order oracle's cached universe masks against fresh evaluation ---

def _all_subsets(labels):
    return [[x for i, x in enumerate(labels) if mask >> i & 1]
            for mask in range(1 << len(labels))]


def criterion_8_fo_oracles(count):
    """The first-order oracles of acceptance criterion 8's random families,
    drawn in the same order from the same seed."""
    rng = random.Random(20240817)
    structure = divisor_structure(210)
    formula = parse_formula("x != 1 & divides(x, y)")
    divisors = [d for d in structure.universe if d > 1]
    for _ in range(count):
        labels = tuple(range(rng.randint(3, 6)))
        for _ in range(rng.randint(1, 5)):  # the family's members
            rng.sample(labels, rng.randint(1, len(labels)))
        fo_params = {l: (rng.choice(divisors),) for l in labels}
        big = rng.sample(labels, rng.randint(1, len(labels)))
        rng.sample(big, rng.randint(0, len(big)))
        yield FoOracle(structure, formula, Witness(STRUCTURE, labels, fo_params))


def _divisor_2310_oracle():
    """The exists-z formula over divisors(2310) with the ATP d3 skolem
    parameters, every one of them a divisor of 2310."""
    w = synth_skolem(exact_family(make_pattern(ATP, depth=3)))
    witness = Witness(STRUCTURE, w.labels, {k: (v,) for k, v in w.params.items()})
    formula = parse_formula("exists z. (z != 1 & divides(z, x) & divides(x, y))")
    return FoOracle(divisor_structure(2310), formula, witness)


def test_fo_memo_matches_fresh_evaluation():
    oracles = [*criterion_8_fo_oracles(400), _divisor_2310_oracle()]
    for oracle in oracles:
        subsets = _all_subsets(oracle.witness.labels)
        assert ([oracle.consistent(s) for s in subsets]
                == [reference_fo_consistent(oracle, s) for s in subsets])


def test_fo_memo_evaluates_each_pair_once(monkeypatch):
    calls = []

    def counting(structure, formula, assignment):
        calls.append(assignment)
        return eval_formula(structure, formula, assignment)
    monkeypatch.setattr(formulas, "eval_formula", counting)
    for oracle in [*criterion_8_fo_oracles(40), _divisor_2310_oracle()]:
        calls.clear()
        for _ in range(2):
            for s in _all_subsets(oracle.witness.labels):
                oracle.consistent(s)
        distinct = len(set(oracle.witness.params.values()))
        assert 0 < len(calls) <= len(oracle.structure.universe) * distinct
        assert len({tuple(sorted(a.items())) for a in calls}) == len(calls)
    p = make_pattern(ATP, depth=3)
    oracle = _divisor_2310_oracle()
    calls.clear()
    assert verify(oracle, oracle.witness, p, exhaustive=True).passed
    assert len(calls) <= 32 * 7


def test_fo_memo_raises_on_the_same_calls():
    """phi(3, y) needs an undefined relation whenever 3 divides y, so the
    masks of a and b raise and none is cached: consistent() raises on the
    same calls as the masks of its labels, each time, and elsewhere agrees
    with the search, which raises only where it reaches x = 3."""
    structure = divisor_structure(6)
    formula = parse_formula("x != 1 & divides(x, y) & (x != 3 | bogus(x))")
    params = {"a": (6,), "b": (3,), "c": (2,), "d": (1,)}
    oracle = FoOracle(structure, formula, Witness(STRUCTURE, tuple(params), params))
    sequence = [["c"], ["a"], ["b"], ["a", "c"], ["a", "b"], ["b"], ["d"], ["b", "d"], []]

    def outcomes(consistent):
        out = []
        for labels in sequence:
            try:
                out.append(consistent(labels))
            except FormulaError:
                out.append("FormulaError")
        return out
    searched = outcomes(lambda labels: reference_fo_consistent(oracle, labels))
    assert searched.count("FormulaError") == 4
    expected = ["FormulaError" if {"a", "b"} & set(labels) else verdict
                for labels, verdict in zip(sequence, searched)]
    assert expected.count("FormulaError") == 6
    assert outcomes(oracle.consistent) == expected


def test_fo_exhaustive_verify_reads_every_mask():
    """Both verify modes read the root's universe mask, and phi raises for
    x = 3 against its parameter 6, so both raise."""
    structure = divisor_structure(6)
    formula = parse_formula("x != 1 & divides(x, y) & (x != 3 | bogus(x))")
    witness = Witness(STRUCTURE, ((),), {(): (6,)})
    oracle = FoOracle(structure, formula, witness)
    p = make_pattern(ATP, depth=1)
    for exhaustive in (False, True):
        with pytest.raises(FormulaError):
            verify(oracle, witness, p, exhaustive=exhaustive)


def test_fo_verify_raises_in_both_modes():
    """The root's parameter 6 makes phi raise at x = 3, though x = 2 divides
    every parameter: the tables raise where they read the root's mask, and
    pattern verify raises at the first required set, the root."""
    structure = divisor_structure(6)
    formula = parse_formula("x != 1 & divides(x, y) & (x != 3 | bogus(x))")
    p = make_pattern(ATP, depth=2)
    params = dict(zip(p.index_labels(), [(6,), (2,), (2,)]))
    witness = Witness(STRUCTURE, tuple(params), params)
    oracle = FoOracle(structure, formula, witness)
    for exhaustive in (True, False):
        with pytest.raises(FormulaError):
            verify(oracle, witness, p, exhaustive=exhaustive)
    assert oracle.consistent([(0,), (1,)])
