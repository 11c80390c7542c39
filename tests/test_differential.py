"""Differential tests of the fast paths against plain references: the
column-mask consistency family against the pairwise O(m^2) maximality
filter, the forbidden-set subset scan against a direct enumeration of all
2^n subsets, the mask recursion for maximal k-chain-free sets against the
frozenset recursions and the k-chain scan it replaced, and the canonical type
forms and the grouped ss-ll check against byte-packed relation tables
compared pair by pair."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprop import (ConsistencyFamily, FoOracle, FormulaError,
                      ResourceCapError, TreeDomain, VerificationReport,
                      Witness, alpha, divisor_structure, enumerate_antichains,
                      eval_formula, exact_family, make_pattern,
                      maximal_antichains, oracle_for, parse_formula,
                      required_consistent, required_inconsistent,
                      synth_boolean, synth_skolem, verify)
from treeprop import oracles, qftypes
from treeprop.antichains import (DEFAULT_SUBSET_CAP, _check_subset_cap,
                                 canonical_sets, chain_free_count, chains,
                                 forbidden_free_table, mask_set,
                                 maximal_chain_free_binary,
                                 maximal_chain_free_masks, maximal_free_masks,
                                 set_key)
from treeprop.nodes import closure, concat_set, is_chain, is_prefix, meet
from treeprop.oracles import SKOLEM, STRUCTURE
from treeprop.patterns import ATP, KATP, SOP1, SOP2, TP, TP2
from treeprop.synth import nth_prime


def reference_from_members(labels, members):
    """Maximal members by comparing every pair of frozensets, deduplicated
    in canonical order."""
    members = [frozenset(m) for m in members if m]
    if any(not m <= set(labels) for m in members):
        raise ValueError("members must be subsets of the index set")
    maximal = [m for m in members if not any(m < other for other in members)]
    seen, unique = set(), []
    for m in sorted(maximal, key=set_key):
        if m not in seen:
            seen.add(m)
            unique.append(m)
    return tuple(unique)


def max_chain_bounded_sets(domain, k, cap=DEFAULT_SUBSET_CAP):
    """All maximal subsets containing no k pairwise comparable elements, by
    the subset scan over every k-chain, in canonical order; for k=2 these are
    the maximal antichains (the brute-force reference of criterion 1)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    _check_subset_cap(domain.node_count(), cap)
    nodes = list(domain.nodes())
    k_chains = (c for c in chains(domain) if len(c) == k)
    maximal = maximal_free_masks(forbidden_free_table(nodes, k_chains, cap))
    return canonical_sets(mask_set(nodes, m) for m in maximal)


def reference_maximal_antichains(n):
    """The frozenset recursion for maximal antichains: products of the
    0-/1-prefixed depth-(n-1) catalogs row-major, then {root} last."""
    items = []
    for _ in range(n):
        items = [concat_set((0,), xi) | concat_set((1,), xj)
                 for xi in items for xj in items] + [frozenset({()})]
    return items


def _has_chain(members, length):
    """Whether the set contains `length` pairwise comparable distinct nodes."""
    if length <= 0:
        return True
    return any(sum(1 for l in range(len(x) + 1) if x[:l] in members) >= length
               for x in members)


def reference_chain_free_binary(n, k):
    """The frozenset recursion for maximal k-chain-free sets: with the root,
    two maximal (k-1)-chain-free parts; without it, two maximal k-chain-free
    parts whose union holds a (k-1)-chain; sorted into canonical order."""
    cache = {}

    def rec(depth, bound):
        if depth == 0 or bound == 1:
            return [frozenset()]
        if (depth, bound) not in cache:
            with_root = rec(depth - 1, bound - 1)
            without_root = rec(depth - 1, bound)
            out = [frozenset({()}) | concat_set((0,), a) | concat_set((1,), b)
                   for a in with_root for b in with_root]
            for a in without_root:
                for b in without_root:
                    s = concat_set((0,), a) | concat_set((1,), b)
                    if _has_chain(s, bound - 1):
                        out.append(s)
            cache[depth, bound] = out
        return cache[depth, bound]

    return canonical_sets(rec(n, k))


def reference_family(labels, members):
    """The former `from_members` path: sort the distinct members canonically,
    grow each label's column one bit per member, and keep the members whose
    columns AND to their own bit. Returns (maximal members, columns)."""
    unique = sorted({frozenset(m) for m in members if m}, key=set_key)

    def columns_of(sets):
        columns = {label: 0 for label in labels}
        for n, member in enumerate(sets):
            for x in member:
                columns[x] |= 1 << n
        return columns

    def containing(columns, subset):
        acc = -1
        for x in subset:
            acc &= columns[x]
        return acc

    columns = columns_of(unique)
    maximal = tuple(m for n, m in enumerate(unique) if containing(columns, m) == 1 << n)
    return maximal, columns_of(maximal)


def reference_members(p):
    """The members the former `exact_family` passed to `from_members`."""
    if p.kind == ATP:
        return reference_maximal_antichains(p.depth)
    if p.kind == KATP:
        return reference_chain_free_binary(p.depth, p.k)
    if p.kind == SOP2:
        domain = p.domain()
        return [frozenset(leaf[:l] for l in range(len(leaf) + 1))
                for leaf in domain.level(domain.max_length())]
    if p.kind == TP2:
        return [frozenset(enumerate(cols))
                for cols in itertools.product(range(p.cols), repeat=p.rows)]
    _, maximal = reference_free_sets(p.index_labels(), required_inconsistent(p))
    return maximal


def reference_free_sets(labels, forbidden):
    """Every subset of the labels containing no forbidden set, by listing all
    2^n subsets, and the maximal ones: those no single label extends."""
    forbidden = [frozenset(f) for f in forbidden]
    free = [
        s
        for r in range(len(labels) + 1)
        for s in map(frozenset, itertools.combinations(labels, r))
        if not any(f <= s for f in forbidden)
    ]
    free_set = set(free)
    maximal = [s for s in free
               if not any(s | {x} in free_set for x in labels if x not in s)]
    return free, maximal


def reference_boolean_params(family):
    """The boolean witness built member by member: bit n for member n."""
    params = {label: 0 for label in family.labels}
    for n, member in enumerate(family.maximal):
        for label in member:
            params[label] |= 1 << n
    return params


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
                assert family.contains(subset) == inside
        assert synth_boolean(family).params == reference_boolean_params(family)


def test_column_family_rejects_bad_members():
    labels = ("a", "b", "c")
    a, ab = frozenset("a"), frozenset("ab")
    for maximal in [(a, a), (ab, a), (a, ab), (frozenset("z"),),
                    (frozenset("az"),), (frozenset(),)]:
        with pytest.raises(ValueError):
            ConsistencyFamily(labels, maximal)
    for members in [[{"z"}], [{"a"}, {"a", "z"}], [{"a", "b"}, {"c", "z"}]]:
        with pytest.raises(ValueError):
            reference_from_members(labels, members)
        with pytest.raises(ValueError):
            ConsistencyFamily.from_members(labels, members)
    # duplicates and nested members are filtered, not rejected
    family = ConsistencyFamily.from_members(labels, [a, ab, ab, {"c"}, a])
    assert family.maximal == reference_from_members(labels, [a, ab, ab, {"c"}, a])
    assert not family.contains({"z"}) and not family.contains(())


def test_scanner_matches_plain_scan_on_patterns():
    specs = [make_pattern(SOP1, depth=d) for d in range(1, 5)] + [
        make_pattern(TP, branching=3, depth=3, k=k) for k in (2, 3)
    ]
    for p in specs:
        _, maximal = reference_free_sets(p.index_labels(), required_inconsistent(p))
        assert exact_family(p).maximal == tuple(canonical_sets(maximal)), p


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
            masks = maximal_chain_free_masks(n, k)
            assert [mask_set(nodes, m) for m in masks] == expected
            assert chain_free_count(n, k, DEFAULT_SUBSET_CAP) == len(masks)
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
        assert family.columns == rebuilt.columns == columns, p
        assert family.masks == rebuilt.masks, p
        # what the unchecked path builds passes the checked constructor
        assert ConsistencyFamily(labels, family.maximal) == family


def test_chain_free_count_is_exact():
    for n in range(7):
        for k in range(1, 9):
            if (n, k) not in {(6, 3), (6, 4), (6, 5)}:  # these three pass the cap
                assert chain_free_count(n, k, alpha(6)) == len(maximal_chain_free_masks(n, k))
    # deeper than the cap allows, but no k-chain fits: the whole tree, once
    assert maximal_chain_free_masks(8, 9) == [(1 << 255) - 1]


def test_chain_free_cap_fires_before_any_work(monkeypatch):
    def no_nodes(self):
        raise AssertionError("nodes listed before the cap check")
    monkeypatch.setattr(TreeDomain, "nodes", no_nodes)
    for p, size in [(make_pattern(ATP, depth=7), r"alpha\(7\) = 210066388901"),
                    (make_pattern(KATP, depth=6, k=3), r"c_3\(6\) = 10545305"),
                    (make_pattern(ATP, depth=40), r"alpha\(40\) >= \d+")]:
        with pytest.raises(ResourceCapError, match=f"{size} .*cap 458330"):
            exact_family(p)


def test_skolem_bits_bound_holds_on_benchmark_families():
    from treeprop import synth

    for p in BENCH_SPECS:
        family = exact_family(p)
        bound = synth._skolem_bits_bound(family)
        bits = sum(v.bit_length() for v in synth_skolem(family).params.values())
        assert bits <= bound <= synth.SKOLEM_BITS_CAP, p


def test_atp_depth_six_boolean_witness_sets_member_bits():
    p = make_pattern(ATP, depth=6)
    family = exact_family(p)
    assert len(family.masks) == alpha(6) == 458330
    params = synth_boolean(family).params
    labels = p.index_labels()
    for n in random.Random(6).sample(range(len(family.masks)), 1000):
        member = mask_set(labels, family.masks[n])
        assert not _has_chain(member, 2)
        assert {x for x in labels if params[x] >> n & 1} == member


# --- exhaustive verification against a frozenset per subset ---

def reference_verify(oracle, witness, p):
    """Exhaustive verification with one frozenset per mask and membership by
    `exact_family(p).contains`, after the same pattern pass."""
    labels = p.index_labels()
    if set(witness.labels) != set(labels):
        raise ValueError("witness index set does not match the pattern")
    n_cons = n_incons = 0
    for subset in required_consistent(p):
        n_cons += 1
        if not oracle.consistent(subset):
            return VerificationReport(False, n_cons, n_incons, True,
                                      (subset, "consistent", "inconsistent"))
    for subset in required_inconsistent(p):
        n_incons += 1
        if oracle.consistent(subset):
            return VerificationReport(False, n_cons, n_incons, True,
                                      (subset, "inconsistent", "consistent"))
    family = exact_family(p)
    n_cons = n_incons = 0
    for mask in range(1, 1 << len(labels)):
        subset = mask_set(labels, mask)
        expected = family.contains(subset)
        actual = oracle.consistent(subset)
        if expected:
            n_cons += 1
        else:
            n_incons += 1
        if expected != actual:
            want = "consistent" if expected else "inconsistent"
            got = "consistent" if actual else "inconsistent"
            return VerificationReport(False, n_cons, n_incons, True, (subset, want, got))
    return VerificationReport(True, n_cons, n_incons, True)


VERIFY_SPECS = (
    [make_pattern(kind, depth=d) for kind in (ATP, SOP1, SOP2) for d in range(1, 5)]
    + [make_pattern(KATP, depth=d, k=k) for k in (2, 3) for d in range(1, 5)]
    + [make_pattern(TP, branching=3, depth=3, k=k) for k in (2, 3)]
    + [make_pattern(TP2, rows=r, cols=c) for r in range(1, 4) for c in range(1, 5)]
)


class RecordingOracle:
    """Forwards to an oracle, keeping each subset it was asked about and, when
    given a target, inverting the verdict on that one subset."""

    def __init__(self, oracle, target=None):
        self.oracle = oracle
        self.target = target
        self.seen = []

    def consistent(self, labels) -> bool:
        subset = frozenset(labels)
        self.seen.append(subset)
        verdict = self.oracle.consistent(labels)
        return not verdict if subset == self.target else verdict


def _same_as_reference(witness, p, target=None):
    """verify and reference_verify agree on the report, and the oracle is asked
    about the same subsets in the same order."""
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
    for label in (labels[len(labels) // 2], labels[-1]):
        column = family.columns[label]
        n = (column & -column).bit_length() - 1
        value = witness.params[label]
        value = value // nth_prime(n) if witness.backend == SKOLEM else value & ~(1 << n)
        out.append(replace(witness, params={**witness.params, label: value}))
    forbidden = required_inconsistent(p)
    if forbidden:
        params = dict(witness.params)
        for label in forbidden[0]:
            if witness.backend == SKOLEM:
                params[label] *= nth_prime(fresh)
            else:
                params[label] |= 1 << fresh
        width = None if witness.backend == SKOLEM else fresh + 1
        out.append(replace(witness, params=params, width=width))
    return out


def test_exhaustive_verify_matches_reference():
    in_loop = 0  # broken witnesses that pass the pattern pass
    for p in VERIFY_SPECS:
        family = exact_family(p)
        required = set(required_consistent(p)) | set(required_inconsistent(p))
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
        required = set(required_consistent(p)) | set(required_inconsistent(p))
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


def test_scanner_table_is_exact_family_membership():
    for p in VERIFY_SPECS:
        labels = p.index_labels()
        family = exact_family(p)
        free = forbidden_free_table(labels, required_inconsistent(p), DEFAULT_SUBSET_CAP)
        assert len(free) == 1 << len(labels)
        for mask in range(1, len(free)):
            assert free[mask] == family.contains(mask_set(labels, mask)), (p, mask)


# --- type forms against byte-packed relation tables ---

def _pack_bits(bits) -> bytes:
    out = bytearray()
    acc = n = 0
    for bit in bits:
        acc = (acc << 1) | (1 if bit else 0)
        n += 1
        if n == 8:
            out.append(acc)
            acc = n = 0
    if n:
        out.append(acc << (8 - n))
    return bytes(out)


def _relation_bytes(arity, points):
    below = (is_prefix(a, b) for a in points for b in points)
    lex = (a < b for a in points for b in points)
    return arity.to_bytes(4, "big") + _pack_bits(below) + _pack_bits(lex)


def reference_qftype0(t):
    """The prefix and lex tables over the closure tuple, as bytes."""
    return _relation_bytes(len(t), closure(t))


def reference_atomic(t):
    return _relation_bytes(len(t), t)


def reference_delta(t):
    """The meet-comparison tensor over all (i, j, k, l) and the lex table."""
    n = len(t)
    meets = [[meet(a, b) for b in t] for a in t]
    delta = (is_prefix(meets[i][j], meets[k][l])
             for i, j, k, l in itertools.product(range(n), repeat=4))
    lex = (a < b for a in t for b in t)
    return n.to_bytes(4, "big") + _pack_bits(delta) + _pack_bits(lex)


def reference_ss_ll(branching, leaf_depth, tuple_len,
                    delta=reference_delta,
                    closure_type=lambda t: reference_qftype0(closure(t))):
    """The lemma check over all T^2 ordered pairs of leaf tuples; the closure
    side is the type of the closure tuple, as the lemma states it."""
    leaves = list(TreeDomain(branching, leaf_depth, include_leaves=True).level(leaf_depth))
    tuples = list(itertools.permutations(leaves, tuple_len))
    keys = [(delta(t), closure_type(t)) for t in tuples]
    for (t1, (d1, c1)), (t2, (d2, c2)) in itertools.product(zip(tuples, keys), repeat=2):
        if (d1 == d2) != (c1 == c2):
            return False, len(tuples), (t1, t2, d1 == d2, c1 == c2)
    return True, len(tuples), None


def same_partition(keys_a, keys_b):
    """Whether a[i] == a[j] exactly when b[i] == b[j], for every pair i, j:
    the pairs (a[i], b[i]) then make a bijection between the two key sets."""
    pairs = set(zip(keys_a, keys_b))
    return len(set(keys_a)) == len(set(keys_b)) == len(pairs)


SS_LL_CASES = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4),
               (3, 1, 2), (3, 1, 3), (2, 3, 2), (2, 3, 3)]


def _leaf_tuples(branching, leaf_depth, tuple_len):
    leaves = TreeDomain(branching, leaf_depth, include_leaves=True).level(leaf_depth)
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


def test_grouped_ss_ll_matches_pairwise():
    for case in SS_LL_CASES + [(3, 2, 2)]:
        report = qftypes.verify_ss_ll(*case)
        passed, tuple_count, counterexample = reference_ss_ll(*case)
        assert (report.passed, report.tuple_count, report.counterexample) == \
            (passed, tuple_count, counterexample), case
        assert report.pair_count == tuple_count ** 2


def _assert_real_counterexample(report, delta, closure_type, case):
    assert not report.passed
    t1, t2, same_delta, same_closure = report.counterexample
    assert same_delta == (delta(t1) == delta(t2))
    assert same_closure == (closure_type(t1) == closure_type(t2))
    assert same_delta != same_closure
    assert not reference_ss_ll(*case, delta=delta, closure_type=closure_type)[0]


def test_broken_forms_give_real_counterexamples(monkeypatch):
    delta_type, qftype0 = qftypes.delta_type, qftypes.qftype0
    breaks = [
        # forgetting the lex ranks merges (a, b) with (b, a): same delta, new closure
        (lambda t: delta_type(t)[:2], qftype0),
        # splitting by the first entry: same closure type, new delta
        (lambda t: (delta_type(t), t[0]), qftype0),
        (delta_type, lambda t: (qftype0(t), t[-1])),
    ]
    for delta, closure_type in breaks:
        monkeypatch.setattr(qftypes, "delta_type", delta)
        monkeypatch.setattr(qftypes, "qftype0", closure_type)
        for case in [(2, 2, 2), (2, 3, 3)]:
            report = qftypes.verify_ss_ll(*case)
            _assert_real_counterexample(report, delta, closure_type, case)


# --- the first-order oracle's memo against fresh evaluation ---

def reference_fo_consistent(oracle, labels):
    """FoOracle.consistent with the formula evaluated afresh for every
    element and parameter."""
    labels = list(labels)
    if not labels:
        return True
    for x in oracle.structure.universe:
        ok = True
        for i in labels:
            p = oracle.witness.params[i]
            assignment = {oracle.x_var: x}
            assignment.update(zip(oracle.y_vars, p if isinstance(p, tuple) else (p,)))
            if not eval_formula(oracle.structure, oracle.formula, assignment):
                ok = False
                break
        if ok:
            return True
    return False


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
    monkeypatch.setattr(oracles, "eval_formula", counting)
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
    """phi(3, y) needs an undefined relation whenever 3 divides y, and
    phi(1, y) is false, so the search reaches it unless x = 2 succeeds."""
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
    expected = outcomes(lambda labels: reference_fo_consistent(oracle, labels))
    assert expected.count("FormulaError") == 4
    assert outcomes(oracle.consistent) == expected
