"""Differential tests of the bitmask fast paths against plain frozenset
references: the column-mask consistency family against the pairwise O(m^2)
maximality filter, and the forbidden-set subset scan against a direct
enumeration of all 2^n subsets."""

import itertools
import random

import pytest

from treeprop import (ConsistencyFamily, ResourceCapError, TreeDomain,
                      enumerate_antichains, exact_family, make_pattern,
                      max_chain_bounded_sets, required_inconsistent,
                      synth_boolean)
from treeprop.antichains import canonical_sets, chains, set_key
from treeprop.nodes import is_chain
from treeprop.patterns import ATP, KATP, SOP1, SOP2, TP, TP2


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
