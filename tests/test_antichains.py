import itertools

import pytest

from treeprop import (ResourceCapError, TreeDomain, alpha, count_antichains,
                      enumerate_antichains, find_iso_copy,
                      maximal_antichains, universal_prefix)
from treeprop.antichains import (canonical_sets, finite_antichain_stream,
                                 maximal_chain_free_binary, set_key)
from treeprop.nodes import is_antichain, is_chain

from test_differential import max_chain_bounded_sets


def test_alpha_values():
    assert [alpha(n) for n in range(6)] == [0, 1, 2, 5, 26, 677]
    with pytest.raises(ValueError):
        alpha(-1)


def test_count_antichains_matches_enumeration():
    for b, depth in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        catalog = enumerate_antichains(TreeDomain(b, depth))
        assert len(catalog) == count_antichains(b, depth)
        assert all(is_antichain(x) for x in catalog)


def test_count_antichains_alpha_relation():
    # antichain count including the empty set at depth n equals alpha(n+1)
    for n in range(5):
        assert count_antichains(2, n, nonempty=False) == alpha(n + 1)


def test_enumeration_is_canonical_and_deduplicated():
    catalog = enumerate_antichains(TreeDomain(2, 3))
    keys = [set_key(x) for x in catalog]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_maximal_antichains_small():
    assert set(maximal_antichains(1).items) == {frozenset({()})}
    assert set(maximal_antichains(2).items) == {
        frozenset({()}),
        frozenset({(0,), (1,)}),
    }


def test_maximal_antichains_recursion_matches_subset_scan():
    for n in range(1, 5):
        built = set(maximal_antichains(n).items)
        scanned = set(max_chain_bounded_sets(TreeDomain(2, n), 2))
        assert built == scanned
        assert len(built) == alpha(n)


def test_maximal_antichains_root_first_in_canonical_order():
    for n in range(1, 6):
        items = maximal_antichains(n).items
        assert items[0] == frozenset({()})
        assert list(items) == canonical_sets(items)


def test_maximal_antichains_cap():
    with pytest.raises(ResourceCapError):
        maximal_antichains(7)


def test_chain_free_recursion_matches_scan():
    for n, k in [(2, 3), (3, 3), (3, 4), (4, 3)]:
        built = maximal_chain_free_binary(n, k)
        scanned = max_chain_bounded_sets(TreeDomain(2, n), k)
        assert built == canonical_sets(scanned)
        for members in built:
            assert not any(
                is_chain(c) for c in itertools.combinations(members, k)
            )


def test_chain_free_trivial_levels():
    assert maximal_chain_free_binary(1, 3) == [frozenset({()})]
    # depth 2 holds no 3-chain, so the whole tree is the one maximal set
    assert maximal_chain_free_binary(2, 3) == [frozenset({(), (0,), (1,)})]


def test_chain_free_depth_five_count():
    assert len(maximal_chain_free_binary(5, 3)) == 3176


def test_subset_scan_cap():
    with pytest.raises(ResourceCapError):
        enumerate_antichains(TreeDomain(2, 5), cap=2 ** 10)


def test_subset_scans_cap_before_listing_nodes(monkeypatch):
    def no_nodes(self):
        raise AssertionError("nodes listed before the cap check")
    monkeypatch.setattr(TreeDomain, "nodes", no_nodes)
    with pytest.raises(ResourceCapError, match="2\\^1073741823"):
        enumerate_antichains(TreeDomain(2, 30))
    with pytest.raises(ResourceCapError, match="at least 2\\^19999"):  # too many digits to print
        enumerate_antichains(TreeDomain(2, 20000))
    with pytest.raises(ResourceCapError):
        enumerate_antichains(TreeDomain(2, 5), cap=2 ** 10)


def test_stream_starts_with_depth_one():
    stream = finite_antichain_stream()
    assert next(stream) == frozenset({()})
    later = [next(stream) for _ in range(3)]
    assert frozenset({(0,), (1,)}) in later


def test_universal_prefix_contains_copies():
    u = universal_prefix(5)
    assert is_antichain(u)
    stream = finite_antichain_stream()
    for _ in range(5):
        x = next(stream)
        mapping = find_iso_copy(x, u)
        assert mapping is not None
        assert set(mapping) == set(x)


def test_find_iso_copy_none_when_too_small():
    assert find_iso_copy({(0,), (1,)}, {(0,)}) is None
