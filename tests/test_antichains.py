import itertools

import pytest

from treeprop import (ResourceCapError, TreeDomain, alpha, build_onevar_scaffold,
                      count_antichains, enumerate_antichains, find_iso_copy, make_pattern,
                      maximal_antichains, required_inconsistent, universal_prefix)
from treeprop import antichains
from treeprop.antichains import (chain_free_count, finite_antichain_stream,
                                 maximal_chain_free_binary)
from treeprop.errors import shown_size
from treeprop.nodes import concat_set, sorted_nodes

from references import canonical_sets, is_antichain, is_chain, max_chain_bounded_sets


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
        assert count_antichains(2, n) + 1 == alpha(n + 1)


def test_enumeration_is_canonical_and_deduplicated():
    catalog = enumerate_antichains(TreeDomain(2, 3))
    keys = [sorted_nodes(x) for x in catalog]
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
    # alpha(6) members over 63 labels fit the cell cap; depth 7 is refused by
    # its own count over 127 labels, before any node is listed
    assert chain_free_count(6, 2) == alpha(6) and alpha(6) * 63 <= antichains.FAMILY_CELL_CAP
    with pytest.raises(ResourceCapError, match="of 210066388901 maximal members over 127"):
        maximal_antichains(7)


def test_chain_free_count_refuses_a_negative_depth():
    with pytest.raises(ValueError, match="need n >= 0 and k >= 1"):
        chain_free_count(-1, 2)


def test_a_size_prints_in_decimal_up_to_the_digit_limit():
    assert shown_size(0) == "0" and shown_size(10 ** 20 - 1) == "9" * 20
    assert shown_size(10 ** 4299) == "1" + "0" * 4299
    # 10^5000 has 16,610 bits, past the 4,300 digits that str() writes
    assert shown_size(10 ** 5000) == "(at least 2^16609)"


HUGE = 10 ** 5000  # an int of more digits than str() writes


@pytest.mark.parametrize("refused, message", [
    (lambda: count_antichains(2, HUGE), r"antichain count c\(\(at least 2\^16609\)\)"),
    (lambda: alpha(HUGE), r"antichain count c\(\(at least 2\^16609\)\)"),
    (lambda: TreeDomain(HUGE, HUGE), r"node count has over \(at least 2\^\d+\) bits"),
    (lambda: build_onevar_scaffold(HUGE, {(0,)}), r"scaffold level \(at least 2\^16609\)"),
    (lambda: required_inconsistent(make_pattern("tp", branching=HUGE, depth=2, k=HUGE // 2)),
     r"1 x C\(\(at least 2\^16609\), \(at least 2\^16608\)\) sets of \(at least"),
], ids=["count_antichains", "alpha", "TreeDomain", "build_onevar_scaffold", "tp-siblings"])
def test_a_cap_message_prints_a_size_past_the_digit_limit(refused, message):
    with pytest.raises(ResourceCapError, match=message):
        refused()


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


def test_subset_scan_cap(monkeypatch):
    monkeypatch.setattr(antichains, "DEFAULT_SUBSET_CAP", 2 ** 10)
    with pytest.raises(ResourceCapError, match="2\\^31 subsets \\(cap 1024\\)"):
        enumerate_antichains(TreeDomain(2, 5))
    # 15 nodes: 2^15 subsets pass a cap of 2^15 and not one of 2^15 - 1
    monkeypatch.setattr(antichains, "DEFAULT_SUBSET_CAP", 2 ** 15)
    assert len(enumerate_antichains(TreeDomain(2, 4))) == count_antichains(2, 4)
    monkeypatch.setattr(antichains, "DEFAULT_SUBSET_CAP", 2 ** 15 - 1)
    with pytest.raises(ResourceCapError, match="2\\^15 subsets"):
        enumerate_antichains(TreeDomain(2, 4))


def test_subset_scans_cap_before_listing_nodes(monkeypatch):
    def no_nodes(self):
        raise AssertionError("nodes listed before the cap check")
    monkeypatch.setattr(TreeDomain, "nodes", no_nodes)
    with pytest.raises(ResourceCapError, match="2\\^1073741823"):
        enumerate_antichains(TreeDomain(2, 30))
    with pytest.raises(ResourceCapError, match="at least 2\\^19999"):  # too many digits to print
        enumerate_antichains(TreeDomain(2, 20000))
    monkeypatch.setattr(antichains, "DEFAULT_SUBSET_CAP", 2 ** 10)
    with pytest.raises(ResourceCapError, match="2\\^31 subsets"):
        enumerate_antichains(TreeDomain(2, 5))


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


def test_universal_prefix_reads_depth_five_lazily():
    # the 677th antichain is the first new one at depth 5, whose 2^31 subsets
    # no listing may range over
    u = universal_prefix(677)
    assert len(u) == 2657
    assert concat_set((1,) * 676 + (0,), {(0,), (1, 0), (1, 1, 0), (1, 1, 1, 0)}) <= u


def test_find_iso_copy_none_when_too_small():
    assert find_iso_copy({(0,), (1,)}, {(0,)}) is None
