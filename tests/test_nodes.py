import gc
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import treeprop.nodes
from treeprop import (ResourceCapError, TreeDomain, closure, concat_set, make_pattern, meet,
                      node_str)
from treeprop.nodes import is_prefix, sorted_nodes

from references import domain_contains, incomparable, is_antichain, is_chain

nodes = st.lists(st.integers(0, 2), max_size=6).map(tuple)
binary_nodes = st.lists(st.integers(0, 1), max_size=6).map(tuple)


def test_node_str_writes_digits_or_dotted_digits():
    for node, text in [((), ""), ((0,), "0"), ((1,), "1"), ((0, 1, 0), "010"),
                       ((1, 1, 0, 1), "1101")]:
        assert node_str(node, 2) == text
    assert node_str((10, 3, 0), 12) == "10.3.0"
    assert node_str((9, 0), 10) == "90" and node_str((9, 0), 11) == "9.0"


def test_meet_examples():
    assert meet((0, 1, 0), (0, 1, 1)) == (0, 1)
    assert meet((0,), (1,)) == ()
    assert meet((0, 1), (0, 1, 0)) == (0, 1)


def test_lex_prefixes_sort_first():
    assert () < (0,)
    assert (0,) < (0, 1)
    assert (0, 1) < (1,)
    assert not (1,) < (0, 1)


@given(nodes, nodes)
def test_meet_commutative(a, b):
    assert meet(a, b) == meet(b, a)


@given(nodes, nodes, nodes)
def test_meet_associative(a, b, c):
    assert meet(meet(a, b), c) == meet(a, meet(b, c))


@given(nodes, nodes)
def test_meet_is_common_prefix(a, b):
    m = meet(a, b)
    assert is_prefix(m, a) and is_prefix(m, b)
    assert meet(a, a) == a


@given(nodes, nodes)
def test_lex_trichotomy(a, b):
    assert (a < b, a == b, b < a).count(True) == 1


@given(nodes, nodes)
def test_prefix_implies_lex(a, b):
    if is_prefix(a, b) and a != b:
        assert a < b


@given(nodes, nodes)
def test_incomparable_iff_meet_proper(a, b):
    m = meet(a, b)
    assert incomparable(a, b) == (m != a and m != b)


@given(st.lists(nodes, min_size=1, max_size=4))
def test_closure_is_meet_closed(ts):
    t = tuple(ts)
    cl = closure(t)
    assert len(cl) == len(t) ** 2
    assert set(t) <= set(cl)
    for a, b in itertools.product(cl, repeat=2):
        assert meet(a, b) in cl


def test_closure_row_major_order():
    t = ((0,), (1,))
    assert closure(t) == ((0,), (), (), (1,))


def test_closure_is_the_full_meet_table_on_random_tuples():
    # repeated nodes, nodes that are prefixes of others, and the root: the
    # table takes each unordered pair's meet once and writes it twice
    rng = random.Random(22)
    for _ in range(3000):
        pool = [tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
                for _ in range(rng.randint(1, 4))]
        pool += [x[:rng.randint(0, len(x))] for x in pool] + [()]
        t = tuple(rng.choice(pool) for _ in range(rng.randint(1, 7)))
        assert closure(t) == tuple(meet(a, b) for a in t for b in t), t


def test_closure_empty_rejected():
    with pytest.raises(ValueError):
        closure(())


def test_concat():
    assert concat_set((1,), [(), (0,)]) == {(1,), (1, 0)}


def test_antichain_and_chain_predicates():
    assert is_antichain([(0,), (1, 0), (1, 1)])
    assert not is_antichain([(0,), (0, 1)])
    assert is_chain([(), (0,), (0, 1)])
    assert not is_chain([(0,), (1,)])
    assert is_antichain([]) and is_chain([])


def test_domain_counts_and_membership():
    d = TreeDomain(2, 3)
    assert d.node_count() == 7
    assert list(d.nodes()) == sorted(d.nodes())
    assert domain_contains(d, (0, 1)) and not domain_contains(d, (0, 1, 0))
    assert not domain_contains(d, (2,))


def test_domain_validation():
    with pytest.raises(ValueError):
        TreeDomain(1, 3)
    with pytest.raises(ValueError):
        TreeDomain(2, 0)


def test_domain_size_cap_before_any_power(monkeypatch):
    # depth d over b digits has at least 2^((d - 1) * (bit_length(b) - 1)) nodes
    assert TreeDomain(2, 2 ** 16).node_count() == 2 ** 2 ** 16 - 1
    for args, bits in [((2, 2 ** 16 + 1), 65536), ((3, 10 ** 20), 10 ** 20 - 1),
                       ((10 ** 20, 10 ** 20), 66 * (10 ** 20 - 1))]:
        with pytest.raises(ResourceCapError, match=f"over {bits} bits \\(cap 65536\\)"):
            TreeDomain(*args)
    monkeypatch.setattr(treeprop.nodes, "DOMAIN_BITS_CAP", 8)
    assert TreeDomain(4, 4).node_count() == 85
    with pytest.raises(ResourceCapError, match="over 8 bits \\(cap 8\\)"):
        TreeDomain(4, 5)


def test_walking_the_nodes_leaves_no_cyclic_garbage():
    # every family, required-set stream and witness load walks a domain once
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(100):
            make_pattern("atp", depth=3).index_labels()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_sorted_nodes_dedups():
    assert sorted_nodes([(1,), (0,), (1,)]) == ((0,), (1,))
