import itertools
import math

import pytest

from treeprop import (ResourceCapError, WitnessError, exact_family,
                      make_pattern, oracle_for, synth_boolean, synth_skolem)
from treeprop.patterns import ATP, KATP, SOP1, SOP2, TP, TP2, ConsistencyFamily
from treeprop.synth import _first_primes

from references import reference_first_primes, reference_skolem_params


def test_primes():
    assert _first_primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert _first_primes(0) == [] and _first_primes(26)[25] == 101
    # below and past the m = 6 switch to Rosser's bound, and the k-ATP d5 and
    # universal-prefix member counts
    for m in [*range(301), 677, 3176, 5000, 20000]:
        assert _first_primes(m) == reference_first_primes(m), m


def test_depth3_skolem_assignment():
    family = exact_family(make_pattern(ATP, depth=3))
    w = synth_skolem(family)
    assert w.params[()] == 2
    assert w.params[(0,)] == 15
    assert w.params[(1,)] == 21
    assert w.params[(0, 0)] == w.params[(0, 1)] == 77
    assert w.params[(1, 0)] == w.params[(1, 1)] == 55


def test_depth3_boolean_assignment():
    family = exact_family(make_pattern(ATP, depth=3))
    w = synth_boolean(family)
    assert w.width == 5
    assert w.params[()] == 0b00001
    assert w.params[(0,)] == 0b00110
    assert w.params[(1,)] == 0b01010
    assert w.params[(0, 0)] == w.params[(0, 1)] == 0b11000
    assert w.params[(1, 0)] == w.params[(1, 1)] == 0b10100


def test_backends_agree_on_membership():
    family = exact_family(make_pattern(ATP, depth=3))
    gcd = oracle_for(synth_skolem(family))
    bits = oracle_for(synth_boolean(family))
    labels = list(family.labels)
    for mask in range(1, 1 << len(labels)):
        subset = frozenset(x for i, x in enumerate(labels) if mask >> i & 1)
        expected = family.contains(subset)
        assert gcd.consistent(subset) == expected
        assert bits.consistent(subset) == expected


def test_index_outside_every_member_gets_unit():
    fam = ConsistencyFamily.from_members(("a", "b"), [{"a"}])
    w = synth_skolem(fam)
    assert w.params["b"] == 1
    bw = synth_boolean(fam)
    assert bw.params["b"] == 0


def test_distinct_members_get_distinct_primes():
    family = exact_family(make_pattern(ATP, depth=4))
    w = synth_skolem(family)
    for member, p in zip(family.maximal, _first_primes(len(family.maximal))):
        for label in family.labels:
            assert (w.params[label] % p == 0) == (label in member)
    assert math.gcd(*(w.params[l] for l in family.maximal[0])) > 1


def test_empty_family_rejected():
    with pytest.raises(WitnessError):
        synth_skolem(ConsistencyFamily(("a",), ()))
    with pytest.raises(WitnessError):
        synth_boolean(ConsistencyFamily(("a",), ()))


def test_skolem_size_cap_fires_before_any_prime(monkeypatch):
    from treeprop import synth

    def no_primes(m):
        raise AssertionError("primes drawn before the size cap check")
    monkeypatch.setattr(synth, "_first_primes", no_primes)
    family = exact_family(make_pattern(ATP, depth=6))
    with pytest.raises(ResourceCapError,
                       match=rf"up to \d+ bits \(cap {synth.SKOLEM_BITS_CAP}\)"):
        synth_skolem(family)


SPLIT_PATTERNS = (
    [make_pattern(ATP, depth=d) for d in range(1, 6)]
    + [make_pattern(KATP, depth=d, k=k) for k in (3, 4) for d in range(1, 6)]
    + [make_pattern(SOP1, depth=d) for d in range(1, 6)]
    + [make_pattern(SOP2, depth=d) for d in range(1, 7)]
    + [make_pattern(TP, branching=3, depth=3, k=2)]
    + [make_pattern(TP2, rows=n, cols=n) for n in (4, 5)])


def _pattern_id(p):
    if p.kind == TP2:
        return f"tp2-{p.rows}x{p.cols}"
    return f"{p.kind}{p.k or ''}-b{p.branching}-d{p.depth}"


@pytest.mark.parametrize("p", SPLIT_PATTERNS, ids=_pattern_id)
def test_split_product_is_the_running_product(p):
    family = exact_family(p)
    assert synth_skolem(family).params == reference_skolem_params(family)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 127, 128, 129])
def test_split_product_across_the_leaf_width(m):
    # m distinct 4-sets of 12 labels, an antichain, and one label in none
    labels = [(i,) for i in range(13)]
    members = list(itertools.islice(itertools.combinations(labels[:12], 4), m))
    family = ConsistencyFamily.from_members(labels, members)
    assert len(family.masks) == m
    params = synth_skolem(family).params
    assert params == reference_skolem_params(family)
    assert params[(12,)] == 1
