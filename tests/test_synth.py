import math

import pytest

from treeprop import (ResourceCapError, WitnessError, exact_family,
                      make_pattern, nth_prime, oracle_for, primes,
                      synth_boolean, synth_skolem)
from treeprop.patterns import ATP, ConsistencyFamily


def test_primes():
    gen = primes()
    assert [next(gen) for _ in range(10)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert nth_prime(0) == 2 and nth_prime(25) == 101
    with pytest.raises(ValueError):
        nth_prime(-1)


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
    fam = ConsistencyFamily(("a", "b"), (frozenset({"a"}),))
    w = synth_skolem(fam)
    assert w.params["b"] == 1
    bw = synth_boolean(fam)
    assert bw.params["b"] == 0


def test_distinct_members_get_distinct_primes():
    family = exact_family(make_pattern(ATP, depth=4))
    w = synth_skolem(family)
    for member, p in zip(family.maximal,
                         (nth_prime(i) for i in range(len(family.maximal)))):
        for label in family.labels:
            assert (w.params[label] % p == 0) == (label in member)
    assert math.gcd(*(w.params[l] for l in family.maximal[0])) > 1


def test_empty_family_rejected():
    with pytest.raises(WitnessError):
        synth_skolem(ConsistencyFamily(("a",), ()))
    with pytest.raises(WitnessError):
        synth_boolean(ConsistencyFamily(("a",), ()))


def test_interleaved_generators_share_the_table(monkeypatch):
    from treeprop import synth

    monkeypatch.setattr(synth, "_PRIMES", [2, 3])  # start from a cold table
    first, second = primes(), primes()
    head = [next(first) for _ in range(5)]
    other = [next(second) for _ in range(8)]
    tail = [next(first) for _ in range(3)]
    expected = [2, 3, 5, 7, 11, 13, 17, 19]
    assert head + tail == expected
    assert other == expected
    assert synth._PRIMES == sorted(set(synth._PRIMES))
    assert nth_prime(8) == 23


def test_skolem_size_cap_fires_before_any_prime(monkeypatch):
    from treeprop import synth

    def no_primes():
        raise AssertionError("primes drawn before the size cap check")
    monkeypatch.setattr(synth, "primes", no_primes)
    family = exact_family(make_pattern(ATP, depth=6))
    with pytest.raises(ResourceCapError,
                       match=rf"up to \d+ bits \(cap {synth.SKOLEM_BITS_CAP}\)"):
        synth_skolem(family)
