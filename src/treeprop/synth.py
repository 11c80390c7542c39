"""Exact witness synthesis from a subset-closed consistency family.

Given the maximal members J_0, ..., J_{m-1} of the family in canonical
order, the skolem witness assigns each index the product of the primes p_n
with the index in J_n (empty product = 1), so a subset shares a prime factor
exactly when it sits inside some member. The boolean witness sets bit n
instead, so a subset has nonzero meet under the same condition.

Only the maximal members are enumerated; the verdict "contained in some
member" is unchanged and the parameters stay small. Both read the family's
label columns (`ConsistencyFamily.columns`), never its member sets: the
boolean witness is the columns, and the skolem witness multiplies the primes
of each column's bits. Its total size is bounded from the columns' popcounts
before any prime is drawn and refused past `SKOLEM_BITS_CAP`; the primes
come from one sieve per call, up to Rosser's bound on the m-th prime.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt, log, prod

from .antichains import mask_labels
from .errors import ResourceCapError, WitnessError
from .oracles import BOOLEAN, SKOLEM, Witness
from .patterns import ConsistencyFamily

# total bits of a skolem witness's parameters: 5x the largest benchmarked
# family (k-ATP k=4 depth 5, estimated at about 0.8 Mbit)
SKOLEM_BITS_CAP = 2 ** 22


def _prime_bound(m: int) -> int:
    """A bound on the m-th prime: 11 for m < 6, else m (ln m + ln ln m),
    which exceeds it for m >= 6 (Rosser's theorem)."""
    return 11 if m < 6 else int(m * (log(m) + log(log(m)))) + 1


def _first_primes(m: int) -> list:
    """The first m primes, from a bytearray sieve up to `_prime_bound(m)`."""
    n = _prime_bound(m) + 1
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), sieve))[:m]


def _skolem_bits_bound(family: ConsistencyFamily) -> int:
    """An upper bound on the total bit length of the skolem parameters: each
    is a product of popcount(column) primes, none above `_prime_bound(m)`."""
    largest = _prime_bound(len(family.masks))
    return sum(c.bit_count() for c in family.columns.values()) * largest.bit_length()


def synth_skolem(family: ConsistencyFamily) -> Witness:
    if not family.masks:
        raise WitnessError("cannot synthesize from an empty family")
    bits = _skolem_bits_bound(family)
    if bits > SKOLEM_BITS_CAP:
        raise ResourceCapError(f"skolem parameters of up to {bits} bits", SKOLEM_BITS_CAP)
    ps = _first_primes(len(family.masks))
    assigned = {label: prod(mask_labels(ps, column)) for label, column in family.columns.items()}
    return Witness(SKOLEM, tuple(family.labels), assigned)


def synth_boolean(family: ConsistencyFamily) -> Witness:
    if not family.masks:
        raise WitnessError("cannot synthesize from an empty family")
    return Witness(BOOLEAN, tuple(family.labels), dict(family.columns),
                   width=len(family.masks))
