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

A column's product is split in two: the product of its low half's primes
times that of its high half's, the prime offset carried along, down to
columns of at most 64 bits, whose binary digits pick their primes. So the
factors of every multiplication are of about the same size, and a product
of n primes costs what a balanced product tree costs rather than the n
growing multiplications of a running product.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt, log, prod

from .errors import ResourceCapError, WitnessError
from .oracles import BOOLEAN, SKOLEM, Witness
from .patterns import ConsistencyFamily

# total bits of a skolem witness's parameters, synthesized or loaded: about
# 5.9x the largest benchmarked family, k-ATP k=4 depth 5, whose parameters
# total 716,211 bits (605,003 for k=3)
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


def check_skolem_bits(bits: int, size: str) -> None:
    """Refuse skolem parameters of `bits` total bits past `SKOLEM_BITS_CAP`;
    `size` says how the bits were counted, for the message."""
    if bits > SKOLEM_BITS_CAP:
        raise ResourceCapError(f"skolem parameters of {size} {bits} bits", SKOLEM_BITS_CAP)


def _column_product(ps: list, column: int, flags: bytes, offset: int = 0) -> int:
    """The product of ps[offset + i] over the set bits i of the column. A
    column of at most 64 bits maps its binary digits, lowest first, to 0/1
    bytes by `flags`, which pick the primes."""
    width = column.bit_length()
    if width <= 64:
        picks = format(column, "b")[::-1].encode().translate(flags)
        return prod(compress(ps[offset:offset + width], picks))
    half = width >> 1
    return (_column_product(ps, column & ((1 << half) - 1), flags, offset)
            * _column_product(ps, column >> half, flags, offset + half))


def synth_skolem(family: ConsistencyFamily) -> Witness:
    if not family.masks:
        raise WitnessError("cannot synthesize from an empty family")
    check_skolem_bits(_skolem_bits_bound(family), "up to")
    ps = _first_primes(len(family.masks))
    flags = bytes.maketrans(b"01", b"\0\1")
    assigned = {label: _column_product(ps, column, flags)
                for label, column in family.columns.items()}
    return Witness(SKOLEM, tuple(family.labels), assigned)


def synth_boolean(family: ConsistencyFamily) -> Witness:
    if not family.masks:
        raise WitnessError("cannot synthesize from an empty family")
    return Witness(BOOLEAN, tuple(family.labels), dict(family.columns),
                   width=len(family.masks))
