"""Exact witness synthesis from a subset-closed consistency family.

Given the maximal members J_0, ..., J_{m-1} of the family in canonical
order, the skolem witness assigns each index the product of the primes p_n
with the index in J_n (empty product = 1), so a subset shares a prime factor
exactly when it sits inside some member. The boolean witness sets bit n
instead, so a subset has nonzero meet under the same condition.

Only the maximal members are enumerated; the verdict "contained in some
member" is unchanged and the parameters stay small. Both read the family
that its `antichains` builder makes, its labels, its columns in label order
(`ConsistencyFamily.columns`) and its count of members, never its member
sets, so synthesis lists no member: the boolean witness pairs each label
with its column, and the skolem witness multiplies the primes of each
column's bits. Its total size is bounded from the count and the columns'
popcounts before any prime is drawn and refused past `SKOLEM_BITS_CAP`; the
primes come from one sieve of the odd numbers per call, up to Rosser's bound
on the m-th prime. Labels with equal columns get equal params, so each
distinct column's product is taken once and shared: in an ATP or k-ATP
family the two sibling leaves under each node of depth d - 2 hold the same
members (at depth 5, 23 distinct columns among 31 labels), and these leaf
columns are the ones with the most bits.

A column's product is a product tree flattened into C calls: its binary
digits become 0/1 bytes once, which `compress` the primes to those of its
bits; `math.prod` multiplies each run of 32 of them, and the run products
are multiplied in pairs, level by level, an odd last one carried up as it
is. So the factors of every multiplication are of about the same size, and
a product of n primes costs what a balanced product tree costs rather than
the n growing multiplications of a running product, with one Python call
per column rather than one per subtree.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt, log, prod
from operator import mul

from .antichains import ConsistencyFamily
from .errors import ResourceCapError, WitnessError
from .oracles import BOOLEAN, SKOLEM, Witness

# total bits of a skolem witness's parameters, synthesized or loaded: about
# 5.9x the largest benchmarked family, k-ATP k=4 depth 5, whose parameters
# total 716,211 bits (605,003 for k=3)
SKOLEM_BITS_CAP = 2 ** 22

_PICKS = bytes.maketrans(b"01", b"\0\1")  # a binary digit's 0/1 byte, which picks a prime
_LEAF_PRIMES = 32  # primes per leaf of a column's product tree, multiplied by math.prod


def _prime_bound(m: int) -> int:
    """A bound on the m-th prime: 11 for m < 6, else m (ln m + ln ln m),
    which exceeds it for m >= 6 (Rosser's theorem)."""
    return 11 if m < 6 else int(m * (log(m) + log(log(m)))) + 1


def _first_primes(m: int) -> list:
    """The first m primes, from a bytearray sieve of the odd numbers up to
    `_prime_bound(m)`: byte i stands for 2i + 1, and an odd prime p strikes
    p^2, p^2 + 2p, ..., every p-th byte from p^2 // 2."""
    n = _prime_bound(m) + 1
    half = n // 2  # the odd numbers below n
    sieve = bytearray([1]) * half
    sieve[0] = 0  # 1 is not prime
    for i in range(1, (isqrt(n - 1) - 1) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2::p] = bytes(len(range(p * p // 2, half, p)))
    return [2, *compress(range(1, n, 2), sieve)][:m]


def _skolem_bits_bound(family: ConsistencyFamily) -> int:
    """An upper bound on the total bit length of the skolem parameters: each
    is a product of popcount(column) primes, none above `_prime_bound(m)`."""
    largest = _prime_bound(family.count)
    return sum(c.bit_count() for c in family.columns) * largest.bit_length()


def check_skolem_bits(bits: int, size: str) -> None:
    """Refuse skolem parameters of `bits` total bits past `SKOLEM_BITS_CAP`;
    `size` says how the bits were counted, for the message."""
    if bits > SKOLEM_BITS_CAP:
        raise ResourceCapError(f"skolem parameters of {size} {bits} bits", SKOLEM_BITS_CAP)


def _column_product(ps: list, column: int) -> int:
    """The product of ps[i] over the set bits i of the column. Its binary
    digits, lowest first, map to 0/1 bytes by `_PICKS`, which pick its primes;
    `math.prod` takes each run of `_LEAF_PRIMES` picked primes, and the
    products are multiplied in pairs, an odd last one carried up a level as
    it is, until one is left (1 for an empty column)."""
    picked = list(compress(ps, format(column, "b")[::-1].encode().translate(_PICKS)))
    level = [prod(picked[i:i + _LEAF_PRIMES]) for i in range(0, len(picked), _LEAF_PRIMES)]
    while len(level) > 1:
        odd = level[-1:] if len(level) & 1 else []
        level = [*map(mul, level[0::2], level[1::2]), *odd]
    return level[0] if level else 1


def synth_skolem(family: ConsistencyFamily) -> Witness:
    if not family.count:
        raise WitnessError("cannot synthesize from an empty family")
    check_skolem_bits(_skolem_bits_bound(family), "up to")
    ps = _first_primes(family.count)
    products = {column: _column_product(ps, column) for column in set(family.columns)}
    assigned = {label: products[column] for label, column in zip(family.labels, family.columns)}
    return Witness(SKOLEM, tuple(family.labels), assigned)


def synth_boolean(family: ConsistencyFamily) -> Witness:
    if not family.count:
        raise WitnessError("cannot synthesize from an empty family")
    return Witness(BOOLEAN, tuple(family.labels), dict(zip(family.labels, family.columns)),
                   width=family.count)
