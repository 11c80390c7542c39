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
before any prime is drawn and refused past `SKOLEM_BITS_CAP`.
"""

from __future__ import annotations

from itertools import count, islice, takewhile
from math import log, prod
from typing import Iterator

from .errors import ResourceCapError, WitnessError
from .oracles import BOOLEAN, SKOLEM, Witness
from .patterns import ConsistencyFamily

_PRIMES = [2, 3]

# total bits of a skolem witness's parameters: 5x the largest benchmarked
# family (k-ATP k=4 depth 5, estimated at about 0.8 Mbit)
SKOLEM_BITS_CAP = 2 ** 22


def _extend_primes() -> None:
    """Append the next prime to the shared table, trial-dividing only by the
    primes up to its square root."""
    n = _PRIMES[-1] + 2
    while any(n % p == 0 for p in takewhile(lambda q: q * q <= n, _PRIMES)):
        n += 2
    _PRIMES.append(n)


def primes() -> Iterator[int]:
    """The prime sequence 2, 3, 5, ... Each generator reads the shared table
    by its own index, so interleaved generators stay in step."""
    for i in count():
        if i == len(_PRIMES):
            _extend_primes()
        yield _PRIMES[i]


def nth_prime(n: int) -> int:
    """The (n+1)-st prime, 0-indexed: nth_prime(0) == 2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return next(islice(primes(), n, None))


def _skolem_bits_bound(family: ConsistencyFamily) -> int:
    """An upper bound on the total bit length of the skolem parameters: each
    is a product of popcount(column) primes, none above the m-th prime, and
    p_m < m (ln m + ln ln m) for m >= 6."""
    m = len(family.masks)
    largest = 11 if m < 6 else int(m * (log(m) + log(log(m)))) + 1
    return sum(c.bit_count() for c in family.columns.values()) * largest.bit_length()


def synth_skolem(family: ConsistencyFamily) -> Witness:
    if not family.masks:
        raise WitnessError("cannot synthesize from an empty family")
    bits = _skolem_bits_bound(family)
    if bits > SKOLEM_BITS_CAP:
        raise ResourceCapError(f"skolem parameters of up to {bits} bits", SKOLEM_BITS_CAP)
    ps = list(islice(primes(), len(family.masks)))
    assigned = {label: prod(p for n, p in enumerate(ps) if column >> n & 1)
                for label, column in family.columns.items()}
    return Witness(SKOLEM, tuple(family.labels), assigned)


def synth_boolean(family: ConsistencyFamily) -> Witness:
    if not family.masks:
        raise WitnessError("cannot synthesize from an empty family")
    return Witness(BOOLEAN, tuple(family.labels), dict(family.columns),
                   width=len(family.masks))
