"""Exact witness synthesis from a subset-closed consistency family.

Given the maximal members J_0, ..., J_{m-1} of the family in canonical
order, the skolem witness assigns each index the product of the primes p_n
with the index in J_n (empty product = 1), so a subset shares a prime factor
exactly when it sits inside some member. The boolean witness sets bit n
instead, so a subset has nonzero meet under the same condition.

Only the maximal members are enumerated; the verdict "contained in some
member" is unchanged and the parameters stay small. Both read the family's
label columns (`ConsistencyFamily.columns`): the boolean witness is the columns.
"""

from __future__ import annotations

from itertools import count, islice, takewhile
from math import prod
from typing import Iterator

from .errors import WitnessError
from .oracles import BOOLEAN, SKOLEM, Witness
from .patterns import ConsistencyFamily

_PRIMES = [2, 3]


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


def synth_skolem(family: ConsistencyFamily) -> Witness:
    if not family.maximal:
        raise WitnessError("cannot synthesize from an empty family")
    ps = list(islice(primes(), len(family.maximal)))
    assigned = {label: prod(p for n, p in enumerate(ps) if column >> n & 1)
                for label, column in family.columns.items()}
    return Witness(SKOLEM, tuple(family.labels), assigned)


def synth_boolean(family: ConsistencyFamily) -> Witness:
    if not family.maximal:
        raise WitnessError("cannot synthesize from an empty family")
    return Witness(BOOLEAN, tuple(family.labels), dict(family.columns),
                   width=len(family.maximal))
