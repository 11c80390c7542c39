"""Reference computations made apart from treeprop, used to check every job.

Nothing here imports treeprop. Index sets are the canonical label order
(tree nodes as digit tuples in lexicographic order, array cells row-major)
and subsets are int bitmasks over that order.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


class CheckError(AssertionError):
    """A job's output disagrees with the reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --- counts from recurrences ---

def alpha(d: int) -> int:
    """Maximal antichains of the binary tree of depth d: a(d+1) = a(d)^2 + 1."""
    a = 0
    for _ in range(d):
        a = a * a + 1
    return a


def antichains_with_empty(d: int) -> int:
    """All antichains, the empty one included: c(d+1) = c(d)^2 + 1."""
    c = 1
    for _ in range(d):
        c = c * c + 1
    return c


def chain_free_with_empty(d: int, j: int) -> int:
    """Subsets of the binary tree of depth d with no j-element chain, the
    empty set included: f(d, j) = f(d-1, j)^2 + f(d-1, j-1)^2 (with or
    without the root), f(0, j) = 1 and f(d, 1) = 1."""
    if d == 0 or j == 1:
        return 1
    return chain_free_with_empty(d - 1, j) ** 2 + chain_free_with_empty(d - 1, j - 1) ** 2


@lru_cache(maxsize=None)
def _maximal_chain_free(d: int, k: int) -> tuple:
    """(M, N): maximal k-chain-free subsets of the binary tree of depth d, and
    how many of them hold a (k-1)-chain. A maximal set either holds the root
    and two maximal (k-1)-chain-free halves, or two maximal k-chain-free
    halves whose union holds a (k-1)-chain (else the root could be added)."""
    if k == 1:
        return 1, 1
    if d == 0:
        return 1, 0
    m1, n1 = _maximal_chain_free(d - 1, k - 1)
    m, n = _maximal_chain_free(d - 1, k)
    without_root = m * m - (m - n) ** 2
    return m1 * m1 + without_root, m1 * m1 - (m1 - n1) ** 2 + without_root


def maximal_chain_free_count(d: int, k: int) -> int:
    """Counts only, so it agrees with a subset scan at depth <= 4 (50
    maximal 3-chain-free sets at depth 4) and gives 3176 for k = 3 and
    k = 4 at depth 5."""
    return _maximal_chain_free(d, k)[0]


def permutations_count(n: int, r: int) -> int:
    return math.factorial(n) // math.factorial(n - r)


# --- index sets and forbidden configurations as masks ---

def tree_labels(branching: int, depth: int) -> list:
    """Nodes of length < depth, in lexicographic order."""
    nodes = [()]
    for length in range(1, depth):
        nodes += list(itertools.product(range(branching), repeat=length))
    return sorted(nodes)


def grid_labels(rows: int, cols: int) -> list:
    return [(i, j) for i in range(rows) for j in range(cols)]


def _prefix(a, b) -> bool:
    return b[:len(a)] == a


def _mask(index, nodes) -> int:
    m = 0
    for x in nodes:
        m |= 1 << index[x]
    return m


def forbidden_masks(kind: str, labels: list, k: int = 2, branching: int = 2) -> list:
    """Minimal sets a witness must make inconsistent, built from the pattern
    definitions: comparable pairs (atp), k-chains (katp), incomparable pairs
    (sop2), {eta^1, eta^0^nu} (sop1), k siblings (tp), one row's two cells
    (tp2)."""
    index = {x: i for i, x in enumerate(labels)}
    out = []
    if kind in ("atp", "katp"):
        size = 2 if kind == "atp" else k
        for x in labels:
            ancestors = [x[:l] for l in range(len(x))]
            for combo in itertools.combinations(ancestors, size - 1):
                out.append(_mask(index, combo + (x,)))
    elif kind == "sop2":
        for a, b in itertools.combinations(labels, 2):
            if not (_prefix(a, b) or _prefix(b, a)):
                out.append(_mask(index, (a, b)))
    elif kind == "sop1":
        for eta in labels:
            if eta + (1,) in index:
                for x in labels:
                    if len(x) > len(eta) and x[:len(eta) + 1] == eta + (0,):
                        out.append(_mask(index, (eta + (1,), x)))
    elif kind == "tp":
        for eta in labels:
            children = [eta + (i,) for i in range(branching)]
            if children[0] in index:
                for combo in itertools.combinations(children, k):
                    out.append(_mask(index, combo))
    elif kind == "tp2":
        rows = {i for i, _ in labels}
        for i in rows:
            row = [x for x in labels if x[0] == i]
            for a, b in itertools.combinations(row, 2):
                out.append(_mask(index, (a, b)))
    else:
        raise ValueError(kind)
    return out


def avoids(mask: int, forbidden: list) -> bool:
    return all(f & mask != f for f in forbidden)


@lru_cache(maxsize=None)
def brute_force_counts(kind: str, labels: tuple, k: int = 2, branching: int = 2):
    """(maximal forbidden-free sets, nonempty forbidden-free subsets) by a
    scan over every subset of the index set."""
    n = len(labels)
    forbidden = forbidden_masks(kind, list(labels), k, branching)
    free = bytearray(1 << n)
    nonempty = 0
    for mask in range(1 << n):
        if avoids(mask, forbidden):
            free[mask] = 1
            nonempty += mask != 0
    maximal = frozenset(
        mask for mask in range(1, 1 << n)
        if free[mask] and not any(
            not mask >> i & 1 and free[mask | 1 << i] for i in range(n))
    )
    return maximal, nonempty


# --- checks on families and witnesses ---

def member_masks(labels: list, members) -> list:
    index = {x: i for i, x in enumerate(labels)}
    return [_mask(index, m) for m in members]


def check_family(name: str, labels: list, members, forbidden: list) -> list:
    """Every member avoids the forbidden sets, is maximal doing so, and no
    member repeats. Returns the member masks."""
    masks = member_masks(labels, members)
    expect(len(set(masks)) == len(masks), f"{name}: a family member repeats")
    bits = [1 << i for i in range(len(labels))]
    # a forbidden-free m stops being so when b is added iff some forbidden set
    # holds b and the rest of it lies in m
    rests = [[f & ~b for f in forbidden if f & b] for b in bits]
    for m in masks:
        expect(m != 0, f"{name}: empty family member")
        expect(avoids(m, forbidden), f"{name}: member contains a forbidden set")
        for b, rest in zip(bits, rests):
            expect(m & b or any(r & m == r for r in rest),
                   f"{name}: member is not maximal")
    return masks


def first_primes(n: int) -> list:
    """The first n primes by a sieve of Eratosthenes."""
    limit = max(16, int(n * (math.log(n + 2) + math.log(math.log(n + 2)))) + 10)
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]][:n]


def check_skolem(name: str, labels: list, params: dict, masks: list,
                 forbidden: list) -> None:
    """gcd > 1 on every maximal member and gcd = 1 on every forbidden set.
    Forbidden sets are checked with math.gcd. A gcd over a member of
    20,000-bit parameters costs milliseconds, so a member is first tested
    for a prime of the benchmark's own sieve that divides all its
    parameters, and only falls back to math.gcd when none does."""
    values = [params[x] for x in labels]

    def gcd_of(mask):
        g = 0
        for i, v in enumerate(values):
            if mask >> i & 1:
                g = math.gcd(g, v)
                if g == 1:
                    break
        return g

    primes = first_primes(len(masks))
    divides = []  # per label, a bitmask over `primes`
    for v in values:
        bits = 0
        for j, p in enumerate(primes):
            if v % p == 0:
                bits |= 1 << j
        divides.append(bits)

    def common_prime(mask):
        acc = -1
        for i, bits in enumerate(divides):
            if mask >> i & 1:
                acc &= bits
        return acc != 0

    expect(all(common_prime(m) or gcd_of(m) > 1 for m in masks),
           f"{name}: gcd = 1 on a maximal member")
    expect(all(gcd_of(f) == 1 for f in forbidden), f"{name}: gcd > 1 on a forbidden set")


def check_boolean(name: str, labels: list, params: dict, masks: list,
                  forbidden: list) -> None:
    """AND != 0 on every maximal member and AND = 0 on every forbidden set."""
    values = [params[x] for x in labels]

    def and_of(mask):
        acc = -1
        for i, v in enumerate(values):
            if mask >> i & 1:
                acc &= v
        return acc

    expect(all(and_of(m) != 0 for m in masks), f"{name}: AND = 0 on a maximal member")
    expect(all(and_of(f) == 0 for f in forbidden), f"{name}: AND != 0 on a forbidden set")


def is_antichain(nodes) -> bool:
    return all(not (_prefix(a, b) or _prefix(b, a))
               for a, b in itertools.combinations(nodes, 2))


def check_iso_copy(y, mapping, host) -> None:
    """An injective, lex-monotone map of y into host whose image is an
    antichain."""
    expect(mapping is not None, f"no copy of {sorted(y)} found")
    keys = sorted(mapping)
    expect(keys == sorted(y), "copy is not defined on the whole antichain")
    image = [mapping[x] for x in keys]
    expect(len(set(image)) == len(image), "copy is not injective")
    expect(all(a < b for a, b in zip(image, image[1:])), "copy is not lex-monotone")
    expect(set(image) <= set(host), "copy leaves the universal antichain")
    expect(is_antichain(image), "image of the copy is not an antichain")
