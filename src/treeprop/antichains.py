"""Antichain enumeration and construction.

Index subsets are int bitmasks over a canonical label order (bit i is the
i-th label). `forbidden_free_table` is the one subset scanner and `chains`
the one chain generator; where a tree recursion exists it replaces the scan,
which stays as its brute-force reference.

Canonical orders used throughout:
  * a node set is canonically presented as its lex-sorted tuple of nodes;
  * a list of node sets is canonically ordered by comparing those tuples;
  * maximal-antichain catalogs built by the binary recursion keep recursion
    order instead (pairwise products in row-major order, then {root} last),
    because downstream constructions index into that exact order;
  * the enumeration X_0, X_1, ... of all finite nonempty binary antichains
    is by depth of first appearance, then canonical set order within a depth.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterator, List, Tuple

from .errors import ResourceCapError
from .nodes import Node, TreeDomain, concat_set, sorted_nodes

NodeSet = FrozenSet[Node]

DEFAULT_SUBSET_CAP = 2 ** 20


def set_key(nodes) -> Tuple[Node, ...]:
    return tuple(sorted(nodes))


def canonical_sets(sets) -> List[NodeSet]:
    return sorted((frozenset(s) for s in sets), key=set_key)


@dataclass(frozen=True)
class AntichainCatalog:
    domain: TreeDomain
    items: Tuple[NodeSet, ...]

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def alpha(n: int) -> int:
    """Number of maximal antichains in the binary tree of depth n:
    alpha(0) = 0, alpha(n+1) = alpha(n)**2 + 1, the count c(n-1) below."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return count_antichains(2, n - 1, nonempty=False) if n else 0


def count_antichains(branching: int, depth: int, nonempty: bool = True) -> int:
    """Antichain count by the product recursion c(d+1) = c(d)**b + 1,
    where c counts antichains including the empty one. A count past the
    interpreter's default int-to-str digit limit is refused before it is taken."""
    digits = sys.int_info.default_max_str_digits
    c = 1
    for _ in range(depth):
        # c**b has at least b * (bit_length(c) - 1) bits, and 2**(4 * digits) > 10**digits
        if branching * (c.bit_length() - 1) >= 4 * digits or c ** branching + 1 >= 10 ** digits:
            raise ResourceCapError(f"antichain count c({depth}) over {digits} decimal digits", digits)
        c = c ** branching + 1
    return c - 1 if nonempty else c


def mask_set(labels, mask: int) -> frozenset:
    """The labels whose bits are set in the mask (bit i is labels[i])."""
    return frozenset(x for i, x in enumerate(labels) if mask >> i & 1)


def _check_subset_cap(n: int, cap: int) -> None:
    """Refuse a scan of 2^n subsets past the cap, without building 1 << n; an n
    too long to print in decimal (a deep domain's node count) is shown as a
    power of two."""
    if n >= cap.bit_length():
        shown = n if n.bit_length() < 64 else f"(at least 2^{n.bit_length() - 1})"
        raise ResourceCapError(f"subset scan over 2^{shown} subsets", cap)


def forbidden_free_table(labels, forbidden, cap: int) -> bytearray:
    """The subset scan: free[mask] is 1 when the mask over the labels contains
    no forbidden set, else 0. A mask is free when it is free without its top
    bit and holds no forbidden set with that top bit. `forbidden` is read only
    after the cap check."""
    labels = list(labels)
    n = len(labels)
    _check_subset_cap(n, cap)
    index = {x: i for i, x in enumerate(labels)}
    by_top: List[List[int]] = [[] for _ in range(n)]
    for s in forbidden:
        m = sum(1 << index[x] for x in s)
        by_top[m.bit_length() - 1].append(m)
    free = bytearray(1 << n)
    free[0] = 1
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        free[mask] = free[mask ^ 1 << top] and all(m & mask != m for m in by_top[top])
    return free


def maximal_free_masks(free: bytearray) -> List[int]:
    """The maximal free masks of a scan table, in increasing order: free masks
    are closed under subsets, so a free mask is maximal when no one-bit
    extension of it is free."""
    n = len(free).bit_length() - 1
    return [mask for mask in range(1 << n)
            if free[mask] and all(mask >> i & 1 or not free[mask | 1 << i] for i in range(n))]


def chains(domain: TreeDomain) -> Iterator[NodeSet]:
    """Every nonempty chain of the domain, once each: a node together with
    any subset of its proper prefixes."""
    for node in domain.nodes():
        below = [node[:l] for l in range(len(node))]
        for r in range(len(below) + 1):
            for combo in itertools.combinations(below, r):
                yield frozenset(combo + (node,))


def enumerate_antichains(domain: TreeDomain, nonempty: bool = True,
                         cap: int = DEFAULT_SUBSET_CAP) -> AntichainCatalog:
    _check_subset_cap(domain.node_count(), cap)
    nodes = list(domain.nodes())
    pairs = (c for c in chains(domain) if len(c) == 2)
    free = forbidden_free_table(nodes, pairs, cap)
    items = [mask_set(nodes, m) for m in range(1 if nonempty else 0, len(free)) if free[m]]
    return AntichainCatalog(domain, tuple(canonical_sets(items)))


def maximal_antichains(n: int, cap: int = alpha(6)) -> AntichainCatalog:
    """All maximal antichains of the binary tree of depth n, built by the
    recursion: products of 0-/1-prefixed depth-(n-1) catalogs row-major,
    then {root} appended."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if alpha(n) > cap:
        raise ResourceCapError(f"maximal antichain catalog of size alpha({n})", cap)
    items: List[NodeSet] = []
    for _ in range(n):
        items = [
            concat_set((0,), xi) | concat_set((1,), xj)
            for xi in items
            for xj in items
        ] + [frozenset({()})]
    domain = TreeDomain(2, max(n, 1))
    return AntichainCatalog(domain, tuple(items))


def _has_chain(members: NodeSet, length: int) -> bool:
    """Whether the set contains `length` pairwise comparable distinct nodes."""
    if length <= 0:
        return True
    for x in members:
        if sum(1 for l in range(len(x) + 1) if x[:l] in members) >= length:
            return True
    return False


def max_chain_bounded_sets(domain: TreeDomain, k: int,
                           cap: int = DEFAULT_SUBSET_CAP) -> List[NodeSet]:
    """All maximal subsets containing no k pairwise comparable elements,
    by brute-force scan; for k=2 these are the maximal antichains."""
    if k < 2:
        raise ValueError("k must be >= 2")
    _check_subset_cap(domain.node_count(), cap)
    nodes = list(domain.nodes())
    k_chains = (c for c in chains(domain) if len(c) == k)
    maximal = maximal_free_masks(forbidden_free_table(nodes, k_chains, cap))
    return canonical_sets(mask_set(nodes, m) for m in maximal)


def maximal_chain_free_binary(n: int, k: int) -> List[NodeSet]:
    """Maximal k-chain-free subsets of the binary tree of depth n by tree
    recursion (no subset scan): with the root, both subtree parts must be
    maximal (k-1)-chain-free; without it, both parts are maximal k-chain-free
    and their union must already contain a (k-1)-chain (else the root could
    be added)."""
    if k < 1:
        raise ValueError("k must be >= 1")

    @lru_cache(maxsize=None)
    def rec(depth: int, bound: int) -> Tuple[NodeSet, ...]:
        if depth == 0 or bound == 1:
            return (frozenset(),)
        out = []
        with_root = rec(depth - 1, bound - 1)
        for left in with_root:
            for right in with_root:
                out.append(
                    frozenset({()}) | concat_set((0,), left) | concat_set((1,), right)
                )
        without_root = rec(depth - 1, bound)
        for left in without_root:
            for right in without_root:
                s = concat_set((0,), left) | concat_set((1,), right)
                if _has_chain(s, bound - 1):
                    out.append(s)
        return tuple(out)

    return canonical_sets(rec(n, k))


def finite_antichain_stream() -> Iterator[NodeSet]:
    """The canonical enumeration X_0, X_1, ... of all finite nonempty binary
    antichains: by depth of first appearance, canonical set order within."""
    seen = set()
    depth = 1
    while True:
        catalog = enumerate_antichains(TreeDomain(2, depth))
        for item in catalog:
            if item not in seen:
                seen.add(item)
                yield item
        depth += 1


def universal_prefix(m: int) -> NodeSet:
    """Union of 1^i 0-prefixed copies of the first m canonical antichains;
    always an antichain."""
    out = set()
    for i, x in enumerate(itertools.islice(finite_antichain_stream(), m)):
        out |= concat_set((1,) * i + (0,), x)
    return frozenset(out)


def find_iso_copy(y: NodeSet, x: NodeSet):
    """First (in lex order over sorted combinations) strongly isomorphic copy
    of the antichain y inside the antichain x, as a lex-monotone mapping,
    or None."""
    from .qftypes import qftype0

    y_tuple = sorted_nodes(y)
    target = qftype0(y_tuple)
    for candidate in itertools.combinations(sorted_nodes(x), len(y_tuple)):
        if qftype0(candidate) == target:
            return dict(zip(y_tuple, candidate))
    return None
