"""Antichain enumeration and construction.

Index subsets are int bitmasks over a canonical label order (bit i is the
i-th label). `forbidden_free_table` is the one subset scanner and `chains`
the one chain generator; `maximal_chain_free_masks` is the one tree
recursion, and for the binary tree it replaces the scan, which stays as its
brute-force reference next to the tests.

Canonical orders used throughout:
  * a node set is canonically presented as its lex-sorted tuple of nodes;
  * a list of node sets is canonically ordered by comparing those tuples;
    the recursion emits its members in that order (the sets holding the
    root first), so its catalogs need no sort;
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


def chain_free_count(n: int, k: int, cap: int) -> int:
    """Number of maximal k-chain-free sets of the binary tree of depth n, by
    the recursion of `maximal_chain_free_masks`: c(d, b) = 1 when b == 1 or
    b > d, else c(d-1, b-1)**2 + c(d-1, b)**2. Every count it passes through
    is at most c(n, k), so the first one past the cap refuses, before any
    count grows doubly exponentially (within about 7 levels of every n)."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    row = {}  # b -> c(d, b) for the bounds 1 < b <= d that feed c(n, k)
    for d in range(1, n + 1):
        row = {b: row.get(b - 1, 1) ** 2 + row.get(b, 1) ** 2
               for b in range(max(2, k - n + d), min(k, d) + 1)}
        if row and max(row.values()) > cap:
            size = f"alpha({n})" if k == 2 else f"c_{k}({n})"
            relation = "=" if d == n else ">="
            raise ResourceCapError(f"maximal {k}-chain-free family of size {size} "
                                   f"{relation} {max(row.values())}", cap)
    return row.get(k, 1)


def maximal_chain_free_masks(n: int, k: int, cap: int = alpha(6)) -> List[int]:
    """The maximal k-chain-free subsets of the binary tree of depth n as masks
    over its nodes in lex order, in canonical order, counted against the cap
    before any is built. The root is bit 0 and each child subtree a run of
    s = 2^(d-1) - 1 bits, so subtree sets a, b give a << 1 | b << (1 + s).
    With the root, both parts are maximal (k-1)-chain-free; without it, both
    are maximal k-chain-free and must hold a (k-1)-chain (else the root fits),
    which all of them do in subtrees of depth >= k-1 and none in shallower
    ones. Row-major pairs, the root block first, are in canonical order."""
    chain_free_count(n, k, cap)

    @lru_cache(maxsize=None)
    def rec(depth: int, bound: int) -> List[int]:
        if bound > depth:  # the whole tree holds no bound-chain
            return [(1 << 2 ** depth - 1) - 1]
        if bound == 1:
            return [0]
        s = 2 ** (depth - 1) - 1
        with_root = rec(depth - 1, bound - 1)
        without_root = rec(depth - 1, bound)
        return ([1 | a << 1 | b << 1 + s for a in with_root for b in with_root]
                + [a << 1 | b << 1 + s for a in without_root for b in without_root])

    return rec(n, k)


def maximal_antichains(n: int, cap: int = alpha(6)) -> AntichainCatalog:
    """All maximal antichains of the binary tree of depth n (none for n = 0),
    the k = 2 case of `maximal_chain_free_masks`, in canonical order."""
    domain = TreeDomain(2, max(n, 1))
    nodes = list(domain.nodes())
    masks = maximal_chain_free_masks(n, 2, cap) if n else []
    return AntichainCatalog(domain, tuple(mask_set(nodes, m) for m in masks))


def maximal_chain_free_binary(n: int, k: int) -> List[NodeSet]:
    """`maximal_chain_free_masks` as node sets."""
    nodes = list(TreeDomain(2, n).nodes()) if n > 0 else []
    return [mask_set(nodes, m) for m in maximal_chain_free_masks(n, k)]


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
