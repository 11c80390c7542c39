"""Canonical forms of quantifier-free node-tuple types.

Every type is one hashable form, so type equality is form equality and
tuples group by type in a dict. `_order_type(points)` is the form of the
prefix and lex relations among a tuple's positions: each position's rank
among the distinct values, and the prefix matrix over the distinct values in
sorted order. Equal forms mean equal (prefix, lex) tables over positions.

Two tuples are strongly isomorphic (sim0) when the order types of their
meet-closure tuples coincide; the closure tuple is meet-closed, so every
quantifier-free term collapses to a closure position. The atomic pattern is
the order type of the entries alone.

The four-place relation over an antichain holds of (a, b, c, d) when
meet(a, b) is a prefix of meet(c, d); sim_delta is equality of that tensor
together with the lexicographic pattern of the entries. Its form is built
from that definition alone: the first-occurrence class of each pairwise
meet, the prefix matrix over those classes, and the lex ranks of the entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

from .errors import ResourceCapError
from .nodes import Node, TreeDomain, closure


def _classes(points, values) -> tuple:
    """Each point's index in `values` (which lists every distinct point once)
    and the prefix matrix over `values`, row i the bitmask of the j with
    values[i] a prefix of values[j]."""
    index = {v: i for i, v in enumerate(values)}
    prefix = tuple(
        sum(1 << j for j, b in enumerate(values) if b[:len(a)] == a) for a in values
    )
    return tuple(index[p] for p in points), prefix


def _order_type(points) -> tuple:
    """Lex ranks of the positions among the distinct values, and the prefix
    matrix over the distinct values in sorted order."""
    return _classes(points, sorted(set(points)))


def qftype0(nodes: Tuple[Node, ...]) -> tuple:
    """Order type of the meet-closure tuple."""
    return _order_type(closure(tuple(nodes)))


def atomic_pattern(nodes: Tuple[Node, ...]) -> tuple:
    """Prefix-order / lex pattern on the tuple entries themselves, without
    meet closure. Two tuples with equal patterns satisfy the same atomic
    relations among their entries; this is weaker than sim0, which also
    tracks how the entries sit relative to their pairwise meets."""
    return _order_type(tuple(nodes))


def delta_type(nodes: Tuple[Node, ...]) -> tuple:
    """Meet-comparison tensor and lex pattern of a node tuple: the class of
    each pairwise meet (numbered by first occurrence, so equal meets share a
    class), the prefix matrix over the classes, and the entries' lex ranks."""
    t = tuple(nodes)
    if not t:
        raise ValueError("delta type of empty tuple")
    meets = closure(t)
    lex_ranks, _ = _order_type(t)
    return (*_classes(meets, list(dict.fromkeys(meets))), lex_ranks)


def sim0(t1, t2) -> bool:
    """Strong isomorphism of node tuples."""
    t1, t2 = tuple(t1), tuple(t2)
    return len(t1) == len(t2) and qftype0(t1) == qftype0(t2)


def sim0_atomic(t1, t2) -> bool:
    t1, t2 = tuple(t1), tuple(t2)
    return len(t1) == len(t2) and atomic_pattern(t1) == atomic_pattern(t2)


def sim0_sets(x1, x2) -> bool:
    """Strong isomorphism of node sets, compared as lex-ordered tuples."""
    return sim0(tuple(sorted(x1)), tuple(sorted(x2)))


def sim_delta(t1, t2) -> bool:
    t1, t2 = tuple(t1), tuple(t2)
    return len(t1) == len(t2) and delta_type(t1) == delta_type(t2)


@dataclass(frozen=True)
class SsLlReport:
    passed: bool
    tuple_count: int
    pair_count: int
    counterexample: tuple | None  # (tuple1, tuple2, sim_delta, sim0_of_closures)


def verify_ss_ll(branching: int, leaf_depth: int, tuple_len: int,
                 pair_cap: int = 2 ** 32) -> SsLlReport:
    """Exhaustive finite check that sim_delta on tuples of distinct leaves
    coincides with sim0 on their closure tuples (which is sim0 of the tuples:
    the meets of a closure tuple are its own entries). Tuples are grouped by
    form: the lemma holds when delta forms map to closure forms and back as
    functions. pair_count is the T^2 ordered comparisons this covers; the cap
    applies to it before any tuple is built."""
    if branching < 2 or leaf_depth < 1 or tuple_len < 1:
        raise ValueError("branching >= 2, leaf_depth >= 1, tuple_len >= 1 required")
    leaves = branching ** leaf_depth
    factors = range(leaves, leaves - tuple_len, -1) if tuple_len <= leaves else (0,)
    tuple_count = 1
    for free in factors:
        tuple_count *= free
        if tuple_count ** 2 > pair_cap:  # reported as a power of two, which always prints
            bits = 2 * tuple_count.bit_length() - 2
            raise ResourceCapError(f"ss-ll check needs at least 2^{bits} pair comparisons", pair_cap)
    domain = TreeDomain(branching, leaf_depth, include_leaves=True)
    closure_of, delta_of = {}, {}
    for t in itertools.permutations(domain.level(leaf_depth), tuple_len):
        d, c = delta_type(t), qftype0(t)
        c_first, t1 = closure_of.setdefault(d, (c, t))
        d_first, t2 = delta_of.setdefault(c, (d, t))
        if c_first != c or d_first != d:
            pair = (t1, t, True, False) if c_first != c else (t2, t, False, True)
            return SsLlReport(False, tuple_count, tuple_count ** 2, pair)
    return SsLlReport(True, tuple_count, tuple_count ** 2, None)
