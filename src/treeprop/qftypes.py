"""Canonical forms of quantifier-free node-tuple types.

Every type is one hashable form, so type equality is form equality and
tuples group by type in a dict, as the ss-ll check groups them.
`_order_type(points)` is the form of the
prefix and lex relations among a tuple's positions: each position's rank
among the distinct values, and the prefix matrix over the distinct values in
sorted order. Equal forms mean equal (prefix, lex) tables over positions.
Each form comes from one sort of the positions and hashes no node: in
sorted order equal values are adjacent and the values extending a value are
the run right after it, so one forward walk finds every row's run of bits.

sim0 and sim0_atomic answer only yes or no, so they build no form.
`_same_order_type(t1, t2)` walks t1's sorted positions with t2 in step and
returns False at the first step where the equality of adjacent positions,
the strict lex order of t2 or a pop of the open-run stack differs. The pops
fix the prefix rows, so the walk returns True exactly when the forms are
equal; the differential tests tie it to form equality.

Two tuples are strongly isomorphic (sim0) when their meet-closure tuples
have one order type; the closure tuple is meet-closed, so every
quantifier-free term collapses to a closure position. `qftype0` reads that
type off 2k - 1 points, not the k^2 of the closure: the k entries, then the
meets of lex-adjacent entries of the sorted tuple. For sorted nodes the meet
of a_i and a_j (i < j) is the shortest adjacent meet between them, so these
points take exactly the closure's distinct values, and each closure position
is the longest value below both its entries in the prefix rows. sim0 is
equality of this 2k - 1-point form, walked over both tuples' points. The
atomic pattern is the order type of the entries alone.

The four-place relation over an antichain holds of (a, b, c, d) when
meet(a, b) is a prefix of meet(c, d); sim_delta is equality of that tensor
together with the lexicographic pattern of the entries. Its form is read
off the closure tuple's order type: the first-occurrence class of each
pairwise meet, the prefix matrix over those classes, and the lex ranks of
the entries, which are the closure's diagonal.
"""

from __future__ import annotations

import itertools
import math
from typing import Tuple

from .errors import ResourceCapError, record
from .nodes import Node, TreeDomain, closure, meet


def _order_type(points) -> tuple:
    """Lex ranks of the positions among the distinct values, and the prefix
    matrix over the distinct values in sorted order: row i is the bitmask of
    the j with values[i] a prefix of values[j], which is (1 << end) - (1 << i).
    One walk over the sorted positions compares each value with the last
    distinct one, and closes each open run that the new value does not extend
    (the open values form a chain)."""
    order = sorted(range(len(points)), key=points.__getitem__)
    ranks = [0] * len(points)
    values, rows = [], []
    open_runs = []  # the indices whose run is still going, each a prefix of the next
    for p in order:
        b = points[p]
        if not values or b != values[-1]:
            j = len(values)
            while open_runs:
                a = values[open_runs[-1]]
                if b[:len(a)] == a:
                    break
                i = open_runs.pop()
                rows[i] = (1 << j) - (1 << i)
            open_runs.append(j)
            values.append(b)
            rows.append(0)
        ranks[p] = j
    for i in open_runs:
        rows[i] = (1 << len(values)) - (1 << i)
    return tuple(ranks), tuple(rows)


def _same_order_type(t1, t2) -> bool:
    """Whether `_order_type` of t1 and of t2 are equal, decided by its walk
    over t1's sorted positions with t2 taken at the same positions."""
    if len(t1) != len(t2):
        return False
    s1, s2 = [], []  # the open runs' values, each a prefix of the next
    for p in sorted(range(len(t1)), key=t1.__getitem__):
        b1, b2 = t1[p], t2[p]
        if s1 and b1 == s1[-1]:
            if b2 != s2[-1]:
                return False
            continue
        if s2 and not b2 > s2[-1]:
            return False
        while s1:
            below = b1[:len(s1[-1])] == s1[-1]
            if below != (b2[:len(s2[-1])] == s2[-1]):
                return False
            if below:
                break
            s1.pop()
            s2.pop()
        s1.append(b1)
        s2.append(b2)
    return True


def _points(nodes) -> tuple:
    """The 2k - 1 points of a k-tuple: its entries, then the meets of
    lex-adjacent entries of the sorted tuple."""
    t = tuple(nodes)
    if not t:
        raise ValueError("qftype0 of empty tuple")
    s = sorted(t)
    return t + tuple(map(meet, s, s[1:]))


def qftype0(nodes: Tuple[Node, ...]) -> tuple:
    """Order type of the entries followed by the meets of lex-adjacent
    entries of the sorted tuple: equal exactly when the closure tuples'
    order types are."""
    return _order_type(_points(nodes))


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
    return _delta_form(len(t), *_order_type(closure(t)))


def _delta_form(k: int, ranks: tuple, rows: tuple) -> tuple:
    """The delta type of a k-tuple from its closure's order type. The classes
    are the ranks by first occurrence; bits[i] holds the classes of the first
    i sorted meets, so row i, the run up to its bit length, moves to its class
    as bits[end] ^ bits[i]. The entries' lex ranks are the diagonal's, made dense."""
    classes = {r: c for c, r in enumerate(dict.fromkeys(ranks))}
    bits = [0]
    for r in range(len(rows)):
        bits.append(bits[-1] | 1 << classes[r])
    moved = [0] * len(rows)
    for i, row in enumerate(rows):
        moved[classes[i]] = bits[row.bit_length()] ^ bits[i]
    diagonal = ranks[::k + 1]
    dense = {r: i for i, r in enumerate(sorted(set(diagonal)))}
    return (tuple(map(classes.__getitem__, ranks)), tuple(moved),
            tuple(map(dense.__getitem__, diagonal)))


def _forms(t: Tuple[Node, ...]) -> tuple:
    """(delta_type(t), the closure tuple's own order type), both read from
    one closure; the second is computed apart from qftype0."""
    ranks, rows = _order_type(closure(t))
    return _delta_form(len(t), ranks, rows), (ranks, rows)


# Every form below has one rank per point and a point count fixed by the
# tuple's length, so equal forms mean equal lengths.

def sim0(t1, t2) -> bool:
    """Strong isomorphism of node tuples: equality of their qftype0 forms,
    decided by one walk over both tuples' points."""
    return _same_order_type(_points(t1), _points(t2))


def sim0_atomic(t1, t2) -> bool:
    return _same_order_type(tuple(t1), tuple(t2))


def sim0_sets(x1, x2) -> bool:
    """Strong isomorphism of node sets, compared as lex-ordered tuples."""
    return sim0(sorted(x1), sorted(x2))


def sim_delta(t1, t2) -> bool:
    return delta_type(t1) == delta_type(t2)


class SsLlReport(record("passed tuple_count pair_count counterexample")):
    """A verdict and the tuples and pairs it covers; counterexample is None
    or (tuple1, tuple2, sim_delta, sim0_of_closures)."""


# closure entries, C(leaves, k) increasing tuples x k^2, that one ss-ll check forms
SS_LL_CELL_CAP = 2 ** 23


def verify_ss_ll(branching: int, leaf_depth: int, tuple_len: int) -> SsLlReport:
    """Exhaustive finite check that sim_delta on tuples of distinct leaves
    coincides with sim0 on their closure tuples. The closure side is the
    closure tuple's own order type, `_order_type(closure(t))`, computed apart
    from qftype0: the meets of a closure tuple are its own entries, so its
    order type is its sim0 type, which is the tuple's. Tuples are grouped by
    form: the lemma holds when delta forms map to closure forms and back as
    functions. pair_count is the T^2 ordered comparisons this covers; the
    tree above the leaves is sized first, and SS_LL_CELL_CAP applies to the
    closure entries of the tuples formed before any tuple is built. Past the
    leaf count there are no tuples, and the check passes with none.

    Only the C(leaves, k) lex-increasing tuples are formed, which stand for
    all T = leaves! / (leaves - k)! of them by symmetry. Write t.p for t with
    its positions permuted by p, (t.p)[i] = t[p[i]]. For an increasing t the
    closure of t.p is t's closure with entry (p[i], p[j]) moved to (i, j), so
    the closure form of t.p is t's ranks permuted over the same rows, and its
    delta form is `_delta_form` of that: both are p acting on t's forms. Both
    forms also carry the entries' lex ranks, which read p back. So if t.p and
    u.q share a form, then p == q, and t and u share that form too (apply
    p^-1); forms that determine each other on increasing tuples determine
    each other on all of them. A failure names two increasing tuples."""
    if branching < 2 or leaf_depth < 1 or tuple_len < 1:
        raise ValueError("branching >= 2, leaf_depth >= 1, tuple_len >= 1 required")
    domain = TreeDomain(branching, leaf_depth)  # refuses a huge tree before the power
    leaves = branching ** leaf_depth
    if tuple_len > leaves:
        return SsLlReport(True, 0, 0, None)
    # C(leaves, k) = C(leaves, m), m = min(k, leaves - k), is built one step
    # at a time, and C(leaves, i) >= 2^i for i <= m: whatever the leaf count,
    # a product past the cap is stopped within 24 steps, at a lower bound
    increasing, per_tuple = 1, tuple_len * tuple_len
    for step in range(min(tuple_len, leaves - tuple_len)):
        if increasing * per_tuple > SS_LL_CELL_CAP:
            break
        increasing = increasing * (leaves - step) // (step + 1)
    if increasing * per_tuple > SS_LL_CELL_CAP:  # reported as a power of two, which always prints
        bits = (increasing * per_tuple).bit_length() - 1
        raise ResourceCapError(f"ss-ll check needs at least 2^{bits} closure entries",
                               SS_LL_CELL_CAP)
    tuple_count = increasing * math.factorial(tuple_len)
    closure_of, delta_of = {}, {}
    for t in itertools.combinations(domain.level(leaf_depth), tuple_len):
        d, c = _forms(t)
        c_first, t1 = closure_of.setdefault(d, (c, t))
        d_first, t2 = delta_of.setdefault(c, (d, t))
        if c_first != c or d_first != d:
            pair = (t1, t, True, False) if c_first != c else (t2, t, False, True)
            return SsLlReport(False, tuple_count, tuple_count ** 2, pair)
    return SsLlReport(True, tuple_count, tuple_count ** 2, None)
