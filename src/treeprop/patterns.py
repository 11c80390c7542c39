"""Tree-property patterns and witness verification.

Each pattern names an index set plus two generated families: sets that a
witness must make consistent and sets it must make inconsistent. The exact
consistency family of a pattern is the subset closure of its maximal
forbidden-configuration-free sets; exhaustive verification checks the oracle
verdict against family membership on every nonempty index subset, reading
membership from the subset scanner's table of forbidden-free masks.

Families and the tree patterns' required sets come from the tree recursion,
the subset scanner and the chain generator in `antichains`. A
`ConsistencyFamily` stores its maximal members as masks and each label's
column, the bitmask of the members containing it; membership and both
synthesized witnesses read the columns. Members given from outside are
checked; `exact_family` builds them maximal and in order, unchecked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from .antichains import (DEFAULT_SUBSET_CAP, _check_subset_cap,
                         canonical_sets, chains, enumerate_antichains,
                         forbidden_free_table, mask_set,
                         maximal_chain_free_masks, maximal_free_masks, set_key)
from .nodes import TreeDomain, is_prefix

ATP = "atp"
KATP = "katp"
SOP1 = "sop1"
SOP2 = "sop2"
TP = "tp"
TP2 = "tp2"

TREE_KINDS = (ATP, KATP, SOP1, SOP2, TP)


@dataclass(frozen=True)
class PatternSpec:
    kind: str
    branching: int = 2
    depth: int = 0
    k: Optional[int] = None  # katp / tp arity of the inconsistency condition
    rows: int = 0  # tp2 only
    cols: int = 0

    def index_labels(self) -> Tuple:
        """Index set in canonical order: tree nodes lexicographically, or
        array cells row-major."""
        if self.kind == TP2:
            return tuple((i, j) for i in range(self.rows) for j in range(self.cols))
        return tuple(self.domain().nodes())

    def index_count(self) -> int:
        """Size of the index set, computed without building it."""
        if self.kind == TP2:
            return self.rows * self.cols
        return self.domain().node_count()

    def domain(self) -> TreeDomain:
        if self.kind == TP2:
            raise ValueError("tp2 is array-indexed")
        return TreeDomain(self.branching, self.depth)

    def to_json(self) -> dict:
        data = {"kind": self.kind}
        if self.kind == TP2:
            data.update(rows=self.rows, cols=self.cols)
        else:
            data.update(branching=self.branching, depth=self.depth)
        if self.k is not None:
            data["k"] = self.k
        return data

    @classmethod
    def from_json(cls, data: dict) -> "PatternSpec":
        return make_pattern(
            data["kind"],
            branching=data.get("branching", 2),
            depth=data.get("depth", 0),
            k=data.get("k"),
            rows=data.get("rows", 0),
            cols=data.get("cols", 0),
        )


def make_pattern(kind: str, branching: int = 2, depth: int = 0, k: int = None,
                 rows: int = 0, cols: int = 0) -> PatternSpec:
    kind = kind.lower()
    if kind == TP2:
        if rows < 1 or cols < 1:
            raise ValueError("tp2 needs rows >= 1 and cols >= 1")
        return PatternSpec(TP2, rows=rows, cols=cols)
    if kind not in TREE_KINDS:
        raise ValueError(f"unknown pattern kind {kind!r}")
    if depth < 1:
        raise ValueError(f"{kind} needs depth >= 1")
    if kind in (KATP, TP):
        if k is None or k < 2:
            raise ValueError(f"{kind} needs k >= 2")
    elif k is not None:
        raise ValueError(f"{kind} takes no k parameter")
    if kind in (ATP, KATP, SOP1, SOP2) and branching != 2:
        raise ValueError(f"{kind} is a binary-tree pattern")
    return PatternSpec(kind, branching=branching, depth=depth, k=k)


def required_consistent(p: PatternSpec) -> List[FrozenSet]:
    if p.kind in (ATP, KATP):
        return list(enumerate_antichains(p.domain()).items)
    if p.kind in (SOP1, SOP2, TP):
        return canonical_sets(chains(p.domain()))
    if p.kind == TP2:
        out = []
        for r in range(1, p.rows + 1):
            for row_combo in itertools.combinations(range(p.rows), r):
                for cols in itertools.product(range(p.cols), repeat=r):
                    out.append(frozenset(zip(row_combo, cols)))
        return canonical_sets(out)
    raise ValueError(p.kind)


def required_inconsistent(p: PatternSpec) -> List[FrozenSet]:
    labels = p.index_labels()
    if p.kind in (ATP, KATP):
        k = 2 if p.kind == ATP else p.k
        return canonical_sets(c for c in chains(p.domain()) if len(c) == k)
    if p.kind == SOP2:
        return canonical_sets(
            frozenset({a, b})
            for a, b in itertools.combinations(labels, 2)
            if not (is_prefix(a, b) or is_prefix(b, a))
        )
    if p.kind == SOP1:
        domain = p.domain()
        out = set()
        for eta in labels:
            left = eta + (1,)
            if not domain.contains(left):
                continue
            for nu in labels:
                right = eta + (0,) + nu
                if domain.contains(right):
                    out.add(frozenset({left, right}))
        return canonical_sets(out)
    if p.kind == TP:
        out = []
        for eta in labels:
            children = [eta + (i,) for i in range(p.branching)]
            if not p.domain().contains(children[0]):
                continue
            for combo in itertools.combinations(children, p.k):
                out.append(frozenset(combo))
        return canonical_sets(out)
    if p.kind == TP2:
        return canonical_sets(
            frozenset({(i, j1), (i, j2)})
            for i in range(p.rows)
            for j1, j2 in itertools.combinations(range(p.cols), 2)
        )
    raise ValueError(p.kind)


# _BIT_DIGITS[t][v] is the ASCII digit of bit t of the byte v
_BIT_DIGITS = [bytes(48 + (v >> t & 1) for v in range(256)) for t in range(8)]


def _columns(labels, masks) -> Dict:
    """Each label's column: bit n is set when masks[n] holds the label. A
    strided slice of the members' bytes, translated to digits, is one column."""
    width = (len(labels) + 7) // 8
    rows = b"".join(m.to_bytes(width, "little") for m in masks)
    return {x: int(rows[i // 8::width].translate(_BIT_DIGITS[i % 8])[::-1] or b"0", 2)
            for i, x in enumerate(labels)}


def _containing(columns: Dict, subset) -> int:
    """The AND of the subset's columns: the members containing all of it."""
    acc = -1
    for x in subset:
        acc &= columns.get(x, 0)
    return acc


@dataclass(frozen=True, init=False)
class ConsistencyFamily:
    """A subset-closed family of nonempty index sets, stored by its maximal
    members as bitmasks over the labels (bit i is labels[i]) in canonical
    order, with each label's column; membership is inclusion in some member.
    `maximal` builds the members as frozensets on first access.

    The constructor and `from_members` check what they are given (a member is
    maximal and unique exactly when its columns AND to its own bit);
    `from_masks` trusts members that are maximal by construction."""

    labels: Tuple
    masks: Tuple[int, ...]
    columns: Dict = field(repr=False, compare=False)

    def __init__(self, labels, maximal):
        labels = tuple(labels)
        index = {x: i for i, x in enumerate(labels)}
        members = [set(m) for m in maximal]
        if not all(m and m.issubset(index) for m in members):
            raise ValueError("maximal members must be nonempty subsets of the index set")
        self._set(labels, [sum(1 << index[x] for x in m) for m in members])
        if self._covers() != [1 << n for n in range(len(self.masks))]:
            raise ValueError("maximal members must be pairwise incomparable")

    def _set(self, labels, masks) -> None:
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "columns", _columns(self.labels, self.masks))

    def _covers(self) -> List[int]:
        """For each member, the members containing it."""
        return [_containing(self.columns, mask_set(self.labels, m)) for m in self.masks]

    @classmethod
    def from_masks(cls, labels, masks) -> "ConsistencyFamily":
        family = object.__new__(cls)
        family._set(labels, masks)
        return family

    @classmethod
    def from_members(cls, labels, members) -> "ConsistencyFamily":
        labels = tuple(labels)
        index = {x: i for i, x in enumerate(labels)}
        unique = {frozenset(m) for m in members if m}
        if not all(m.issubset(index) for m in unique):  # before the sort compares labels
            raise ValueError("members must be subsets of the index set")
        family = cls.from_masks(labels, [sum(1 << index[x] for x in m)
                                         for m in sorted(unique, key=set_key)])
        return cls.from_masks(labels, [m for m, c in zip(family.masks, family._covers())
                                       if c.bit_count() == 1])

    @cached_property
    def maximal(self) -> Tuple[FrozenSet, ...]:
        return tuple(mask_set(self.labels, m) for m in self.masks)

    def contains(self, subset) -> bool:
        subset = frozenset(subset)
        return bool(subset) and _containing(self.columns, subset) != 0


def exact_family(p: PatternSpec, cap: int = DEFAULT_SUBSET_CAP) -> ConsistencyFamily:
    """Maximal members of the family of sets avoiding the pattern's
    forbidden configuration, in canonical order and unchecked: the tree
    recursion for ATP (k = 2) and k-ATP, the root-to-leaf paths for SOP2, one
    cell per row for TP2, and the subset scan otherwise."""
    if p.kind in (ATP, KATP) and p.branching == 2:
        masks = maximal_chain_free_masks(p.depth, 2 if p.kind == ATP else p.k)
        return ConsistencyFamily.from_masks(p.index_labels(), masks)
    labels = p.index_labels()
    index = {x: i for i, x in enumerate(labels)}
    if p.kind == SOP2:
        masks = [sum(1 << index[leaf[:l]] for l in range(len(leaf) + 1))
                 for leaf in p.domain().level(p.domain().max_length())]
    elif p.kind == TP2:
        masks = [sum(1 << index[cell] for cell in enumerate(cols))
                 for cols in itertools.product(range(p.cols), repeat=p.rows)]
    else:
        free = forbidden_free_table(labels, required_inconsistent(p), cap)
        masks = sorted(maximal_free_masks(free), key=lambda m: set_key(mask_set(labels, m)))
    return ConsistencyFamily.from_masks(labels, masks)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    consistent_checked: int
    inconsistent_checked: int
    exhaustive: bool
    counterexample: Optional[tuple] = None  # (subset, expected, actual)

    def summary(self) -> str:
        verdict = "pass" if self.passed else "fail"
        scope = "exhaustive" if self.exhaustive else "pattern"
        line = (f"{verdict} ({scope}): {self.consistent_checked} consistent, "
                f"{self.inconsistent_checked} inconsistent")
        if self.counterexample:
            subset, expected, actual = self.counterexample
            line += (f"; counterexample {sorted(subset)}: "
                     f"expected {expected}, got {actual}")
        return line


def _subset_table(labels) -> List[Tuple]:
    """table[mask] is the tuple of the labels whose bits are set, in label
    order; each label doubles the table."""
    table = [()]
    for x in labels:
        table += [subset + (x,) for subset in table]
    return table


def verify(oracle, witness, p: PatternSpec, exhaustive: bool = False,
           cap: int = DEFAULT_SUBSET_CAP) -> VerificationReport:
    """Check the witness against the pattern through the oracle. Pattern mode
    checks the generated families; exhaustive mode additionally compares the
    oracle verdict with exact-family membership on every nonempty subset, in
    increasing mask order. The exact family is the subset closure of the
    maximal sets free of `required_inconsistent(p)`, so membership is read
    from the subset scanner's table, one byte per mask; the 2^n cap is checked
    before any other work."""
    if exhaustive:
        _check_subset_cap(p.index_count(), cap)
    labels = p.index_labels()
    if set(witness.labels) != set(labels):
        raise ValueError("witness index set does not match the pattern")
    n_cons = n_incons = 0
    for subset in required_consistent(p):
        n_cons += 1
        if not oracle.consistent(subset):
            return VerificationReport(False, n_cons, n_incons, exhaustive,
                                      (subset, "consistent", "inconsistent"))
    forbidden = required_inconsistent(p)
    for subset in forbidden:
        n_incons += 1
        if oracle.consistent(subset):
            return VerificationReport(False, n_cons, n_incons, exhaustive,
                                      (subset, "inconsistent", "consistent"))
    if not exhaustive:
        return VerificationReport(True, n_cons, n_incons, False)
    free = forbidden_free_table(labels, forbidden, cap)
    # each subset reaches the oracle as a label tuple joined from two tables
    # of 2^(n/2) entries, so no set is built per mask
    half = len(labels) // 2
    low, high = _subset_table(labels[:half]), _subset_table(labels[half:])
    low_bits = (1 << half) - 1
    for mask in range(1, len(free)):
        actual = oracle.consistent(low[mask & low_bits] + high[mask >> half])
        if free[mask] != actual:
            n_cons = free.count(1, 1, mask + 1)
            want = "consistent" if free[mask] else "inconsistent"
            got = "consistent" if actual else "inconsistent"
            return VerificationReport(False, n_cons, mask - n_cons, True,
                                      (mask_set(labels, mask), want, got))
    n_cons = free.count(1) - 1
    return VerificationReport(True, n_cons, len(free) - 1 - n_cons, True)
