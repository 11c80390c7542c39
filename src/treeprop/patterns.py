"""Tree-property patterns and witness verification.

Each pattern names an index set plus two generated families: sets that a
witness must make consistent and sets it must make inconsistent. The exact
consistency family of a pattern is the subset closure of its maximal
forbidden-configuration-free sets. Each verify mode has one engine, and its
report is that engine's: pattern verification streams the required sets, and
exhaustive verification checks the oracle verdict against family membership
on every nonempty index subset by class-pair tables of the two, for every
oracle, reading membership from the exact family's columns.

The required sets are lazy streams of int masks over the canonical label
order, from one chain and antichain walk (`antichains.subtree_walk`) over
each label's run: a node's subtree, or the rest of a cell's row, so that
TP2's rows are chains of cells. SOP1's pairs and TP's sibling sets are
listed directly, TP's refused past `antichains.FAMILY_CELL_CAP` labels.
`exact_family` only dispatches to the family builder of each kind in
`antichains`, which sizes the family, refuses it there, and returns its
`ConsistencyFamily`: the labels, a tuple of columns in label order (the
bitmask of the maximal members holding each label) and the count of
members. Membership and both synthesized witnesses read only the columns and
the count, so no member is listed on their way; the class lives in
`antichains`, and `patterns.ConsistencyFamily` names it too.
"""

from __future__ import annotations

import collections
import itertools
import operator
from typing import Dict, Iterator, List, Tuple

from .antichains import (ConsistencyFamily, _check_row_choices,
                         _check_sibling_sets, _check_subset_cap,
                         chain_free_columns, choice_columns, mask_labels,
                         mask_set, row_columns, subtree_walk)
from .errors import record
from .nodes import TreeDomain
from .oracles import semilattice

ATP = "atp"
KATP = "katp"
SOP1 = "sop1"
SOP2 = "sop2"
TP = "tp"
TP2 = "tp2"

TREE_KINDS = (ATP, KATP, SOP1, SOP2, TP)


class PatternSpec(record("kind branching depth k rows cols")):
    """A pattern, checked however it is built (`make_pattern` is this class):
    k is the arity of the katp and tp inconsistency condition, rows and cols
    are tp2's alone. The kind is read in any case, and each kind refuses the
    arguments it does not use: tp2 a k, a depth or a branching other than 2,
    the tree kinds rows or cols. Every size must be a plain int (a bool or a
    float is not), and k may be None."""

    def __new__(cls, kind: str, branching: int = 2, depth: int = 0, k: int = None,
                rows: int = 0, cols: int = 0):
        for name, value in zip(cls._fields[1:], (branching, depth, k, rows, cols)):
            if type(value) is not int and not (name == "k" and value is None):
                raise ValueError(f"{name} must be an integer, not {value!r:.40}")
        kind = kind.lower() if isinstance(kind, str) else kind
        if kind == TP2:
            if rows < 1 or cols < 1:
                raise ValueError("tp2 needs rows >= 1 and cols >= 1")
            if k is not None:
                raise ValueError("tp2 takes no k parameter")
            if depth or branching != 2:
                raise ValueError("tp2 takes no depth or branching")
        elif kind not in TREE_KINDS:
            raise ValueError(f"unknown pattern kind {kind!r}")
        elif rows or cols:
            raise ValueError(f"{kind} takes no rows or cols")
        elif depth < 1:
            raise ValueError(f"{kind} needs depth >= 1")
        elif kind in (KATP, TP) and (k is None or k < 2):
            raise ValueError(f"{kind} needs k >= 2")
        elif kind not in (KATP, TP) and k is not None:
            raise ValueError(f"{kind} takes no k parameter")
        elif kind != TP and branching != 2:
            raise ValueError(f"{kind} is a binary-tree pattern")
        return super().__new__(cls, kind, branching, depth, k, rows, cols)

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

    def runs(self) -> List[int]:
        """Each label's run in `subtree_walk`: a node's subtree, or the rest of a cell's row."""
        if self.kind == TP2:
            return [self.cols - c for _ in range(self.rows) for c in range(self.cols)]
        return self.domain().subtree_sizes()

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
        return cls(data["kind"], branching=data.get("branching", 2), depth=data.get("depth", 0),
                   k=data.get("k"), rows=data.get("rows", 0), cols=data.get("cols", 0))


make_pattern = PatternSpec


def required_consistent(p: PatternSpec) -> Iterator[int]:
    """The sets a witness must make consistent, as a lazy stream of masks over
    `p.index_labels()` in canonical order: the antichains of `subtree_walk`
    (ATP, k-ATP, and TP2's sets of one cell from each of some rows) or its
    chains (SOP1, SOP2, TP). ATP and k-ATP are refused past 2^n subsets and
    TP2 past its exact count (cols+1)^rows - 1, both against
    DEFAULT_SUBSET_CAP, when this is called."""
    if p.kind in (ATP, KATP):
        _check_subset_cap(p.index_count())
    elif p.kind == TP2:
        _check_row_choices(p.rows, p.cols)
    return subtree_walk(p.runs(), chains=p.kind in (SOP1, SOP2, TP))


def required_inconsistent(p: PatternSpec) -> Iterator[int]:
    """The sets a witness must make inconsistent, as a lazy stream of masks
    over `p.index_labels()` in canonical order: the k-chains (ATP with k = 2,
    k-ATP), incomparable pairs (SOP2) or same-row pairs (TP2) of
    `subtree_walk`; SOP1's pairs {eta 1, eta 0 nu} and TP's sets of k
    siblings listed directly. TP's sets are refused by `_check_sibling_sets`
    when this is called."""
    if p.kind == TP:
        _check_sibling_sets(p.branching, p.k, (p.index_count() - 1) // p.branching)
    labels, runs = p.index_labels(), p.runs()
    if p.kind == SOP1:  # x and x[:i] + (1,) per 0 digit i of x, the last first
        index = {x: n for n, x in enumerate(labels)}
        return (1 << n | 1 << index[x[:i] + (1,)] for n, x in enumerate(labels)
                for i in reversed(range(len(x))) if x[i] == 0)
    if p.kind == TP:  # by first sibling, if k - 1 follow it; the c-th after it starts c runs on
        return (sum((1 << j for j in others), 1 << i) for i, x in enumerate(labels[1:], 1)
                if p.branching - x[-1] >= p.k
                for others in itertools.combinations(
                    [i + c * runs[i] for c in range(1, p.branching - x[-1])], p.k - 1))
    k = p.k if p.kind == KATP else 2
    return (m for m in subtree_walk(runs, chains=p.kind != SOP2, most=k) if m.bit_count() == k)


def exact_family(p: PatternSpec) -> ConsistencyFamily:
    """Maximal members of the family of sets avoiding the pattern's forbidden
    configuration, in canonical order, as the family that the
    `antichains` builder of its kind makes, which refuses it past its cap
    before any column or label is built: one choice per node for every tree
    kind, one cell per row for TP2."""
    if p.kind in (ATP, KATP):
        return chain_free_columns(p.depth, 2 if p.kind == ATP else p.k)
    if p.kind in (SOP1, SOP2):
        return choice_columns(2, p.depth, 1, emptied=(0,) if p.kind == SOP1 else (0, 1))
    if p.kind == TP:
        return choice_columns(p.branching, p.depth, min(p.k - 1, p.branching))
    return row_columns(p.rows, p.cols)


class VerificationReport(record("passed consistent_checked inconsistent_checked exhaustive "
                                "counterexample", defaults=(None,))):
    """A verdict and the subset counts it covers; counterexample is None or
    (subset, expected, actual)."""

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


def _meet_table(top, meet, elements) -> List:
    """table[mask] is the meet of the elements whose bits are set in mask,
    folded in order from top; each element doubles the table."""
    table = [top]
    for e in elements:
        table += [meet(v, e) for v in table]
    return table


def _classes(members, values) -> Dict:
    """{(member, value): [first index, count]} over two tables of one half:
    the classes of indices with equal membership and meet, in order of first
    index."""
    classes = {}
    for i, pair in enumerate(zip(members, values, strict=True)):
        classes.setdefault(pair, [i, 0])[1] += 1
    return classes


def _members_up_to(in_low, in_high, h0: int, l0: int) -> int:
    """How many nonempty masks up to h0 << half | l0 are exact-family
    members, read from the two membership tables: the rows below h0 by
    classes of equal membership on both sides, then row h0 up to l0."""
    rows = collections.Counter(in_high[:h0])
    count = sum(n_l * n_h for m_l, n_l in collections.Counter(in_low).items()
                for m_h, n_h in rows.items() if m_l & m_h)
    count += sum(m & in_high[h0] != 0 for m in in_low[:l0 + 1])
    return count - 1  # the empty set, whose membership -1 meets every row


def _class_pairs(lattice, labels, p: PatternSpec) -> VerificationReport:
    """The exhaustive verdict on every nonempty subset, from two tables of
    2^(n/2) entries over the low and the high half of the labels: membership
    from the ANDs of the `exact_family(p)` columns, nonzero for a member, and
    the meets of the oracle's lattice (`oracles.semilattice`). A mask's
    verdict depends only on its halves' (membership, meet) pairs, so each
    half's indices are grouped into classes of equal pairs, and each pair of
    a high and a low class is judged once, by one holds(meet(low, high)), for
    all the masks it holds. High classes outside and low classes inside, each
    in order of first index, meet the first failing mask first, and the
    report counts the masks up to it."""
    top, meet, element, holds = lattice
    elements = [element(x) for x in labels]
    columns = exact_family(p).columns
    half = len(labels) // 2
    low, high = _meet_table(top, meet, elements[:half]), _meet_table(top, meet, elements[half:])
    in_low = _meet_table(-1, operator.and_, columns[:half])
    in_high = _meet_table(-1, operator.and_, columns[half:])
    n_cons = 0
    low_classes = _classes(in_low, low).items()
    for (in_h, high_value), (h0, count_h) in _classes(in_high, high).items():
        for (in_l, low_value), (l0, count_l) in low_classes:
            if h0 == l0 == 0:  # the empty set: membership -1, so a class of its own
                continue
            expected = in_l & in_h != 0
            n_cons += expected * count_l * count_h
            if expected != holds(meet(low_value, high_value)):
                mask = h0 << half | l0  # the first failing mask
                n_cons = _members_up_to(in_low, in_high, h0, l0)
                want = "consistent" if expected else "inconsistent"
                got = "inconsistent" if expected else "consistent"
                return VerificationReport(False, n_cons, mask - n_cons, True,
                                          (mask_set(labels, mask), want, got))
    return VerificationReport(True, n_cons, (1 << len(labels)) - 1 - n_cons, True)


def _stream(oracle, labels, p: PatternSpec) -> VerificationReport:
    """The required families through oracle.consistent(), each mask's labels
    in label order: the first failure, or a pass with the counts checked."""
    checked = [0, 0]  # consistent, inconsistent
    for want, masks in ((True, required_consistent(p)), (False, required_inconsistent(p))):
        for mask in masks:
            checked[not want] += 1
            if bool(oracle.consistent(mask_labels(labels, mask))) != want:
                names = ("inconsistent", "consistent")
                return VerificationReport(False, *checked, False,
                                          (mask_set(labels, mask), names[want], names[not want]))
    return VerificationReport(True, *checked, False)


def verify(oracle, witness, p: PatternSpec, exhaustive: bool = False) -> VerificationReport:
    """Check the witness against the pattern through the oracle. Each mode has
    one engine. Pattern mode streams the required families, asks the oracle
    about each mask's labels in label order, and builds a frozenset only for
    a counterexample, so it holds one set at a time. Exhaustive mode compares
    the oracle verdict with exact-family membership on every nonempty subset
    by the class-pair tables of `_class_pairs`, and its report is theirs: a
    pass, or the first failing subset in mask order with the counts of the
    masks up to it. 2^n subsets are checked against DEFAULT_SUBSET_CAP before
    any other work, and whatever the oracle raises propagates. Only this mode
    adapts an oracle with only consistent(): the label-tuple lattice of
    `oracles.semilattice` makes every index a class, so it is asked once per
    mask, in mask order, up to the first failing mask."""
    if exhaustive:
        _check_subset_cap(p.index_count())
    labels = p.index_labels()
    if set(witness.labels) != set(labels):
        raise ValueError("witness index set does not match the pattern")
    if exhaustive:
        return _class_pairs(semilattice(oracle), labels, p)
    return _stream(oracle, labels, p)
