"""Antichain enumeration and construction.

Index subsets are int bitmasks over a canonical label order (bit i is the
i-th label). `subtree_walk` lists every nonempty chain or antichain of a
tree or of an array whose rows are chains.

The exact families, the maximal sets of every pattern free of its forbidden
configuration (k-chains, SOP1 pairs, incomparable pairs, k siblings, two
cells of a row), are built here alone, never as member lists: each builder
returns a `ConsistencyFamily` of its labels, listed once the columns exist,
its columns in label order (columns[i] is the bitmask of the sets that hold
labels[i], all that synthesis and exhaustive verification read) and its
count. A k-chain-free set is the root and a product of two maximal sets of
the child subtrees, or a product without the root; one choice routine,
`_choose`, builds the SOP1, SOP2 and TP sets, each the root and below each
node a maximal set of each child subtree, some children kept whole and the
others dropped; TP2's columns have a closed form. All of them are made by
three column operations (a product, a concatenation, a root column), linear
in the bits they make. Each builder first counts its family by its own
recursion and refuses it past FAMILY_CELL_CAP member x label cells, the
column bits it would make, before building any. `_transpose` turns columns
into member masks, which the family's `masks` and `maximal` views read, and
masks into columns.
`_shape`, a lex-sorted antichain's meet-tree shape, is the library's one
antichain check and type: `find_iso_copy` and the collapse steps of
`transforms`, which always check their families, compare shapes.

Canonical orders used throughout:
  * a node set is canonically presented as its lex-sorted tuple of nodes;
  * a list of node sets is canonically ordered by comparing those tuples
    (`nodes.sorted_nodes` is the key); the walk and the family builders
    emit their sets in that order, so their listings need no sort;
  * the enumeration X_0, X_1, ... of all finite nonempty binary antichains
    is by depth of first appearance, then canonical set order within a
    depth: depth d brings the antichains of TreeDomain(2, d) whose longest
    node has length d - 1, the ones that no shallower domain holds.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from typing import FrozenSet, Iterator, List, Optional, Tuple

from .errors import ResourceCapError, record, repeated_items, shown, shown_size
from .nodes import Node, TreeDomain, concat_set, meet, sorted_nodes

NodeSet = FrozenSet[Node]

# index subsets that one listing or exhaustive scan may range over
DEFAULT_SUBSET_CAP = 2 ** 20
# member-label cells of an exact family, the bits of its columns, and its
# index labels (also the labels of TP's required sibling sets): SOP1 d6, the
# largest family built, has 63 x 3263442 of them, 24.5 MB of columns
FAMILY_CELL_CAP = 2 ** 28
# decimal digits of an antichain count: the interpreter's int-to-str limit
COUNT_DIGITS_CAP = sys.int_info.default_max_str_digits


class AntichainCatalog(record("domain items")):
    """Antichains of a tree domain; its length, iteration and membership are
    the items'."""

    def __len__(self):
        return len(self.items)

    def __contains__(self, antichain):
        return antichain in self.items

    def __iter__(self):
        return iter(self.items)


def alpha(n: int) -> int:
    """Number of maximal antichains in the binary tree of depth n:
    alpha(0) = 0, alpha(n+1) = alpha(n)**2 + 1, the count c(n-1) below."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return count_antichains(2, n - 1) + 1 if n else 0


def count_antichains(branching: int, depth: int) -> int:
    """The nonempty antichains by the product recursion c(d+1) = c(d)**b + 1,
    where c counts antichains including the empty one. A count past
    COUNT_DIGITS_CAP decimal digits is refused before it is taken."""
    digits = COUNT_DIGITS_CAP
    c = 1
    for _ in range(depth):
        # c**b has at least b * (bit_length(c) - 1) bits, and 2**(4 * digits) > 10**digits
        if branching * (c.bit_length() - 1) >= 4 * digits or c ** branching + 1 >= 10 ** digits:
            raise ResourceCapError(f"antichain count c({shown_size(depth)}) over {digits} "
                                   "decimal digits", COUNT_DIGITS_CAP)
        c = c ** branching + 1
    return c - 1


def mask_labels(labels, mask: int) -> list:
    """The labels whose bits are set in the mask (bit i is labels[i]), lowest
    bit first, so a sparse mask over many labels costs its set bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(labels[low.bit_length() - 1])
        mask ^= low
    return out


def mask_set(labels, mask: int) -> frozenset:
    return frozenset(mask_labels(labels, mask))


def _check_subset_cap(n: int) -> None:
    """Refuse a scan of 2^n subsets past DEFAULT_SUBSET_CAP, without building 1 << n."""
    if n >= DEFAULT_SUBSET_CAP.bit_length():
        raise ResourceCapError(f"subset scan over 2^{shown_size(n)} subsets", DEFAULT_SUBSET_CAP)


def _check_row_choices(rows: int, cols: int) -> None:
    """Refuse listing the (cols+1)^rows - 1 sets of at most one cell per row
    past DEFAULT_SUBSET_CAP, bounding the power by 2^bits <= it before it is taken."""
    bits = rows * ((cols + 1).bit_length() - 1)
    if bits > DEFAULT_SUBSET_CAP.bit_length() or (cols + 1) ** rows - 1 > DEFAULT_SUBSET_CAP:
        raise ResourceCapError(f"{shown_size(cols + 1)}^{shown_size(rows)} - 1 sets of at most "
                               "one cell per row", DEFAULT_SUBSET_CAP)


def _check_sibling_sets(b: int, k: int, internal: int) -> None:
    """Refuse TP's internal nodes x C(b, k) sibling sets of k labels each past
    FAMILY_CELL_CAP cells, bounding C(b, k) >= 2^min(k, b - k) before it is taken."""
    if internal and (min(k, b - k) >= FAMILY_CELL_CAP.bit_length()
                     or internal * math.comb(b, k) * k > FAMILY_CELL_CAP):
        raise ResourceCapError(f"{shown_size(internal)} x C({shown_size(b)}, {shown_size(k)}) "
                               f"sets of {shown_size(k)} siblings", FAMILY_CELL_CAP)


def subtree_walk(runs, chains: bool = False, most: Optional[int] = None) -> Iterator[int]:
    """Every nonempty antichain (or, with chains, every nonempty chain) of at
    most `most` labels (default: any number) once, as a mask, in canonical
    order. runs[i] counts the labels from i on comparable with i, i included:
    a node's subtree in lex order, or a cell's rest of its row in an array
    whose rows are chains. So a set holding i extends by a label past that run
    (antichains) or inside it (chains). A depth-first walk that tries the
    labels in increasing order emits each set before its extensions, which is
    canonical set order; a set of `most` labels is not extended."""
    stack = [(0, 0, len(runs))]  # (set, next label to try, end of its window)
    while stack:
        mask, i, hi = stack.pop()
        if i < hi:
            stack.append((mask, i + 1, hi))  # the sets without label i come after
            mask |= 1 << i
            yield mask
            if most is not None and mask.bit_count() == most:
                continue
            if chains:
                stack.append((mask, i + 1, i + runs[i]))
            else:
                stack.append((mask, i + runs[i], hi))


def enumerate_antichains(domain: TreeDomain) -> AntichainCatalog:
    """Every nonempty antichain of the domain, from `subtree_walk`, in
    canonical order. Every antichain is a subset of the n nodes, so 2^n bounds
    the listing: it is refused past the subset cap before any node is listed."""
    _check_subset_cap(domain.node_count())
    nodes = list(domain.nodes())
    return AntichainCatalog(domain, tuple(mask_set(nodes, m)
                                          for m in subtree_walk(domain.subtree_sizes())))


def _check_cells(members: int, labels: int, exact: bool = True) -> None:
    """Refuse an index set past FAMILY_CELL_CAP labels, then members x labels
    cells past it; members is the family's count when exact, else a count it
    has at least."""
    if labels > FAMILY_CELL_CAP:
        raise ResourceCapError(f"index set of {shown_size(labels)} labels", FAMILY_CELL_CAP)
    if members * labels > FAMILY_CELL_CAP:
        size = (shown_size(members) if exact else f"at least {members}"
                if members.bit_length() < 64 else f"(at least 2^{members.bit_length() - 1})")
        raise ResourceCapError(f"family of {size} maximal members over {labels} labels",
                               FAMILY_CELL_CAP)


def _check_members(bits: int) -> None:
    """Refuse a family of at least 2^bits members, before its count is taken."""
    if bits >= FAMILY_CELL_CAP.bit_length():
        raise ResourceCapError(f"family of at least 2^{bits} maximal members", FAMILY_CELL_CAP)


def chain_free_count(n: int, k: int) -> int:
    """Number of maximal k-chain-free sets of the binary tree of depth n, by
    the recursion of `chain_free_columns`: c(d, b) = 1 when b == 1 or
    b > d, else c(d-1, b-1)**2 + c(d-1, b)**2. Every count it passes through
    is at most c(n, k), so the first level whose largest count passes
    FAMILY_CELL_CAP cells over the 2^n - 1 labels refuses, before any count
    grows doubly exponentially."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    labels = TreeDomain(2, n).node_count() if n else 0
    row = {}  # b -> c(d, b) for the bounds 1 < b <= d that feed c(n, k)
    for d in range(1, n + 1):
        row = {b: row.get(b - 1, 1) ** 2 + row.get(b, 1) ** 2
               for b in range(max(2, k - n + d), min(k, d) + 1)}
        _check_cells(max(row.values(), default=1), labels, d == n)
    return row.get(k, 1)


def choice_count(branching: int, n: int, pick: int, emptied=()) -> int:
    """Number of sets `choice_columns` builds, by its recursion: 1 at
    depth 1, then with u = len(emptied), c' is the sum over the t kept emptied
    children of C(u, t) C(b - u, pick - t) c^(b - u + t). Each level's count is
    at most the last, so each is refused past FAMILY_CELL_CAP cells over the
    labels of depth n; each term is first bounded by C(m, j) >=
    2^min(j, m - j) and c^e >= 2^(e (bit_length(c) - 1))."""
    labels = TreeDomain(branching, n).node_count()
    _check_cells(1, labels)
    u, c = len(emptied), 1
    for depth in range(2, n + 1):
        rest = branching - u
        terms = range(max(0, pick - rest), min(u, pick) + 1)
        for t in terms:
            _check_members(min(pick - t, rest - pick + t) + (rest + t) * (c.bit_length() - 1))
        c = sum(math.comb(u, t) * math.comb(rest, pick - t) * c ** (rest + t) for t in terms)
        _check_cells(c, labels, depth == n)
    return c


def row_choice_count(rows: int, cols: int) -> int:
    """cols^rows sets of one cell per row, the power bounded by
    2^(rows (bit_length(cols) - 1)) before it is taken."""
    _check_cells(1, rows * cols)
    _check_members(rows * (cols.bit_length() - 1))
    members = cols ** rows
    _check_cells(members, rows * cols)
    return members


class ConsistencyFamily(record("labels columns count")):
    """A subset-closed family of nonempty index sets, stored by its count of
    maximal members and its columns in label order: columns[i] is the bitmask
    of the members holding labels[i], bit n for the n-th member in canonical
    order. Membership is inclusion in some member, the AND of the set's
    columns being nonzero. The members as masks over the labels (`masks`,
    bit i is labels[i]) and as frozensets (`maximal`) are the columns
    transposed when first read.

    The fields are trusted as given: the builders below make each family
    maximal and in order, and `from_members` is the checked way in. The hash
    leaves out the columns, whose every bit it would read."""

    def __hash__(self):
        return hash((type(self), self.labels, self.count))

    @classmethod
    def from_members(cls, labels, members) -> "ConsistencyFamily":
        """The family of the given members, which must lie in the index set
        of distinct labels: duplicates and members inside another are dropped
        (a member is maximal and unique exactly when its columns AND to its
        own bit)."""
        labels = tuple(labels)
        index = {x: i for i, x in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError(f"repeated labels {shown(repeated_items(labels))}")
        unique = {frozenset(m) for m in members if m}
        if not all(m.issubset(index) for m in unique):  # before the sort compares labels
            raise ValueError("members must be subsets of the index set")
        masks = [sum(1 << index[x] for x in m) for m in sorted(unique, key=sorted_nodes)]
        columns = _transpose(masks, len(labels))
        kept = [m for m in masks
                if functools.reduce(operator.and_, mask_labels(columns, m)).bit_count() == 1]
        return cls(labels, tuple(_transpose(kept, len(labels))), len(kept))

    @functools.cached_property
    def masks(self) -> Tuple[int, ...]:
        return tuple(_transpose(self.columns, self.count))

    @functools.cached_property
    def maximal(self) -> Tuple[FrozenSet, ...]:
        return tuple(mask_set(self.labels, m) for m in self.masks)


# Inside the builders, a family of m sets is held as (columns, m), the
# columns in label order. They make columns only, by three operations: the
# product F x G in F-major order (set (a, b) is set a |G| + b), the
# concatenation X then Y (Y's sets after X's), and a root column, all ones
# over the block of sets that holds the root.

# the most bits `_spread` makes from one string of binary digits, not by halves
_SPREAD_DIGITS = 2 ** 10
# _BIT_DIGITS[t][v] is the ASCII digit of bit t of the byte v
_BIT_DIGITS = [bytes(48 + (v >> t & 1) for v in range(256)) for t in range(8)]


def _transpose(rows, width: int) -> list:
    """The bit-matrix transpose: `width` ints, the i-th with bit n set when
    rows[n], an int of at most `width` bits, has bit i set. A strided slice
    of the rows' bytes, last row first, translated to digits, is one output
    int. It turns a family's columns into its members' masks and masks into
    columns."""
    size = (width + 7) // 8
    data = b"".join(r.to_bytes(size, "little") for r in reversed(rows))
    return [int(data[i // 8::size].translate(_BIT_DIGITS[i % 8]) or b"0", 2)
            for i in range(width)]


def _spread(column: int, width: int, run: int) -> int:
    """The column of `width` bits with bit i moved to bit i * run, by halves
    down to at most _SPREAD_DIGITS bits out, whose binary digits are joined
    by run - 1 zeros."""
    if column <= 1:
        return column
    if width * run <= _SPREAD_DIGITS:
        return int(("0" * (run - 1)).join(format(column, "b")), 2)
    half = width >> 1
    return (_spread(column & (1 << half) - 1, half, run)
            | _spread(column >> half, width - half, run) << half * run)


def _widen(column: int, width: int, run: int) -> int:
    """The column of `width` bits with each bit made a run of `run` equal
    bits: the spread bits, each times 2^run - 1."""
    if run == 1:
        return column
    spread = _spread(column, width, run)
    return (spread << run) - spread


def _repeat(column: int, width: int, times: int) -> int:
    """`times` copies of the column of `width` bits side by side, by doubling."""
    if times == 1:
        return column
    out = shift = 0
    while times:
        if times & 1:
            out |= column << shift
            shift += width
        times >>= 1
        if times:
            column |= column << width
            width <<= 1
    return out


def _product(f, g):
    """F x G in F-major order: F's columns widened by |G|, then G's repeated
    |F| times, made as they are read."""
    (f_columns, f_count), (g_columns, g_count) = f, g

    def columns():
        for c in f_columns:
            yield _widen(c, f_count, g_count)
        for c in g_columns:
            yield _repeat(c, g_count, f_count)
    return columns(), f_count * g_count


def _concat(x, y):
    """X's sets, then Y's: Y's columns shifted up by |X|, made as they are read."""
    (x_columns, x_count), (y_columns, y_count) = x, y
    return (a | b << x_count for a, b in zip(x_columns, y_columns)), x_count + y_count


def _choose(parts, pick: int):
    """The family of the unions of one set per (kept, dropped) part, the
    parts' labels side by side, exactly `pick` parts taking theirs from kept,
    in canonical order: that of `itertools.product` over each part's kept
    then dropped sets. Built from the last part, so each suffix is made once
    and shared; row j holds the suffixes from part i on with j kept, built
    only if the i parts before can make up the rest of `pick`, as kept x row
    j - 1 then dropped x row j, of which either row may not exist."""
    tails, labels = {0: ([], 1)}, 0
    for i in reversed(range(len(parts))):
        kept, dropped = parts[i]
        labels += len(kept[0])
        rows = {}
        for j in range(max(pick - i, 0), min(pick, len(parts) - i) + 1):
            blocks = [_product(part, tails[t]) for part, t in ((kept, j - 1), (dropped, j))
                      if t in tails]
            columns, count = _concat(*blocks) if len(blocks) == 2 else blocks[0]
            rows[j] = list(columns), count
        tails = rows
    return tails.get(pick, ([0] * labels, 0))


def chain_free_columns(n: int, k: int) -> ConsistencyFamily:
    """The maximal k-chain-free subsets of the binary tree of depth n, in
    canonical order, as the family over its nodes in lex order, counted by
    `chain_free_count` before any column is built and the nodes listed once
    the columns are. The root is the first label and each child subtree a
    run of the next ones. With the root, both parts are maximal
    (k-1)-chain-free; without it, both are maximal k-chain-free and must
    hold a (k-1)-chain (else the root fits), which all of them do in
    subtrees of depth >= k-1 and none in shallower ones. The root block
    first, each a product of both parts, is canonical."""
    chain_free_count(n, k)
    columns, count = _chain_free(n, k, {})
    return ConsistencyFamily(tuple(TreeDomain(2, n).nodes()) if n else (), tuple(columns), count)


def _chain_free(depth: int, bound: int, built: dict):
    """The (columns, count) of `chain_free_columns(depth, bound)`, each
    family with 1 < bound <= depth built once and kept in `built`."""
    if bound > depth:  # the whole tree holds no bound-chain
        return [1] * (2 ** depth - 1), 1
    if bound == 1:
        return [0] * (2 ** depth - 1), 1
    if (depth, bound) not in built:
        with_root = _chain_free(depth - 1, bound - 1, built)
        without_root = _chain_free(depth - 1, bound, built)
        columns, count = _concat(_product(with_root, with_root),
                                 _product(without_root, without_root))
        built[depth, bound] = [(1 << with_root[1] ** 2) - 1, *columns], count
    return built[depth, bound]


def choice_columns(branching: int, n: int, pick: int, emptied=()) -> ConsistencyFamily:
    """The maximal sets of the tree of depth n >= 1 that hold the root and,
    below each internal node, a maximal set of each child subtree: `pick`
    children kept whole, the others less their root, or empty if in
    `emptied`; as the family over the nodes in lex order, counted by
    `choice_count` before any column is built and the nodes listed once the
    columns are. SOP1 is (2, n, 1, emptied=(0,)), as (1) pairs with all of
    the 0-subtree; SOP2 the paths (2, n, 1, emptied=(0, 1)); TP (b, n,
    min(k - 1, b)). The root stays out of `_choose`: a forced part would
    widen its rows. With every child kept whole, the one set is the whole
    tree."""
    choice_count(branching, n, pick, emptied)
    domain = TreeDomain(branching, n)
    if pick == branching:
        family = (1,) * domain.node_count(), 1
    else:
        family = [1], 1
        for _ in range(2, n + 1):
            columns, count = family
            rootless = [0, *columns[1:]], count
            empty = [0] * len(columns), 1
            parts = [(family, empty if i in emptied else rootless) for i in range(branching)]
            columns, count = _choose(parts, pick)
            family = [(1 << count) - 1, *columns], count
    columns, count = family
    return ConsistencyFamily(tuple(domain.nodes()), tuple(columns), count)


def row_columns(rows: int, cols: int) -> ConsistencyFamily:
    """The sets of one cell per row of a rows x cols array as the family over
    its cells row-major, cell (r, c) the column r * cols + c, in canonical
    order (that of `itertools.product` over the rows, the first slowest),
    counted by `row_choice_count` before any column is built and the cells
    listed once the columns are. Row r's choice changes every cols^(rows-1-r)
    sets, so cell (r, c)'s column is a run that long at c runs into each
    period of cols runs, repeated cols^r times."""
    count = row_choice_count(rows, cols)
    columns = []
    for r in range(rows):
        run = cols ** (rows - 1 - r)
        columns += [_repeat((1 << run) - 1 << c * run, cols * run, cols ** r)
                    for c in range(cols)]
    cells = tuple((r, c) for r in range(rows) for c in range(cols))
    return ConsistencyFamily(cells, tuple(columns), count)


def maximal_antichains(n: int) -> AntichainCatalog:
    """All maximal antichains of the binary tree of depth n (none for n = 0),
    the k = 2 case of `chain_free_columns`, in canonical order, read from its
    `maximal` view."""
    maximal = chain_free_columns(n, 2).maximal if n else ()
    return AntichainCatalog(TreeDomain(2, max(n, 1)), maximal)


def maximal_chain_free_binary(n: int, k: int) -> List[NodeSet]:
    """The `maximal` view of `chain_free_columns(n, k)`, as a list."""
    return list(chain_free_columns(n, k).maximal)


def finite_antichain_stream() -> Iterator[NodeSet]:
    """The canonical enumeration X_0, X_1, ... of all finite nonempty binary
    antichains: by depth of first appearance, canonical set order within.
    The antichains new at depth d are those with a node of length d - 1, a
    leaf of TreeDomain(2, d) (run 1), read lazily from `subtree_walk`; only
    the ones yielded become frozensets, so a prefix costs what it reaches."""
    for depth in itertools.count(1):
        domain = TreeDomain(2, depth)
        runs = domain.subtree_sizes()
        leaves = sum(1 << i for i, run in enumerate(runs) if run == 1)
        nodes = list(domain.nodes())
        for mask in subtree_walk(runs):
            if mask & leaves:
                yield mask_set(nodes, mask)


def universal_prefix(m: int) -> NodeSet:
    """Union of 1^i 0-prefixed copies of the first m canonical antichains;
    always an antichain."""
    out = set()
    for i, x in enumerate(itertools.islice(finite_antichain_stream(), m)):
        out |= concat_set((1,) * i + (0,), x)
    return frozenset(out)


def _shape_step(stack, length: int):
    """One step of reading a lex-sorted antichain's meet tree off its
    consecutive meet lengths, as a Cartesian tree is built (Vuillemin 1980):
    `stack` holds the meet lengths on the rightmost path, increasing upward;
    the next meet pops every longer one, then joins an equal one or is
    pushed. Returns the step's descriptor (popped, joined)."""
    popped = 0
    while popped < len(stack) and stack[-1 - popped] > length:
        popped += 1
    return popped, popped < len(stack) and stack[-1 - popped] == length


def _shape(nodes: Tuple[Node, ...]) -> Tuple[Tuple[int, bool], ...]:
    """The meet-tree shape of a lex-sorted antichain: the `_shape_step`
    descriptors of its consecutive meet lengths. The meet of a_i and a_j
    (i < j) is the shortest consecutive meet between them, so the shape fixes
    the closure's order type: two antichains are strongly isomorphic exactly
    when their shapes are equal, and a prefix of the nodes has a prefix of
    the shape. Raises ValueError when a node is a prefix of the next, which
    is when the nodes are not an antichain (if a < b < c in lex order and a
    is a prefix of c, it is a prefix of b)."""
    shape, stack = [], ()
    for a, b in zip(nodes, nodes[1:]):
        length = len(meet(a, b))
        if length == len(a):
            raise ValueError(f"not an antichain: {a} is a prefix of {b}")
        popped, joined = _shape_step(stack, length)
        shape.append((popped, joined))
        stack = stack[:len(stack) - popped] + (() if joined else (length,))
    return tuple(shape)


def find_iso_copy(y: NodeSet, x: NodeSet):
    """First (in lex order over sorted combinations) strongly isomorphic copy
    of the antichain y inside the node set x, as a lex-monotone mapping, or
    None. An empty y, or one with a node that is a prefix of another, raises
    ValueError.

    y's `_shape` is read once. The search walks the combinations of x's
    sorted nodes in combinations order, one host node at a time, keeping the
    rightmost-path stack of each partial choice. A candidate costs one meet
    with the last chosen host: it is dropped when that host is its prefix,
    or when its step's descriptor differs from y's. A choice whose
    consecutive nodes are incomparable is an antichain, so x need not be
    one. The order is kept, so the first copy found is the first combination
    that matches."""
    y_tuple = sorted_nodes(y)
    k = len(y_tuple)
    if not k:
        raise ValueError("iso copy of an empty set")
    targets = _shape(y_tuple)
    hosts = sorted_nodes(x)
    n = len(hosts)
    chosen = []  # host indices of the partial choice, whose descriptors all match
    stacks = [()]  # stacks[j] is the rightmost-path stack of the first j + 1 chosen
    start = 0  # the next host index to try for position len(chosen)
    while True:
        j = len(chosen)
        if j == k:
            return dict(zip(y_tuple, (hosts[i] for i in chosen)))
        if start <= n - k + j:  # enough hosts left after start for the rest
            if not j:
                chosen.append(start)
            else:
                last = hosts[chosen[-1]]
                length = len(meet(last, hosts[start]))
                if length < len(last):  # last is not a prefix of the candidate
                    stack = stacks[j - 1]
                    popped, joined = _shape_step(stack, length)
                    if (popped, joined) == targets[j - 1]:
                        chosen.append(start)
                        stacks[j:] = [stack[:len(stack) - popped] + (() if joined else (length,))]
            start += 1
        elif chosen:
            start = chosen.pop() + 1
        else:
            return None
