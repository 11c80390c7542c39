"""Brute-force references for the tests: the plain computations that the
library's fast paths replaced, kept next to the tests that compare them.

Families and scans: the subset scan (a table of the 2^n masks free of a
forbidden family, and its maximal masks), the pairwise maximality filter,
the frozenset recursions for maximal antichains and k-chain-free sets, the
subset scan over every k-chain, the SOP1, SOP2 and TP families scanned and
sorted, the choice product filtered by its count of kept parts, a direct
listing of all 2^n subsets, the mask builders that the column builders
replaced (the choice tails over masks, the chain-free, choice and row
recursions) with the strided-byte transpose of their masks into columns,
the maximal conflict-free sets by Bron-Kerbosch,
the member-by-member boolean witness, the closed-form family counts the
builders' own counts replaced, the first primes by trial division, and the
skolem parameters as running products.
Chains and antichains: the pairwise incomparability, antichain and chain
tests, domain membership by length and digits, the canonical sort of node
sets, the chain generator over prefix subsets, the antichain listing from the scan over the
2-chains, the required sets of every pattern (SOP2's incomparable pairs
filtered from all pairs, SOP1's pairs from every two nodes, TP's combinations
of children, TP2's combinations of rows and cells, all sorted) and the
antichain stream built on them, and the sorted CLI listing. The library's
required sets, which are masks, are read back as frozensets here.
Verification: family membership as inclusion in some maximal member, one
frozenset per subset with membership by the subset scan over the reference
forbidden sets, an oracle wrapper that records what it is asked, and the
conjunction oracle that asked its base about source unions, with the source
union of a tuple witness's labels.
Types: byte-packed relation tables, the pairwise ss-ll check, the
quadratic prefix matrix over every pair of values (over the closure tuple,
and over the entries and the adjacent meets of the sorted entries that
qftype0 ranks), and the combination scan for iso copies. The first-order
oracle evaluated afresh on every call, and the formula tokenizer that sliced
the rest of the text for every token.
"""

import functools
import itertools
import math
import operator
import re
from typing import List

from treeprop import (FormulaError, VerificationReport, eval_formula,
                      required_consistent, required_inconsistent)
from treeprop.antichains import (AntichainCatalog, _check_subset_cap, mask_labels,
                                 mask_set)
from treeprop.oracles import FO_X_VAR, FO_Y_VARS
from treeprop.nodes import (TreeDomain, closure, concat_set, is_prefix, meet,
                            node_str, sorted_nodes)
from treeprop.patterns import ATP, KATP, SOP1, SOP2, TP, TP2


def incomparable(eta, nu):
    """Whether neither node is a prefix of the other."""
    return not is_prefix(eta, nu) and not is_prefix(nu, eta)


def is_antichain(nodes):
    """Whether every two of the nodes are incomparable."""
    xs = list(nodes)
    return all(incomparable(a, b) for a, b in itertools.combinations(xs, 2))


def is_chain(nodes):
    """Whether every two of the nodes are comparable."""
    xs = list(nodes)
    return all(not incomparable(a, b) for a, b in itertools.combinations(xs, 2))


def domain_contains(domain, node):
    """Whether the node lies in the domain: shorter than its depth, every
    digit below its branching."""
    return len(node) < domain.depth and all(0 <= d < domain.branching for d in node)


def source_union(tuple_witness, labels):
    """The source indices of the tuple witness's labels, as one frozenset."""
    return frozenset(s for label in labels for s in tuple_witness.provenance[label])


def canonical_sets(sets):
    """The sets as frozensets, sorted into canonical order."""
    return sorted((frozenset(s) for s in sets), key=sorted_nodes)


def listed(p, masks):
    """Masks over the pattern's labels as frozensets, in their order."""
    labels = p.index_labels()
    return [mask_set(labels, m) for m in masks]


def required_sets(p):
    """The library's required consistent and inconsistent sets of the
    pattern, together, as one set of frozensets."""
    return set(listed(p, required_consistent(p))) | set(listed(p, required_inconsistent(p)))


def forbidden_free_table(labels, forbidden) -> bytearray:
    """The subset scan: free[mask] is 1 when the mask over the labels contains
    no forbidden set, else 0. A mask is free when it is free without its top
    bit and holds no forbidden set with that top bit. `forbidden` is read only
    after the subset cap check."""
    labels = list(labels)
    n = len(labels)
    _check_subset_cap(n)
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


def chains(domain):
    """Every nonempty chain of the domain, once each and out of order: a node
    together with any subset of its proper prefixes."""
    for node in domain.nodes():
        below = [node[:l] for l in range(len(node))]
        for r in range(len(below) + 1):
            for combo in itertools.combinations(below, r):
                yield frozenset(combo + (node,))


def reference_enumerate_antichains(domain):
    """The nonempty antichains as the nonzero masks of the subset scan over
    the 2-chains, sorted into canonical order."""
    _check_subset_cap(domain.node_count())
    nodes = list(domain.nodes())
    pairs = (c for c in chains(domain) if len(c) == 2)
    free = forbidden_free_table(nodes, pairs)
    items = [mask_set(nodes, m) for m in range(1, len(free)) if free[m]]
    return AntichainCatalog(domain, tuple(canonical_sets(items)))


def reference_required_consistent(p):
    """The tree patterns' required consistent sets from the scan and the
    sorted chains; TP2's, one cell from each of some rows, from combinations
    of rows and products of columns, sorted."""
    if p.kind in (ATP, KATP):
        return list(reference_enumerate_antichains(p.domain()).items)
    if p.kind in (SOP1, SOP2, TP):
        return canonical_sets(chains(p.domain()))
    return canonical_sets(zip(rows, cols)
                          for r in range(1, p.rows + 1)
                          for rows in itertools.combinations(range(p.rows), r)
                          for cols in itertools.product(range(p.cols), repeat=r))


def reference_required_inconsistent(p):
    """ATP's 2-chains and k-ATP's k-chains, SOP2's incomparable pairs filtered
    from all pairs, SOP1's pairs {eta 1, eta 0 nu} from every eta and nu in
    the domain, TP's k-combinations of every node's children and TP2's
    pairs of cells in one row, sorted."""
    labels = p.index_labels()
    if p.kind in (ATP, KATP):
        k = 2 if p.kind == ATP else p.k
        return canonical_sets(c for c in chains(p.domain()) if len(c) == k)
    if p.kind == SOP2:
        return canonical_sets(frozenset(c) for c in itertools.combinations(labels, 2)
                              if incomparable(*c))
    if p.kind == SOP1:
        domain = p.domain()
        return canonical_sets({frozenset({eta + (1,), eta + (0,) + nu})
                               for eta in labels for nu in labels
                               if domain_contains(domain, eta + (1,))
                               and domain_contains(domain, eta + (0,) + nu)})
    if p.kind == TP:
        domain = p.domain()
        return canonical_sets(combo for eta in labels if domain_contains(domain, eta + (0,))
                              for combo in itertools.combinations(
                                  [eta + (i,) for i in range(p.branching)], p.k))
    return canonical_sets({(i, j1), (i, j2)} for i in range(p.rows)
                          for j1, j2 in itertools.combinations(range(p.cols), 2))


def reference_choose(parts, pick):
    """`antichains._choose` by brute force: the product over each part's kept
    then dropped masks, whose order is canonical, keeping the choices with
    exactly pick kept."""
    options = [[(a << shift, True) for a in kept] + [(a << shift, False) for a in dropped]
               for shift, kept, dropped in parts]
    return [functools.reduce(operator.or_, (m for m, _ in choice), 0)
            for choice in itertools.product(*options)
            if sum(was_kept for _, was_kept in choice) == pick]


def reference_tails(parts, pick):
    """`antichains._choose` over member masks, as the family builders used it
    before they built columns: the ORs of one mask per (shift, kept,
    dropped) part, exactly pick parts taking theirs from kept, built from
    the last part as rows of shared suffixes."""
    tails = {0: [0]}
    for i in reversed(range(len(parts))):
        shift, kept, dropped = parts[i]
        rows = range(max(pick - i, 0), min(pick, len(parts) - i) + 1)
        tails = {j: [a << shift | t for a in kept for t in tails.get(j - 1, [])]
                 + [a << shift | t for a in dropped for t in tails.get(j, [])]
                 for j in rows}
    return tails.get(pick, [])


def reference_chain_free_masks(n, k):
    """The maximal k-chain-free sets of the binary tree of depth n as member
    masks, by the mask recursion: the root block, each with_root x with_root,
    then without_root x without_root."""
    @functools.lru_cache(maxsize=None)
    def rec(depth, bound):
        if bound > depth:
            return [(1 << 2 ** depth - 1) - 1]
        if bound == 1:
            return [0]
        s = 2 ** (depth - 1) - 1
        with_root, without_root = rec(depth - 1, bound - 1), rec(depth - 1, bound)
        return ([1 | t for t in reference_tails([(1, with_root, []), (1 + s, with_root, [])], 2)]
                + reference_tails([(1, without_root, []), (1 + s, without_root, [])], 2))

    return rec(n, k)


def reference_choice_masks(branching, n, pick, emptied=()):
    """`antichains.choice_columns` as member masks, by the mask recursion."""
    masks = [1]
    for depth in range(2, n + 1):
        s = (branching ** (depth - 1) - 1) // (branching - 1)
        rootless = [a & ~1 for a in masks]
        parts = [(1 + i * s, masks, [0] if i in emptied else rootless)
                 for i in range(branching)]
        masks = [1 | t for t in reference_tails(parts, pick)]
    return masks


def reference_row_masks(rows, cols):
    """The sets of one cell per row as member masks, cell (r, c) bit r * cols
    + c, in the order of the product over the rows."""
    return [sum(1 << r * cols + c for r, c in enumerate(choice))
            for choice in itertools.product(range(cols), repeat=rows)]


def reference_exact_masks(p):
    """The member masks of p's exact family by the mask builders."""
    if p.kind in (ATP, KATP):
        return reference_chain_free_masks(p.depth, 2 if p.kind == ATP else p.k)
    if p.kind in (SOP1, SOP2):
        return reference_choice_masks(2, p.depth, 1, (0,) if p.kind == SOP1 else (0, 1))
    if p.kind == TP:
        return reference_choice_masks(p.branching, p.depth, min(p.k - 1, p.branching))
    return reference_row_masks(p.rows, p.cols)


# _BIT_DIGITS[t][v] is the ASCII digit of bit t of the byte v
_BIT_DIGITS = [bytes(48 + (v >> t & 1) for v in range(256)) for t in range(8)]


def reference_columns(labels, masks):
    """Each label's column from the member masks: bit n is set when masks[n]
    holds the label. A strided slice of the members' bytes, translated to
    digits, is one column."""
    width = (len(labels) + 7) // 8
    rows = b"".join(m.to_bytes(width, "little") for m in masks)
    return {x: int(rows[i // 8::width].translate(_BIT_DIGITS[i % 8])[::-1] or b"0", 2)
            for i, x in enumerate(labels)}


def reference_antichain_stream():
    """The antichain stream that rescans every depth and skips the antichains
    it has seen."""
    seen = set()
    depth = 1
    while True:
        for item in reference_enumerate_antichains(TreeDomain(2, depth)):
            if item not in seen:
                seen.add(item)
                yield item
        depth += 1


def reference_catalog_json(domain, items):
    """The `enum-antichains` listing of the node sets: each set's sorted node
    strings, the lists sorted."""
    return sorted(sorted(node_str(x, domain.branching) for x in item) for item in items)


def reference_from_members(labels, members):
    """Maximal members by comparing every pair of frozensets, deduplicated
    in canonical order."""
    members = [frozenset(m) for m in members if m]
    if any(not m <= set(labels) for m in members):
        raise ValueError("members must be subsets of the index set")
    maximal = [m for m in members if not any(m < other for other in members)]
    seen, unique = set(), []
    for m in sorted(maximal, key=sorted_nodes):
        if m not in seen:
            seen.add(m)
            unique.append(m)
    return tuple(unique)


def max_chain_bounded_sets(domain, k):
    """All maximal subsets containing no k pairwise comparable elements, by
    the subset scan over every k-chain, in canonical order; for k=2 these are
    the maximal antichains (the brute-force reference of criterion 1)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    _check_subset_cap(domain.node_count())
    nodes = list(domain.nodes())
    k_chains = (c for c in chains(domain) if len(c) == k)
    maximal = maximal_free_masks(forbidden_free_table(nodes, k_chains))
    return canonical_sets(mask_set(nodes, m) for m in maximal)


def reference_maximal_antichains(n):
    """The frozenset recursion for maximal antichains: products of the
    0-/1-prefixed depth-(n-1) catalogs row-major, then {root} last."""
    items = []
    for _ in range(n):
        items = [concat_set((0,), xi) | concat_set((1,), xj)
                 for xi in items for xj in items] + [frozenset({()})]
    return items


def has_chain(members, length):
    """Whether the set contains `length` pairwise comparable distinct nodes."""
    if length <= 0:
        return True
    return any(sum(1 for l in range(len(x) + 1) if x[:l] in members) >= length
               for x in members)


def reference_chain_free_binary(n, k):
    """The frozenset recursion for maximal k-chain-free sets: with the root,
    two maximal (k-1)-chain-free parts; without it, two maximal k-chain-free
    parts whose union holds a (k-1)-chain; sorted into canonical order."""
    cache = {}

    def rec(depth, bound):
        if depth == 0 or bound == 1:
            return [frozenset()]
        if (depth, bound) not in cache:
            with_root = rec(depth - 1, bound - 1)
            without_root = rec(depth - 1, bound)
            out = [frozenset({()}) | concat_set((0,), a) | concat_set((1,), b)
                   for a in with_root for b in with_root]
            for a in without_root:
                for b in without_root:
                    s = concat_set((0,), a) | concat_set((1,), b)
                    if has_chain(s, bound - 1):
                        out.append(s)
            cache[depth, bound] = out
        return cache[depth, bound]

    return canonical_sets(rec(n, k))


def reference_family(labels, members):
    """The former `from_members` path: sort the distinct members canonically,
    grow each label's column one bit per member, and keep the members whose
    columns AND to their own bit. Returns (maximal members, columns)."""
    unique = sorted({frozenset(m) for m in members if m}, key=sorted_nodes)

    def columns_of(sets):
        columns = {label: 0 for label in labels}
        for n, member in enumerate(sets):
            for x in member:
                columns[x] |= 1 << n
        return columns

    def containing(columns, subset):
        acc = -1
        for x in subset:
            acc &= columns[x]
        return acc

    columns = columns_of(unique)
    maximal = tuple(m for n, m in enumerate(unique) if containing(columns, m) == 1 << n)
    return maximal, columns_of(maximal)


def reference_members(p):
    """The members the former `exact_family` passed to `from_members`."""
    if p.kind == ATP:
        return reference_maximal_antichains(p.depth)
    if p.kind == KATP:
        return reference_chain_free_binary(p.depth, p.k)
    if p.kind == SOP2:
        domain = p.domain()
        return [frozenset(leaf[:l] for l in range(len(leaf) + 1))
                for leaf in domain.level(domain.depth - 1)]
    if p.kind == TP2:
        return [frozenset(enumerate(cols))
                for cols in itertools.product(range(p.cols), repeat=p.rows)]
    _, maximal = reference_free_sets(p.index_labels(), reference_required_inconsistent(p))
    return maximal


def reference_scan_masks(p):
    """The maximal masks of the subset scan over the pattern's forbidden sets,
    sorted into canonical order: how SOP1 and TP families were built, and
    the reference for SOP2's."""
    labels = p.index_labels()
    free = forbidden_free_table(labels, reference_required_inconsistent(p))
    return sorted(maximal_free_masks(free), key=lambda m: sorted_nodes(mask_set(labels, m)))


def reference_free_sets(labels, forbidden):
    """Every subset of the labels containing no forbidden set, by listing all
    2^n subsets, and the maximal ones: those no single label extends."""
    forbidden = [frozenset(f) for f in forbidden]
    free = [
        s
        for r in range(len(labels) + 1)
        for s in map(frozenset, itertools.combinations(labels, r))
        if not any(f <= s for f in forbidden)
    ]
    free_set = set(free)
    maximal = [s for s in free
               if not any(s | {x} in free_set for x in labels if x not in s)]
    return free, maximal


def reference_maximal_free(n, conflicts):
    """The maximal subsets of the labels 0..n-1 that hold no conflict pair, as
    int masks: the maximal cliques of the graph joining every two labels that
    do not conflict, by Bron-Kerbosch with Tomita's pivot, a vertex of
    candidates | excluded with the most candidate neighbours (Tomita, Tanaka
    and Takahashi, Theor. Comput. Sci. 363, 2006)."""
    full = (1 << n) - 1
    friends = [full ^ 1 << v for v in range(n)]
    for a, b in conflicts:
        friends[a] &= ~(1 << b)
        friends[b] &= ~(1 << a)
    out = []

    def expand(clique, candidates, excluded):
        pool = candidates | excluded
        if not pool:
            out.append(clique)
            return
        most = -1
        while pool:
            u = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            reach = (candidates & friends[u]).bit_count()
            if reach > most:
                most, pivot = reach, u
        rest = candidates & ~friends[pivot]
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            expand(clique | bit, candidates & friends[v], excluded & friends[v])
            candidates ^= bit
            excluded |= bit

    expand(0, full, 0)
    return out


def reference_boolean_params(family):
    """The boolean witness built member by member: bit n for member n."""
    params = {label: 0 for label in family.labels}
    for n, member in enumerate(family.maximal):
        for label in member:
            params[label] |= 1 << n
    return params


def reference_first_primes(m):
    """The first m primes by trial division by the primes found so far, up
    to the square root of each candidate."""
    out, n = [], 2
    while len(out) < m:
        if all(n % q for q in itertools.takewhile(lambda q: q * q <= n, out)):
            out.append(n)
        n += 1
    return out


def reference_skolem_params(family):
    """The skolem parameters as a running product: each label's param is the
    product, one prime after another, of the primes of the members that hold
    it, the n-th member taking the n-th prime."""
    ps = reference_first_primes(family.count)
    return {label: math.prod(mask_labels(ps, column))
            for label, column in zip(family.labels, family.columns)}


def reference_family_count(p):
    """The number of maximal members of p's exact family by the closed forms
    that sized it before its builders counted it: the k-chain-free recursion
    (ATP with k = 2, k-ATP), c(d) = c(d-1) (c(d-1) + 1) for SOP1, one path per
    leaf for SOP2, C(b, min(k - 1, b)) choices per internal node for TP and
    one cell per row for TP2."""
    if p.kind == TP2:
        return p.cols ** p.rows
    if p.kind in (ATP, KATP):
        @functools.lru_cache(maxsize=None)
        def chain_free(d, b):
            return 1 if b == 1 or b > d else chain_free(d - 1, b - 1) ** 2 + chain_free(d - 1, b) ** 2
        return chain_free(p.depth, 2 if p.kind == ATP else p.k)
    if p.kind == SOP1:
        c = 1
        for _ in range(p.depth - 1):
            c *= c + 1
        return c
    if p.kind == SOP2:
        return 2 ** (p.depth - 1)
    internal = (p.index_count() - 1) // p.branching
    return math.comb(p.branching, min(p.k - 1, p.branching)) ** internal


def contains(family, subset):
    """Whether the family holds the subset: it is nonempty and inside some
    maximal member."""
    subset = frozenset(subset)
    return bool(subset) and any(subset <= member for member in family.maximal)


@functools.lru_cache(maxsize=None)
def reference_membership(p):
    """free[mask] for every mask over p's labels: 1 when the mask holds no
    forbidden set of `reference_required_inconsistent(p)`, which is
    exact-family membership, read without any family builder."""
    return forbidden_free_table(p.index_labels(), reference_required_inconsistent(p))


def reference_verify(oracle, witness, p):
    """Exhaustive verification with one frozenset per mask, asked in mask
    order up to the first failure, with membership by
    `reference_membership(p)`; whatever the oracle raises propagates."""
    labels = p.index_labels()
    if set(witness.labels) != set(labels):
        raise ValueError("witness index set does not match the pattern")
    free = reference_membership(p)
    n_cons = n_incons = 0
    for mask in range(1, 1 << len(labels)):
        subset = mask_set(labels, mask)
        expected = bool(free[mask])
        actual = oracle.consistent(subset)
        if expected:
            n_cons += 1
        else:
            n_incons += 1
        if expected != actual:
            want = "consistent" if expected else "inconsistent"
            got = "consistent" if actual else "inconsistent"
            return VerificationReport(False, n_cons, n_incons, True, (subset, want, got))
    return VerificationReport(True, n_cons, n_incons, True)


class RecordingOracle:
    """Forwards to an oracle, keeping each subset it was asked about and, when
    given a target, inverting the verdict on that one subset."""

    def __init__(self, oracle, target=None):
        self.oracle = oracle
        self.target = target
        self.seen = []

    def consistent(self, labels) -> bool:
        subset = frozenset(labels)
        self.seen.append(subset)
        verdict = self.oracle.consistent(labels)
        return not verdict if subset == self.target else verdict


class ReferenceConjunctionOracle:
    """The conjunction oracle before it had a lattice: the base oracle asked
    once per set, about the union of the labels' sources as a frozenset."""

    def __init__(self, base_oracle, tuple_witness):
        self.base_oracle = base_oracle
        self.tuple_witness = tuple_witness

    def consistent(self, labels) -> bool:
        return self.base_oracle.consistent(source_union(self.tuple_witness, labels))


def _pack_bits(bits) -> bytes:
    out = bytearray()
    acc = n = 0
    for bit in bits:
        acc = (acc << 1) | (1 if bit else 0)
        n += 1
        if n == 8:
            out.append(acc)
            acc = n = 0
    if n:
        out.append(acc << (8 - n))
    return bytes(out)


def _relation_bytes(arity, points):
    below = (is_prefix(a, b) for a in points for b in points)
    lex = (a < b for a in points for b in points)
    return arity.to_bytes(4, "big") + _pack_bits(below) + _pack_bits(lex)


def reference_qftype0(t):
    """The prefix and lex tables over the closure tuple, as bytes."""
    return _relation_bytes(len(t), closure(t))


def reference_atomic(t):
    return _relation_bytes(len(t), t)


def reference_delta(t):
    """The meet-comparison tensor over all (i, j, k, l) and the lex table."""
    n = len(t)
    meets = [[meet(a, b) for b in t] for a in t]
    delta = (is_prefix(meets[i][j], meets[k][l])
             for i, j, k, l in itertools.product(range(n), repeat=4))
    lex = (a < b for a in t for b in t)
    return n.to_bytes(4, "big") + _pack_bits(delta) + _pack_bits(lex)


def reference_ss_ll(branching, leaf_depth, tuple_len,
                    delta=reference_delta,
                    closure_type=lambda t: reference_qftype0(closure(t))):
    """The lemma check over all T^2 ordered pairs of leaf tuples; the closure
    side is the type of the closure tuple, as the lemma states it."""
    leaves = list(TreeDomain(branching, leaf_depth).level(leaf_depth))
    tuples = list(itertools.permutations(leaves, tuple_len))
    keys = [(delta(t), closure_type(t)) for t in tuples]
    for (t1, (d1, c1)), (t2, (d2, c2)) in itertools.product(zip(tuples, keys), repeat=2):
        if (d1 == d2) != (c1 == c2):
            return False, len(tuples), (t1, t2, d1 == d2, c1 == c2)
    return True, len(tuples), None


def reference_fo_consistent(oracle, labels):
    """FoOracle.consistent with the formula evaluated afresh for every
    element and parameter."""
    labels = list(labels)
    if not labels:
        return True
    for x in oracle.structure.universe:
        ok = True
        for i in labels:
            p = oracle.witness.params[i]
            assignment = {FO_X_VAR: x}
            assignment.update(zip(FO_Y_VARS, p if isinstance(p, tuple) else (p,)))
            if not eval_formula(oracle.structure, oracle.formula, assignment):
                ok = False
                break
        if ok:
            return True
    return False



def reference_classes(points, values):
    """Each point's index in `values` (which lists every distinct point once)
    and the prefix matrix over `values`, row i the bitmask of the j with
    values[i] a prefix of values[j], by comparing every pair of values."""
    index = {v: i for i, v in enumerate(values)}
    prefix = tuple(
        sum(1 << j for j, b in enumerate(values) if b[:len(a)] == a) for a in values
    )
    return tuple(index[p] for p in points), prefix


def reference_order_type(points):
    """Lex ranks of the positions among the distinct values, and the
    quadratic prefix matrix over the distinct values in sorted order."""
    return reference_classes(points, sorted(set(points)))


def reference_qftype0_form(t):
    """The order type of the entries followed by every adjacent meet of the
    sorted entries, by the quadratic prefix matrix."""
    t = tuple(t)
    s = sorted(t)
    return reference_order_type(t + tuple(meet(s[i], s[i + 1]) for i in range(len(s) - 1)))


def reference_closure_form(t):
    return reference_order_type(closure(tuple(t)))


def reference_atomic_form(t):
    return reference_order_type(tuple(t))


def reference_delta_form(t):
    """Meet classes by first occurrence, their quadratic prefix matrix, and
    the entries' lex ranks."""
    t = tuple(t)
    meets = closure(t)
    lex_ranks, _ = reference_order_type(t)
    return (*reference_classes(meets, list(dict.fromkeys(meets))), lex_ranks)


def reference_find_iso_copy(y, x):
    """The first combination of x's sorted nodes, in combinations order, whose
    closure type is y's, as a mapping from y's sorted nodes, or None."""
    y_tuple = sorted_nodes(y)
    target = reference_closure_form(y_tuple)
    for candidate in itertools.combinations(sorted_nodes(x), len(y_tuple)):
        if reference_closure_form(candidate) == target:
            return dict(zip(y_tuple, candidate))
    return None


_REFERENCE_TOKEN = re.compile(r"\s*(->|!=|[()=.,&|!]|[A-Za-z_][A-Za-z_0-9]*|[0-9]+)")


def reference_tokens(text):
    """The (token, position) pairs of a formula text by the loop that sliced
    the rest of the text twice per token, quadratic in the text; a character
    no token starts with raises FormulaError at its position."""
    tokens = []
    pos = 0
    while pos < len(text) and not text[pos:].isspace():
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m:
            pos += len(text[pos:]) - len(text[pos:].lstrip())
            raise FormulaError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens
