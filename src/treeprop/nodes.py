"""Finite tree index domain: digit-string nodes with prefix order, meet,
lexicographic order, concatenation and meet-closure.

A node is a plain tuple of small ints, so the same value can live in several
domains; a TreeDomain carries the (branching, depth) bounds separately.
Python's tuple comparison coincides with the tree's lexicographic order
(prefixes sort first, incomparable nodes compare at the digit after the meet),
so nodes can be sorted directly.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Tuple

from .errors import ResourceCapError, record, shown_size

Node = Tuple[int, ...]

ROOT: Node = ()


def node_str(node: Node, branching: int = 2) -> str:
    if branching > 10:
        return ".".join(str(d) for d in node)
    return "".join(str(d) for d in node)


def is_prefix(eta: Node, nu: Node) -> bool:
    """The prefix order (non-strict): eta is an initial segment of nu."""
    return nu[: len(eta)] == eta


def meet(eta: Node, nu: Node) -> Node:
    """Longest common prefix."""
    i = 0
    for a, b in zip(eta, nu):
        if a != b:
            break
        i += 1
    return eta[:i]


def concat_set(eta: Node, nodes: Iterable[Node]) -> frozenset:
    """Pointwise prefixing of a node set."""
    return frozenset(eta + x for x in nodes)


def closure(nodes: Tuple[Node, ...]) -> Tuple[Node, ...]:
    """The k^2-tuple of pairwise meets of the k nodes in row-major order,
    duplicates kept. The meet of a node with itself is the node, and
    meet(a, b) = meet(b, a), so each unordered pair's meet is taken once and
    written to both entries."""
    if not nodes:
        raise ValueError("closure of empty tuple")
    k = len(nodes)
    meets = [None] * (k * k)
    for i, a in enumerate(nodes):
        meets[i * k + i] = a
        for j in range(i + 1, k):
            meets[i * k + j] = meets[j * k + i] = meet(a, nodes[j])
    return tuple(meets)


# bits of a domain's node count, bounded before any power is taken: a domain
# of depth d has at least b^(d-1) >= 2^((d-1) * (bit_length(b) - 1)) nodes
DOMAIN_BITS_CAP = 2 ** 16


class TreeDomain(record("branching depth")):
    """All nodes of length < depth over digits < branching."""

    def __new__(cls, branching: int, depth: int):
        if branching < 2:
            raise ValueError("branching must be >= 2")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        bits = (depth - 1) * (branching.bit_length() - 1)
        if bits >= DOMAIN_BITS_CAP:
            raise ResourceCapError(f"tree domain whose node count has over {shown_size(bits)} "
                                   "bits", DOMAIN_BITS_CAP)
        return super().__new__(cls, branching, depth)

    def node_count(self) -> int:
        b = self.branching
        return (b ** self.depth - 1) // (b - 1)

    def nodes(self) -> Iterator[Node]:
        """All nodes in lexicographic order (depth-first, digit order)."""
        return _walk(ROOT, self.branching, self.depth)

    def subtree_sizes(self) -> List[int]:
        """Each node's subtree size, in lex order: its run of nodes from it on."""
        b, sizes = self.branching, [1]
        for d in range(2, self.depth + 1):
            sizes = [(b ** d - 1) // (b - 1)] + sizes * b
        return sizes

    def level(self, n: int) -> Iterator[Node]:
        return itertools.product(range(self.branching), repeat=n)


def _walk(prefix: Node, branching: int, depth: int) -> Iterator[Node]:
    """The node, then its subtree in a tree of the given depth, in lex order.
    A module-level generator, so a walk leaves no reference cycle behind."""
    yield prefix
    if len(prefix) < depth - 1:
        for d in range(branching):
            yield from _walk(prefix + (d,), branching, depth)


def sorted_nodes(nodes: Iterable[Node]) -> Tuple[Node, ...]:
    """Canonical (lexicographic) enumeration of a node set, and the key of
    canonical set order: node sets compare as these tuples."""
    return tuple(sorted(set(nodes)))
