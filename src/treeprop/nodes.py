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
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

from .errors import ResourceCapError

Node = Tuple[int, ...]

ROOT: Node = ()


def node_str(node: Node, branching: int = 2) -> str:
    if branching > 10:
        return ".".join(str(d) for d in node)
    return "".join(str(d) for d in node)


def is_prefix(eta: Node, nu: Node) -> bool:
    """The prefix order (non-strict): eta is an initial segment of nu."""
    return nu[: len(eta)] == eta


def incomparable(eta: Node, nu: Node) -> bool:
    return not is_prefix(eta, nu) and not is_prefix(nu, eta)


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
    """The (k+1)^2-tuple of pairwise meets in row-major order, duplicates kept."""
    if not nodes:
        raise ValueError("closure of empty tuple")
    return tuple(meet(a, b) for a in nodes for b in nodes)


def is_antichain(nodes: Iterable[Node]) -> bool:
    xs = list(nodes)
    return all(incomparable(a, b) for a, b in itertools.combinations(xs, 2))


# bits of a domain's node count, bounded before any power is taken: a domain
# of depth d has at least b^(d-1) >= 2^((d-1) * (bit_length(b) - 1)) nodes
DOMAIN_BITS_CAP = 2 ** 16


@dataclass(frozen=True)
class TreeDomain:
    """All nodes of length < depth over digits < branching."""

    branching: int
    depth: int

    def __post_init__(self):
        if self.branching < 2:
            raise ValueError("branching must be >= 2")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        bits = (self.depth - 1) * (self.branching.bit_length() - 1)
        if bits >= DOMAIN_BITS_CAP:
            raise ResourceCapError(f"tree domain whose node count has over {bits} bits",
                                   DOMAIN_BITS_CAP)

    def node_count(self) -> int:
        b = self.branching
        return (b ** self.depth - 1) // (b - 1)

    def nodes(self) -> Iterator[Node]:
        """All nodes in lexicographic order (depth-first, digit order)."""

        def walk(prefix: Node) -> Iterator[Node]:
            yield prefix
            if len(prefix) < self.depth - 1:
                for d in range(self.branching):
                    yield from walk(prefix + (d,))

        return walk(ROOT)

    def subtree_sizes(self) -> List[int]:
        """Each node's subtree size, in lex order: its run of nodes from it on."""
        b, sizes = self.branching, [1]
        for d in range(2, self.depth + 1):
            sizes = [(b ** d - 1) // (b - 1)] + sizes * b
        return sizes

    def level(self, n: int) -> Iterator[Node]:
        return itertools.product(range(self.branching), repeat=n)


def sorted_nodes(nodes: Iterable[Node]) -> Tuple[Node, ...]:
    """Canonical (lexicographic) enumeration of a node set, and the key of
    canonical set order: node sets compare as these tuples."""
    return tuple(sorted(set(nodes)))
