"""Tree transformations on witnesses and antichain families.

Fattening tuples the two sibling subtrees of every node, prepending digits;
elongation packs chains of k source nodes into each target node. Both make
`oracles.TupleWitness`es, which `oracles.ConjunctionOracle` judges: a set of
tuple instances is consistent iff the union of all contributing source
indices is consistent under the base oracle.

The collapse operations and the scaffold builder follow the recursive
construction that pairs maximal antichains of the binary tree with an
indexed family of strongly isomorphic antichains and a strong embedding.
Both collapse steps always check their families, by meet-tree shape
(`antichains._shape`), so the scaffold checks every level.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Tuple

from .antichains import _shape
from .errors import ResourceCapError, WitnessError, record, shown_size
from .nodes import Node, TreeDomain, concat_set, is_prefix, sorted_nodes
from .oracles import TupleWitness, Witness


def _witness_depth(witness: Witness) -> int:
    return max(len(label) for label in witness.labels) + 1


def fatten(witness: Witness, m: int) -> TupleWitness:
    """m-fold fattening: the tuple at a node collects the source nodes
    obtained by prepending every digit string of length m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    source_depth = _witness_depth(witness)
    target_depth = source_depth - m
    if target_depth < 1:
        raise WitnessError(f"fattening by {m} exceeds source depth {source_depth}")

    def components(level: int, eta: Node) -> Tuple[Node, ...]:
        if level == 0:
            return (eta,)
        return components(level - 1, (0,) + eta) + components(level - 1, (1,) + eta)

    labels = tuple(TreeDomain(2, target_depth).nodes())
    provenance = {eta: components(m, eta) for eta in labels}
    return TupleWitness(witness, labels, provenance, 2 ** m)


def elongated_core(eta: Node, k: int) -> Node:
    """The source node carrying the digits of eta at positions 0, k, 2k, ...
    with zeros in between; length k*(len(eta)-1)+1 for nonempty eta."""
    if not eta:
        return ()
    n = k * (len(eta) - 1) + 1
    return tuple(eta[i // k] if i % k == 0 else 0 for i in range(n))


def elongate(witness: Witness, k: int) -> TupleWitness:
    """k-fold elongation: the tuple at a node is the k-chain of source nodes
    hanging zeros off its elongated core; the root takes the all-zero chain
    of length k from the source root, so k past the source depth is refused
    before any chain is built. The target is as deep as the source allows."""
    if k < 2:
        raise ValueError("k must be >= 2")
    source_depth = _witness_depth(witness)
    if k > source_depth:
        raise WitnessError(f"elongation by {k} exceeds source depth {source_depth}")
    labels = tuple(TreeDomain(2, (source_depth - 1) // k + 1).nodes())
    provenance = {}
    for eta in labels:
        core = elongated_core(eta, k)
        provenance[eta] = tuple(core + (0,) * j for j in range(k))
    return TupleWitness(witness, labels, provenance, k)


class ReduceReport(record("case fatten_level probes")):
    """The case of a reduction, "fatten" or "elongate", the fattening level
    (None for elongation) and the probes, (m, consistent(K_m)) each."""


def probe_set(m: int, k: int) -> FrozenSet[Node]:
    """K_m: every length-m node with its chain of k-1 zero extensions."""
    return frozenset(
        nu + (0,) * i for nu in itertools.product((0, 1), repeat=m) for i in range(k)
    )


def reduce_katp(witness: Witness, oracle, k: int):
    """The (k+1)-ATP to k-ATP reduction: probe the sets K_m, for every m the
    source depth allows, through the oracle; the first inconsistent one
    selects m-fold fattening, otherwise k-fold elongation."""
    if k < 2:
        raise ValueError("k must be >= 2")
    source_depth = _witness_depth(witness)
    max_probe = source_depth - k
    if max_probe < 0:
        raise WitnessError(f"source depth {source_depth} too small for k={k}")
    probes = []
    for m in range(max_probe + 1):
        ok = oracle.consistent(probe_set(m, k))
        probes.append((m, ok))
        if not ok:
            return fatten(witness, m), ReduceReport("fatten", m, tuple(probes))
    return elongate(witness, k), ReduceReport("elongate", None, tuple(probes))


# --- Collapse skeleton ---

def _check_family(families: List[FrozenSet]) -> None:
    """Refuse families that are not nonempty antichains of one meet-tree
    shape (`antichains._shape`), the shape being their strong isomorphism type."""
    if not families or any(not x for x in families):
        raise ValueError("families must be nonempty antichains")
    first = _shape(sorted_nodes(families[0]))
    for x in families:
        if _shape(sorted_nodes(x)) != first:
            raise ValueError(
                f"families not strongly isomorphic: {sorted(families[0])} vs {sorted(x)}"
            )


def collapse_product(families: List[FrozenSet], nu: Node, xi: Node) -> List[FrozenSet]:
    """All unions of a nu-prefixed and a xi-prefixed family, row-major."""
    if is_prefix(nu, xi) or is_prefix(xi, nu):
        raise ValueError(f"prefix nodes must be incomparable: {nu} vs {xi}")
    if not nu < xi:
        raise ValueError(f"expected {nu} lex-before {xi}")
    _check_family(families)
    return [
        concat_set(nu, left) | concat_set(xi, right)
        for left in families
        for right in families
    ]


def collapse_extend(families: List[FrozenSet]):
    """Prefix every family below a fresh branch point and append the first
    family unchanged; returns (families, chi, chi_prime) with chi in the
    appended family and chi a prefix of chi_prime."""
    _check_family(families)
    nu_prime = min(families[0])
    j = 1
    while any(
        is_prefix(nu_prime + (0,) * j, element)
        for family in families
        for element in family
    ):
        j += 1
    chi = nu_prime
    chi_prime = nu_prime + (0,) * j + (0,)
    out = [concat_set(chi_prime, x) for x in families]
    out.append(families[0])
    return out, chi, chi_prime


class Scaffold(record("level families embedding chi chi_prime")):
    """Level-m state of the recursive construction: the indexed antichain
    families, the embedding of the depth-m binary tree, and the last branch
    point pair (chi, chi_prime), None at level 1."""


# levels of the scaffold construction, whose family count is doubly exponential
SCAFFOLD_LEVEL_CAP = 4


def build_onevar_scaffold(m: int, seed: FrozenSet) -> Scaffold:
    """Iterate product and extension steps starting from a single seed
    antichain, building the families and the strong embedding of the binary
    tree of depth m, for m up to SCAFFOLD_LEVEL_CAP."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > SCAFFOLD_LEVEL_CAP:
        raise ResourceCapError(f"scaffold level {shown_size(m)} (family count is doubly "
                               "exponential)", SCAFFOLD_LEVEL_CAP)
    seed = frozenset(seed)
    _check_family([seed])
    families: List[FrozenSet] = [seed]
    embedding: Dict[Node, Node] = {(): min(seed)}
    chi = chi_prime = None
    for _ in range(1, m):
        families, chi, chi_prime = collapse_extend(collapse_product(families, (0,), (1,)))
        embedding = {
            (): chi,
            **{
                (digit,) + eta: chi_prime + (digit,) + image
                for (eta, image) in embedding.items()
                for digit in (0, 1)
            },
        }
    return Scaffold(m, tuple(families), embedding, chi, chi_prime)
