"""Tree transformations on witnesses and antichain families.

Fattening tuples the two sibling subtrees of every node, prepending digits;
elongation packs chains of k source nodes into each target node. Conjunction
semantics for the resulting tuple witnesses: a set of tuple instances is
consistent iff the union of all contributing source indices is consistent
under the base oracle.

The collapse operations and the scaffold builder follow the recursive
construction that pairs maximal antichains of the binary tree with an
indexed family of strongly isomorphic antichains and a strong embedding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import WitnessError
from .nodes import Node, TreeDomain, concat_set, is_antichain, is_prefix
from .oracles import Witness
from .qftypes import qftype0


def _witness_depth(witness: Witness) -> int:
    return max(len(label) for label in witness.labels) + 1


@dataclass(frozen=True)
class TupleWitness:
    """A witness whose parameter for each index is the tuple of base
    parameters at the recorded source indices."""

    base: Witness
    labels: Tuple[Node, ...]
    provenance: Dict[Node, Tuple[Node, ...]]
    arity: int

    def __post_init__(self):
        base_labels = set(self.base.labels)
        for label in self.labels:
            sources = self.provenance[label]
            if len(sources) != self.arity:
                raise WitnessError(f"non-uniform arity at {label}")
            missing = [s for s in sources if s not in base_labels]
            if missing:
                raise WitnessError(f"unknown source indices {missing} at {label}")

    def components(self, label: Node) -> tuple:
        return tuple(self.base.params[s] for s in self.provenance[label])

    def source_union(self, labels) -> FrozenSet[Node]:
        out = set()
        for label in labels:
            out.update(self.provenance[label])
        return frozenset(out)


class ConjunctionOracle:
    """Judges sets of tuple instances by the base oracle on the union of
    their source indices."""

    def __init__(self, base_oracle, tuple_witness: TupleWitness):
        self.base_oracle = base_oracle
        self.tuple_witness = tuple_witness

    def consistent(self, labels) -> bool:
        return self.base_oracle.consistent(self.tuple_witness.source_union(labels))


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


def elongate(witness: Witness, k: int, target_depth: Optional[int] = None) -> TupleWitness:
    """k-fold elongation: the tuple at a node is the k-chain of source nodes
    hanging zeros off its elongated core; the root takes the all-zero chain
    of length k from the source root."""
    if k < 2:
        raise ValueError("k must be >= 2")
    source_depth = _witness_depth(witness)
    max_depth = (source_depth - 1) // k + 1
    if target_depth is None:
        target_depth = max_depth
    if target_depth < 1 or target_depth > max_depth:
        raise WitnessError(
            f"elongation depth {target_depth} not supported by source depth {source_depth}"
        )
    labels = tuple(TreeDomain(2, target_depth).nodes())
    provenance = {}
    for eta in labels:
        core = elongated_core(eta, k)
        provenance[eta] = tuple(core + (0,) * j for j in range(k))
    return TupleWitness(witness, labels, provenance, k)


@dataclass(frozen=True)
class ReduceReport:
    case: str  # "fatten" | "elongate"
    fatten_level: Optional[int]
    probes: Tuple[Tuple[int, bool], ...]  # (m, consistent(K_m))


def probe_set(m: int, k: int) -> FrozenSet[Node]:
    """K_m: every length-m node with its chain of k-1 zero extensions."""
    return frozenset(
        nu + (0,) * i for nu in itertools.product((0, 1), repeat=m) for i in range(k)
    )


def reduce_katp(witness: Witness, oracle, k: int,
                probe_bound: Optional[int] = None):
    """The (k+1)-ATP to k-ATP reduction: probe the sets K_m through the
    oracle; the first inconsistent one selects m-fold fattening, otherwise
    k-fold elongation."""
    if k < 2:
        raise ValueError("k must be >= 2")
    source_depth = _witness_depth(witness)
    max_probe = source_depth - k
    if max_probe < 0:
        raise WitnessError(f"source depth {source_depth} too small for k={k}")
    if probe_bound is None:
        probe_bound = max_probe
    if probe_bound > max_probe:
        raise WitnessError(
            f"probe bound {probe_bound} exceeds depth budget (max {max_probe})"
        )
    probes = []
    for m in range(probe_bound + 1):
        ok = oracle.consistent(probe_set(m, k))
        probes.append((m, ok))
        if not ok:
            return fatten(witness, m), ReduceReport("fatten", m, tuple(probes))
    return elongate(witness, k), ReduceReport("elongate", None, tuple(probes))


# --- Collapse skeleton ---

def _check_family(families: List[FrozenSet]) -> None:
    if not families or any(not x for x in families):
        raise ValueError("families must be nonempty antichains")
    first = families[0]
    first_type = qftype0(sorted(first))
    for x in families:
        if not is_antichain(x):
            raise ValueError(f"not an antichain: {sorted(x)}")
        if len(x) != len(first):
            raise ValueError("families must have equal cardinality")
        if qftype0(sorted(x)) != first_type:
            raise ValueError(
                f"families not strongly isomorphic: {sorted(first)} vs {sorted(x)}"
            )


def collapse_product(families: List[FrozenSet], nu: Node, xi: Node,
                     validate: bool = True) -> List[FrozenSet]:
    """All unions of a nu-prefixed and a xi-prefixed family, row-major."""
    if is_prefix(nu, xi) or is_prefix(xi, nu):
        raise ValueError(f"prefix nodes must be incomparable: {nu} vs {xi}")
    if not nu < xi:
        raise ValueError(f"expected {nu} lex-before {xi}")
    if validate:
        _check_family(families)
    return [
        concat_set(nu, left) | concat_set(xi, right)
        for left in families
        for right in families
    ]


def collapse_extend(families: List[FrozenSet], validate: bool = True):
    """Prefix every family below a fresh branch point and append the first
    family unchanged; returns (families, chi, chi_prime) with chi in the
    appended family and chi a prefix of chi_prime."""
    if validate:
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


@dataclass(frozen=True)
class Scaffold:
    """Level-m state of the recursive construction: the indexed antichain
    families, the embedding of the depth-m binary tree, and the last branch
    point pair."""

    level: int
    families: Tuple[FrozenSet, ...]
    embedding: Dict[Node, Node]
    chi: Optional[Node]
    chi_prime: Optional[Node]


def build_onevar_scaffold(m: int, seed: FrozenSet, max_level: int = 4) -> Scaffold:
    """Iterate product and extension steps starting from a single seed
    antichain, building the families and the strong embedding of the binary
    tree of depth m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > max_level:
        raise WitnessError(
            f"scaffold level {m} exceeds cap {max_level} (family count is doubly exponential)"
        )
    seed = frozenset(seed)
    if not seed or not is_antichain(seed):
        raise ValueError("seed must be a nonempty antichain")
    families: List[FrozenSet] = [seed]
    embedding: Dict[Node, Node] = {(): min(seed)}
    chi = chi_prime = None
    for level in range(1, m):
        products = collapse_product(families, (0,), (1,), validate=level == 1)
        families, chi, chi_prime = collapse_extend(products, validate=False)
        embedding = {
            (): chi,
            **{
                (digit,) + eta: chi_prime + (digit,) + image
                for (eta, image) in embedding.items()
                for digit in (0, 1)
            },
        }
    return Scaffold(m, tuple(families), embedding, chi, chi_prime)
