"""Witnesses and their consistency oracles: gcd over positive integers,
bitset meet, brute-force first-order search over a finite structure, and
the conjunction that judges the tuple witnesses of `transforms`.

Every oracle is a meet-semilattice. It has a `top` element, a `meet`, an
`element(label)` per index label and a `holds` predicate, and
consistent(S) is holds of the meet of the elements of S, folded from top:

- gcd: top 0, meet `math.gcd`, element the parameter, holds `!= 1`;
- bitset: top -1, meet `&`, element the parameter, holds `!= 0`;
- first-order: top -1, meet `&`, element the mask of the universe elements
  x with phi(x, p), one cached mask per parameter tuple p, holds `!= 0`;
- conjunction: the base oracle's lattice, with a label's element the base
  meet over the label's source indices.

So the oracles are monotone: removing instances cannot break consistency.
Consistency of the empty index set is true by convention (holds(top)).
`MeetOracle.consistent()` is the one fold: it meets every label's element
and calls `holds` once. `oracle_for` picks a witness's default oracle,
tuple witnesses included.

`semilattice(oracle)` hands out the four parts, and exhaustive `verify`
joins meets of subsets from them and groups subsets by their meets, so meet
values must be hashable (every built-in one is an int or a tuple). Every
library oracle has its lattice, and `ConjunctionOracle` refuses a base
without one. Only exhaustive `verify` adapts an object with only
`consistent()`: the label-tuple lattice (top `()`, meet tuple concatenation,
element `(label,)`, holds `consistent()`) has distinct meets, so it is asked
once per subset in mask order, up to the first failing subset.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Dict, Optional, Tuple

from . import formulas
from .errors import TreepropError, WitnessError, record, repeated_items, shown
from .nodes import Node

SKOLEM = "skolem"
BOOLEAN = "boolean"
STRUCTURE = "structure"

# the free variables of a `FoOracle` formula: x, searched over the universe,
# and the y-block, bound to a label's parameter tuple
FO_X_VAR = "x"
FO_Y_VARS = ("y",)


class Witness(record("backend labels params width")):
    """One parameter per index label. Skolem parameters are positive ints,
    boolean parameters are bitsets of the declared width, structure
    parameters are tuples of universe elements."""

    def __new__(cls, backend: str, labels: Tuple, params: Dict, width: Optional[int] = None):
        known = set(labels)
        if len(params) != len(labels) or params.keys() != known:  # both hold: labels distinct
            repeated = repeated_items(labels)
            missing = [i for i in labels if i not in params]
            unmatched = (f"missing {shown(missing)}" if missing
                         else f"extra keys {shown([k for k in params if k not in known])}")
            raise WitnessError(f"repeated labels {shown(repeated)}" if repeated
                               else f"parameter map does not match labels: {unmatched}")
        if backend in (SKOLEM, BOOLEAN):
            not_ints = [i for i in labels if type(params[i]) is not int]  # a bool is not
            if not_ints:
                raise WitnessError(f"{backend} parameters must be ints: {shown(not_ints)}")
        if backend == SKOLEM:
            bad = [i for i in labels if params[i] < 1]
            if bad:
                raise WitnessError(f"skolem parameters must be >= 1: {shown(bad)}")
        elif backend == BOOLEAN:
            if width is None or width < 0:
                raise WitnessError("boolean witness needs a declared width")
            bad = [i for i in labels if params[i] >> width]
            if bad:
                raise WitnessError(f"bitset wider than declared width {width}: "
                                   f"{shown(bad)}")
        elif backend != STRUCTURE:
            raise WitnessError(f"unknown backend {shown(backend)}")
        return super().__new__(cls, backend, labels, params, width)


class TupleWitness(record("base labels provenance arity")):
    """A witness whose parameter for each index is the tuple of base
    parameters at the recorded source indices, as fattening and elongation
    (`transforms`) make them."""

    def __new__(cls, base: Witness, labels: Tuple[Node, ...],
                provenance: Dict[Node, Tuple[Node, ...]], arity: int):
        missing, repeated = [x for x in labels if x not in provenance], repeated_items(labels)
        if missing or repeated:
            raise WitnessError(f"no provenance for labels {shown(missing)}" if missing
                               else f"repeated labels {shown(repeated)}")
        if len(provenance) != len(labels):  # so some key is not a label
            known = set(labels)
            raise WitnessError("provenance for unknown labels "
                               f"{shown([x for x in provenance if x not in known])}")
        base_labels = set(base.labels)
        for label in labels:
            sources = provenance[label]
            if len(sources) != arity:
                raise WitnessError(f"non-uniform arity at {shown(label)}")
            missing = [s for s in sources if s not in base_labels]
            if missing:
                raise WitnessError(f"unknown source indices {shown(missing)} at {shown(label)}")
        return super().__new__(cls, base, labels, provenance, arity)

    def components(self, label: Node) -> tuple:
        return tuple(self.base.params[s] for s in self.provenance[label])


class MeetOracle:
    """An oracle given by its meet-semilattice: subclasses set `top`, `meet`
    and `holds` and define `element`. consistent(S) is the one fold: the
    meet of S's elements from top, judged by one holds."""

    def consistent(self, labels) -> bool:
        return self.holds(functools.reduce(self.meet, map(self.element, labels), self.top))


def _single(label) -> tuple:
    return (label,)


def semilattice(oracle):
    """The oracle's (top, meet, element, holds), or for an oracle with only
    consistent() the label-tuple lattice, whose holds is consistent(). Meet
    values must be hashable: exhaustive `verify` groups subsets by them. The
    built-in ones are ints or tuples."""
    if hasattr(oracle, "holds"):
        return oracle.top, oracle.meet, oracle.element, oracle.holds
    return (), tuple.__add__, _single, oracle.consistent


class ParamOracle(MeetOracle):
    """An oracle whose element is the witness parameter itself; subclasses
    declare the `backend` they judge."""

    backend: str

    def __init__(self, witness: Witness):
        if witness.backend != self.backend:
            raise WitnessError(f"{type(self).__name__} needs a {self.backend} witness, "
                               f"got {witness.backend}")
        self.witness = witness
        # the dict's own lookup: the fold reads every label's element, and a
        # Python method per label made consistent() about twice as slow
        self.element = witness.params.__getitem__


class GcdOracle(ParamOracle):
    """Consistent iff the parameters share a factor > 1."""

    backend = SKOLEM
    top = 0  # gcd(0, b) = b; the empty set's meet is 0, which holds
    meet = staticmethod(math.gcd)

    @staticmethod
    def holds(value: int) -> bool:
        return value != 1


class BitsetOracle(ParamOracle):
    """Consistent iff the bitwise meet of the parameters is nonzero."""

    backend = BOOLEAN
    top = -1
    meet = staticmethod(operator.and_)

    @staticmethod
    def holds(value: int) -> bool:
        return value != 0


class ConjunctionOracle(MeetOracle):
    """Judges sets of tuple instances by the base oracle on the union of
    their source indices. It has the base oracle's lattice, and a label's
    element is the base meet over its sources, folded here once per label (an
    element error of the base is raised here). A base without `top`, `meet`,
    `element` and `holds` is refused."""

    def __init__(self, base_oracle, tuple_witness: TupleWitness):
        if not all(hasattr(base_oracle, part) for part in ("top", "meet", "element", "holds")):
            raise TreepropError(f"conjunction base {type(base_oracle).__name__} has no lattice: "
                                "it needs top, meet, element and holds")
        self.base_oracle = base_oracle
        self.tuple_witness = tuple_witness
        self.top, self.meet, self.holds = base_oracle.top, base_oracle.meet, base_oracle.holds
        element, provenance = base_oracle.element, tuple_witness.provenance
        # a dict's own lookup, as in ParamOracle
        self.element = {x: functools.reduce(self.meet, map(element, provenance[x]), self.top)
                        for x in tuple_witness.labels}.__getitem__


class FoOracle(MeetOracle):
    """Consistent iff some universe element x satisfies the formula against
    every selected parameter simultaneously.

    A label's element is the mask of the universe positions j with
    phi(universe[j], p) for its parameter tuple p, computed once per p, so
    the structure, the formula and the witness are treated as fixed after
    construction. Where phi raises for some x, p has no mask (nothing is
    cached): element() raises `FormulaError`, so consistent() of any set
    holding that label raises, and pattern and exhaustive `verify` both do."""

    top = -1
    meet = staticmethod(operator.and_)

    def __init__(self, structure: formulas.FiniteStructure, formula: formulas.Formula,
                 witness: Witness):
        if witness.backend != STRUCTURE:
            raise WitnessError(f"fo oracle needs a structure witness, got {witness.backend}")
        self.structure = structure
        self.formula = formula
        self.witness = witness
        self._params = {}
        for i in witness.labels:
            p = witness.params[i]
            self._params[i] = p if isinstance(p, tuple) else (p,)
            if len(self._params[i]) != len(FO_Y_VARS):
                raise WitnessError(
                    f"parameter for {shown(i)} does not match y-block arity {len(FO_Y_VARS)}"
                )
        self._masks: Dict[Tuple, int] = {}  # parameter tuple -> universe mask

    def _phi(self, x, p) -> bool:
        assignment = {FO_X_VAR: x}
        assignment.update(zip(FO_Y_VARS, p))
        return formulas.eval_formula(self.structure, self.formula, assignment)

    def element(self, label) -> int:
        p = self._params[label]
        mask = self._masks.get(p)
        if mask is None:
            mask = sum(1 << j for j, x in enumerate(self.structure.universe)
                       if self._phi(x, p))
            self._masks[p] = mask
        return mask

    @staticmethod
    def holds(value: int) -> bool:
        return value != 0


def oracle_for(witness):
    """The default oracle of a witness: gcd for skolem, bitset for boolean,
    and for a tuple witness the conjunction over its base's default oracle."""
    if isinstance(witness, TupleWitness):
        return ConjunctionOracle(oracle_for(witness.base), witness)
    for oracle in (GcdOracle, BitsetOracle):
        if witness.backend == oracle.backend:
            return oracle(witness)
    raise WitnessError(f"no default oracle for backend {shown(witness.backend)}")
