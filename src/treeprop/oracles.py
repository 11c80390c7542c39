"""Consistency oracles: gcd over positive integers, bitset meet, and
brute-force first-order search over a finite structure.

All oracles are monotone: removing instances cannot break consistency.
Consistency of the empty index set is true by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import WitnessError
from .formulas import FiniteStructure, Formula, eval_formula

SKOLEM = "skolem"
BOOLEAN = "boolean"
STRUCTURE = "structure"


@dataclass(frozen=True)
class Witness:
    """One parameter per index label. Skolem parameters are positive ints,
    boolean parameters are bitsets of the declared width, structure
    parameters are tuples of universe elements."""

    backend: str
    labels: Tuple
    params: Dict
    width: Optional[int] = None

    def __post_init__(self):
        missing = [i for i in self.labels if i not in self.params]
        if missing or len(self.params) != len(self.labels):
            raise WitnessError(f"parameter map does not match labels: missing {missing}")
        if self.backend == SKOLEM:
            bad = [i for i in self.labels if not isinstance(self.params[i], int) or self.params[i] < 1]
            if bad:
                raise WitnessError(f"skolem parameters must be >= 1: {bad}")
        elif self.backend == BOOLEAN:
            if self.width is None or self.width < 0:
                raise WitnessError("boolean witness needs a declared width")
            bad = [i for i in self.labels if self.params[i] >> self.width]
            if bad:
                raise WitnessError(f"bitset wider than declared width {self.width}: {bad}")
        elif self.backend != STRUCTURE:
            raise WitnessError(f"unknown backend {self.backend!r}")


class GcdOracle:
    """Consistent iff the parameters share a factor > 1."""

    def __init__(self, witness: Witness):
        if witness.backend != SKOLEM:
            raise WitnessError(f"gcd oracle needs a skolem witness, got {witness.backend}")
        self.witness = witness

    def consistent(self, labels) -> bool:
        g = 0
        for i in labels:
            g = math.gcd(g, self.witness.params[i])
            if g == 1:
                return False
        return g != 1  # empty set: g == 0, vacuously consistent


class BitsetOracle:
    """Consistent iff the bitwise meet of the parameters is nonzero."""

    def __init__(self, witness: Witness):
        if witness.backend != BOOLEAN:
            raise WitnessError(f"bitset oracle needs a boolean witness, got {witness.backend}")
        self.witness = witness

    def consistent(self, labels) -> bool:
        labels = list(labels)
        if not labels:
            return True
        acc = -1
        for i in labels:
            acc &= self.witness.params[i]
            if acc == 0:
                return False
        return True


class FoOracle:
    """Consistent iff some universe element x satisfies the formula against
    every selected parameter simultaneously (brute-force search).

    phi(x, p) is memoised per universe element and parameter tuple, filled as
    the search first reaches each pair, so the structure, the formula and the
    witness are treated as fixed after construction. An evaluation that raises
    stores nothing and raises again when next reached."""

    def __init__(self, structure: FiniteStructure, formula: Formula,
                 witness: Witness, x_var: str = "x", y_vars=("y",)):
        if witness.backend != STRUCTURE:
            raise WitnessError(f"fo oracle needs a structure witness, got {witness.backend}")
        self.structure = structure
        self.formula = formula
        self.witness = witness
        self.x_var = x_var
        self.y_vars = tuple(y_vars)
        self._params = {}
        for i in witness.labels:
            p = witness.params[i]
            self._params[i] = p if isinstance(p, tuple) else (p,)
            if len(self._params[i]) != len(self.y_vars):
                raise WitnessError(
                    f"parameter for {i!r} does not match y-block arity {len(self.y_vars)}"
                )
        self._holds: Dict[Tuple, bool] = {}  # (x, parameter tuple) -> phi(x, p)

    def consistent(self, labels) -> bool:
        params = [self._params[i] for i in labels]
        if not params:
            return True
        holds = self._holds
        for x in self.structure.universe:
            for p in params:
                verdict = holds.get((x, p))
                if verdict is None:
                    assignment = {self.x_var: x}
                    assignment.update(zip(self.y_vars, p))
                    verdict = holds[x, p] = eval_formula(self.structure, self.formula,
                                                         assignment)
                if not verdict:
                    break
            else:
                return True
        return False


def oracle_for(witness: Witness):
    if witness.backend == SKOLEM:
        return GcdOracle(witness)
    if witness.backend == BOOLEAN:
        return BitsetOracle(witness)
    raise WitnessError(f"no default oracle for backend {witness.backend!r}")
