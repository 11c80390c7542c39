"""First-order formulas over explicit finite structures.

Grammar (tokens are words, integers and punctuation; whitespace ignored):

    formula := quant | impl
    quant   := ("exists" | "forall") ident "." formula
    impl    := disj ["->" impl]
    disj    := conj {"|" conj}
    conj    := unit {"&" unit}
    unit    := "!" unit | "(" formula ")" | atom
    atom    := term ("=" | "!=") term | ident "(" term {"," term} ")"
    term    := ident ["(" term {"," term} ")"] | integer

An identifier used as a 0-ary term denotes a variable if bound or assigned,
otherwise a constant of the structure. Evaluation is brute-force Tarskian:
quantifiers range over the finite universe.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import FormulaError


# --- AST ---

class Term:
    pass


@dataclass(frozen=True)
class Name(Term):
    """Variable or constant reference, resolved at evaluation time."""
    ident: str


@dataclass(frozen=True)
class Literal(Term):
    value: int


@dataclass(frozen=True)
class Apply(Term):
    func: str
    args: Tuple[Term, ...]


class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    rel: str
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class Equals(Formula):
    left: Term
    right: Term
    negated: bool = False


@dataclass(frozen=True)
class Not(Formula):
    inner: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Quantifier(Formula):
    kind: str  # "exists" | "forall"
    var: str
    body: Formula


# --- Parser ---

_TOKEN = re.compile(r"\s*(->|!=|[()=.,&|!]|[A-Za-z_][A-Za-z_0-9]*|[0-9]+)")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: List[Tuple[str, int]] = []
        pos = 0
        while pos < len(text) and not text[pos:].isspace():
            m = _TOKEN.match(text, pos)
            if not m:
                pos += len(text[pos:]) - len(text[pos:].lstrip())
                raise FormulaError(f"unexpected character {text[pos]!r}", pos)
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise FormulaError("unexpected end of input", len(self.text))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want: str):
        tok, pos = self.next()
        if tok != want:
            raise FormulaError(f"expected {want!r}, found {tok!r}", pos)

    def formula(self) -> Formula:
        if self.peek() in ("exists", "forall"):
            kind, _ = self.next()
            var, pos = self.next()
            if not var.isidentifier():
                raise FormulaError(f"expected variable name, found {var!r}", pos)
            self.expect(".")
            return Quantifier(kind, var, self.formula())
        return self.impl()

    def impl(self) -> Formula:
        left = self.disj()
        if self.peek() == "->":
            self.next()
            return Implies(left, self.impl())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unit()
        while self.peek() == "&":
            self.next()
            f = And(f, self.unit())
        return f

    def unit(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.next()
            return Not(self.unit())
        if tok == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        return self.atom()

    def atom(self) -> Formula:
        left = self.term()
        tok = self.peek()
        if tok in ("=", "!="):
            self.next()
            return Equals(left, self.term(), negated=tok == "!=")
        # relation atom: must have been parsed as an application
        if isinstance(left, Apply):
            return Atom(left.func, left.args)
        pos = self.tokens[self.i - 1][1] if self.i else 0
        raise FormulaError("expected relation or (in)equality", pos)

    def term(self) -> Term:
        tok, pos = self.next()
        if "0" <= tok[0] <= "9":
            try:
                return Literal(int(tok))
            except ValueError:  # past the int-to-str digit limit
                raise FormulaError(f"integer literal of {len(tok)} digits", pos) from None
        if not tok.isidentifier():
            raise FormulaError(f"expected term, found {tok!r}", pos)
        if self.peek() == "(":
            self.next()
            args = [self.term()]
            while self.peek() == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            return Apply(tok, tuple(args))
        return Name(tok)


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    try:
        f = parser.formula()
    except RecursionError:
        raise FormulaError("formula nested too deeply") from None
    if parser.peek() is not None:
        tok, pos = parser.tokens[parser.i]
        raise FormulaError(f"trailing input {tok!r}", pos)
    return f


# --- Finite structures ---

class FiniteStructure:
    """Explicit finite interpretation: universe list, relation tables as sets
    of tuples, total function tables, constants."""

    def __init__(self, universe, relations=None, functions=None, constants=None):
        self.universe = list(universe)
        self.elements = elems = frozenset(self.universe)
        if len(elems) != len(self.universe):
            raise FormulaError("universe has duplicate elements")
        self.relations: Dict[str, set] = {
            name: {tuple(row) for row in rows}
            for name, rows in (relations or {}).items()
        }
        self.functions: Dict[str, dict] = {
            name: dict(table) for name, table in (functions or {}).items()
        }
        self.constants: Dict[str, object] = dict(constants or {})
        for name, rows in self.relations.items():
            for row in rows:
                if any(e not in elems for e in row):
                    raise FormulaError(f"relation {name} row {row} leaves the universe")
        for name, table in self.functions.items():
            for args, val in table.items():
                if any(e not in elems for e in args) or val not in elems:
                    raise FormulaError(f"function {name} entry {args} leaves the universe")
        for name, val in self.constants.items():
            if val not in elems:
                raise FormulaError(f"constant {name} = {val!r} not in universe")

    # JSON layout: {"universe": [...], "relations": {name: [[...], ...]},
    # "functions": {name: {"a,b": value, ...}}, "constants": {name: value}}
    @classmethod
    def from_json(cls, data) -> "FiniteStructure":
        """Any malformed document raises FormulaError."""
        try:
            if isinstance(data, str):
                data = json.loads(data)
            if not isinstance(data, dict) or not isinstance(data.get("universe"), list):
                raise FormulaError("a structure is an object with a \"universe\" list")
            return cls._from_dict(data)
        except FormulaError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise FormulaError(f"malformed structure: {exc!r}") from None

    @classmethod
    def _from_dict(cls, data: dict) -> "FiniteStructure":
        universe = data["universe"]
        elems = {str(e): e for e in universe}

        def elem(key):
            return elems.get(str(key), key)

        functions = {
            name: {
                tuple(elem(k) for k in key.split(",")): elem(val)
                for key, val in table.items()
            }
            for name, table in data.get("functions", {}).items()
        }
        relations = {
            name: [[elem(e) for e in row] for row in rows]
            for name, rows in data.get("relations", {}).items()
        }
        constants = {name: elem(v) for name, v in data.get("constants", {}).items()}
        return cls(universe, relations, functions, constants)

    def to_json(self) -> dict:
        return {
            "universe": self.universe,
            "relations": {
                name: sorted([list(row) for row in rows])
                for name, rows in self.relations.items()
            },
            "functions": {
                name: {
                    ",".join(str(a) for a in args): val
                    for args, val in sorted(table.items(), key=lambda kv: str(kv[0]))
                }
                for name, table in self.functions.items()
            },
            "constants": dict(self.constants),
        }


def eval_term(structure: FiniteStructure, term: Term, assignment: dict):
    if isinstance(term, Literal):
        if term.value not in structure.elements:
            raise FormulaError(f"literal {term.value} not in universe")
        return term.value
    if isinstance(term, Name):
        if term.ident in assignment:
            return assignment[term.ident]
        if term.ident in structure.constants:
            return structure.constants[term.ident]
        raise FormulaError(f"unbound name {term.ident!r}")
    if isinstance(term, Apply):
        table = structure.functions.get(term.func)
        if table is None:
            raise FormulaError(f"unknown function {term.func!r}")
        args = tuple(eval_term(structure, a, assignment) for a in term.args)
        if args not in table:
            raise FormulaError(f"function {term.func!r} undefined on {args}")
        return table[args]
    raise TypeError(f"not a term: {term!r}")


def eval_formula(structure: FiniteStructure, f: Formula, assignment: dict) -> bool:
    try:
        return _eval(structure, f, assignment)
    except RecursionError:
        raise FormulaError("formula nested too deeply to evaluate") from None


def _eval(structure: FiniteStructure, f: Formula, assignment: dict) -> bool:
    if isinstance(f, Atom):
        rows = structure.relations.get(f.rel)
        if rows is None:
            raise FormulaError(f"unknown relation {f.rel!r}")
        args = tuple(eval_term(structure, a, assignment) for a in f.args)
        return args in rows
    if isinstance(f, Equals):
        same = eval_term(structure, f.left, assignment) == eval_term(
            structure, f.right, assignment
        )
        return same != f.negated
    if isinstance(f, Not):
        return not _eval(structure, f.inner, assignment)
    if isinstance(f, And):
        return _eval(structure, f.left, assignment) and _eval(structure, f.right, assignment)
    if isinstance(f, Or):
        return _eval(structure, f.left, assignment) or _eval(structure, f.right, assignment)
    if isinstance(f, Implies):
        return (not _eval(structure, f.left, assignment)) or _eval(
            structure, f.right, assignment)
    if isinstance(f, Quantifier):
        hits = (
            _eval(structure, f.body, {**assignment, f.var: e})
            for e in structure.universe
        )
        return any(hits) if f.kind == "exists" else all(hits)
    raise TypeError(f"not a formula: {f!r}")


def divisor_structure(n: int) -> FiniteStructure:
    """The divisor lattice of n with the divisibility relation and the
    constant 1; the standing example structure for the gcd oracle."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    divides = [[a, b] for a in divisors for b in divisors if b % a == 0]
    return FiniteStructure(divisors, {"divides": divides}, constants={"1": 1})
