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
from typing import Dict, List, Tuple

from .errors import FormulaError, record, shown


# --- AST ---

class Term:
    pass


class Name(record("ident"), Term):
    """Variable or constant reference, resolved at evaluation time."""


class Literal(record("value"), Term):
    pass


class Apply(record("func args"), Term):
    pass


class Formula:
    pass


class Atom(record("rel args"), Formula):
    pass


class Equals(record("left right negated", defaults=(False,)), Formula):
    pass


class Not(record("inner"), Formula):
    pass


class And(record("left right"), Formula):
    pass


class Or(record("left right"), Formula):
    pass


class Implies(record("left right"), Formula):
    pass


class Quantifier(record("kind var body"), Formula):
    """kind is "exists" or "forall"."""


# --- Parser ---

# a name that a formula can write: a variable, constant, function or relation
NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(rf"->|!=|[()=.,&|!]|{NAME.pattern}|[0-9]+")
_SPACE = re.compile(r"\s*")


class _Parser:
    def __init__(self, text: str):
        """Tokens and their positions, from one match in place per token and per space run."""
        self.text = text
        self.tokens: List[Tuple[str, int]] = []
        pos = _SPACE.match(text).end()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise FormulaError(f"unexpected character {shown(text[pos])}", pos)
            self.tokens.append((m.group(), pos))
            pos = _SPACE.match(text, m.end()).end()
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
            raise FormulaError(f"expected {shown(want)}, found {shown(tok)}", pos)

    def formula(self) -> Formula:
        if self.peek() in ("exists", "forall"):
            kind, _ = self.next()
            var, pos = self.next()
            if not var.isidentifier():
                raise FormulaError(f"expected variable name, found {shown(var)}", pos)
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
            raise FormulaError(f"expected term, found {shown(tok)}", pos)
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
        raise FormulaError(f"trailing input {shown(tok)}", pos)
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
                    raise FormulaError(f"relation {shown(name)} row {shown(row)} "
                                       "leaves the universe")
        for name, table in self.functions.items():
            for args, val in table.items():
                if any(e not in elems for e in args) or val not in elems:
                    raise FormulaError(f"function {name} entry {shown(args)} leaves the universe")
        for name, val in self.constants.items():
            if val not in elems:
                raise FormulaError(f"constant {shown(name)} = {shown(val)} not in universe")

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
            raise FormulaError(f"malformed structure: {shown(exc)}") from None

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
            raise FormulaError(f"literal {shown(term.value)} not in universe")
        return term.value
    if isinstance(term, Name):
        if term.ident in assignment:
            return assignment[term.ident]
        if term.ident in structure.constants:
            return structure.constants[term.ident]
        raise FormulaError(f"unbound name {shown(term.ident)}")
    if isinstance(term, Apply):
        table = structure.functions.get(term.func)
        if table is None:
            raise FormulaError(f"unknown function {shown(term.func)}")
        args = tuple(eval_term(structure, a, assignment) for a in term.args)
        if args not in table:
            raise FormulaError(f"function {shown(term.func)} undefined on {shown(args)}")
        return table[args]
    raise TypeError(f"not a term: {shown(term)}")


def eval_formula(structure: FiniteStructure, f: Formula, assignment: dict) -> bool:
    try:
        return _eval(structure, f, assignment)
    except RecursionError:
        raise FormulaError("formula nested too deeply to evaluate") from None


def _eval(structure: FiniteStructure, f: Formula, assignment: dict) -> bool:
    if isinstance(f, Atom):
        rows = structure.relations.get(f.rel)
        if rows is None:
            raise FormulaError(f"unknown relation {shown(f.rel)}")
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
    raise TypeError(f"not a formula: {shown(f)}")


def divisor_structure(n: int) -> FiniteStructure:
    """The divisor lattice of n with the divisibility relation and the
    constant 1; the standing example structure for the gcd oracle."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    divides = [[a, b] for a in divisors for b in divisors if b % a == 0]
    return FiniteStructure(divisors, {"divides": divides}, constants={"1": 1})
