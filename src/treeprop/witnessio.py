"""Witness file round-trip.

Layout (JSON, UTF-8, sorted keys):

    {
      "version": 1,
      "pattern": {"kind": "atp", "branching": 2, "depth": 3},
      "backend": "skolem" | "boolean" | "tuple",
      "width": 5,                      # boolean only
      "params": {"": "2", "0": "15"},  # decimal, or "0x.." hex for boolean
      "arity": 2,                      # tuple witness only, with:
      "provenance": {"": ["", "0"]},   #   source node strings per index
      "base": { ... nested witness ... }
    }

Tree indices key by node string ("" is the root, dot-separated digits above
branching 10); array indices key by "row,col".
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Union

from .errors import WitnessError
from .nodes import node_str, parse_node
from .oracles import BOOLEAN, TupleWitness, Witness
from .patterns import TP2, PatternSpec

VERSION = 1


def label_str(pattern: PatternSpec, label) -> str:
    if pattern.kind == TP2:
        return f"{label[0]},{label[1]}"
    return node_str(label, pattern.branching)


def _label_parser(pattern: PatternSpec):
    if pattern.kind == TP2:
        def parse(text: str):
            row, col = text.split(",")
            return (int(row), int(col))
        return parse
    return lambda text: parse_node(text, pattern.branching)


@contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int<->decimal-str digit limit for the duration.

    Divisibility-backend parameters are products of one prime per maximal
    family member, so at depth 5 they run to thousands of decimal digits,
    past the default limit. The limit is process-wide, so it is restored."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def param_str(backend: str, value: int, width) -> str:
    if backend == BOOLEAN:
        digits = max(1, (width + 3) // 4)
        return f"0x{value:0{digits}x}"
    with _unlimited_int_digits():
        return str(value)


def _param_parse(backend: str, text) -> int:
    if not isinstance(text, str):
        raise WitnessError(f"witness param {text!r} is not a string")
    if backend == BOOLEAN:
        return int(text, 16)
    with _unlimited_int_digits():
        return int(text)


def _index_count_is(pattern: PatternSpec, count: int) -> bool:
    """Whether the pattern's index set has `count` labels, decided without
    building it: a tree of depth d has at least 2**d - 1 nodes."""
    return ((pattern.kind == TP2 or pattern.depth <= count.bit_length())
            and pattern.index_count() == count)


@dataclass(frozen=True)
class WitnessFile:
    pattern: PatternSpec
    witness: Union[Witness, TupleWitness]
    base_pattern: PatternSpec = None  # source pattern of a tuple witness

    def to_json(self) -> dict:
        w = self.witness
        if isinstance(w, TupleWitness):
            if self.base_pattern is None:
                raise WitnessError("tuple witness file needs the base pattern")
            base_doc = WitnessFile(self.base_pattern, w.base).to_json()
            src = self.base_pattern
            return {
                "version": VERSION,
                "pattern": self.pattern.to_json(),
                "backend": "tuple",
                "arity": w.arity,
                "provenance": {
                    label_str(self.pattern, label): [
                        label_str(src, s) for s in w.provenance[label]
                    ]
                    for label in w.labels
                },
                "base": base_doc,
            }
        data = {
            "version": VERSION,
            "pattern": self.pattern.to_json(),
            "backend": w.backend,
            "params": {
                label_str(self.pattern, label): param_str(w.backend, w.params[label], w.width)
                for label in w.labels
            },
        }
        if w.backend == BOOLEAN:
            data["width"] = w.width
        return data

    @classmethod
    def from_json(cls, data) -> "WitnessFile":
        """Parse a witness document. Every malformed document raises
        WitnessError."""
        if not isinstance(data, dict):
            raise WitnessError("a witness file holds one JSON object")
        if data.get("version") != VERSION:
            raise WitnessError(f"unsupported witness file version {data.get('version')!r}")
        try:
            return cls._parse(data)
        except WitnessError:
            raise
        except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
            raise WitnessError(f"malformed witness file: {exc!r}") from exc

    @classmethod
    def _parse(cls, data: dict) -> "WitnessFile":
        pattern = PatternSpec.from_json(data["pattern"])
        parse_label = _label_parser(pattern)
        backend = data["backend"]
        entries = data["provenance"] if backend == "tuple" else data["params"]
        if not _index_count_is(pattern, len(entries)):
            raise WitnessError("witness params do not cover the pattern's index set")
        labels = pattern.index_labels()
        if backend == "tuple":
            base_file = cls.from_json(data["base"])
            parse_source = _label_parser(base_file.pattern)
            provenance = {
                parse_label(key): tuple(parse_source(s) for s in sources)
                for key, sources in entries.items()
            }
            witness = TupleWitness(base_file.witness, labels, provenance, data["arity"])
            return cls(pattern, witness, base_pattern=base_file.pattern)
        params = {
            parse_label(key): _param_parse(backend, value)
            for key, value in entries.items()
        }
        if set(params) != set(labels):
            raise WitnessError("witness params do not cover the pattern's index set")
        witness = Witness(backend, labels, params, width=data.get("width"))
        return cls(pattern, witness)


def dumps(wf: WitnessFile) -> str:
    return json.dumps(wf.to_json(), sort_keys=True, indent=2) + "\n"


def loads(text: str) -> WitnessFile:
    """Parse a witness file's text. Text that is not JSON, or is nested too
    deeply to parse, raises WitnessError like any other malformed file."""
    try:
        data = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise WitnessError(f"witness file does not parse as JSON: {exc!r}") from None
    return WitnessFile.from_json(data)


def save(wf: WitnessFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(wf))


def load(path) -> WitnessFile:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
