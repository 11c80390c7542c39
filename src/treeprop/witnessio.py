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

Skolem parameters are products of one prime per maximal family member, so
at depth 5 they run to about 10,000 decimal digits, past the interpreter's
int<->str digit limit (4,300 by default, 640 at the least), and `str` and
`int` take time quadratic in the digits. They are written and read in
pieces of at most `_DECIMAL_PIECE` digits, each converted by `str` or `int`
under the limit, which is never changed: a value is split by 10**k into a
high and a low half, and a text of n digits is read as hi * 10**k + lo with
10**k = 5**k << k, k = `_DECIMAL_PIECE` * 2^j the largest such below n.
The powers are made once per value. A skolem param must be plain ASCII
digits, and a document whose params hold more digits than
`synth.SKOLEM_BITS_CAP` bits allow is refused before any is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import log2
from typing import Union

from .errors import WitnessError
from .nodes import node_str, parse_node
from .oracles import BOOLEAN, SKOLEM, TupleWitness, Witness
from .patterns import TP2, PatternSpec
from .synth import check_skolem_bits

VERSION = 1

# decimal digits that `str` and `int` convert at once: under the smallest
# int<->str digit limit the interpreter accepts (640), so no setting of it
# stops witness I/O
_DECIMAL_PIECE = 512


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


def _decimal_str(value: int) -> str:
    """str(value) for a nonnegative int of any size, in pieces of at most
    `_DECIMAL_PIECE` digits: divmod by 10**k splits off the low half,
    printed with exactly k digits by zfill."""
    powers = [10 ** _DECIMAL_PIECE]  # powers[i] = 10 ** (_DECIMAL_PIECE << i)
    while powers[-1] <= value:
        powers.append(powers[-1] * powers[-1])
    parts = []
    _write_decimal(parts, powers, value, len(powers) - 1, False)
    return "".join(parts)


def _write_decimal(parts: list, powers: list, value: int, level: int, pad: bool) -> None:
    """Append the digits of value < powers[level] to `parts`: padded to
    exactly `_DECIMAL_PIECE` << level digits, or with no leading zero."""
    while not pad and level and value < powers[level - 1]:
        level -= 1
    if level == 0:
        parts.append(str(value).zfill(_DECIMAL_PIECE) if pad else str(value))
        return
    hi, lo = divmod(value, powers[level - 1])
    _write_decimal(parts, powers, hi, level - 1, pad)
    _write_decimal(parts, powers, lo, level - 1, True)


def _decimal_int(text: str) -> int:
    """int(text) for a text of ASCII digits of any length."""
    return _read_decimal(text, 0, len(text), {})


def _read_decimal(text: str, start: int, stop: int, powers: dict) -> int:
    """The value of text[start:stop]: its last k digits are the low half,
    k = `_DECIMAL_PIECE` * 2^j the largest below its length, and hi * 10**k
    is (hi * 5**k) << k, with 5**k kept in `powers`."""
    n = stop - start
    if n <= _DECIMAL_PIECE:
        return int(text[start:stop])
    k = _DECIMAL_PIECE << ((n - 1) // _DECIMAL_PIECE).bit_length() - 1
    if k not in powers:
        powers[k] = 5 ** k
    hi = _read_decimal(text, start, stop - k, powers)
    return (hi * powers[k] << k) + _read_decimal(text, stop - k, stop, powers)


def param_str(backend: str, value: int, width) -> str:
    if backend == BOOLEAN:
        digits = max(1, (width + 3) // 4)
        return f"0x{value:0{digits}x}"
    return _decimal_str(value)


def _skolem_params(texts) -> list:
    """Skolem params read from their texts, each plain ASCII digits. Their
    size is checked before any is read: d digits mean at least
    (d - 1) log2(10) bits."""
    for text in texts:
        if not (isinstance(text, str) and text.isascii() and text.isdigit()):
            raise WitnessError(f"skolem param {text!r:.40} is not a string of decimal digits")
    digits = sum(len(text) for text in texts)
    check_skolem_bits(int((digits - len(texts)) * log2(10)),
                      f"{digits} decimal digits, at least")
    return [_decimal_int(text) for text in texts]


def _boolean_param(text) -> int:
    if not isinstance(text, str):
        raise WitnessError(f"witness param {text!r} is not a string")
    return int(text, 16)


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
        if backend == SKOLEM:
            values = _skolem_params(entries.values())
        elif backend == BOOLEAN:
            values = [_boolean_param(text) for text in entries.values()]
        else:
            raise WitnessError(f"unknown witness backend {backend!r:.40}")
        params = dict(zip(map(parse_label, entries), values))
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
