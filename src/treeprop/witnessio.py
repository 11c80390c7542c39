"""Witness file round-trip.

Layout (JSON, UTF-8, sorted keys):

    {
      "version": 2,
      "pattern": {"kind": "atp", "branching": 2, "depth": 3},
      "backend": "skolem" | "boolean" | "tuple",
      "width": 5,                         # boolean only
      "params": {"": "0x2", "0": "0xf"},  # hex, zero-padded for boolean
      "arity": 2,                         # tuple witness only, with:
      "provenance": {"": ["", "0"]},      #   source node strings per index
      "base": { ... nested witness ... }
    }

Each index keys its entry by the one text `label_str` writes for it: a tree
node by its node string ("" is the root, plain digits up to branching 10,
dot-separated digits without leading zeros above it), an array cell by
"row,col" in ASCII decimal. The reader parses no key. It checks that there
are as many entries as labels and fetches each label's entry by its text,
so a file with a key of any other text (a non-ASCII or out-of-range digit,
a leading zero, a sign, a space) lacks some label's key and is refused. A
tuple witness's provenance entry for an index must be a list of key
strings, and its sources are looked up the same way among its base
witness's labels.

Every param, skolem or boolean, is written as `0x` and lowercase hex
digits: a boolean param zero-padded to the digits of its width, a skolem
param with the fewest digits. Hex converts in linear time and is outside
the interpreter's int<->str digit limit, so a skolem param of millions of
bits (a product of one prime per maximal member) needs no change to that
limit. A param is read only as `0x` and one or more ASCII hex digits of
either case, checked in one pass over its bytes once the text is known to be
ASCII, and a skolem document whose params hold more digits than
`synth.SKOLEM_BITS_CAP` bits allow is refused before any is read. Files of
version 1, which wrote skolem params in decimal, are refused.

Three documents that treeprop never writes are refused before their params
are read: a skolem or tuple document that declares a width, which the
writers would pad skolem params to; a tuple document whose base is itself a
tuple document; and a boolean width past `antichains.FAMILY_CELL_CAP` cells
over the labels (width x labels), which no exact family reaches and which
would make the writers pad every param to that many bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from . import antichains
from .errors import WitnessError
from .nodes import node_str
from .oracles import BOOLEAN, SKOLEM, TupleWitness, Witness
from .patterns import TP2, PatternSpec
from .synth import check_skolem_bits

VERSION = 2

_HEX_BYTES = b"0123456789abcdefABCDEF"


def label_str(pattern: PatternSpec, label) -> str:
    if pattern.kind == TP2:
        return f"{label[0]},{label[1]}"
    return node_str(label, pattern.branching)


def _fetch(table: dict, keys, name: str) -> list:
    """The entry of each key in `table`; a key it lacks raises WitnessError."""
    try:
        return [table[key] for key in keys]
    except KeyError as exc:
        raise WitnessError(f"no key {exc.args[0]!r:.40} in the {name}") from None


def param_str(value: int, width=None) -> str:
    """A param's text: `0x` and lowercase hex digits, as many as `width` bits
    take for a boolean param, the fewest for a skolem one (no width)."""
    return f"0x{value:0{max(1, ((width or 0) + 3) // 4)}x}"


def _params(backend: str, texts) -> list:
    """Params read from their texts, each `0x` and one or more ASCII hex
    digits: ASCII text of which no byte after `0x` is left once the hex
    digits are deleted. ASCII is checked first, since a lone surrogate (which
    JSON can carry) does not encode. Skolem params are sized before any is
    read: d digits mean at least 4(d - 1) bits."""
    for text in texts:
        if not (isinstance(text, str) and text[:2] == "0x" and len(text) > 2
                and text.isascii() and not text[2:].encode().translate(None, _HEX_BYTES)):
            raise WitnessError(f"{backend} param {text!r:.40} is not 0x and hex digits")
    if backend == SKOLEM:
        digits = sum(len(text) - 2 for text in texts)
        check_skolem_bits(4 * (digits - len(texts)), f"{digits} hex digits, at least")
    return [_read_param(text) for text in texts]


def _read_param(text: str) -> int:
    """The value of a checked param text."""
    return int(text, 16)


def _plain_int(value, name: str) -> int:
    """The value, refused unless it is a plain int: a bool or a float is not."""
    if type(value) is not int:
        raise WitnessError(f"witness {name} {value!r:.40} is not an integer")
    return value


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
                label_str(self.pattern, label): param_str(w.params[label], w.width)
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
        version = data.get("version")
        if type(version) is not int or version != VERSION:
            raise WitnessError(f"unsupported witness file version {version!r:.40}")
        try:
            return cls._parse(data)
        except WitnessError:
            raise
        except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
            raise WitnessError(f"malformed witness file: {exc!r}") from exc

    @classmethod
    def _parse(cls, data: dict) -> "WitnessFile":
        pattern = PatternSpec.from_json(data["pattern"])
        backend = data["backend"]
        if backend != BOOLEAN and "width" in data:
            raise WitnessError(f"a {backend!r:.40} witness declares no width")
        entries = data["provenance"] if backend == "tuple" else data["params"]
        if not _index_count_is(pattern, len(entries)):
            raise WitnessError("witness params do not cover the pattern's index set")
        labels = pattern.index_labels()
        values = _fetch(entries, (label_str(pattern, label) for label in labels), "witness")
        if backend == "tuple":
            base = data["base"]
            if isinstance(base, dict) and base.get("backend") == "tuple":
                raise WitnessError("the base of a tuple witness is itself a tuple witness")
            base_file = cls.from_json(base)
            for keys in values:
                if type(keys) is not list or any(type(key) is not str for key in keys):
                    raise WitnessError(f"provenance entry {keys!r:.40} is not a list of keys")
            source = {label_str(base_file.pattern, s): s for s in base_file.witness.labels}
            provenance = {label: tuple(_fetch(source, keys, "base witness"))
                          for label, keys in zip(labels, values)}
            witness = TupleWitness(base_file.witness, labels, provenance,
                                   _plain_int(data["arity"], "arity"))
            return cls(pattern, witness, base_pattern=base_file.pattern)
        if backend not in (SKOLEM, BOOLEAN):
            raise WitnessError(f"unknown witness backend {backend!r:.40}")
        width = data.get("width")
        if width is not None:
            width = _plain_int(width, "width")
            if width * len(labels) > antichains.FAMILY_CELL_CAP:
                raise WitnessError(f"witness width {width!r:.40} over {len(labels)} labels "
                                   f"is past {antichains.FAMILY_CELL_CAP} cells")
        params = dict(zip(labels, _params(backend, values)))
        return cls(pattern, Witness(backend, labels, params, width=width))


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
