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
limit. The digits are the value's big-endian bytes in hex (`int.to_bytes`,
`bytes.hex`), and since they are ASCII, which JSON leaves as it is, a param
line is written without JSON's string escaping. A param is read only as
`0x` and one or more ASCII hex digits of either case, checked in one pass
over its bytes once the text is known to be ASCII; only then is it read
through bytes (`bytes.fromhex`, `int.from_bytes`), since `bytes.fromhex`
would skip spaces. A skolem document whose params hold more significant
digits (leading zeros left out) than `synth.SKOLEM_BITS_CAP` bits allow is
refused before any is read. Files of version 1, which wrote skolem params
in decimal, are refused.

The text is exactly json.dumps(doc, sort_keys=True, indent=2) and a
newline, but one writer makes it in pieces, one param or provenance line at
a time, each param formatted only when its line is written: `save` writes
the pieces to the file as they come and `dumps` joins them. So saving a
witness holds one line of its text, where json.dumps, whose indenting
encoder is pure Python, held every token of it. The entries come in the
sorted order of their keys without the keys being listed and sorted, by
the order of decimal texts (`_in_key_order`), and a witness whose labels
are not the pattern's is refused before any piece is written.

Three documents that treeprop never writes are refused before their params
are read: a skolem or tuple document that declares a width, which the
writers would pad skolem params to; a tuple document whose base is itself a
tuple document; and a boolean width past `antichains.FAMILY_CELL_CAP` cells
over the labels (width x labels), which no exact family reaches and which
would make the writers pad every param to that many bits.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from . import antichains
from .errors import WitnessError, record
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
    take for a boolean param, the fewest for a skolem one (no width). The
    digits are the value's big-endian bytes in hex, less a leading 0 when
    their count is odd. A negative value has no such text."""
    digits = max(1, ((width or 0) + 3) // 4, (value.bit_length() + 3) // 4)
    try:
        return "0x" + value.to_bytes((digits + 1) // 2, "big").hex()[digits & 1:]
    except OverflowError:  # only a negative value overflows the bytes it is sized by
        raise WitnessError(f"param {hex(value):.40} is negative") from None


def _params(backend: str, texts) -> list:
    """Params read from their texts, each `0x` and one or more ASCII hex
    digits: ASCII text of which no byte after `0x` is left once the hex
    digits are deleted. ASCII is checked first, since a lone surrogate (which
    JSON can carry) does not encode. Skolem params are sized before any is
    read, by their significant digits: d of them mean at least 4(d - 1)
    bits, and leading zeros mean none. Stripping "0x" strips the `0x` and
    the leading zeros, since no hex digit is an x."""
    for text in texts:
        if not (isinstance(text, str) and text[:2] == "0x" and len(text) > 2
                and text.isascii() and not text[2:].encode().translate(None, _HEX_BYTES)):
            raise WitnessError(f"{backend} param {text!r:.40} is not 0x and hex digits")
    if backend == SKOLEM:
        significant = [len(text.lstrip("0x")) for text in texts]
        digits = sum(significant)
        check_skolem_bits(4 * (digits - sum(map(bool, significant))),
                          f"{digits} hex digits, at least")
    return [_read_param(text) for text in texts]


def _read_param(text: str) -> int:
    """The value of a checked param text, read as big-endian bytes: an odd
    count of digits is padded with a leading 0. bytes.fromhex would also
    skip spaces, which the check in `_params` has refused."""
    digits = text[2:] if len(text) % 2 == 0 else "0" + text[2:]
    return int.from_bytes(bytes.fromhex(digits), "big")


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


class WitnessFile(record("pattern witness base_pattern", defaults=(None,))):
    """A pattern and its Witness or TupleWitness; base_pattern is the source
    pattern of a tuple witness."""

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


def _dumped(value, indent: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) as it reads nested at
    `indent`, for a document's values: objects with string keys, lists,
    strings and ints. json.dumps would run its pure-Python encoder here,
    whose closures are cyclic garbage on every call; this calls its string
    encoder directly and lays out objects and lists as `_object` does."""
    inner = indent + "  "
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        return "".join(_object(((key, _dumped(v, inner)) for key, v in sorted(value.items())),
                               indent))
    if isinstance(value, list):
        if not value:
            return "[]"
        return f"[\n{inner}" + f",\n{inner}".join(_dumped(v, inner) for v in value) + f"\n{indent}]"
    return json.dumps(value)


def _object(members, indent: str) -> Iterator[str]:
    """A JSON object's text as `_dumped` writes it at `indent`, in pieces,
    from its (key, text) members in sorted key order, each read only when
    its line is written: text is the value's JSON text one level in, or an
    iterator of its pieces (a nested document or object)."""
    inner, opened = indent + "  ", False
    for key, text in members:
        head = f"{',' if opened else '{'}\n{inner}{encode_basestring_ascii(key)}: "
        opened = True
        if isinstance(text, str):
            yield head + text
        else:
            yield head
            yield from text
    yield f"\n{indent}}}" if opened else "{}"


def _decimal_order(n: int) -> Iterator[int]:
    """0, ..., n - 1 in the sorted order of their decimal texts, one at a
    time: after v comes 10v if it is below n, else v with its trailing 9s
    (and any value past n - 1) cut off, plus one."""
    if n <= 10:
        yield from range(n)
        return
    yield 0
    v = 1
    for _ in range(n - 1):
        yield v
        if 10 * v < n:
            v *= 10
        else:
            while v % 10 == 9 or v + 1 >= n:
                v //= 10
            v += 1


def _in_key_order(pattern: PatternSpec) -> Iterator:
    """The pattern's labels in the sorted order of their `label_str` texts,
    one at a time rather than sorted: a text's separator ("." or ",") sorts
    below every digit, so the texts sort as the labels do once each
    position's values are taken in `_decimal_order`, a node's text right
    before those of its subtree. Up to 10 values per position that is the
    labels' own order."""
    if pattern.kind == TP2:
        return ((r, c) for r in _decimal_order(pattern.rows)
                for c in _decimal_order(pattern.cols))
    return _subtree((), pattern.branching, pattern.depth)


def _subtree(node, branching: int, depth: int) -> Iterator:
    """The node, then its subtree in a tree of the given depth, each node's
    children in `_decimal_order`; leaves are yielded by their parent."""
    yield node
    if len(node) < depth - 2:
        for d in _decimal_order(branching):
            yield from _subtree(node + (d,), branching, depth)
    elif len(node) == depth - 2:
        for d in _decimal_order(branching):
            yield node + (d,)


def _entries(pattern: PatternSpec, table: dict, text) -> Iterator:
    """(key, text) for each label of the pattern, keyed by `label_str`, in
    key order: text is text(table[label]), the entry's JSON text, made when
    it is read."""
    for label in _in_key_order(pattern):
        yield label_str(pattern, label), text(table[label])


def _pieces(wf: WitnessFile, indent: str = "") -> Iterator[str]:
    """The document's text, as json.dumps(doc, sort_keys=True, indent=2)
    writes it at `indent`, in pieces: the version, pattern, backend and
    width or arity; the params or provenance one line per label, each param
    written when its line is; a tuple witness's base document nested the
    same way. A tuple witness without its base pattern, or whose labels are
    not the pattern's, is refused here, before any piece."""
    w, inner = wf.witness, indent + "  "
    table = w.provenance if isinstance(w, TupleWitness) else w.params
    if len(w.labels) != wf.pattern.index_count() or not all(
            label in table for label in _in_key_order(wf.pattern)):
        raise WitnessError("witness labels are not the pattern's index set")
    members = {"version": VERSION, "pattern": wf.pattern.to_json()}
    if isinstance(w, TupleWitness):
        if wf.base_pattern is None:
            raise WitnessError("tuple witness file needs the base pattern")
        src = wf.base_pattern
        members.update(backend="tuple", arity=w.arity)
        entries = _entries(wf.pattern, table, lambda sources: _dumped(
            [label_str(src, s) for s in sources], inner + "  "))
        texts = {"base": _pieces(WitnessFile(src, w.base), inner),
                 "provenance": _object(entries, inner)}
    else:
        members.update(backend=w.backend)
        if w.backend == BOOLEAN:
            members["width"] = w.width
        # a param's text is ASCII hex, which JSON writes as it is
        entries = _entries(wf.pattern, table, lambda param: '"' + param_str(param, w.width) + '"')
        texts = {"params": _object(entries, inner)}
    texts.update((key, _dumped(value, inner)) for key, value in members.items())
    return _object(sorted(texts.items()), indent)


def _text(wf: WitnessFile) -> Iterator[str]:
    """The witness file's text in pieces: the document and a final newline."""
    return itertools.chain(_pieces(wf), ["\n"])


def dumps(wf: WitnessFile) -> str:
    """The witness file's text: json.dumps(doc, sort_keys=True, indent=2) and
    a newline, doc being the document of the layout above."""
    return "".join(_text(wf))


def _document(text: str):
    """The JSON document of a witness file's text. Text that is not JSON, or
    is nested too deeply to parse, raises WitnessError like any other
    malformed file."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise WitnessError(f"witness file does not parse as JSON: {exc!r}") from None


def loads(text: str) -> WitnessFile:
    """Parse a witness file's text, as `_document` and
    `WitnessFile.from_json` do."""
    return WitnessFile.from_json(_document(text))


def save(wf: WitnessFile, path) -> None:
    """Write `dumps(wf)` to the file piece by piece, so that no more than one
    param line of the text is held at a time."""
    pieces = _text(wf)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def load(path) -> WitnessFile:
    """Read and parse a witness file. The text is let go once it is parsed,
    before any param is read, so it is not held beside the params."""
    with open(path, encoding="utf-8") as fh:
        data = _document(fh.read())
    return WitnessFile.from_json(data)
