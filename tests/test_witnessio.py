import copy
import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeprop
from treeprop import (ResourceCapError, Witness, WitnessError, elongate, exact_family, fatten,
                      make_pattern, oracle_for, reduce_katp, synth_boolean, synth_skolem,
                      witnessio)
from treeprop.cli import main
from treeprop.dot import export_dot
from treeprop.patterns import ATP, KATP, SOP1, SOP2, TP, TP2
from treeprop.synth import SKOLEM_BITS_CAP
from treeprop.witnessio import (VERSION, WitnessFile, dumps, label_str, load, loads,
                                param_str, save)


def atp_file(depth, backend="skolem"):
    p = make_pattern(ATP, depth=depth)
    family = exact_family(p)
    w = synth_skolem(family) if backend == "skolem" else synth_boolean(family)
    return WitnessFile(p, w)


def test_skolem_round_trip():
    wf = atp_file(3)
    again = loads(dumps(wf))
    assert again.pattern == wf.pattern
    assert again.witness.backend == "skolem"
    assert again.witness.params == wf.witness.params


def test_params_are_written_in_hex():
    # boolean params zero-padded to the 2 digits of width 5, skolem ones minimal
    skolem, boolean = (_doc(atp_file(3, backend))["params"] for backend in ("skolem", "boolean"))
    assert skolem == {"": "0x2", "0": "0xf", "1": "0x15", "00": "0x4d", "01": "0x4d",
                      "10": "0x37", "11": "0x37"}
    assert boolean == {"": "0x01", "0": "0x06", "1": "0x0a", "00": "0x18", "01": "0x18",
                       "10": "0x14", "11": "0x14"}
    assert [param_str(0b1001, width) for width in (0, 1, 4, 5, 8, 9, 13)] == \
        ["0x9", "0x9", "0x9", "0x09", "0x09", "0x009", "0x0009"]


def test_a_negative_param_has_no_text():
    for value, width in [(-5, None), (-1, 8), (-(1 << 20000), None)]:
        with pytest.raises(WitnessError, match=r"^param -0x[0-9a-f]{1,37} is negative$"):
            param_str(value, width)


def test_boolean_round_trip_uses_hex():
    wf = atp_file(3, backend="boolean")
    doc = json.loads(dumps(wf))
    assert doc["width"] == 5
    assert all(v.startswith("0x") for v in doc["params"].values())
    again = loads(dumps(wf))
    assert again.witness.params == wf.witness.params
    assert again.witness.width == 5


def test_tp2_round_trip():
    p = make_pattern(TP2, rows=2, cols=3)
    w = synth_boolean(exact_family(p))
    again = loads(dumps(WitnessFile(p, w)))
    assert again.pattern == p
    assert again.witness.params == w.params
    assert label_str(p, (1, 2)) == "1,2"


def test_tuple_round_trip():
    base_pattern = make_pattern(KATP, depth=5, k=3)
    base = synth_skolem(exact_family(base_pattern))
    tw = elongate(base, 2)
    wf = WitnessFile(make_pattern(ATP, depth=3), tw, base_pattern=base_pattern)
    again = loads(dumps(wf))
    assert again.base_pattern == base_pattern
    assert again.witness.arity == 2
    assert again.witness.provenance == tw.provenance
    assert again.witness.base.params == base.params


def test_tuple_requires_base_pattern():
    base = synth_skolem(exact_family(make_pattern(ATP, depth=3)))
    tw = elongate(base, 2)
    with pytest.raises(WitnessError):
        dumps(WitnessFile(make_pattern(ATP, depth=2), tw))


def test_output_is_deterministic():
    assert dumps(atp_file(3)) == dumps(atp_file(3))


def test_version_check():
    doc = json.loads(dumps(atp_file(2)))
    doc["version"] = 99
    with pytest.raises(WitnessError):
        loads(json.dumps(doc))


def test_benchmark_families_round_trip():
    # the families of the build-deep benchmark, on both backends
    for p in [make_pattern(KATP, depth=5, k=3), make_pattern(KATP, depth=5, k=4),
              make_pattern(ATP, depth=5), make_pattern(SOP1, depth=4),
              make_pattern(TP, branching=3, depth=3, k=2), make_pattern(SOP2, depth=5),
              make_pattern(TP2, rows=4, cols=4)]:
        family = exact_family(p)
        for w in (synth_skolem(family), synth_boolean(family)):
            assert loads(dumps(WitnessFile(p, w))).witness.params == w.params, (p, w.backend)


@functools.cache
def _canonical_doc(name):
    """A witness document as treeprop writes it, of a binary tree (boolean
    ATP d3), of branching 12 (TP b12 d3 with k 13: one member over 157
    labels), of an array (boolean TP2 2x2) or of a tuple witness (a
    fattening of boolean ATP d3 by 1)."""
    if name == "fattened":
        base_pattern = make_pattern(ATP, depth=3)
        tw = fatten(synth_boolean(exact_family(base_pattern)), 1)
        return _doc(WitnessFile(make_pattern(ATP, depth=2), tw, base_pattern=base_pattern))
    p = {"binary": make_pattern(ATP, depth=3),
         "branching-12": make_pattern(TP, branching=12, depth=3, k=13),
         "tp2": make_pattern(TP2, rows=2, cols=2)}[name]
    return _doc(WitnessFile(p, synth_boolean(exact_family(p))))


def test_branching_12_keys_round_trip():
    doc = _canonical_doc("branching-12")
    assert len(doc["params"]) == 157
    assert {"", "0", "9", "11", "1.0", "10.3", "11.11"} <= set(doc["params"])
    wf = loads(json.dumps(doc))
    assert wf.witness.labels == wf.pattern.index_labels()
    assert wf.witness.params[(10, 3)] == int(doc["params"]["10.3"], 16)
    assert _doc(wf) == doc


# keys that treeprop does not write, each put in place of the key it stands
# for: (document, where, the key, its new text), where a "source" is one in
# the provenance of the tuple witness's index "0"
_NONCANONICAL_KEYS = [
    ("binary", "params", "01", "0.1"), ("binary", "params", "1", "\u0661"),
    ("binary", "params", "01", "01 "), ("binary", "params", "1", "2"),
    ("branching-12", "params", "1.0", "01.0"), ("branching-12", "params", "1.0", "1.00"),
    ("branching-12", "params", "1", "01"), ("branching-12", "params", "0.1", "0.x"),
    ("tp2", "params", "0,1", "+0, \u0661"), ("tp2", "params", "0,1", " 0,1"),
    ("tp2", "params", "0,1", "0,01"), ("tp2", "params", "0,1", "00,1"),
    ("fattened", "provenance", "1", "\u0661"), ("fattened", "source", "00", "0.0"),
]


@pytest.mark.parametrize("name,where,key,text", _NONCANONICAL_KEYS,
                         ids=[f"{name}-{where}:{text}"
                              for name, where, _, text in _NONCANONICAL_KEYS])
def test_a_key_treeprop_does_not_write_is_refused(capsys, tmp_path, name, where, key, text):
    doc = copy.deepcopy(_canonical_doc(name))
    if where == "source":
        sources = doc["provenance"]["0"]
        sources[sources.index(key)] = text
    else:
        doc[where][text] = doc[where].pop(key)
    with pytest.raises(WitnessError, match="no key"):
        loads(json.dumps(doc))
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--witness", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: no key") and err.count("\n") == 1


# provenance entries that are not a list of key strings, in place of the
# root's ["0", "1"]: the keys joined into one string, a list in an object,
# an object keyed by them, and a key that is a number
@pytest.mark.parametrize("entry", ["01", {"0": 0, "1": 1}, [["0", "1"]], ["0", 1]],
                         ids=["string", "object", "nested", "number"])
def test_a_provenance_entry_that_is_not_a_list_of_keys_is_refused(capsys, tmp_path, entry):
    doc = copy.deepcopy(_canonical_doc("fattened"))
    assert doc["provenance"][""] == ["0", "1"]
    doc["provenance"][""] = entry
    with pytest.raises(WitnessError, match="is not a list of keys"):
        loads(json.dumps(doc))
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--witness", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: provenance entry") and err.count("\n") == 1


def test_params_must_cover_index_set():
    doc = json.loads(dumps(atp_file(2)))
    del doc["params"]["0"]
    with pytest.raises(WitnessError):
        loads(json.dumps(doc))


def test_save_load(tmp_path):
    path = tmp_path / "w.json"
    wf = atp_file(3)
    save(wf, path)
    assert load(path).witness.params == wf.witness.params


def _doc(wf):
    return json.loads(dumps(wf))


def _tuple_doc():
    base_pattern = make_pattern(ATP, depth=3)
    tw = elongate(synth_skolem(exact_family(base_pattern)), 2)
    return _doc(WitnessFile(make_pattern(ATP, depth=2), tw, base_pattern=base_pattern))


@pytest.mark.parametrize("key", ["pattern", "backend", "params"])
def test_missing_key_is_witness_error(key):
    doc = _doc(atp_file(2))
    del doc[key]
    with pytest.raises(WitnessError, match=key):
        loads(json.dumps(doc))


@pytest.mark.parametrize("key", ["base", "provenance", "arity"])
def test_tuple_missing_key_is_witness_error(key):
    doc = _tuple_doc()
    del doc[key]
    with pytest.raises(WitnessError, match=key):
        loads(json.dumps(doc))


def test_malformed_documents_are_witness_errors():
    no_kind = _doc(atp_file(2))
    del no_kind["pattern"]["kind"]
    int_param = _doc(atp_file(2))
    int_param["params"]["0"] = 3
    huge_depth = _doc(atp_file(2))
    huge_depth["pattern"]["depth"] = 40  # must not build a 2^40-node index set
    bad_label = _doc(atp_file(2))
    bad_label["params"]["7"] = bad_label["params"].pop("0")
    for doc in (no_kind, int_param, huge_depth, bad_label, [], "atp", 3, None):
        with pytest.raises(WitnessError):
            loads(json.dumps(doc))


@pytest.mark.parametrize("text", ["[" * 100_000, "{" * 100_000, '{"version": 1,', "",
                                  "1" * 5000],
                         ids=["deep-list", "deep-object", "truncated", "empty", "long-int"])
def test_unparsable_text_is_witness_error(text):
    with pytest.raises(WitnessError, match="does not parse as JSON"):
        loads(text)


def test_deeply_nested_tuple_witness_is_witness_error():
    """Nested deep enough to parse as JSON but not to be read back recursively."""
    depth = 500
    head = (f'{{"version": {VERSION}, "backend": "tuple", "arity": 1, '
            '"provenance": {"": [""]}, "pattern": {"kind": "atp", "depth": 1}, "base": ')
    text = head * depth + dumps(atp_file(1)) + "}" * depth
    json.loads(text)
    with pytest.raises(WitnessError, match="is itself a tuple witness"):
        loads(text)


def test_a_tuple_witness_over_a_tuple_witness_is_refused_before_its_base():
    # the base is refused by its backend alone, before any other key is read
    doc = {**_canonical_doc("fattened"), "base": {"backend": "tuple"}}
    with pytest.raises(WitnessError, match="is itself a tuple witness"):
        loads(json.dumps(doc))


@pytest.mark.parametrize("backend", ["boolean"])
def test_a_width_past_the_family_cells_is_refused(backend):
    # no exact family has more than FAMILY_CELL_CAP member-label cells, so
    # no witness treeprop writes is wider than FAMILY_CELL_CAP // labels
    doc = _doc(atp_file(2, backend))
    labels = len(doc["params"])
    doc["width"] = treeprop.antichains.FAMILY_CELL_CAP // labels
    assert loads(json.dumps(doc)).witness.width == doc["width"]
    doc["width"] += 1
    with pytest.raises(WitnessError, match=f"over {labels} labels is past"):
        loads(json.dumps(doc))


@pytest.mark.parametrize("make", [lambda: _doc(atp_file(2)), _tuple_doc],
                         ids=["skolem", "tuple"])
def test_a_width_on_a_non_boolean_document_is_refused(make):
    # a skolem width padded every param that export-dot and transform wrote
    doc = make()
    assert "width" not in doc and loads(json.dumps(doc))
    for width in (40, 0, None, "40"):
        with pytest.raises(WitnessError, match="witness declares no width"):
            loads(json.dumps({**doc, "width": width}))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw, docs):
    """A valid witness document with one to three keys or values deleted,
    renamed or replaced by arbitrary JSON."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(doc, dict) or not doc:
            break
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
            node = parent[key]
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
        op = draw(st.sampled_from(["delete", "rename", "replace"]))
        if op == "delete":
            del parent[key]
        elif op == "rename" and isinstance(parent, dict):
            parent[draw(st.text(max_size=4))] = parent.pop(key)
        else:
            parent[key] = draw(_JSON_VALUES)
    return doc


_VALID_DOCS = [
    _doc(atp_file(3)),
    _doc(atp_file(3, backend="boolean")),
    _doc(WitnessFile(make_pattern(TP2, rows=2, cols=2),
                     synth_boolean(exact_family(make_pattern(TP2, rows=2, cols=2))))),
    _tuple_doc(),
]


@settings(max_examples=300, deadline=None)
@given(_mutated(_VALID_DOCS))
def test_mutated_documents_raise_only_witness_error(doc):
    try:
        loads(json.dumps(doc))
    except WitnessError:
        pass


def test_int_digit_limit_is_scoped():
    p = make_pattern(KATP, depth=5, k=3)
    wf = WitnessFile(p, synth_skolem(exact_family(p)))
    widest = max(v.bit_length() for v in wf.witness.params.values())
    assert widest * 0.30103 > sys.int_info.default_max_str_digits  # past the limit
    before = sys.get_int_max_str_digits()
    text = dumps(wf)
    again = loads(text)
    dot = export_dot(wf)
    assert sys.get_int_max_str_digits() == before
    assert again.witness.params == wf.witness.params
    assert all(value in dot for value in json.loads(text)["params"].values())


def test_import_leaves_int_digit_limit_alone():
    script = ("import sys; before = sys.get_int_max_str_digits(); "
              "import treeprop, treeprop.cli; "
              "assert sys.get_int_max_str_digits() == before")
    src = os.path.dirname(os.path.dirname(treeprop.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)


def test_no_source_module_sets_the_int_digit_limit():
    src = Path(treeprop.__file__).parent
    assert [path.name for path in sorted(src.glob("*.py"))
            if "set_int_max_str_digits" in path.read_text(encoding="utf-8")] == []


@functools.cache
def _hex_cases():
    """Values at the edges of hex digits, and seeded random values of up to
    200k bits, each nonzero, as a skolem param is."""
    values = [1, 15, 16, 255, 256, 2 ** 64 - 1, 2 ** 64]
    rng = random.Random(1)
    values += [rng.getrandbits(rng.randint(1, 200_000)) | 1 for _ in range(8)]
    values.append(rng.getrandbits(200_000) | 1 << 199_999)
    return values


@pytest.fixture(params=[sys.int_info.default_max_str_digits,
                        sys.int_info.str_digits_check_threshold],
                ids=["default-limit", "least-limit"])
def digit_limit(request):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield request.param
    sys.set_int_max_str_digits(saved)


def test_param_io_is_hex_under_any_digit_limit(digit_limit):
    doc = _doc(atp_file(1))
    for value in _hex_cases():
        text = param_str(value)
        assert text == hex(value), value.bit_length()
        for written in (text, "0x000" + text[2:], "0x" + text[2:].upper()):
            doc["params"][""] = written
            assert loads(json.dumps(doc)).witness.params[()] == value, len(text)
    assert sys.get_int_max_str_digits() == digit_limit


def _reference_param_str(value, width=None):
    """A param's text by the format spec that wrote it before: `0x` and the
    value's hex digits, zero-padded to the digits of `width` bits."""
    return f"0x{value:0{max(1, ((width or 0) + 3) // 4)}x}"


def test_param_str_writes_what_the_format_spec_wrote():
    values = [0, 1, 9, 15, 16, 255, 256, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 2 ** 1000 - 1,
              *_hex_cases()]
    p = make_pattern(KATP, depth=5, k=3)
    values += synth_skolem(exact_family(p)).params.values()
    for width in [0, None, *range(1, 18), 63, 64, 65, 1000]:
        for value in values:
            assert param_str(value, width) == _reference_param_str(value, width), (value, width)


def test_read_param_reads_what_int_reads():
    texts = ["0x0", "0x00", "0x1", "0x01", "0xf", "0xF", "0x10", "0xabc", "0xABC", "0xAbCd",
             "0x000abc", "0x0000", *(hex(value) for value in _hex_cases()),
             *("0x0" + hex(value)[2:].upper() for value in _hex_cases())]
    for text in texts:
        assert witnessio._read_param(text) == int(text, 16), text[:40]


def test_katp_round_trip_under_the_least_digit_limit(digit_limit):
    p = make_pattern(KATP, depth=5, k=4)
    wf = WitnessFile(p, synth_skolem(exact_family(p)))
    text = dumps(wf)
    assert loads(text).witness.params == wf.witness.params
    assert sys.get_int_max_str_digits() == digit_limit


def test_tp2_6x5_skolem_round_trip():
    p = make_pattern(TP2, rows=6, cols=5)
    wf = WitnessFile(p, synth_skolem(exact_family(p)))
    assert sum(v.bit_length() for v in wf.witness.params.values()) > 10 ** 6
    assert loads(dumps(wf)).witness.params == wf.witness.params


# what each backend's param must not be: a sign, whitespace, an underscore,
# a non-ASCII digit, a bare number, an upper-case 0X, a lone 0x or not text;
# bytes.fromhex would read the spaces of "0x12 34" and "0x 12", int() the _
_BAD_PARAMS = ["+15", " 15", "15 ", "1_5", "\u0661\u0665", "-15", "", "15.0", "1e3",
               " +0x0_1 ", "1", "0x", "0x_1", "0x\u0661", "0X1", "-0x1", "0x1 ", 1,
               "0x+15", "0x 15", "0x1_5", "0x\u0661\u0665", "0X15", "0x15.0", "0x-1", "0x0x1",
               "0x12 34", "0x 12", "0x1_2"]


def _param_is_refused(backend, text):
    doc = _doc(atp_file(2, backend))
    doc["params"]["0"] = text
    with pytest.raises(WitnessError, match=f"{backend} param .* is not 0x and hex digits"):
        loads(json.dumps(doc))


@pytest.mark.parametrize("text", _BAD_PARAMS)
def test_skolem_param_must_be_ascii_digits(text):
    _param_is_refused("skolem", text)


@pytest.mark.parametrize("text", _BAD_PARAMS)
def test_boolean_param_must_be_0x_and_ascii_hex_digits(text):
    _param_is_refused("boolean", text)


def test_boolean_param_hex_digits_take_either_case():
    for backend in ("skolem", "boolean"):
        doc = _doc(atp_file(4, backend))  # 26 bits wide for boolean
        values = []
        for text in ("0xaB", "0xAb", "0x0ab"):
            doc["params"]["0"] = text
            values.append(loads(json.dumps(doc)).witness.params[(0,)])
        assert values == [0xAB] * 3, backend


# every code point below U+3000, the fullwidth digits and letters a-f, and
# lone surrogates, which JSON can carry but UTF-8 cannot encode
_PARAM_CHARS = [chr(c) for c in [*range(0x3000), *range(0xFF10, 0xFF1A),
                                 *range(0xFF21, 0xFF27), *range(0xFF41, 0xFF47),
                                 0xD800, 0xDBFF, 0xDC00, 0xDFFF]]


def test_param_check_accepts_exactly_the_ascii_hex_digits():
    for backend in ("skolem", "boolean"):
        for place in ("0x{}", "0x{}1", "0x1{}"):
            accepted = set()
            for c in _PARAM_CHARS:
                text = place.format(c)
                try:
                    values = witnessio._params(backend, [text])
                except WitnessError:
                    continue
                assert values == [int(text, 16)], text
                accepted.add(c)
            assert accepted == set("0123456789abcdefABCDEF"), (backend, place)


# the most hex digits that one param can have under SKOLEM_BITS_CAP: d digits
# mean at least 4(d - 1) bits
_CAP_DIGITS = SKOLEM_BITS_CAP // 4 + 1


def test_skolem_params_are_sized_before_any_is_read(monkeypatch):
    def no_read(text):
        raise AssertionError("a param was read before the size check")
    monkeypatch.setattr(witnessio, "_read_param", no_read)
    doc = _doc(atp_file(1))
    doc["params"][""] = "0x" + "1" * (_CAP_DIGITS + 1)
    size = rf"{_CAP_DIGITS + 1} hex digits, at least {SKOLEM_BITS_CAP + 4} bits"
    with pytest.raises(ResourceCapError, match=rf"{size} \(cap {SKOLEM_BITS_CAP}\)"):
        loads(json.dumps(doc))


def test_leading_zeros_do_not_count_toward_the_size():
    # such a file was refused as "1048587 hex digits, at least 4194336 bits"
    wf = atp_file(2)
    doc = _doc(wf)
    doc["params"]["0"] = "0x" + "0" * (2 ** 20 + 8) + doc["params"]["0"][2:]
    assert loads(json.dumps(doc)).witness == wf.witness


def test_the_most_digits_the_cap_allows_pass_the_size_check():
    doc = _doc(atp_file(1))
    doc["params"][""] = "0x" + "f" * _CAP_DIGITS
    assert loads(json.dumps(doc)).witness.params[()] == 16 ** _CAP_DIGITS - 1


# --- the streamed writer against json.dumps ---

# the witnesses the benchmark writes (its BENCH_SPECS), with the wide TP
# pattern whose text json.dumps took 80 MB to make
WRITER_SPECS = [
    make_pattern(KATP, depth=5, k=3), make_pattern(KATP, depth=5, k=4),
    make_pattern(ATP, depth=5), make_pattern(SOP1, depth=4),
    make_pattern(TP, branching=3, depth=3, k=2), make_pattern(SOP2, depth=5),
    make_pattern(TP2, rows=4, cols=4), make_pattern(ATP, depth=4),
    make_pattern(KATP, depth=4, k=3), make_pattern(SOP2, depth=4),
    make_pattern(TP2, rows=3, cols=4), make_pattern(ATP, depth=3),
    # keys whose texts sort apart from the labels: "1,10" < "1,2", "1.10" < "1.2"
    make_pattern(TP2, rows=12, cols=2), make_pattern(TP2, rows=2, cols=12),
    make_pattern(TP, branching=12, depth=3, k=13),
]


@functools.cache
def wide_tp_file():
    p = make_pattern(TP, branching=200000, depth=2, k=200001)
    return WitnessFile(p, synth_boolean(exact_family(p)))


def _written_files():
    for p in WRITER_SPECS:
        family = exact_family(p)
        for w in (synth_skolem(family), synth_boolean(family)):
            yield WitnessFile(p, w)
            if p.kind in (ATP, KATP) and p.depth >= 3:  # the transform outputs
                tws = [(fatten(w, 1), p.kind, p.k)]
                if p.kind == KATP:
                    tws.append((elongate(w, p.k - 1), ATP, None))
                for tw, kind, k in tws:
                    q = make_pattern(kind, depth=max(len(l) for l in tw.labels) + 1, k=k)
                    yield WitnessFile(q, tw, base_pattern=p)
    yield wide_tp_file()


def test_written_text_is_what_json_dumps_writes(tmp_path):
    path = tmp_path / "w.json"
    for wf in _written_files():
        text = dumps(wf)
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", wf.pattern
        save(wf, path)
        assert path.read_text(encoding="utf-8") == text, wf.pattern
        assert loads(text).witness == wf.witness, wf.pattern


# the SHA-256 of each text dumps wrote before params were written from bytes:
# the skolem and boolean witnesses of the benchmark's build-deep families,
# and `transform reduce --k 2` of the katp:3 depth-5 skolem witness
_PINNED_TEXTS = {
    ("katp:3 d5", "skolem"): "b19bd6afbfb36fa6cb0cb3662ae7dda072f2fb8b43e1fdfd3208437174d54453",
    ("katp:3 d5", "boolean"): "31bf53ded4c124804621715686a46bad241c3b6f0f13e0a9fc438560323d285c",
    ("katp:4 d5", "skolem"): "49e91eddc7b8f840b59f5bd8e1fda2a9b4a7eb5cb3099da5acabb6d071d3f41f",
    ("katp:4 d5", "boolean"): "045d7765e7d2d2c1b60879400edb06de066d0c3af70fcd2ff23ae99a46fcf4e0",
    ("atp d5", "skolem"): "f8466d248f6e5e3ce46195ff9776db4e0de62a3e317df6076c30ef0549601f94",
    ("atp d5", "boolean"): "d994840b00d8e7cbd8134b2c568e24e5e2e43cd9dfde5ce0d2d1476de3d116bf",
    ("sop1 d4", "skolem"): "4722432bcb51a785ddae1a327c004043c5778774664ae9312c643883489dba12",
    ("sop1 d4", "boolean"): "0ceaf4a99533bafed582a0736844371a0eecdbe4ae2847eb1761f4116f84450e",
    ("tp:2 b3 d3", "skolem"): "cba08a123f7fe351db143c48d371c89adbd2b8fba846d95fa93b9c1ab2a6a675",
    ("tp:2 b3 d3", "boolean"): "6ca3d3491d8f811799949d89b7ad61af719caa44717d13c675c7b5c1d4ef0878",
    ("sop2 d5", "skolem"): "3fb1f9ebe61509d4c84044c87efdebb94a9bbe06668829477ccd083e0b3ddfb8",
    ("sop2 d5", "boolean"): "90e6ebc59c22ab83b918c8a73eeec89ff601630a95d9778951f39c3ddd11b25e",
    ("tp2 4x4", "skolem"): "4adbbdeba4edf94c6a83f4a5346ac92f40df762b47b65795e3a96e66ccf137fb",
    ("tp2 4x4", "boolean"): "da520ca2aeb858c9db210118a13208fc7a951068410434da64d0f90d323cec2e",
    ("katp:3 d5", "reduce 2"): "34c2ceb713ea8cfddea8f24602396b3c2d84ec6f796127fb31f3cb4af7b65f81",
}

_PINNED_PATTERNS = {
    "katp:3 d5": make_pattern(KATP, depth=5, k=3), "katp:4 d5": make_pattern(KATP, depth=5, k=4),
    "atp d5": make_pattern(ATP, depth=5), "sop1 d4": make_pattern(SOP1, depth=4),
    "tp:2 b3 d3": make_pattern(TP, branching=3, depth=3, k=2),
    "sop2 d5": make_pattern(SOP2, depth=5), "tp2 4x4": make_pattern(TP2, rows=4, cols=4),
}


def test_written_texts_are_byte_identical_to_the_pinned_ones():
    digests = {}
    for name, p in _PINNED_PATTERNS.items():
        family = exact_family(p)
        for backend, synth in (("skolem", synth_skolem), ("boolean", synth_boolean)):
            digests[name, backend] = dumps(WitnessFile(p, synth(family)))
    p = _PINNED_PATTERNS["katp:3 d5"]
    w = synth_skolem(exact_family(p))
    tw, report = reduce_katp(w, oracle_for(w), 2)
    assert report.case == "elongate"
    digests["katp:3 d5", "reduce 2"] = dumps(WitnessFile(make_pattern(ATP, depth=3), tw,
                                                         base_pattern=p))
    digests = {key: hashlib.sha256(text.encode()).hexdigest() for key, text in digests.items()}
    assert digests == _PINNED_TEXTS


def test_save_holds_no_copy_of_the_text(tmp_path):
    # json.dumps of this 3.9 MB text took peak RSS from 53 to 134 MB; here
    # the peak may grow by no more than the text and 4 MB
    script = """if True:
        import os, resource, sys
        from treeprop import exact_family, make_pattern, synth_boolean
        from treeprop.witnessio import WitnessFile, save

        def peak():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        p = make_pattern("tp", branching=200000, depth=2, k=200001)
        wf = WitnessFile(p, synth_boolean(exact_family(p)))
        before = peak()
        save(wf, sys.argv[1])
        print(peak() - before, os.path.getsize(sys.argv[1]))
    """
    src = os.path.dirname(os.path.dirname(treeprop.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "w.json")], env=env,
                          check=True, timeout=120, capture_output=True, text=True)
    grown, size = map(int, done.stdout.split())
    assert size > 2 ** 21 and grown <= size + 2 ** 22


def test_load_lets_the_text_go_before_any_param_is_read(tmp_path, monkeypatch):
    # pattern verify of the 51.4 MB SOP1 d6 boolean witness peaked at 140 MB
    # RSS with the text held while the params were read, and at 114 MB without
    freed = []

    class Text(str):
        def __del__(self):
            freed.append(True)

    class File:
        def __init__(self, path, encoding):
            self.fh = open(path, encoding=encoding)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self):
            return Text(self.fh.read())

    def params(backend, texts):
        assert freed == [True]
        return read_params(backend, texts)

    save(atp_file(3), tmp_path / "w.json")
    read_params = witnessio._params
    monkeypatch.setattr(witnessio, "open", File, raising=False)
    monkeypatch.setattr(witnessio, "_params", params)
    assert load(tmp_path / "w.json") == atp_file(3)


def test_a_witness_over_other_labels_is_refused_before_any_text(tmp_path):
    wf = atp_file(3)
    for labels in (wf.witness.labels[:-1], wf.witness.labels[:-1] + ((2,),)):
        params = {label: 1 for label in labels}
        witness = Witness(wf.witness.backend, labels, params, wf.witness.width)
        bad = WitnessFile(wf.pattern, witness)
        with pytest.raises(WitnessError):
            save(bad, tmp_path / "w.json")
    assert not (tmp_path / "w.json").exists()
