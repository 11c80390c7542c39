import copy
import functools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeprop
from treeprop import (ResourceCapError, WitnessError, elongate, exact_family,
                      make_pattern, synth_boolean, synth_skolem, witnessio)
from treeprop.dot import export_dot
from treeprop.patterns import ATP, KATP, TP2
from treeprop.synth import SKOLEM_BITS_CAP
from treeprop.witnessio import (WitnessFile, _decimal_int, _decimal_str, dumps,
                                label_str, load, loads, save)


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
    head = ('{"version": 1, "backend": "tuple", "arity": 1, "provenance": {"": [""]}, '
            '"pattern": {"kind": "atp", "depth": 1}, "base": ')
    text = head * depth + dumps(atp_file(1)) + "}" * depth
    json.loads(text)
    with pytest.raises(WitnessError, match="RecursionError"):
        loads(text)


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
def _decimal_cases():
    """Values at the edges of the pieces and of their powers, and seeded
    random values of up to 200k bits, each with its str() taken with the
    digit limit lifted."""
    values = [0, 1, 9, 10]
    for k in (512, 1024, 2048, 4096):
        values += [10 ** k - 1, 10 ** k, 10 ** k + 1]
    values += [10 ** 9000 - 1, 10 ** 9000, 10 ** 4096 * (10 ** 4096 - 1)]
    rng = random.Random(1)
    values += [rng.getrandbits(rng.randint(1, 200_000)) for _ in range(8)]
    values.append(rng.getrandbits(200_000) | 1 << 199_999)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [(value, str(value)) for value in values]
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.fixture(params=[sys.int_info.default_max_str_digits,
                        sys.int_info.str_digits_check_threshold],
                ids=["default-limit", "least-limit"])
def digit_limit(request):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield request.param
    sys.set_int_max_str_digits(saved)


def test_decimal_io_is_str_and_int(digit_limit):
    for value, text in _decimal_cases():
        assert _decimal_str(value) == text, value.bit_length()
        assert _decimal_int(text) == value, len(text)
        assert _decimal_int("000" + text) == value
    assert sys.get_int_max_str_digits() == digit_limit


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


@pytest.mark.parametrize("text", ["+15", " 15", "15 ", "1_5", "\u0661\u0665", "-15", "",
                                  "0x15", "15.0", "1e3"])
def test_skolem_param_must_be_ascii_digits(text):
    doc = _doc(atp_file(2))
    doc["params"]["0"] = text
    with pytest.raises(WitnessError, match="decimal digits"):
        loads(json.dumps(doc))


def _cap_digits():
    """The fewest digits of one param that pass what SKOLEM_BITS_CAP allows:
    one more than the floor(CAP log10(2)) + 1 digits of 2^CAP - 1."""
    return int(SKOLEM_BITS_CAP * math.log10(2)) + 2


def test_skolem_params_are_sized_before_any_is_read(monkeypatch):
    def no_read(text):
        raise AssertionError("a param was read before the size check")
    monkeypatch.setattr(witnessio, "_decimal_int", no_read)
    doc = _doc(atp_file(1))
    doc["params"][""] = "1" * _cap_digits()
    with pytest.raises(ResourceCapError, match=rf"at least \d+ bits \(cap {SKOLEM_BITS_CAP}\)"):
        loads(json.dumps(doc))


def test_the_most_digits_the_cap_allows_pass_the_size_check(monkeypatch):
    # a param of as many digits as 2^CAP - 1 has is read
    monkeypatch.setattr(witnessio, "_decimal_int", len)
    doc = _doc(atp_file(1))
    doc["params"][""] = "9" * (_cap_digits() - 1)
    assert loads(json.dumps(doc)).witness.params[()] == _cap_digits() - 1
