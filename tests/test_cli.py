import functools
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeprop
from treeprop import (TreeDomain, Witness, divisor_structure, enumerate_antichains,
                      make_pattern, maximal_antichains)
from treeprop.cli import main
from treeprop.synth import SKOLEM_BITS_CAP
from treeprop.witnessio import VERSION, WitnessFile, load, save

from references import reference_catalog_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alpha(capsys):
    code, out, _ = run(capsys, "alpha", "--n", "5")
    assert code == 0
    assert out.strip() == "0 1 2 5 26 677"


def test_enum_count_only(capsys):
    code, out, _ = run(capsys, "enum-antichains", "--n", "4", "--maximal",
                       "--count-only")
    assert code == 0 and out.strip() == "26"
    code, out, _ = run(capsys, "enum-antichains", "--n", "3", "--count-only")
    assert code == 0 and out.strip() == "25"


def test_enum_listing(capsys):
    code, out, _ = run(capsys, "enum-antichains", "--n", "2", "--maximal")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert [""] in doc["items"] and ["0", "1"] in doc["items"]


def test_enum_maximal_listing_is_the_catalog_listing(capsys):
    for n in range(1, 6):
        code, out, _ = run(capsys, "enum-antichains", "--n", str(n), "--maximal")
        catalog = maximal_antichains(n)
        listing = {"count": len(catalog),
                   "items": reference_catalog_json(catalog.domain, catalog)}
        assert code == 0 and out == json.dumps(listing, sort_keys=True, indent=2) + "\n"


def test_enum_listing_is_the_sorted_catalog_listing(capsys):
    # dotted names (b = 11) do not sort like nodes
    for b, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (11, 2)]:
        code, out, _ = run(capsys, "enum-antichains", "--b", str(b), "--n", str(n))
        catalog = enumerate_antichains(TreeDomain(b, n))
        listing = {"count": len(catalog),
                   "items": reference_catalog_json(catalog.domain, catalog)}
        assert code == 0 and out == json.dumps(listing, sort_keys=True, indent=2) + "\n"


def test_enum_maximal_nonbinary_rejected(capsys):
    code, _, err = run(capsys, "enum-antichains", "--n", "2", "--b", "3",
                       "--maximal")
    assert code == 2 and "binary" in err


def synth(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _, err = run(capsys, "synth", *argv, "--out", str(path))
    assert code == 0, err
    return path


def test_synth_verify_round_trip(capsys, tmp_path):
    path = synth(capsys, tmp_path, "atp.json",
                 "--pattern", "atp", "--depth", "3", "--backend", "skolem")
    code, out, _ = run(capsys, "verify", "--witness", str(path), "--exhaustive")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["mode"] == "exhaustive"
    assert doc["consistent_checked"] == 25
    assert doc["inconsistent_checked"] == 102


def test_verify_detects_tampering(capsys, tmp_path):
    path = synth(capsys, tmp_path, "atp.json",
                 "--pattern", "atp", "--depth", "3", "--backend", "skolem")
    doc = json.loads(path.read_text())
    doc["params"]["0"] = doc["params"][""]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--witness", str(path))
    assert code == 1
    assert json.loads(out)["counterexample"] is not None


def test_transform_reduce_pipeline(capsys, tmp_path):
    # katp:4 with --k 3 was written under a katp:3 pattern that verify failed
    for pattern, depth, k in (("katp:3", "5", "2"), ("katp:4", "4", "3")):
        src = synth(capsys, tmp_path, "katp.json",
                    "--pattern", pattern, "--depth", depth, "--backend", "skolem")
        dst = tmp_path / "reduced.json"
        code, _, err = run(capsys, "transform", "reduce", "--witness", str(src),
                           "--k", k, "--out", str(dst))
        assert code == 0 and "elongate" in err
        code, out, _ = run(capsys, "verify", "--witness", str(dst), "--exhaustive")
        assert code == 0 and json.loads(out)["pass"], pattern


@pytest.mark.parametrize("pattern, depth, op, k", [
    ("atp", "4", "elongate", "2"),
    ("katp:3", "4", "elongate", "3"),
    ("katp:4", "4", "elongate", "2"),
    ("katp:4", "5", "reduce", "2"),
])
def test_elongate_and_reduce_refuse_all_but_a_katp_k_plus_one_witness(capsys, tmp_path,
                                                                      pattern, depth, op, k):
    # each of these wrote a witness that `verify` then failed
    src = synth(capsys, tmp_path, "w.json", "--pattern", pattern, "--depth", depth,
                "--backend", "boolean")
    dst = tmp_path / "out.json"
    code, out, err = run(capsys, "transform", op, "--k", k, "--witness", str(src),
                         "--out", str(dst))
    assert code == 2 and out == "" and err.count("\n") == 1, err
    assert f"needs a katp:{int(k) + 1} witness" in err and not dst.exists()


def test_transform_fatten(capsys, tmp_path):
    src = synth(capsys, tmp_path, "atp.json",
                "--pattern", "atp", "--depth", "3", "--backend", "boolean")
    dst = tmp_path / "fat.json"
    code, _, _ = run(capsys, "transform", "fatten", "--witness", str(src),
                     "--m", "1", "--out", str(dst))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--witness", str(dst), "--exhaustive")
    assert code == 0 and json.loads(out)["pass"]


def _prime_katp(tmp_path, k, depth):
    """A katp:k skolem witness of one distinct prime per label, so every set
    of two or more labels is inconsistent: reduce finds K_0 inconsistent and
    takes fattening by 0."""
    pattern = make_pattern("katp", depth=depth, k=k)
    labels = pattern.index_labels()
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    assert len(primes) >= len(labels)
    path = tmp_path / "primes.json"
    save(WitnessFile(pattern, Witness("skolem", labels, dict(zip(labels, primes)))), path)
    return path


ATP_PATTERN = {"kind": "atp", "branching": 2}


@pytest.mark.parametrize("source, op, note, pattern", [
    (("atp", "4"), ("fatten", "--m", "1"), "fatten(1)", {**ATP_PATTERN, "depth": 3}),
    (("katp:3", "5"), ("fatten", "--m", "2"), "fatten(2)",
     {"kind": "katp", "branching": 2, "depth": 3, "k": 3}),
    (("katp:3", "5"), ("elongate", "--k", "2"), "elongate(2)", {**ATP_PATTERN, "depth": 3}),
    (("katp:3", "5"), ("reduce", "--k", "2"), "reduce: case elongate",
     {**ATP_PATTERN, "depth": 3}),
    (("katp:4", "4"), ("reduce", "--k", "3"), "reduce: case elongate",
     {**ATP_PATTERN, "depth": 2}),
    (3, ("reduce", "--k", "2"), "reduce: case fatten(m=0)", {**ATP_PATTERN, "depth": 4}),
    (4, ("reduce", "--k", "3"), "reduce: case fatten(m=0)",
     {"kind": "katp", "branching": 2, "depth": 4, "k": 3}),
])
def test_each_transform_writes_its_output_pattern(capsys, tmp_path, source, op, note, pattern):
    if isinstance(source, int):
        src = _prime_katp(tmp_path, source, 4)
    else:
        src = synth(capsys, tmp_path, "w.json", "--pattern", source[0], "--depth", source[1],
                    "--backend", "skolem")
    dst = tmp_path / "out.json"
    code, out, err = run(capsys, "transform", *op, "--witness", str(src), "--out", str(dst))
    assert code == 0 and out == "" and err.startswith(note), err
    assert json.loads(dst.read_text())["pattern"] == pattern


def _refused_everywhere(capsys, tmp_path, path, message):
    """Every command that reads the witness file exits 2 with one `error:`
    line that holds `message`, and writes nothing."""
    dst = tmp_path / "out.json"
    for argv in (["export-dot"], ["verify"], ["verify", "--exhaustive"],
                 ["transform", "fatten", "--m", "1", "--out", str(dst)]):
        code, out, err = run(capsys, *argv, "--witness", str(path))
        assert code == 2 and out == "" and err.count("\n") == 1, (argv, err)
        assert err.startswith("error: ") and message in err and not dst.exists(), (argv, err)


def test_a_tuple_witness_over_a_tuple_witness_exits_2(capsys, tmp_path):
    # such a file crashed export-dot, which read the inner base's params
    src = synth(capsys, tmp_path, "katp.json", "--pattern", "katp:3", "--depth", "5",
                "--backend", "skolem")
    reduced = tmp_path / "r.json"
    assert run(capsys, "transform", "reduce", "--k", "2", "--witness", str(src),
               "--out", str(reduced))[0] == 0
    base = json.loads(reduced.read_text())
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({
        "version": VERSION, "pattern": base["pattern"], "backend": "tuple", "arity": 1,
        "provenance": {key: [key] for key in base["provenance"]}, "base": base}))
    _refused_everywhere(capsys, tmp_path, path, "is itself a tuple witness")


def test_a_width_past_the_family_cells_exits_2(capsys, tmp_path):
    # export-dot wrote 30 MB for this 158-byte file, padding each param to its width
    def widen(doc):
        doc["width"] = 40_000_000
        return doc
    path = _broken_witness(capsys, tmp_path, widen, "boolean")
    _refused_everywhere(capsys, tmp_path, path, "witness width 40000000 over 7 labels")


def test_a_width_on_a_skolem_witness_exits_2(capsys, tmp_path):
    # export-dot printed each param of this file zero-padded to 10 digits
    def widen(doc):
        doc["width"] = 40
        return doc
    path = _broken_witness(capsys, tmp_path, widen, "skolem")
    _refused_everywhere(capsys, tmp_path, path, "'skolem' witness declares no width")


# synth arguments for a small witness of every pattern kind
WITNESS_KINDS = {
    "atp": ("--pattern", "atp", "--depth", "3"),
    "katp": ("--pattern", "katp:3", "--depth", "3"),
    "sop1": ("--pattern", "sop1", "--depth", "3"),
    "sop2": ("--pattern", "sop2", "--depth", "3"),
    "tp": ("--pattern", "tp:2", "--b", "3", "--depth", "3"),
    "tp2": ("--pattern", "tp2", "--rows", "2", "--cols", "2"),
}
TRANSFORMS = [("fatten", "--m", "1"), ("elongate", "--k", "2"), ("reduce", "--k", "2")]


@pytest.mark.parametrize("kind", ["sop1", "sop2", "tp", "tp2"])
def test_transforms_refuse_witnesses_that_are_not_atp(capsys, tmp_path, kind):
    src = synth(capsys, tmp_path, "w.json", *WITNESS_KINDS[kind], "--backend", "skolem")
    dst = tmp_path / "out.json"
    for op in TRANSFORMS:
        code, out, err = run(capsys, "transform", *op, "--witness", str(src), "--out", str(dst))
        assert code == 2 and out == "" and err.count("\n") == 1, (op, err)
        assert "atp and katp witnesses" in err and not dst.exists()


def test_a_transform_of_a_tuple_witness_exits_2(capsys, tmp_path):
    src = synth(capsys, tmp_path, "katp.json", "--pattern", "katp:3", "--depth", "3",
                "--backend", "skolem")
    fattened, dst = tmp_path / "fattened.json", tmp_path / "out.json"
    assert run(capsys, "transform", "fatten", "--m", "1", "--witness", str(src),
               "--out", str(fattened))[0] == 0
    for op in TRANSFORMS:
        code, out, err = run(capsys, "transform", *op, "--witness", str(fattened),
                             "--out", str(dst))
        assert code == 2 and out == "" and not dst.exists(), op
        assert err == "error: transforms apply to base witnesses, not tuple witnesses\n", op


def test_elongate_without_k_exits_2(capsys, tmp_path):
    src = synth(capsys, tmp_path, "katp.json", "--pattern", "katp:3", "--depth", "3",
                "--backend", "skolem")
    dst = tmp_path / "out.json"
    code, out, err = run(capsys, "transform", "elongate", "--witness", str(src),
                         "--out", str(dst))
    assert code == 2 and out == "" and err == "error: elongate needs --k\n"
    assert not dst.exists()


def test_elongate_with_a_k_of_the_most_digits_exits_2(capsys, tmp_path):
    # --k of 4,300 nines is read, and k + 1 has more digits than str() writes:
    # the refusal once raised the interpreter's digit-limit ValueError
    src = synth(capsys, tmp_path, "katp.json", "--pattern", "katp:3", "--depth", "3",
                "--backend", "skolem")
    dst = tmp_path / "out.json"
    code, out, err = run(capsys, "transform", "elongate", "--k", "9" * 4300,
                         "--witness", str(src), "--out", str(dst))
    assert code == 2 and out == "" and not dst.exists()
    assert err == f"error: elongate --k {'9' * 4300} needs a katp:(at least 2^14284) witness\n"


def test_transform_missing_argument(capsys, tmp_path):
    src = synth(capsys, tmp_path, "atp.json",
                "--pattern", "atp", "--depth", "2", "--backend", "skolem")
    code, _, err = run(capsys, "transform", "fatten", "--witness", str(src),
                       "--out", str(tmp_path / "x.json"))
    assert code == 2 and "--m" in err


def test_check_lemma(capsys):
    code, out, _ = run(capsys, "check-lemma", "ss-ll", "--n", "2", "--len", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["pairs"] == 144


def test_check_lemma_resource_cap(capsys):
    code, _, err = run(capsys, "check-lemma", "ss-ll", "--n", "7", "--len", "4")
    assert code == 3 and "cap" in err


def test_export_dot(capsys, tmp_path):
    path = synth(capsys, tmp_path, "atp.json",
                 "--pattern", "atp", "--depth", "3", "--backend", "skolem")
    code, out, _ = run(capsys, "export-dot", "--witness", str(path))
    assert code == 0 and out.startswith("digraph witness {")


def test_eval(capsys, tmp_path):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(divisor_structure(210).to_json()))
    code, out, _ = run(capsys, "eval", "--structure", str(path),
                       "--formula", "x != 1 & divides(x, y)",
                       "--assign", "x=3,y=6")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", "--structure", str(path),
                       "--formula", "x != 1 & divides(x, y)",
                       "--assign", "x=5,y=6")
    assert code == 0 and out.strip() == "false"


def test_eval_bad_assignment(capsys, tmp_path):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(divisor_structure(6).to_json()))
    code, _, err = run(capsys, "eval", "--structure", str(path),
                       "--formula", "x = 1", "--assign", "x=999")
    assert code == 2 and "assignment" in err


@pytest.mark.parametrize("assign, message", [
    ("x=1,x=2", "error: name 'x' is assigned twice\n"),
    ("y=2, x=1,x =3", "error: name 'x' is assigned twice\n"),
    ("=1", "error: bad assignment '=1'\n"),
    ("1x=1", "error: bad assignment '1x=1'\n"),
    ("x-y=1", "error: bad assignment 'x-y=1'\n"),
    ("\u00e9=1", "error: bad assignment '\u00e9=1'\n"),
])
def test_eval_refuses_a_name_assigned_twice_or_that_no_formula_writes(capsys, tmp_path,
                                                                       assign, message):
    # x=1,x=2 bound the last value, and a name a formula cannot write never bound
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(divisor_structure(6).to_json()))
    code, out, err = run(capsys, "eval", "--structure", str(path), "--formula", "x = 2",
                         "--assign", assign)
    assert code == 2 and out == "" and err == message


def test_eval_parse_error(capsys, tmp_path):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(divisor_structure(6).to_json()))
    code, _, err = run(capsys, "eval", "--structure", str(path),
                       "--formula", "x = ")
    assert code == 2


@pytest.mark.parametrize("doc", ["{}", "[1]", '{"universe": 5}', '{"universe": [[1]]}',
                                 '{"universe": [1], "relations": [1]}', "[[[", '"x"'])
def test_eval_malformed_structure_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "structure.json"
    path.write_text(doc)
    code, out, err = run(capsys, "eval", "--structure", str(path), "--formula", "x = x",
                         "--assign", "x=1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("formula", [
    "(" * 1200 + "1 = 1" + ")" * 1200,
    "!" * 3000 + "1 = 1",
    " & ".join(["1 = 1"] * 3000),
    "1" * 5000 + " = 1",
])
def test_eval_formula_past_the_limits_exits_2(capsys, tmp_path, formula):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(divisor_structure(6).to_json()))
    code, out, err = run(capsys, "eval", "--structure", str(path), "--formula", formula)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "export-dot"])
@pytest.mark.parametrize("text", ["[" * 100_000, '{"version": 1,'],
                         ids=["deep", "truncated"])
def test_unparsable_witness_exits_2(capsys, tmp_path, command, text):
    path = tmp_path / "witness.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--witness", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_enum_antichains_caps_before_listing_nodes(capsys, monkeypatch):
    def no_nodes(self):
        raise AssertionError("nodes listed before the cap check")
    monkeypatch.setattr(TreeDomain, "nodes", no_nodes)
    code, out, err = run(capsys, "enum-antichains", "--n", "30")
    assert code == 3 and out == "" and "2^1073741823" in err


def test_synth_caps_the_family_before_listing_labels(capsys, monkeypatch, tmp_path):
    def no_nodes(self):
        raise AssertionError("nodes listed before the cap check")
    monkeypatch.setattr(TreeDomain, "nodes", no_nodes)
    for pattern, b, depth, size in [
            ("sop2", 2, 30, "index set of 1073741823 labels"),
            ("katp:40", 2, 30, "index set of 1073741823 labels"),
            ("sop1", 2, 7, "family of at least 3263442 maximal members over 127 labels"),
            ("tp:2", 3, 5, "family of at least 2^61 maximal members")]:
        out_file = tmp_path / "w.json"
        code, out, err = run(capsys, "synth", "--pattern", pattern, "--b", str(b),
                             "--depth", str(depth), "--backend", "boolean",
                             "--out", str(out_file))
        assert code == 3 and out == "" and f"{size} (cap 268435456)" in err
        assert not out_file.exists()


def test_missing_witness_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--witness",
                       str(tmp_path / "absent.json"))
    assert code == 2


def test_bad_pattern_kind(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "--pattern", "bogus", "--depth", "3",
                       "--backend", "skolem", "--out", str(tmp_path / "x.json"))
    assert code == 2 and "bogus" in err


def test_malformed_witness_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "verify", "--witness", str(path))
    assert code == 2


def _broken_witness(capsys, tmp_path, mutate, backend="skolem"):
    path = synth(capsys, tmp_path, "w.json",
                 "--pattern", "atp", "--depth", "3", "--backend", backend)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(mutate(doc)))
    return path


def _tuple_witness(capsys, tmp_path, mutate):
    src = synth(capsys, tmp_path, "atp.json",
                "--pattern", "atp", "--depth", "3", "--backend", "boolean")
    dst = tmp_path / "fat.json"
    code, _, _ = run(capsys, "transform", "fatten", "--witness", str(src),
                     "--m", "1", "--out", str(dst))
    assert code == 0
    dst.write_text(json.dumps(mutate(json.loads(dst.read_text()))))
    return dst


def _without(key):
    def mutate(doc):
        del doc[key]
        return doc
    return mutate


def _pattern_without_kind(doc):
    del doc["pattern"]["kind"]
    return doc


def _int_param(doc):
    doc["params"]["0"] = 15
    return doc


def _string_provenance(doc):
    # the root's source keys joined into one string, which a reader that
    # iterates the entry takes one character per key
    doc["provenance"][""] = "".join(doc["provenance"][""])
    return doc


@pytest.mark.parametrize("make,mutate", [
    (_broken_witness, _without("pattern")),
    (_broken_witness, _without("backend")),
    (_broken_witness, _without("params")),
    (_tuple_witness, _without("base")),
    (_tuple_witness, _without("provenance")),
    (_tuple_witness, _without("arity")),
    (_broken_witness, _pattern_without_kind),
    (_broken_witness, lambda doc: [doc]),
    (_broken_witness, _int_param),
    (_tuple_witness, _string_provenance),
])
def test_verify_malformed_witness_exits_2(capsys, tmp_path, make, mutate):
    path = make(capsys, tmp_path, mutate)
    code, out, err = run(capsys, "verify", "--witness", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# params of other characters than 0x and ASCII hex digits, for both backends
_BAD_PARAMS = ["+15", " 15", "1_5", "\u0661\u0665", " +0x0_1 ", "1", "0x", "0x_1",
               "0x\u0661", "0X15", "0x+15"]


def _verify_refuses_param(capsys, tmp_path, backend, text):
    def mutate(doc):
        doc["params"]["0"] = text
        return doc
    path = _broken_witness(capsys, tmp_path, mutate, backend=backend)
    code, out, err = run(capsys, "verify", "--witness", str(path))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert f"{backend} param" in err and "0x and hex digits" in err


@pytest.mark.parametrize("text", _BAD_PARAMS)
def test_verify_refuses_a_skolem_param_of_other_characters(capsys, tmp_path, text):
    _verify_refuses_param(capsys, tmp_path, "skolem", text)


@pytest.mark.parametrize("text", _BAD_PARAMS)
def test_verify_refuses_a_boolean_param_of_other_characters(capsys, tmp_path, text):
    _verify_refuses_param(capsys, tmp_path, "boolean", text)


@pytest.mark.parametrize("backend", ["skolem", "boolean"])
def test_verify_refuses_a_lone_surrogate_param(capsys, tmp_path, backend):
    # the file holds the escape "\ud800", which JSON reads as a lone
    # surrogate: text that does not encode as UTF-8
    def mutate(doc):
        doc["params"]["0"] = "0x\ud800"
        return doc
    path = _broken_witness(capsys, tmp_path, mutate, backend=backend)
    assert '"0x\\ud800"' in path.read_text()
    code, out, err = run(capsys, "verify", "--witness", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {backend} param") and err.count("\n") == 1


def test_verify_sizes_skolem_params_before_reading_them(capsys, tmp_path):
    def mutate(doc):
        doc["params"]["0"] = "0x" + "1" * (SKOLEM_BITS_CAP // 4 + 2)
        return doc
    path = _broken_witness(capsys, tmp_path, mutate)
    code, out, err = run(capsys, "verify", "--witness", str(path))
    assert code == 3 and out == ""
    assert "hex digits, at least" in err and f"(cap {SKOLEM_BITS_CAP})" in err


def test_verify_refuses_a_version_one_file(capsys, tmp_path):
    # version 1 wrote skolem params in decimal
    def mutate(doc):
        doc["version"] = 1
        doc["params"] = {label: str(int(text, 16)) for label, text in doc["params"].items()}
        return doc
    path = _broken_witness(capsys, tmp_path, mutate)
    code, out, err = run(capsys, "verify", "--witness", str(path))
    assert (code, out, err) == (2, "", "error: unsupported witness file version 1\n")


def _set(*path_and_value):
    """A mutation that sets doc[path...] to the value."""
    *path, key, value = path_and_value

    def mutate(doc):
        functools.reduce(operator.getitem, path, doc)[key] = value
        return doc
    return mutate


# integer fields holding a float or a bool: some made verify pass without
# checking anything, or print a traceback, before such fields were refused
@pytest.mark.parametrize("mutate", [
    _set("pattern", "k", 2.5), _set("pattern", "k", 3.0), _set("pattern", "k", 1e300),
    _set("pattern", "k", True), _set("pattern", "depth", 3.0), _set("pattern", "branching", 2.0),
    _set("version", float(VERSION)), _set("version", True),
], ids=["k-2.5", "k-3.0", "k-1e300", "k-true", "depth-3.0", "branching-2.0", "version-float",
        "version-true"])
@pytest.mark.parametrize("exhaustive", [(), ("--exhaustive",)], ids=["pattern", "exhaustive"])
def test_verify_refuses_a_non_integer_field(capsys, tmp_path, mutate, exhaustive):
    path = synth(capsys, tmp_path, "w.json", "--pattern", "katp:3", "--depth", "3",
                 "--backend", "skolem")
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    code, out, err = run(capsys, "verify", "--witness", str(path), *exhaustive)
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("make,mutate", [
    (functools.partial(_broken_witness, backend="boolean"), _set("width", 5.0)),
    (functools.partial(_broken_witness, backend="boolean"), _set("width", True)),
    (_tuple_witness, _set("arity", 2.0)),
    (_tuple_witness, _set("base", "width", 5.0)),
    (_tuple_witness, _set("pattern", "depth", 2.0)),
    (_tuple_witness, _set("base", "pattern", "depth", 3.0)),
], ids=["width-5.0", "width-true", "arity-2.0", "base-width-5.0", "depth-2.0", "base-depth-3.0"])
def test_verify_refuses_a_non_integer_boolean_or_tuple_field(capsys, tmp_path, make, mutate):
    path = make(capsys, tmp_path, mutate)
    code, out, err = run(capsys, "verify", "--witness", str(path))
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    ("synth --pattern atp --depth --3 --backend skolem --out w.json",
     "argument --depth: expected one argument"),
    ("synth --pattern atp --depth 3 --out w.json",
     "the following arguments are required: --backend"),
    ("synth --pattern atp --depth 3 --backend gcd --out w.json",
     "argument --backend: invalid choice: 'gcd'"),
    ("alpha --n 3 --bogus", "unrecognized arguments: --bogus"),
    ("", "the following arguments are required: command"),
], ids=["option-as-value", "missing-option", "bad-choice", "unknown-argument", "no-command"])
def test_argparse_refusals_are_one_line(capsys, argv, message):
    # argparse wrote its usage text before its error line; nothing is read
    # or written, since the arguments are refused first
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == "" and err.startswith(f"error: {message}")
    assert err.count("\n") == 1, err


def test_alpha_refuses_a_negative_n(capsys):
    code, out, err = run(capsys, "alpha", "--n", "-1")
    assert code == 2 and out == "" and err == "error: n must be >= 0\n"


def test_alpha_prints_up_to_the_digit_cap(capsys):
    code, out, _ = run(capsys, "alpha", "--n", "15")
    assert code == 0
    assert len(out.split()[-1]) == 2899


@pytest.mark.parametrize("argv", [
    ("alpha", "--n", "16"),
    ("alpha", "--n", "40"),
    ("enum-antichains", "--n", "40", "--count-only"),
    ("enum-antichains", "--n", "40", "--maximal", "--count-only"),
])
def test_huge_counts_hit_the_cap(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "decimal digits" in err


# an integer argument one digit under the interpreter's 4,300-digit limit
NINES = "9" * 4299


@pytest.mark.parametrize("argv", [
    ("enum-antichains", "--b", NINES, "--n", NINES, "--count-only"),
    ("synth", "--pattern", "tp:2", "--b", NINES, "--depth", NINES, "--backend", "skolem"),
    ("check-lemma", "ss-ll", "--b", NINES, "--n", NINES, "--len", "2"),
], ids=["enum-antichains", "synth", "check-lemma"])
def test_a_size_past_the_digit_limit_hits_the_cap(capsys, tmp_path, argv):
    # the domain's bit bound has over 4,300 digits: its message once raised
    # the interpreter's digit-limit ValueError, and the command exited 2
    out_path = tmp_path / "w.json"
    argv += ("--out", str(out_path)) if argv[0] == "synth" else ()
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "over (at least 2^" in err and "(cap 65536)" in err and not out_path.exists()


def test_synth_atp_past_the_catalog_cap(capsys, tmp_path):
    code, out, err = run(capsys, "synth", "--pattern", "atp", "--depth", "7",
                         "--backend", "skolem",
                         "--out", str(tmp_path / "w.json"))
    assert code == 3 and out == ""
    assert "family of 210066388901 maximal members over 127 labels (cap 268435456)" in err


def test_synth_katp_past_the_family_cap(capsys, tmp_path):
    code, out, err = run(capsys, "synth", "--pattern", "katp:3", "--depth", "6",
                         "--backend", "boolean", "--out", str(tmp_path / "w.json"))
    assert code == 3 and out == ""
    assert "family of 10545305 maximal members over 63 labels (cap 268435456)" in err
    assert not (tmp_path / "w.json").exists()


def test_synth_atp_depth_six_boolean_only(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "--pattern", "atp", "--depth", "6",
                       "--backend", "skolem", "--out", str(tmp_path / "s.json"))
    assert code == 3 and "bits" in err and "cap" in err
    assert not (tmp_path / "s.json").exists()
    code, _, err = run(capsys, "synth", "--pattern", "atp", "--depth", "6",
                       "--backend", "boolean", "--out", str(tmp_path / "b.json"))
    assert code == 0 and "458330 maximal members" in err
    data = json.loads((tmp_path / "b.json").read_text())
    assert data["backend"] == "boolean" and len(data["params"]) == 63


def test_skolem_synthesis_of_the_frontier_families_is_refused_before_any_prime(
        capsys, monkeypatch, tmp_path):
    def no_primes(m):
        raise AssertionError("primes drawn before the size cap check")
    monkeypatch.setattr(treeprop.synth, "_first_primes", no_primes)
    for pattern, b, depth in [("sop1", 2, 6), ("tp:2", 3, 4)]:
        code, out, err = run(capsys, "synth", "--pattern", pattern, "--b", str(b),
                             "--depth", str(depth), "--backend", "skolem",
                             "--out", str(tmp_path / "s.json"))
        assert code == 3 and out == "" and f"bits (cap {SKOLEM_BITS_CAP})" in err, err
        assert not (tmp_path / "s.json").exists()


# --- every integer argument, sized before any work ---

SWEEP_VALUES = ("-1", "0", "1", str(10 ** 6), str(10 ** 20))

# one template per integer argument of each subcommand; {} takes each value,
# W is a depth-4 ATP witness and OUT an output path
SWEEP_TEMPLATES = [
    "alpha --n {}",
    "enum-antichains --n {}",
    "enum-antichains --b {} --n 2",
    "enum-antichains --n {} --count-only",
    "enum-antichains --b {} --n 2 --count-only",
    "enum-antichains --n {} --maximal",
    "enum-antichains --n {} --maximal --count-only",
    "enum-antichains --b {} --n 2 --maximal",
    "synth --pattern atp --depth {} --backend boolean --out OUT",
    "synth --pattern katp:{} --depth 3 --backend skolem --out OUT",
    "synth --pattern sop1 --depth {} --backend skolem --out OUT",
    "synth --pattern sop2 --depth {} --backend boolean --out OUT",
    "synth --pattern tp:{} --b 3 --depth 3 --backend boolean --out OUT",
    "synth --pattern tp:{} --b 20000 --depth 2 --backend boolean --out OUT",
    "synth --pattern tp:2 --b {} --depth 3 --backend boolean --out OUT",
    "synth --pattern tp:2 --b 3 --depth {} --backend boolean --out OUT",
    "synth --pattern tp2 --rows {} --cols 2 --backend skolem --out OUT",
    "synth --pattern tp2 --rows 2 --cols {} --backend skolem --out OUT",
    "transform fatten --witness W --m {} --out OUT",
    "transform elongate --witness W --k {} --out OUT",
    "transform reduce --witness W --k {} --out OUT",
    "check-lemma ss-ll --b {} --n 2 --len 2",
    "check-lemma ss-ll --n {} --len 2",
    "check-lemma ss-ll --n 3 --len {}",
]


def sweep(argvs):
    """Run each argument list in a child under a 512 MB address-space limit
    and a 10 s alarm (tests/sweep_child.py): {command: (status, stderr)}."""
    child = Path(__file__).with_name("sweep_child.py")
    env = {**os.environ, "PYTHONPATH": str(Path(treeprop.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(child)], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    return {" ".join(map(str, argv)): tuple(result)
            for argv, result in zip(argvs, json.loads(done.stdout))}


def unclean(results):
    """The runs that did not exit 0, 2 or 3 with at most one short stderr line."""
    return {command: (status, err) for command, (status, err) in results.items()
            if status not in (0, 2, 3) or err.count("\n") > 1 or len(err) > 300}


def test_every_integer_argument_exits_cleanly(capsys, tmp_path):
    # never run these values without the limits of `sweep`
    witness = tmp_path / "w.json"
    assert main(["synth", "--pattern", "atp", "--depth", "4", "--backend", "skolem",
                 "--out", str(witness)]) == 0
    argvs = [[str(witness) if word == "W" else str(tmp_path / "out.json") if word == "OUT"
              else word.format(value) for word in template.split()]
             for template in SWEEP_TEMPLATES for value in SWEEP_VALUES]
    assert unclean(sweep(argvs)) == {}


def test_every_integer_argument_is_ascii_digits(capsys):
    # argparse exits before any work, so these run in-process; W and OUT are
    # never opened
    lax = ["٣", "-٣", " +0_3", "+3", "3 ", "3_0", "0x3", ""]
    for template in SWEEP_TEMPLATES:
        for value in lax + ["1" * 5000]:
            code, out, err = run(capsys, *[word.format(value) for word in template.split()])
            assert code == 2 and out == "" and err.startswith("error: "), (template, value)
            assert err.count("\n") == 1 and len(err) < 300, (template, value)
            assert ("is not ASCII digits" in err) == (value in lax), (template, value)


LONG = "x" * 100_000


def test_a_long_outside_value_gives_one_short_error_line(capsys, tmp_path):
    # each once wrote the value whole, a 100 KB error line
    structure = tmp_path / "structure.json"
    structure.write_text(json.dumps(divisor_structure(6).to_json()))
    constant, relation = tmp_path / "constant.json", tmp_path / "relation.json"
    constant.write_text(json.dumps({"universe": [1], "constants": {"c": LONG}}))
    relation.write_text(json.dumps({"universe": [1], "relations": {LONG: [[2]]}}))
    witness = synth(capsys, tmp_path, "w.json", "--pattern", "atp", "--depth", "3",
                    "--backend", "skolem")
    doc = json.loads(witness.read_text())
    doc["pattern"]["kind"] = LONG
    witness.write_text(json.dumps(doc))
    out_file = str(tmp_path / "out.json")
    argvs = {
        "pattern": ["synth", "--pattern", LONG, "--depth", "3", "--backend", "skolem",
                    "--out", out_file],
        "backend": ["synth", "--pattern", "atp", "--depth", "3", "--backend", LONG,
                    "--out", out_file],
        "command": [LONG],
        "lemma": ["check-lemma", LONG, "--n", "2", "--len", "2"],
        "option": ["alpha", "--n", "3", "--" + LONG],
        "assign": ["eval", "--structure", str(structure), "--formula", "x = x",
                   "--assign", LONG],
        "trailing token": ["eval", "--structure", str(structure), "--formula", "1 = 1 " + LONG],
        "relation": ["eval", "--structure", str(structure), "--formula", LONG + "(1)"],
        "function": ["eval", "--structure", str(structure), "--formula", LONG + "(1) = 1"],
        "unbound name": ["eval", "--structure", str(structure), "--formula", LONG + " = 1"],
        "constant value": ["eval", "--structure", str(constant), "--formula", "1 = 1"],
        "relation name": ["eval", "--structure", str(relation), "--formula", "1 = 1"],
        "pattern kind": ["verify", "--witness", str(witness)],
    }
    for place, argv in argvs.items():
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), (place, err[:300])
        assert err.count("\n") == 1 and len(err) <= 300, (place, err[:300])
        assert "xxxxx" in err, (place, err)


def test_every_transform_and_a_capped_verify_exit_cleanly(capsys, tmp_path):
    # every transform of a witness of every kind, and the verify of a TP2
    # witness whose 2^25 - 1 required sets pass the subset cap, in `sweep`
    argvs = []
    for kind, args in WITNESS_KINDS.items():
        src = synth(capsys, tmp_path, f"{kind}.json", *args, "--backend", "boolean")
        argvs += [["transform", *op, "--witness", str(src), "--out", str(tmp_path / "out.json")]
                  for op in TRANSFORMS]
    rows = synth(capsys, tmp_path, "rows.json", "--pattern", "tp2", "--rows", "25",
                 "--cols", "1", "--backend", "boolean")
    argvs.append(["verify", "--witness", str(rows)])
    results = sweep(argvs)
    assert unclean(results) == {}
    status, err = results[" ".join(argvs[-1])]
    assert status == 3 and "2^25 - 1" in err and "cap" in err


def test_pattern_arguments_and_a_capped_tp_verify_exit_cleanly(capsys, tmp_path):
    # the kind is read in any case, tp2 takes no k, depth or b and the tree
    # kinds no rows or cols, and a k is ASCII digits; a TP witness whose
    # pattern asks for C(400, 200) sibling sets is refused, in `sweep`
    src = synth(capsys, tmp_path, "tp.json", "--pattern", "tp:2", "--b", "400", "--depth", "2",
                "--backend", "boolean")
    doc = json.loads(src.read_text())
    doc["pattern"]["k"] = 200
    src.write_text(json.dumps(doc))
    out = str(tmp_path / "out.json")
    argvs = [["verify", "--witness", str(src)],
             ["synth", "--pattern", "TP2", "--rows", "2", "--cols", "2", "--backend", "skolem",
              "--out", out],
             ["synth", "--pattern", "tp2:7", "--rows", "2", "--cols", "2", "--backend", "skolem",
              "--out", out],
             ["synth", "--pattern", "atp", "--depth", "2", "--rows", "5", "--cols", "9",
              "--backend", "skolem", "--out", out],
             ["synth", "--pattern", "tp2", "--rows", "2", "--cols", "2", "--depth", "9", "--b", "7",
              "--backend", "skolem", "--out", out]]
    lax_ks = ["katp:+3", "katp: 3", "katp:\u0663", "katp:3_0", "katp:3 ", "katp:", "atp:"]
    argvs += [["synth", "--pattern", text, "--depth", "3", "--backend", "skolem", "--out", out]
              for text in lax_ks]
    results = sweep(argvs)
    assert unclean(results) == {}
    assert [status for status, _ in results.values()] == [3, 0, 2, 2, 2] + [2] * len(lax_ks)
    verified, _, refused, tree, array, *lax = (err for _, err in results.values())
    assert "C(400, 200)" in verified and "cap" in verified and "takes no k" in refused
    assert "atp takes no rows or cols" in tree and "tp2 takes no depth or branching" in array
    assert all("is not ASCII digits" in err and err.count("\n") == 1 for err in lax), lax


def test_a_param_of_about_the_cap_is_written_in_time(capsys, tmp_path):
    # a skolem param of about SKOLEM_BITS_CAP bits is read, drawn and written
    # again by export-dot and by transform fatten, in `sweep`
    digits = SKOLEM_BITS_CAP // 4 - 16

    def mutate(doc):
        doc["params"]["0"] = "0x" + "f" * digits
        return doc
    path = _broken_witness(capsys, tmp_path, mutate)
    out = tmp_path / "fat.json"
    results = sweep([["export-dot", "--witness", str(path)],
                     ["transform", "fatten", "--witness", str(path), "--m", "1",
                      "--out", str(out)]])
    assert unclean(results) == {} and [status for status, _ in results.values()] == [0, 0]
    assert load(out).witness.base.params[(0,)] == 16 ** digits - 1


def test_library_calls_past_the_family_cap_exit_cleanly():
    # each raised MemoryError under the limits of `sweep` before the family
    # was sized where it is built; never make these calls without them
    calls = [["call", "antichains.chain_free_columns", 40, 50],
             ["call", "antichains.choice_columns", 2, 40, 2],
             ["call", "antichains.maximal_chain_free_binary", 30, 40],
             ["call", "antichains.maximal_antichains", 30]]
    for status, err in sweep(calls).values():
        assert status == 3 and err.count("\n") == 1 and "(cap 268435456)" in err, err


def test_frontier_families_are_built_and_verified_in_time(tmp_path):
    # SOP1 d6 (3,263,442 members over 63 labels) and TP b3 d4 (1,594,323
    # over 40) pass the cell cap once families are built as columns; each
    # command exits 0 within the 512 MB and 10 s of `sweep`
    out = {name: str(tmp_path / f"{name}.json") for name in ("atp", "sop1", "tp")}
    results = sweep([
        ["synth", "--pattern", "atp", "--depth", "6", "--backend", "boolean", "--out", out["atp"]],
        ["synth", "--pattern", "sop1", "--depth", "6", "--backend", "boolean",
         "--out", out["sop1"]],
        ["synth", "--pattern", "tp:2", "--b", "3", "--depth", "4", "--backend", "boolean",
         "--out", out["tp"]],
        ["verify", "--witness", out["sop1"]],
        ["verify", "--witness", out["tp"]]])
    assert [status for status, _ in results.values()] == [0] * 5, results


def test_wide_tp_families_are_built_and_verified_in_time(capsys, tmp_path):
    # each ran past the 10 s alarm of `sweep`: a TP pattern with k > b has no
    # sibling set, yet every label's later siblings were listed; and with
    # k - 1 = b children kept, the one member was ORed from b growing ints
    # (5.9 s for b = 10^6, quadratic in b)
    src = synth(capsys, tmp_path, "tp.json", "--pattern", "tp:50001", "--b", "50000",
                "--depth", "2", "--backend", "boolean")
    results = sweep([["verify", "--witness", str(src)],
                     ["call", "antichains.choice_columns", 10 ** 6, 2, 10 ** 6],
                     ["call", "antichains.choice_columns", 4 * 10 ** 6, 2, 4 * 10 ** 6]])
    assert [status for status, _ in results.values()] == [0, 0, 0], results
