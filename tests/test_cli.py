import json

import pytest

from treeprop import TreeDomain, divisor_structure
from treeprop.cli import main


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
    src = synth(capsys, tmp_path, "katp.json",
                "--pattern", "katp:3", "--depth", "5", "--backend", "skolem")
    dst = tmp_path / "reduced.json"
    code, _, err = run(capsys, "transform", "reduce", "--witness", str(src),
                       "--k", "2", "--out", str(dst))
    assert code == 0 and "elongate" in err
    code, out, _ = run(capsys, "verify", "--witness", str(dst), "--exhaustive")
    assert code == 0 and json.loads(out)["pass"]


def test_transform_fatten(capsys, tmp_path):
    src = synth(capsys, tmp_path, "atp.json",
                "--pattern", "atp", "--depth", "3", "--backend", "boolean")
    dst = tmp_path / "fat.json"
    code, _, _ = run(capsys, "transform", "fatten", "--witness", str(src),
                     "--m", "1", "--out", str(dst))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--witness", str(dst), "--exhaustive")
    assert code == 0 and json.loads(out)["pass"]


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
])
def test_verify_malformed_witness_exits_2(capsys, tmp_path, make, mutate):
    path = make(capsys, tmp_path, mutate)
    code, out, err = run(capsys, "verify", "--witness", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_synth_atp_past_the_catalog_cap(capsys, tmp_path):
    code, out, err = run(capsys, "synth", "--pattern", "atp", "--depth", "7",
                         "--backend", "skolem",
                         "--out", str(tmp_path / "w.json"))
    assert code == 3 and out == "" and "alpha(7)" in err


def test_synth_katp_past_the_family_cap(capsys, tmp_path):
    code, out, err = run(capsys, "synth", "--pattern", "katp:3", "--depth", "6",
                         "--backend", "boolean", "--out", str(tmp_path / "w.json"))
    assert code == 3 and out == "" and "10545305" in err and "cap 458330" in err
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
