from treeprop import exact_family, fatten, make_pattern, synth_boolean, synth_skolem
from treeprop.dot import export_dot
from treeprop.patterns import ATP, TP2
from treeprop.witnessio import WitnessFile


def test_tree_dot_contains_nodes_and_red_edges():
    p = make_pattern(ATP, depth=3)
    wf = WitnessFile(p, synth_skolem(exact_family(p)))
    text = export_dot(wf)
    assert text.startswith("digraph witness {")
    assert text.rstrip().endswith("}")
    assert '"root"' in text and '"01"' in text
    assert '"root" -> "0" [color=red]' in text
    assert '"1" -> "10" [color=red]' in text
    assert "\\n0x4d" in text  # parameters rendered in labels, 77 in hex


def test_tp2_dot_uses_row_clusters():
    p = make_pattern(TP2, rows=2, cols=2)
    wf = WitnessFile(p, synth_boolean(exact_family(p)))
    text = export_dot(wf)
    assert "cluster_row0" in text and "cluster_row1" in text
    assert "->" not in text  # array witnesses carry no tree edges
    assert "0x" in text


def test_dot_is_deterministic():
    p = make_pattern(ATP, depth=3)
    wf = WitnessFile(p, synth_skolem(exact_family(p)))
    assert export_dot(wf) == export_dot(wf)


def test_fattened_witness_dot_shows_padded_parameter_tuples():
    # ATP d3 boolean has 5 members, so each base param takes 2 hex digits
    p = make_pattern(ATP, depth=3)
    base = synth_boolean(exact_family(p))
    tw = fatten(base, 1)
    text = export_dot(WitnessFile(make_pattern(ATP, depth=2), tw, p))
    assert '"root" [label="<>\\n(0x06, 0x0a)"];' in text
    assert '"0" [label="<0>\\n(0x18, 0x14)"];' in text
    assert '"1" [label="<1>\\n(0x18, 0x14)"];' in text
    # ATP d4 has 26 members: each part is 0x and 7 digits, in provenance order
    p = make_pattern(ATP, depth=4)
    base = synth_boolean(exact_family(p))
    assert base.width == 26
    tw = fatten(base, 2)
    text = export_dot(WitnessFile(make_pattern(ATP, depth=2), tw, p))
    for label in tw.labels:
        parts = ", ".join(f"0x{v:07x}" for v in tw.components(label))
        assert f"\\n({parts})" in text, label
        assert len(tw.components(label)) == 4
    assert any(v < 16 ** 6 for label in tw.labels for v in tw.components(label))
