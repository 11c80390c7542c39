from treeprop import exact_family, make_pattern, synth_boolean, synth_skolem
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
