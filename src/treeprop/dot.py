"""Graphviz DOT rendering of witnesses.

Tree witnesses draw the index tree with parameters in the node labels; tree
edges (the comparabilities that ATP-style patterns force inconsistent) are
drawn red, and array witnesses are drawn as row clusters. Purely cosmetic;
output ordering is deterministic.
"""

from __future__ import annotations

from .patterns import TP2
from .oracles import TupleWitness
from .witnessio import WitnessFile, label_str, param_str


def _display_param(wf: WitnessFile, label) -> str:
    w = wf.witness
    if isinstance(w, TupleWitness):
        parts = (param_str(v, w.base.width) for v in w.components(label))
        return "(" + ", ".join(parts) + ")"
    return param_str(w.params[label], w.width)


def export_dot(wf: WitnessFile) -> str:
    pattern = wf.pattern
    labels = list(pattern.index_labels())
    lines = ["digraph witness {", '  node [shape=box, fontname="monospace"];']
    if pattern.kind == TP2:
        for row in range(pattern.rows):
            lines.append(f"  subgraph cluster_row{row} {{")
            lines.append(f'    label="row {row}";')
            for col in range(pattern.cols):
                label = (row, col)
                text = f"{label_str(pattern, label)}\\n{_display_param(wf, label)}"
                lines.append(f'    "n{row}_{col}" [label="{text}"];')
            lines.append("  }")
        lines.append("}")
        return "\n".join(lines) + "\n"
    for node in labels:
        name = label_str(pattern, node) or "root"
        text = f"<{label_str(pattern, node)}>\\n{_display_param(wf, node)}"
        lines.append(f'  "{name}" [label="{text}"];')
    for node in labels:
        if node:
            parent = label_str(pattern, node[:-1]) or "root"
            child = label_str(pattern, node)
            lines.append(f'  "{parent}" -> "{child}" [color=red];')
    lines.append("}")
    return "\n".join(lines) + "\n"
