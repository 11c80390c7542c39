"""Command-line front end.

Exit codes: 0 success / verification pass, 1 verification fail, 2 usage or
input error, 3 resource cap exceeded. Machine-readable output (JSON, DOT)
goes to stdout; diagnostics go to stderr. The submodules are bound as the
package's lazy modules, so a command runs only the modules it uses (see the
package docstring).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import (antichains, dot, formulas, nodes, oracles, patterns, qftypes, synth,
               transforms, witnessio)
from .errors import ResourceCapError, TreepropError


def _integer(text: str) -> int:
    """An integer option's value, or the K of `katp:K` and `tp:K`: ASCII
    digits, after a minus sign that the command's own range check then
    refuses. Any other text raises TreepropError, which argparse does not
    catch, so it exits 2 with one line."""
    digits = text[1:] if text.startswith("-") else text
    if not digits or digits.strip("0123456789"):
        raise TreepropError(f"integer argument {text!r:.40} is not ASCII digits")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise TreepropError(f"integer argument of {len(digits)} digits is past "
                            "the interpreter's digit limit") from None


def _parse_pattern_arg(text: str, branching: int, depth: int, rows: int, cols: int):
    kind, colon, karg = text.partition(":")
    return patterns.make_pattern(kind, branching=branching, depth=depth,
                                 k=_integer(karg) if colon else None, rows=rows, cols=cols)


# one node string per line, at the depth of json.dump(..., indent=2)
_ITEM = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _print_listing(domain, masks) -> None:
    """Print the node sets given as masks over the domain's nodes as lists of
    node strings, each string made once and picked by the mask's set bits,
    lowest first. Masks in canonical order give the sorted order of the string
    lists, except that dotted names (branching > 10) do not sort like nodes,
    so those lists are sorted.

    The text is what json.dump({"count": ..., "items": ...}, sort_keys=True,
    indent=2) writes, but each list is encoded in one piece by the C encoder,
    which json.dump leaves for the pure-Python one when it indents."""
    names = [nodes.node_str(x, domain.branching) for x in domain.nodes()]
    items = [antichains.mask_labels(names, mask) for mask in masks]
    if domain.branching > 10:
        items = sorted(sorted(item) for item in items)
    write = sys.stdout.write
    write(f'{{\n  "count": {len(items)},\n  "items": [\n    ')
    for n, item in enumerate(items):
        write(("[\n      " if n == 0 else ",\n    [\n      ") + _ITEM(item)[1:-1] + "\n    ]")
    write("\n  ]\n}\n")


def _print(data) -> None:
    if isinstance(data, str):
        sys.stdout.write(data)
    else:
        json.dump(data, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")


def _cmd_alpha(args) -> int:
    antichains.alpha(args.n)  # refuses n < 0, and a count past its cap, before any is printed
    _print(" ".join(str(antichains.alpha(n)) for n in range(args.n + 1)) + "\n")
    return 0


def _cmd_enum(args) -> int:
    domain = nodes.TreeDomain(args.b, args.n)
    if args.maximal:
        if args.b != 2:
            raise TreepropError("--maximal supports binary trees only")
        if args.count_only:
            _print(f"{antichains.alpha(args.n)}\n")
            return 0
        _print_listing(domain, antichains.maximal_chain_free_masks(args.n, 2))
        return 0
    if args.count_only:
        _print(f"{antichains.count_antichains(args.b, args.n, nonempty=True)}\n")
        return 0
    antichains._check_subset_cap(domain.node_count())
    _print_listing(domain, antichains.subtree_walk(domain.subtree_sizes()))
    return 0


def _cmd_synth(args) -> int:
    pattern = _parse_pattern_arg(args.pattern, args.b, args.depth, args.rows, args.cols)
    family = patterns.exact_family(pattern)
    witness = (synth.synth_skolem(family) if args.backend == "skolem"
               else synth.synth_boolean(family))
    witnessio.save(witnessio.WitnessFile(pattern, witness), args.out)
    sys.stderr.write(
        f"synthesized {args.backend} witness for {args.pattern} "
        f"({len(family.masks)} maximal members) -> {args.out}\n"
    )
    return 0


def _cmd_verify(args) -> int:
    wf = witnessio.load(args.witness)
    report = patterns.verify(oracles.oracle_for(wf.witness), wf.witness, wf.pattern,
                             exhaustive=args.exhaustive)
    _print({
        "pass": report.passed,
        "mode": "exhaustive" if report.exhaustive else "pattern",
        "consistent_checked": report.consistent_checked,
        "inconsistent_checked": report.inconsistent_checked,
        "counterexample": None if report.counterexample is None else {
            "subset": sorted(
                witnessio.label_str(wf.pattern, x) for x in report.counterexample[0]
            ),
            "expected": report.counterexample[1],
            "actual": report.counterexample[2],
        },
    })
    return 0 if report.passed else 1


def _cmd_transform(args) -> int:
    wf = witnessio.load(args.witness)
    if isinstance(wf.witness, oracles.TupleWitness):
        raise TreepropError("transforms apply to base witnesses, not tuple witnesses")
    if wf.pattern.kind not in (patterns.ATP, patterns.KATP):
        raise TreepropError(f"transforms apply to atp and katp witnesses, not {wf.pattern.kind}")
    if args.op != "fatten":
        # both are sound only for a (K+1)-ATP witness
        if args.k is None:
            raise TreepropError(f"{args.op} needs --k")
        if wf.pattern.kind != patterns.KATP or wf.pattern.k != args.k + 1:
            raise TreepropError(f"{args.op} --k {args.k} needs a katp:{args.k + 1} witness")
    if args.op == "fatten":
        if args.m is None:
            raise TreepropError("fatten needs --m")
        tw = transforms.fatten(wf.witness, args.m)
        kind, k = wf.pattern.kind, wf.pattern.k
        note = f"fatten({args.m})"
    elif args.op == "elongate":
        tw = transforms.elongate(wf.witness, args.k)
        kind, k = patterns.ATP, None
        note = f"elongate({args.k})"
    else:  # reduce
        tw, report = transforms.reduce_katp(wf.witness, oracles.oracle_for(wf.witness), args.k)
        # an elongated node is a chain of k sources, so two comparable ones
        # hold a (k+1)-chain: elongation makes an ATP witness for every k
        if report.case == "elongate" or args.k == 2:
            kind, k = patterns.ATP, None
        else:
            kind, k = patterns.KATP, args.k
        note = (f"reduce: case {report.case}"
                + (f"(m={report.fatten_level})" if report.case == "fatten" else "")
                + f", probes {[ok for _, ok in report.probes]}")
    out_pattern = patterns.make_pattern(kind, depth=max(len(l) for l in tw.labels) + 1, k=k)
    witnessio.save(
        witnessio.WitnessFile(out_pattern, tw, base_pattern=wf.pattern), args.out
    )
    sys.stderr.write(f"{note} -> {args.out}\n")
    return 0


def _cmd_check_lemma(args) -> int:
    if args.lemma != "ss-ll":
        raise TreepropError(f"unknown lemma {args.lemma!r}")
    report = qftypes.verify_ss_ll(args.b, args.n, args.len)
    _print({
        "pass": report.passed,
        "tuples": report.tuple_count,
        "pairs": report.pair_count,
    })
    return 0 if report.passed else 1


def _cmd_export_dot(args) -> int:
    _print(dot.export_dot(witnessio.load(args.witness)))
    return 0


def _cmd_eval(args) -> int:
    with open(args.structure, encoding="utf-8") as fh:
        structure = formulas.FiniteStructure.from_json(fh.read())
    formula = formulas.parse_formula(args.formula)
    assignment = {}
    if args.assign:
        elems = {str(e): e for e in structure.universe}
        for item in args.assign.split(","):
            name, _, value = item.partition("=")
            if not _ or value not in elems:
                raise TreepropError(f"bad assignment {item!r}")
            assignment[name.strip()] = elems[value]
    result = formulas.eval_formula(structure, formula, assignment)
    _print("true\n" if result else "false\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subcommand parsers, whose
    refusals raise TreepropError: `main` writes them as one `error:` line and
    exits 2, with no usage text."""

    def error(self, message):
        raise TreepropError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treeprop",
        description="Finite-scale lab for tree properties: witness synthesis, "
                    "verification, antichain combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="print the maximal-antichain counts")
    p.add_argument("--n", type=_integer, required=True)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("enum-antichains", help="enumerate (maximal) antichains")
    p.add_argument("--b", type=_integer, default=2)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("synth", help="synthesize an exact witness")
    p.add_argument("--pattern", required=True,
                   help="atp | katp:K | sop1 | sop2 | tp:K | tp2")
    p.add_argument("--depth", type=_integer, default=0)
    p.add_argument("--b", type=_integer, default=2)
    p.add_argument("--rows", type=_integer, default=0)
    p.add_argument("--cols", type=_integer, default=0)
    p.add_argument("--backend", choices=["skolem", "boolean"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="verify a witness file")
    p.add_argument("--witness", required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="fatten / elongate / reduce a witness")
    p.add_argument("op", choices=["fatten", "elongate", "reduce"])
    p.add_argument("--witness", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=_integer)
    p.add_argument("--m", type=_integer)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("check-lemma", help="run a finite lemma check")
    p.add_argument("lemma", choices=["ss-ll"])
    p.add_argument("--b", type=_integer, default=2)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--len", type=_integer, required=True)
    p.set_defaults(func=_cmd_check_lemma)

    p = sub.add_parser("export-dot", help="emit Graphviz DOT for a witness")
    p.add_argument("--witness", required=True)
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("eval", help="evaluate a formula over a structure file")
    p.add_argument("--structure", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", help="comma-separated name=element pairs")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ResourceCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (TreepropError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
