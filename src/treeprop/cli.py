"""Command-line front end.

Exit codes: 0 success / verification pass, 1 verification fail, 2 usage or
input error, 3 resource cap exceeded. Machine-readable output (JSON, DOT)
goes to stdout; diagnostics go to stderr. Each command imports the modules
it uses, so a command runs no other (see the package docstring).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ResourceCapError, TreepropError


def _parse_pattern_arg(text: str, branching: int, depth: int, rows: int, cols: int):
    from .patterns import make_pattern

    kind, colon, karg = text.partition(":")
    if colon and (not karg or karg.strip("0123456789")):
        raise ValueError(f"the k of pattern {text!r:.40} is not ASCII digits")
    k = int(karg) if colon else None
    return make_pattern(kind, branching=branching, depth=depth, k=k, rows=rows, cols=cols)


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
    from . import antichains
    from .nodes import node_str

    names = [node_str(x, domain.branching) for x in domain.nodes()]
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
    from . import antichains

    antichains.alpha(args.n)  # refuses n < 0, and a count past its cap, before any is printed
    _print(" ".join(str(antichains.alpha(n)) for n in range(args.n + 1)) + "\n")
    return 0


def _cmd_enum(args) -> int:
    from . import antichains
    from .nodes import TreeDomain

    domain = TreeDomain(args.b, args.n)
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
    from . import witnessio
    from .patterns import exact_family
    from .synth import synth_boolean, synth_skolem

    pattern = _parse_pattern_arg(args.pattern, args.b, args.depth, args.rows, args.cols)
    family = exact_family(pattern)
    witness = synth_skolem(family) if args.backend == "skolem" else synth_boolean(family)
    witnessio.save(witnessio.WitnessFile(pattern, witness), args.out)
    sys.stderr.write(
        f"synthesized {args.backend} witness for {args.pattern} "
        f"({len(family.masks)} maximal members) -> {args.out}\n"
    )
    return 0


def _cmd_verify(args) -> int:
    from . import witnessio
    from .oracles import oracle_for
    from .patterns import verify

    wf = witnessio.load(args.witness)
    report = verify(oracle_for(wf.witness), wf.witness, wf.pattern,
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
    from . import witnessio
    from .oracles import TupleWitness, oracle_for
    from .patterns import ATP, KATP, make_pattern
    from .transforms import elongate, fatten, reduce_katp

    wf = witnessio.load(args.witness)
    if isinstance(wf.witness, TupleWitness):
        raise TreepropError("transforms apply to base witnesses, not tuple witnesses")
    if wf.pattern.kind not in (ATP, KATP):
        raise TreepropError(f"transforms apply to atp and katp witnesses, not {wf.pattern.kind}")
    if args.op != "fatten":
        # both are sound only for a (K+1)-ATP witness
        if args.k is None:
            raise TreepropError(f"{args.op} needs --k")
        if wf.pattern.kind != KATP or wf.pattern.k != args.k + 1:
            raise TreepropError(f"{args.op} --k {args.k} needs a katp:{args.k + 1} witness")
    if args.op == "fatten":
        if args.m is None:
            raise TreepropError("fatten needs --m")
        tw = fatten(wf.witness, args.m)
        out_pattern = make_pattern(
            wf.pattern.kind, depth=wf.pattern.depth - args.m, k=wf.pattern.k
        )
        note = f"fatten({args.m})"
    elif args.op == "elongate":
        tw = elongate(wf.witness, args.k)
        out_pattern = make_pattern(ATP, depth=max(len(l) for l in tw.labels) + 1)
        note = f"elongate({args.k})"
    else:  # reduce
        tw, report = reduce_katp(wf.witness, oracle_for(wf.witness), args.k)
        depth = max(len(l) for l in tw.labels) + 1
        # an elongated node is a chain of k sources, so two comparable ones
        # hold a (k+1)-chain: elongation makes an ATP witness for every k
        if report.case == "elongate" or args.k == 2:
            out_pattern = make_pattern(ATP, depth=depth)
        else:
            out_pattern = make_pattern(KATP, depth=depth, k=args.k)
        note = (f"reduce: case {report.case}"
                + (f"(m={report.fatten_level})" if report.case == "fatten" else "")
                + f", probes {[ok for _, ok in report.probes]}")
    witnessio.save(
        witnessio.WitnessFile(out_pattern, tw, base_pattern=wf.pattern), args.out
    )
    sys.stderr.write(f"{note} -> {args.out}\n")
    return 0


def _cmd_check_lemma(args) -> int:
    from .qftypes import verify_ss_ll

    if args.lemma != "ss-ll":
        raise TreepropError(f"unknown lemma {args.lemma!r}")
    report = verify_ss_ll(args.b, args.n, args.len)
    _print({
        "pass": report.passed,
        "tuples": report.tuple_count,
        "pairs": report.pair_count,
    })
    return 0 if report.passed else 1


def _cmd_export_dot(args) -> int:
    from . import witnessio
    from .dot import export_dot

    _print(export_dot(witnessio.load(args.witness)))
    return 0


def _cmd_eval(args) -> int:
    from .formulas import FiniteStructure, eval_formula, parse_formula

    with open(args.structure, encoding="utf-8") as fh:
        structure = FiniteStructure.from_json(fh.read())
    formula = parse_formula(args.formula)
    assignment = {}
    if args.assign:
        elems = {str(e): e for e in structure.universe}
        for item in args.assign.split(","):
            name, _, value = item.partition("=")
            if not _ or value not in elems:
                raise TreepropError(f"bad assignment {item!r}")
            assignment[name.strip()] = elems[value]
    result = eval_formula(structure, formula, assignment)
    _print("true\n" if result else "false\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeprop",
        description="Finite-scale lab for tree properties: witness synthesis, "
                    "verification, antichain combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="print the maximal-antichain counts")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("enum-antichains", help="enumerate (maximal) antichains")
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("synth", help="synthesize an exact witness")
    p.add_argument("--pattern", required=True,
                   help="atp | katp:K | sop1 | sop2 | tp:K | tp2")
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--rows", type=int, default=0)
    p.add_argument("--cols", type=int, default=0)
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
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("check-lemma", help="run a finite lemma check")
    p.add_argument("lemma", choices=["ss-ll"])
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (TreepropError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
