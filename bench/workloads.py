"""The four workloads: fixed job lists that run.py repeats as passes.

Each workload's `setup(seed, tracer, tmp)` builds its inputs and returns the
job list. A job runs with a per-pass `state` dict, so later jobs of a pass
can use the outputs of earlier ones. `check` compares a job's output with a
computation made apart from treeprop (bench/reference.py) or with a property
the method must have; `summary` is a cheap hashable value that must come out
the same on every pass.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import treeprop as tp
from treeprop import antichains as tp_antichains
from treeprop import witnessio
from treeprop.errors import ResourceCapError
from treeprop.oracles import STRUCTURE

import reference as ref
from reference import expect


@dataclass
class Job:
    name: str
    run: Callable  # run(state) -> output
    check: Callable  # check(output), raises ref.CheckError
    summary: Callable = lambda out: out  # hashable; run.py keeps only its hash
    fails_with: Optional[type] = None  # a failure of this type is counted, not fatal
    # cli-pipeline: which cli.*_s metric the step feeds. Such a job runs
    # bench/child.py and its output ends with the child's report.
    cli_step: Optional[str] = None


def _pattern(spec: dict):
    spec = dict(spec)
    kind = spec.pop("kind")
    return tp.make_pattern(kind, **spec)


def _labels(spec: dict) -> list:
    if spec["kind"] == "tp2":
        return ref.grid_labels(spec["rows"], spec["cols"])
    return ref.tree_labels(spec.get("branching", 2), spec["depth"])


def _forbidden(spec: dict) -> list:
    return ref.forbidden_masks(spec["kind"], _labels(spec), spec.get("k", 2),
                               spec.get("branching", 2))


def _spec_name(spec: dict) -> str:
    if spec["kind"] == "tp2":
        return f"tp2 {spec['rows']}x{spec['cols']}"
    name = spec["kind"] + (f":{spec['k']}" if "k" in spec else "")
    if spec.get("branching", 2) != 2:
        name += f" b{spec['branching']}"
    return f"{name} d{spec['depth']}"


def _expected_maxima(spec: dict) -> int:
    """Number of maximal members, from a closed form, a recurrence or a
    subset scan."""
    kind = spec["kind"]
    if kind == "atp":
        return ref.alpha(spec["depth"])
    if kind == "katp":
        return ref.maximal_chain_free_count(spec["depth"], spec["k"])
    if kind == "sop2":
        return 2 ** (spec["depth"] - 1)  # root-to-leaf paths
    if kind == "tp2":
        return spec["cols"] ** spec["rows"]  # one cell per row
    if kind == "tp":  # k-1 children of every sibling group
        b, d = spec["branching"], spec["depth"]
        internal = (b ** (d - 1) - 1) // (b - 1)
        return math.comb(b, spec["k"] - 1) ** internal
    maximal, _ = ref.brute_force_counts(kind, tuple(_labels(spec)))  # sop1 d4: 2^15 subsets
    return len(maximal)


def _expected_exhaustive(spec: dict) -> tuple:
    """(consistent, inconsistent) nonempty subsets, computed apart."""
    labels = _labels(spec)
    total = 2 ** len(labels) - 1
    kind = spec["kind"]
    if kind == "atp":
        cons = ref.antichains_with_empty(spec["depth"]) - 1
    elif kind == "katp":
        cons = ref.chain_free_with_empty(spec["depth"], spec["k"]) - 1
    elif kind == "tp2":
        cons = (spec["cols"] + 1) ** spec["rows"] - 1
    else:
        _, cons = ref.brute_force_counts(kind, tuple(labels), spec.get("k", 2),
                                         spec.get("branching", 2))
    return cons, total - cons


def _check_report(name: str, report, expected: tuple, exhaustive: bool = True) -> None:
    expect(report.passed, f"{name}: verification failed: {report.summary()}")
    expect(report.exhaustive == exhaustive, f"{name}: wrong verification mode")
    got = (report.consistent_checked, report.inconsistent_checked)
    expect(got == expected, f"{name}: counts {got}, expected {expected}")


def _report_summary(report):
    return (report.passed, report.consistent_checked, report.inconsistent_checked)


# --- build-deep ---

BUILD_DEEP = [
    {"kind": "katp", "depth": 5, "k": 3},
    {"kind": "katp", "depth": 5, "k": 4},
    {"kind": "atp", "depth": 5},
    {"kind": "sop1", "depth": 4},
    {"kind": "tp", "branching": 3, "depth": 3, "k": 2},
    {"kind": "sop2", "depth": 5},
    {"kind": "tp2", "rows": 4, "cols": 4},
]


def _family_check(spec):
    name = _spec_name(spec)

    def check(family):
        masks = ref.check_family(name, _labels(spec), family.maximal, _forbidden(spec))
        want = _expected_maxima(spec)
        expect(len(masks) == want,
               f"{name}: {len(masks)} maximal members, expected {want}")
    return check


def _witness_check(spec, backend):
    name = f"{_spec_name(spec)} {backend}"
    checker = ref.check_skolem if backend == "skolem" else ref.check_boolean

    def check(out):
        family, witness = out
        labels = _labels(spec)
        expect(list(witness.labels) == labels, f"{name}: label order differs")
        checker(name, labels, witness.params, ref.member_masks(labels, family.maximal),
                _forbidden(spec))
    return check


def _io_check(spec):
    name = _spec_name(spec)

    def check(out):
        for witness, text, back in out:
            expect(back.witness.params == witness.params,
                   f"{name} {witness.backend}: loads(dumps(w)) changed the params")
            expect(back.pattern == _pattern(spec), f"{name}: pattern lost in round trip")
    return check


def setup_build_deep(seed, tracer, tmp):
    jobs = []
    for spec in BUILD_DEEP:
        key, p = _spec_name(spec), _pattern(spec)
        def run(st, key=key, p=p):
            st[key] = tp.exact_family(p)
            return st[key]
        jobs.append(Job(f"family {key}", run, _family_check(spec),
                        summary=lambda f: f.maximal))
    for spec in BUILD_DEEP:
        key = _spec_name(spec)
        for backend, synth in (("skolem", "synth_skolem"), ("boolean", "synth_boolean")):
            def run(st, key=key, backend=backend, synth=synth):
                family = st[key]
                st[(key, backend)] = getattr(tp, synth)(family)
                return family, st[(key, backend)]
            jobs.append(Job(f"{backend} {key}", run, _witness_check(spec, backend),
                            summary=lambda out: tuple(out[1].params.items())))
    for spec in BUILD_DEEP:
        key, p = _spec_name(spec), _pattern(spec)

        def run(st, key=key, p=p):
            out = []
            for backend in ("skolem", "boolean"):
                w = st[(key, backend)]
                text = witnessio.dumps(witnessio.WitnessFile(p, w))
                out.append((w, text, witnessio.loads(text)))
            return out
        jobs.append(Job(f"io {key}", run, _io_check(spec),
                        summary=lambda out: tuple(text for _, text, _ in out)))
    return jobs


# --- verify-exact ---

VERIFY_EXACT = [
    {"kind": "atp", "depth": 4},
    {"kind": "katp", "depth": 4, "k": 3},
    {"kind": "sop1", "depth": 4},
    {"kind": "sop2", "depth": 4},
    {"kind": "tp", "branching": 3, "depth": 3, "k": 2},
    {"kind": "tp2", "rows": 3, "cols": 4},
]

FO_FORMULA = "exists z. (z != 1 & divides(z, x) & divides(x, y))"
RANDOM_FAMILIES = 40


def _random_families(seed: int) -> list:
    """Seeded families as in acceptance criterion 8: 3-6 labels, 1-5 random
    members, a random divisor of 210 as each label's first-order parameter."""
    rng = random.Random(seed)
    structure = tp.divisor_structure(210)
    formula = tp.parse_formula("x != 1 & divides(x, y)")
    divisors = [d for d in structure.universe if d > 1]
    out = []
    for _ in range(RANDOM_FAMILIES):
        labels = tuple(range(rng.randint(3, 6)))
        members = [frozenset(rng.sample(labels, rng.randint(1, len(labels))))
                   for _ in range(rng.randint(1, 5))]
        fo_params = {l: (rng.choice(divisors),) for l in labels}
        family = tp.ConsistencyFamily.from_members(labels, members)
        oracles = (
            tp.oracle_for(tp.synth_skolem(family)),
            tp.oracle_for(tp.synth_boolean(family)),
            tp.FoOracle(structure, formula, tp.Witness(STRUCTURE, labels, fo_params)),
        )
        subsets = [[x for x in labels if mask >> x & 1]
                   for mask in range(1, 1 << len(labels))]
        out.append((labels, members, fo_params, oracles, subsets))
    return out


def _random_expected(families) -> list:
    out = []
    for labels, members, fo_params, _, subsets in families:
        for subset in subsets:
            s = set(subset)
            inside = any(s <= m for m in members)
            out.append((inside, inside,
                        math.gcd(*(fo_params[x][0] for x in subset)) > 1))
    return out


def setup_verify_exact(seed, tracer, tmp):
    jobs = []
    for spec in VERIFY_EXACT:
        p = _pattern(spec)
        family = tp.exact_family(p)
        for w in (tp.synth_skolem(family), tp.synth_boolean(family)):
            name = f"exhaustive {_spec_name(spec)} {w.backend}"

            def run(st, w=w, p=p):
                return tp.verify(tracer.oracle(tp.oracle_for(w)), w, p, exhaustive=True)

            def check(report, name=name, spec=spec):
                _check_report(name, report, _expected_exhaustive(spec))
            jobs.append(Job(name, run, check, summary=_report_summary))

    base = tp.synth_skolem(tp.exact_family(tp.make_pattern("katp", depth=5, k=3)))
    atp3 = tp.make_pattern("atp", depth=3)

    def run_reduce(st):
        tw, rr = tp.reduce_katp(base, tracer.oracle(tp.oracle_for(base)), 2)
        conj = tp.ConjunctionOracle(tp.oracle_for(base), tw)
        return rr, tp.verify(tracer.oracle(conj), tw, atp3, exhaustive=True)

    def check_reduce(out):
        rr, report = out
        # a genuine 3-ATP witness has every probe K_m consistent (criterion 5)
        expect(rr.case == "elongate" and all(ok for _, ok in rr.probes),
               f"reduce katp:3 d5: case {rr.case}, probes {rr.probes}")
        _check_report("reduce katp:3 d5 -> atp d3", report, _expected_exhaustive(
            {"kind": "atp", "depth": 3}))
    jobs.append(Job("reduce katp:3 d5 + conj verify", run_reduce, check_reduce,
                    summary=lambda out: (out[0], _report_summary(out[1]))))

    # 2310 = 2*3*5*7*11 and alpha(3) = 5, so every ATP d3 skolem parameter
    # is a divisor of 2310
    w3 = tp.synth_skolem(tp.exact_family(atp3))
    fo_witness = tp.Witness(STRUCTURE, w3.labels, {k: (v,) for k, v in w3.params.items()})
    fo = tp.FoOracle(tp.divisor_structure(2310), tp.parse_formula(FO_FORMULA), fo_witness)
    jobs.append(Job(
        "fo exhaustive atp d3 over divisors(2310)",
        lambda st: tp.verify(tracer.oracle(fo), fo_witness, atp3, exhaustive=True),
        lambda r: _check_report("fo atp d3", r, _expected_exhaustive({"kind": "atp", "depth": 3})),
        summary=_report_summary))

    families = _random_families(seed)

    def run_random(st):
        out = []
        for _, _, _, oracles, subsets in families:
            wrapped = [tracer.oracle(o) for o in oracles]
            for subset in subsets:
                out.append(tuple(o.consistent(subset) for o in wrapped))
        return out

    def check_random(out):
        want = _random_expected(families)
        bad = [i for i, (a, b) in enumerate(zip(out, want)) if a != b]
        expect(len(out) == len(want) and not bad,
               f"random families: {len(bad)} of {len(want)} subset verdicts wrong")
    jobs.append(Job(f"random families x{RANDOM_FAMILIES}, 3 oracles", run_random,
                    check_random, summary=tuple))

    # Pattern-mode verify of ATP d5 fails today: required_consistent scans
    # 2^31 subsets and hits the 2^20 cap. A fixed program gets checked here.
    p5 = tp.make_pattern("atp", depth=5)
    family5 = tp.exact_family(p5)
    # pattern mode checks every nonempty antichain and every comparable pair
    want5 = (ref.antichains_with_empty(5) - 1, len(_forbidden({"kind": "atp", "depth": 5})))
    for w in (tp.synth_skolem(family5), tp.synth_boolean(family5)):
        name = f"pattern atp d5 {w.backend}"
        jobs.append(Job(
            name,
            lambda st, w=w: tp.verify(tracer.oracle(tp.oracle_for(w)), w, p5),
            lambda r, name=name: _check_report(name, r, want5, exhaustive=False),
            summary=_report_summary, fails_with=ResourceCapError))
    return jobs


# --- type-lemmas ---

SS_LL = [(2, 3, 3), (3, 2, 3), (2, 4, 2)]
ISO_M = 12
SCAFFOLD_LEVELS = (1, 2, 3, 4)
ATOMIC_TUPLE_LEN = 3


def _scaffold_conditions(m):
    """Criterion 7 on the level-m scaffold: families pairwise strongly
    isomorphic; every maximal antichain of the depth-m tree lands, through
    the embedding, in exactly one family and distinct ones in distinct
    families; the embedding keeps closure types of pairs and atomic
    relation patterns of tuples up to ATOMIC_TUPLE_LEN."""
    s = tp.build_onevar_scaffold(m, {(0,)})
    fams = s.families
    iso = all(tp.sim0_sets(x, fams[0]) for x in fams)
    hits = []
    for y in tp.maximal_antichains(m).items:
        image = frozenset(s.embedding[n] for n in y)
        hits.append(tuple(i for i, x in enumerate(fams) if image <= x))
    landing = all(len(h) == 1 for h in hits) and len(set(hits)) == len(hits)
    nodes = sorted(s.embedding)
    emb = s.embedding
    pairs = all(tp.sim0((a, b), (emb[a], emb[b]))
                for a, b in itertools.product(nodes, repeat=2))
    atomic = all(tp.sim0_atomic(t, tuple(emb[x] for x in t))
                 for r in range(1, min(ATOMIC_TUPLE_LEN, len(nodes)) + 1)
                 for t in itertools.permutations(nodes, r))
    return s, {"iso": iso, "landing": landing, "pairs": pairs, "atomic": atomic}


def setup_type_lemmas(seed, tracer, tmp):
    jobs = []
    for b, n, length in SS_LL:
        def check(r, b=b, n=n, length=length):
            tuples = ref.permutations_count(b ** n, length)
            expect(r.passed, f"ss-ll {(b, n, length)}: counterexample {r.counterexample}")
            expect((r.tuple_count, r.pair_count) == (tuples, tuples ** 2),
                   f"ss-ll {(b, n, length)}: {r.tuple_count} tuples, {r.pair_count} pairs")
        jobs.append(Job(f"ss-ll b={b} n={n} len={length}",
                        lambda st, a=(b, n, length): tp.verify_ss_ll(*a), check,
                        summary=lambda r: (r.passed, r.tuple_count, r.pair_count)))

    def run_iso(st):
        host = tp.universal_prefix(ISO_M)
        ys = list(itertools.islice(tp_antichains.finite_antichain_stream(), ISO_M))
        return host, ys, [tp.find_iso_copy(y, host) for y in ys]

    def check_iso(out):
        host, ys, maps = out
        expect(len(set(ys)) == ISO_M and all(ref.is_antichain(y) for y in ys),
               "stream did not give distinct antichains")
        expect(ref.is_antichain(host), "universal prefix is not an antichain")
        for y, mapping in zip(ys, maps):
            ref.check_iso_copy(y, mapping, host)
    jobs.append(Job(f"iso copies m={ISO_M}", run_iso, check_iso,
                    summary=lambda out: (out[0], tuple(out[1]),
                                         tuple(tuple(sorted(m.items())) for m in out[2]))))

    def run_scaffold(st):
        return [_scaffold_conditions(m) for m in SCAFFOLD_LEVELS]

    def check_scaffold(out):
        for m, (s, conditions) in zip(SCAFFOLD_LEVELS, out):
            expect(len(s.families) == ref.alpha(m),
                   f"scaffold m={m}: {len(s.families)} families, expected {ref.alpha(m)}")
            expect(all(ref.is_antichain(x) for x in s.families),
                   f"scaffold m={m}: a family is not an antichain")
            failed = [k for k, ok in conditions.items() if not ok]
            expect(not failed, f"scaffold m={m}: conditions {failed} fail")
    jobs.append(Job(f"scaffold m<={max(SCAFFOLD_LEVELS)} + sim0 conditions",
                    run_scaffold, check_scaffold,
                    summary=lambda out: tuple((s.families, tuple(c.items())) for s, c in out)))
    return jobs


# --- cli-pipeline ---

def _cli_job(name, step, args, tmp, tracer, check):
    """One child process, bench/child.py running `treeprop <args>` (or only
    importing treeprop.cli when args is empty), in the scratch directory. The
    child records spans when the pass is traced."""
    bench = os.path.dirname(os.path.abspath(__file__))
    report = os.path.join(tmp, f"clock-{step}.json")
    child = [sys.executable, os.path.join(bench, "child.py"), report]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(bench), "src"), bench]))

    outputs = [os.path.join(tmp, f"{stream}-{step}.txt") for stream in ("stdout", "stderr")]

    def run(st):
        if os.path.exists(report):
            os.remove(report)
        cmd = child + ["1" if tracer.active else "0"] + args
        # Output goes to files, not pipes: the child's SIGALRM sampler
        # interrupting a write blocked on a full pipe lost output (a 78 KB
        # DOT came back as its first 64 KB in about 1 of 40 runs).
        with open(outputs[0], "w") as out, open(outputs[1], "w") as err:
            code = subprocess.run(cmd, cwd=tmp, env=env, stdout=out, stderr=err,
                                  timeout=150).returncode
        texts = []
        for path in outputs:
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
        if not os.path.exists(report):
            raise RuntimeError(f"{name}: child exited {code} without a report: "
                               f"{texts[1].strip()[-300:]}")
        with open(report, encoding="utf-8") as fh:
            return code, texts[0], texts[1], json.load(fh)

    def checked(out):
        rc, stdout, stderr, _ = out
        expect(rc == 0, f"{name}: exit code {rc}: {stderr.strip()[-300:]}")
        check(stdout)
    return Job(name, run, checked, summary=lambda out: out[:2], cli_step=step)


def _verify_json(name, spec):
    def check(stdout):
        data = json.loads(stdout)
        want = _expected_exhaustive(spec)
        got = (data["consistent_checked"], data["inconsistent_checked"])
        expect(data["pass"] and data["mode"] == "exhaustive" and got == want,
               f"{name}: {data}, expected counts {want}")
    return check


def _dot_check(stdout):
    lines = stdout.splitlines()
    labels = ref.tree_labels(2, 3)
    expect(lines[0] == "digraph witness {" and lines[-1] == "}", "export-dot: not a digraph")
    expect(sum("[label=" in l for l in lines) == len(labels)
           and sum("->" in l for l in lines) == len(labels) - 1,
           "export-dot: wrong node or edge count for atp d3")


def _ss_ll_json(stdout):
    data = json.loads(stdout)
    tuples = ref.permutations_count(8, 3)
    expect(data == {"pass": True, "tuples": tuples, "pairs": tuples ** 2},
           f"check-lemma ss-ll: {data}")


def setup_cli_pipeline(seed, tracer, tmp):
    nothing = lambda stdout: None
    return [
        _cli_job("import treeprop.cli", "start", [], tmp, tracer, nothing),
        _cli_job("synth katp:3 d5 skolem", "synth",
                 ["synth", "--pattern", "katp:3", "--depth", "5", "--backend", "skolem",
                  "--out", "katp3.json"], tmp, tracer, nothing),
        _cli_job("transform reduce --k 2", "transform",
                 ["transform", "reduce", "--witness", "katp3.json", "--k", "2",
                  "--out", "reduced.json"], tmp, tracer, nothing),
        _cli_job("verify reduced --exhaustive", "verify",
                 ["verify", "--witness", "reduced.json", "--exhaustive"], tmp, tracer,
                 _verify_json("verify reduced", {"kind": "atp", "depth": 3})),
        _cli_job("export-dot reduced", "export_dot",
                 ["export-dot", "--witness", "reduced.json"], tmp, tracer, _dot_check),
        _cli_job("synth atp d4 boolean", "synth",
                 ["synth", "--pattern", "atp", "--depth", "4", "--backend", "boolean",
                  "--out", "atp4.json"], tmp, tracer, nothing),
        _cli_job("verify atp d4 --exhaustive", "verify",
                 ["verify", "--witness", "atp4.json", "--exhaustive"], tmp, tracer,
                 _verify_json("verify atp d4", {"kind": "atp", "depth": 4})),
        _cli_job("check-lemma ss-ll --n 3 --len 3", "check_lemma",
                 ["check-lemma", "ss-ll", "--n", "3", "--len", "3"], tmp, tracer, _ss_ll_json),
    ]


WORKLOADS = {
    "build-deep": setup_build_deep,
    "verify-exact": setup_verify_exact,
    "type-lemmas": setup_type_lemmas,
    "cli-pipeline": setup_cli_pipeline,
}
