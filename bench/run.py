"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload build-deep --seed 1 --seconds 15 --trace 0

The workload's job list runs as repeated closed-loop passes, one job at a
time in this single-threaded process, until --seconds have passed; a pass
is never cut short. With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics; with --trace 1 passes alternate between
untraced and traced, and the object holds the per-layer metrics of the
traced passes plus the tracing overhead. Set-up (importing the program and
building the workload's inputs) is timed in this process and in
SETUP_REPEATS - 1 fresh child processes, so every sample starts cold; the
children are this script with --setup-report. Every run also writes
BENCH_<label>.json (and, when traced, BENCH_<label>.trace.json with the
spans) at the repository root.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("build-deep", "verify-exact", "type-lemmas", "cli-pipeline")
SETUP_REPEATS = 3

END_TO_END = {"round_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and recorded, but not gated: they follow the host's speed, which
# drifts by 10-30% here (see README).
UNGATED = {"round_s": "s", "setup_wall_s": "s"}

PER_LAYER = {
    "patterns.exact_family.busy_s": "s",
    "patterns.exact_family.members": "count",
    "patterns.verify.busy_s": "s",
    "patterns.verify.self_s": "s",
    "patterns.verify.subsets": "count",
    "patterns.verify.failed": "count",
    "oracles.gcd.calls": "count",
    "oracles.gcd.busy_s": "s",
    "oracles.bitset.calls": "count",
    "oracles.bitset.busy_s": "s",
    "oracles.fo.calls": "count",
    "oracles.fo.busy_s": "s",
    "oracles.conj.calls": "count",
    "oracles.conj.busy_s": "s",
    "synth.skolem.busy_s": "s",
    "synth.boolean.busy_s": "s",
    "synth.param_bits": "bits",
    "antichains.busy_s": "s",
    "antichains.items": "count",
    "qftypes.ss_ll.busy_s": "s",
    "qftypes.ss_ll.tuples": "count",
    "qftypes.ss_ll.pairs": "count",
    "qftypes.sim0.calls": "count",
    "qftypes.sim0.busy_s": "s",
    "transforms.busy_s": "s",
    "transforms.probes": "count",
    "witnessio.dumps_s": "s",
    "witnessio.loads_s": "s",
    "witnessio.bytes": "bytes",
    "cli.start_s": "s",
    "cli.synth_s": "s",
    "cli.transform_s": "s",
    "cli.verify_s": "s",
    "cli.export_dot_s": "s",
    "cli.check_lemma_s": "s",
    "cli.child_cpu_s": "s",
    "trace.overhead_pct": "%",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="BENCH_<label>.json name (default: the workload)")
    # set up once, write the set-up figures to this file and exit
    parser.add_argument("--setup-report", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import treeprop from this checkout's src/ and the benchmark modules
    that use it; fail when the sources are not there."""
    import treeprop

    where = os.path.dirname(os.path.abspath(treeprop.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"treeprop imported from {where}, not from {SRC}")
    import spans
    import workloads
    return spans, workloads


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
    }


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_passes(jobs, seconds, trace_mode, clock, tracer):
    """Run whole passes until `seconds` have passed (and, when tracing, at
    least one untraced and one traced pass have run)."""
    passes, first, errors = [], {}, []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = trace_mode and len(passes) % 2 == 1
        # Passes leave cyclic garbage that a full collection frees only now
        # and then; without this, peak RSS grew with the number of passes
        # (33.4 MB after 3 build-deep passes, 35.4 MB after 4).
        gc.collect()
        clock.start()
        if traced:
            tracer.install()
        cpu0 = children_cpu_s()
        state, job_s, job_ref, child_kb = {}, [], [], 0
        try:
            for job in jobs:
                out, err, secs, ref = clock.time(lambda: job.run(state),
                                                 sample=job.cli_step is None)
                if err is None and job.cli_step is not None:
                    # the child sampled the reference itself, on its own core,
                    # and recorded spans itself when the pass is traced
                    report = out[3]
                    secs -= report["stolen_s"]
                    ref = report["ref_s"]
                    child_kb = max(child_kb, report["maxrss_kb"])
                    if traced:
                        tracer.merge(report["trace"])
                attempted += 1
                job_s.append(secs)
                job_ref.append(ref)
                if err is not None:
                    failed += 1
                    if not (job.fails_with and isinstance(err, job.fails_with)):
                        errors.append(f"{job.name}: {type(err).__name__}: {err}")
                    continue
                try:
                    # only a hash of the first pass's output is kept, so
                    # memory does not depend on how many passes run
                    if job.name not in first:
                        job.check(out)
                        first[job.name] = hash(job.summary(out))
                    elif hash(job.summary(out)) != first[job.name]:
                        errors.append(f"{job.name}: output differs from the first pass")
                except Exception as exc:  # a failed check marks the run incorrect
                    errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
        finally:
            if traced:
                tracer.remove()
            clock.stop()
        passes.append({
            "traced": traced,
            "seconds": sum(job_s),
            # a job with no reference (a CLI child that wrote no report) has
            # already failed and made the run incorrect
            "ref_units": sum(s / r for s, r in zip(job_s, job_ref) if r is not None),
            "children_cpu_s": children_cpu_s() - cpu0,
            "child_maxrss_kb": child_kb,
            "job_seconds": job_s,
        })
        kinds = {p["traced"] for p in passes}
        if time.perf_counter() - start >= seconds and (not trace_mode or len(kinds) == 2):
            return passes, attempted, failed, sorted(set(errors))


def layer_metrics(tracer, jobs, passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    m = {}

    def spans_sum(name, pick=lambda v: v):
        return sum(pick(v) for v in tracer.measures(name) if not isinstance(v, str))

    m["patterns.exact_family.busy_s"] = tracer.busy("patterns.exact_family")
    m["patterns.exact_family.members"] = spans_sum("patterns.exact_family")
    m["patterns.verify.busy_s"] = tracer.busy("patterns.verify")
    m["patterns.verify.self_s"] = tracer.self_time("patterns.verify")
    m["patterns.verify.subsets"] = spans_sum("patterns.verify", lambda v: v[0])
    m["patterns.verify.failed"] = sum(
        1 for v in tracer.measures("patterns.verify") if isinstance(v, str) or not v[1])
    for kind in ("gcd", "bitset", "fo", "conj"):
        calls, busy = tracer.hot.get("oracles." + kind, (0, 0.0))
        m[f"oracles.{kind}.calls"] = calls
        m[f"oracles.{kind}.busy_s"] = busy
    m["synth.skolem.busy_s"] = tracer.busy("synth.skolem")
    m["synth.boolean.busy_s"] = tracer.busy("synth.boolean")
    m["synth.param_bits"] = spans_sum("synth.skolem") + spans_sum("synth.boolean")
    m["antichains.busy_s"] = tracer.busy("antichains")
    m["antichains.items"] = sum(
        spans_sum(name) for name in ("antichains.enumerate_antichains",
                                     "antichains.maximal_antichains",
                                     "antichains.maximal_chain_free_binary"))
    m["qftypes.ss_ll.busy_s"] = tracer.busy("qftypes.ss_ll")
    m["qftypes.ss_ll.tuples"] = spans_sum("qftypes.ss_ll", lambda v: v[0])
    m["qftypes.ss_ll.pairs"] = spans_sum("qftypes.ss_ll", lambda v: v[1])
    calls, busy = tracer.hot.get("qftypes.sim0", (0, 0.0))
    m["qftypes.sim0.calls"] = calls
    m["qftypes.sim0.busy_s"] = busy
    m["transforms.busy_s"] = tracer.busy("transforms")
    m["transforms.probes"] = spans_sum("transforms.reduce_katp")
    m["witnessio.dumps_s"] = tracer.busy("witnessio.dumps")
    m["witnessio.loads_s"] = tracer.busy("witnessio.loads")
    m["witnessio.bytes"] = spans_sum("witnessio.dumps")
    for step in ("start", "synth", "transform", "verify", "export_dot", "check_lemma"):
        m[f"cli.{step}_s"] = sum(p["job_seconds"][i] for p in traced
                                 for i, job in enumerate(jobs) if job.cli_step == step)
    m["cli.child_cpu_s"] = (sum(p["children_cpu_s"] for p in traced)
                            if any(job.cli_step for job in jobs) else 0)
    out = {name: value / n for name, value in m.items()}  # per traced pass
    # host-corrected pass times, so the host's drift between passes does
    # not pass for the spans' cost
    plain = statistics.median(p["ref_units"] for p in passes if not p["traced"])
    out["trace.overhead_pct"] = 100 * (statistics.median(p["ref_units"] for p in traced)
                                       / plain - 1)
    return out


def cold_setup(args, clock, tmp):
    """Import the program and build the workload's inputs once, in this
    process, under the host reference sampler. Returns the tracer, the jobs
    and the set-up time, as measured (setup_wall_s) and corrected to the
    nominal host speed (setup_s); see hostclock.py."""
    import hostclock

    clock.start()
    try:
        modules, error, import_s, import_ref = clock.time(import_program)
        if error is not None:
            raise error
        spans, workloads = modules
        tracer = spans.Tracer(clock.now)
        jobs, error, build_s, build_ref = clock.time(
            lambda: workloads.WORKLOADS[args.workload](args.seed, tracer, tmp))
        if error is not None:
            raise error
    finally:
        clock.stop()
    return tracer, jobs, {
        "setup_s": hostclock.NOMINAL_REF_S * (import_s / import_ref + build_s / build_ref),
        "setup_wall_s": import_s + build_s,
        "import_s": import_s, "build_s": build_s,
    }


def setup_in_child(args, tmp) -> dict:
    """One more cold set-up, in a fresh process: the program's own caches,
    such as the prime table of synth, start empty there as in a new user
    process, where in this one they are already filled."""
    path = os.path.join(tmp, "setup.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-report", path]
    subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=150)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [SRC, BENCH]
    import hostclock

    clock = hostclock.HostClock()
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    label = args.label or args.workload + ("-trace" if args.trace else "")
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        try:
            tracer, jobs, first = cold_setup(args, clock, tmp)
        except ImportError as exc:
            sys.stderr.write(f"bench: cannot import the program from {SRC}: {exc}\n")
            return 2
        if args.setup_report:
            with open(args.setup_report, "w", encoding="utf-8") as fh:
                json.dump(first, fh)
            return 0
        samples = [first] + [setup_in_child(args, tmp) for _ in range(SETUP_REPEATS - 1)]
        setup_s = statistics.median(s["setup_s"] for s in samples)
        setup_wall_s = statistics.median(s["setup_wall_s"] for s in samples)
        passes, attempted, failed, errors = run_passes(
            jobs, args.seconds, bool(args.trace), clock, tracer)
    finally:
        clock.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        values = layer_metrics(tracer, jobs, passes)
        units = PER_LAYER
    else:
        if any(j.cli_step for j in jobs):  # the largest child
            peak_kb = max(p["child_maxrss_kb"] for p in passes)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "round_s": statistics.median(p["seconds"] for p in plain),
            "round_ref": statistics.median(p["ref_units"] for p in plain),
            "setup_s": setup_s,
            "setup_wall_s": setup_wall_s,
            "peak_rss_mb": peak_kb / 1024,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {
        "label": label, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "started_utc": started,
        "host": host_info(), "setup_samples": samples,
        "jobs": [j.name for j in jobs], "passes": passes, "errors": errors,
        "values": values, **result,
    }
    with open(os.path.join(ROOT, f"BENCH_{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(ROOT, f"BENCH_{label}.trace.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)

    shown = {**units, **({} if args.trace else UNGATED)}
    for name, unit in shown.items():
        print(f"{args.workload:13s} {name:32s} {values[name]:14.6g} {unit}")
    for err in errors:
        print(f"check failed: {err}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
