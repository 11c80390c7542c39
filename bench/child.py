"""Run one treeprop CLI command in this process under the host reference
sampler, and write what the sampler saw to a report file for the parent.

    python3 bench/child.py REPORT.json TRACE [CLI ARGUMENTS...]

With no CLI arguments the child only imports treeprop.cli. With TRACE 1 it
records spans around treeprop's functions (bench/spans.py), as a traced pass
of the parent does. The exit code is the command's. REPORT.json gets
{"stolen_s", "ref_s", "maxrss_kb", "trace"}: the time the sampler took from
the process, its mean reference-loop time, this process's peak resident
memory and the recorded spans (null when not tracing). It is written
whatever way the command ends, argparse's SystemExit included.
"""

import json
import resource
import sys

import hostclock
import spans


def main() -> int:
    report, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    clock = hostclock.HostClock()
    tracer = spans.Tracer(clock.now) if trace else None

    def command():
        import treeprop.cli
        if tracer is not None:
            tracer.install()
        return treeprop.cli.main(argv) if argv else 0

    clock.start()
    try:
        code, error, _, _ = clock.time(command)
    finally:
        clock.stop()
        with open(report, "w", encoding="utf-8") as fh:
            json.dump({"stolen_s": clock.stolen, "ref_s": clock.reference(),
                       "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       "trace": tracer.export() if tracer is not None else None}, fh)
    if error is not None:
        raise error
    return code


if __name__ == "__main__":
    sys.exit(main())
