"""Run treeprop CLI commands and library calls, each in a forked child
process under an address-space limit and an alarm, and report how each one
ended.

Reads a JSON list of argument lists on stdin and writes one JSON list of
[status, stderr text] pairs on stdout. An argument list is a CLI command,
or ["call", "<module>.<function>", arg, ...], which calls that function of
treeprop with the given arguments. The status is the command's exit code (a
call gives 0 when it returns, 3 on a ResourceCapError with one stderr line,
and 1 with the traceback on any other exception), or -N when signal N ended
the child (SIGALRM at the time limit). The module imports treeprop once and
runs every treeprop module before it forks per run, so no run pays for the
interpreter's start-up or for loading a module, and a run that allocates
without bound meets the limit as a MemoryError in its own child. The process
starts no thread, so forking it is safe.

    python tests/sweep_child.py < argvs.json
"""

import importlib
import json
import os
import resource
import signal
import sys
import tempfile
import traceback

import treeprop.cli
from treeprop.errors import ResourceCapError

MEMORY_LIMIT = 512 * 2 ** 20  # bytes of address space per run
TIME_LIMIT = 10  # seconds per run


def _call(name, args) -> int:
    """Call treeprop.<module>.<function>(*args), given name "<module>.<function>"."""
    module, function = name.rsplit(".", 1)
    try:
        getattr(importlib.import_module(f"treeprop.{module}"), function)(*args)
    except ResourceCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return 0


def _child(argv, err_path) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    signal.alarm(TIME_LIMIT)
    with open(os.devnull, "w") as out, open(err_path, "w") as err:
        sys.stdout, sys.stderr = out, err
        try:
            code = _call(argv[1], argv[2:]) if argv[0] == "call" else treeprop.cli.main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what an uncaught error would print, and exit 1
            traceback.print_exc()
            code = 1
        sys.stderr.flush()
    return code


def run(argv, workdir):
    """Run one command in a forked child in workdir: (status, stderr text)."""
    err_path = os.path.join(workdir, "stderr.txt")
    open(err_path, "w").close()  # read back even if the child dies at once
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.chdir(workdir)
            code = _child(argv, err_path)
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        err = fh.read(4096)
    return os.waitstatus_to_exitcode(status), err


def main() -> None:
    argvs = json.load(sys.stdin)
    # treeprop runs a module when its namespace is first read: read each one
    # here, so that no forked run compiles a module again
    for name, module in list(sys.modules.items()):
        if name.startswith("treeprop."):
            vars(module)
    with tempfile.TemporaryDirectory() as workdir:
        results = [run(argv, workdir) for argv in argvs]
    json.dump(results, sys.stdout)


if __name__ == "__main__":
    main()
