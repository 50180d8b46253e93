"""Run input-check probes in one `python -O` interpreter.

    python -O tests/optimized_runner.py PROBES.json RESULTS.json

PROBES.json maps each probe id to {"cwd": dir, "argv": [...]} (a `carnot`
command line, run through carnot.cli.main) or {"cwd": dir, "script": "..."}
(Python source, run by exec in a fresh namespace).  Each probe runs in its
own directory with stdout and stderr captured.  RESULTS.json maps each id to
{"code", "stdout", "stderr"}: the exit status that the probe would give as
its own process, 1 with the traceback on stderr for an uncaught exception.
The tests read the results through conftest.run_optimized.
"""

import contextlib
import io
import json
import os
import sys
import traceback


def _exit_status(exc):
    """The status a process exits with on SystemExit(exc.code)."""
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    print(exc.code, file=sys.stderr)
    return 1


def _run(probe):
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(probe["cwd"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if "argv" in probe:
                    from carnot.cli import main
                    raise SystemExit(main(probe["argv"]))
                exec(compile(probe["script"], "<probe>", "exec"), {"__name__": "__main__"})
                code = 0
            except SystemExit as exc:
                code = _exit_status(exc)
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        os.chdir(home)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(probes_path, results_path):
    if not sys.flags.optimize:
        sys.exit("optimized_runner.py checks code with asserts compiled out; "
                 "run it under python -O")
    with open(probes_path) as f:
        probes = json.load(f)
    results = {name: _run(probe) for name, probe in probes.items()}
    with open(results_path, "w") as f:
        json.dump(results, f)


if __name__ == "__main__":
    main(*sys.argv[1:])
