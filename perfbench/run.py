"""carnot benchmark: three seeded closed-loop workloads over the exact and
float stacks, with per-layer metrics from a traced run.

    python3 perfbench/run.py --workload exact_law --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: exact_law, classify, analytic (see workloads.py).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see layers.py).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  ``--workload
all`` runs every workload in its own process and prints a table.

The library is imported from ``src/`` next to this directory; without it the
run exits with a non-zero code and prints no result.
"""

import time

import refspeed

REF_AT_START = refspeed.ref_time(3)
T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("exact_law", "classify", "analytic")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Put the checkout's src/ first on the path and import carnot from it,
    then the harness.  Each heavy import is bracketed by reference blocks;
    returns the time from process start to here, as wall-clock seconds and
    at reference speed."""
    if not os.path.isfile(os.path.join(SRC, "carnot", "__init__.py")):
        raise SystemExit("carnot sources not found under %s" % SRC)
    sys.path.insert(0, SRC)
    wall = scaled = 0.0
    ref_before, t_prev = REF_AT_START, T_START
    for name in ("numpy", "sympy", "carnot", "harness"):
        importlib.import_module(name)
        dt = time.perf_counter() - t_prev
        ref_after = refspeed.ref_time(3)
        wall += dt
        scaled += dt * refspeed.scale(ref_before, ref_after)
        ref_before, t_prev = ref_after, time.perf_counter()
    carnot = sys.modules["carnot"]
    if os.path.dirname(os.path.dirname(os.path.abspath(carnot.__file__))) != SRC:
        raise SystemExit("carnot was imported from %s, not %s" % (carnot.__file__, SRC))
    return wall, scaled


def run_all(args):
    """Every workload in its own process; a table of the end-to-end metrics."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        for line in out[:-1]:
            print("[%s] %s" % (name, line))
        if proc.returncode != 0 or not out:
            raise SystemExit("workload %s exited %d" % (name, proc.returncode))
        results[name] = json.loads(out[-1])
    first = results[NAMES[0]]["metrics"]
    print("%-28s" % "metric" + "".join("%14s" % n for n in NAMES))
    for metric_name, entry in first.items():
        cells = "".join("%14.6g" % results[n]["metrics"][metric_name]["value"]
                        for n in NAMES)
        print("%-28s" % ("%s [%s]" % (metric_name, entry["unit"])) + cells)
    print("%-28s" % "fail_ratio [1]" + "".join(
        "%14.6g" % (results[n]["failed"] / results[n]["attempted"]) for n in NAMES))
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_s, import_scaled = import_library()
    harness = sys.modules["harness"]
    workdir = os.path.join(HERE, "out", "work-%s-%d" % (args.workload, args.trace))
    try:
        result, lines = harness.run(args.workload, args.seed, args.seconds,
                                    bool(args.trace), workdir, import_s=import_s,
                                    import_scaled=import_scaled)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
