import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import carnot
from carnot import catalog
from carnot.algebra import AlgebraVector

OPTIMIZED_RUNNER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "optimized_runner.py")


def rational_vector(algebra, rng, num_bound=5, den_bound=4):
    coords = [Fraction(int(rng.integers(-num_bound, num_bound + 1)),
                       int(rng.integers(1, den_bound))) for _ in range(algebra.dim)]
    return AlgebraVector(algebra, coords)


def is_primitive(v):
    """True iff the integer form of the exact vector v is (nums, den) with
    int entries, den > 0 and gcd(den, *nums) == 1."""
    nums, den = v.int_form
    return (len(nums) == v.algebra.dim and type(den) is int and den > 0
            and all(type(n) is int for n in nums) and math.gcd(den, *nums) == 1)


def run_optimized(probes, workdir):
    """Run every probe of `probes` ({id: {"cwd", "argv" or "script"}}, see
    optimized_runner.py) in one `python -O` interpreter, where asserts are
    compiled out; {id: {"code", "stdout", "stderr"}}, as each probe would
    give in a process of its own.  workdir keeps the probe and result files."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(carnot.__file__)))
    probes_path, results_path = workdir / "probes.json", workdir / "results.json"
    probes_path.write_text(json.dumps(probes))
    run = subprocess.run([sys.executable, "-O", OPTIMIZED_RUNNER, str(probes_path),
                          str(results_path)], env=env, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr
    return json.loads(results_path.read_text())


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def h1():
    return catalog.get("h1")


@pytest.fixture(scope="session")
def h2():
    return catalog.get("h2")


@pytest.fixture(scope="session")
def h12():
    return catalog.get("h12")


@pytest.fixture(scope="session")
def g42():
    return catalog.get("g42")


@pytest.fixture(scope="session")
def f23():
    return catalog.get("free_2_3")
