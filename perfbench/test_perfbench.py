"""The benchmark's own checks, on one round per workload:

    python3 -m pytest -q perfbench/test_perfbench.py

For every workload: one seed gives one digest, traced or untraced; the
traced counts repeat exactly; another seed gives other inputs; the tracer
leaves no wrapper behind.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from carnot import bch  # noqa: E402
from carnot.algebra import GradedAlgebra  # noqa: E402


def _line(lines, prefix):
    return next(l[len(prefix):] for l in lines if l.startswith(prefix))


def _run(name, seed, trace, tmp_path):
    result, lines = harness.run(name, seed, 0.0, trace, str(tmp_path / "work"),
                                max_rounds=1)
    assert result["correct"], [l for l in lines if l.startswith("FAILED")]
    return result, lines


@pytest.mark.parametrize("name", ["exact_law", "classify", "analytic"])
def test_digest_and_counts_repeat(name, tmp_path):
    _, plain = _run(name, 3, False, tmp_path)
    res1, traced1 = _run(name, 3, True, tmp_path)
    _, traced2 = _run(name, 3, True, tmp_path)
    _, other = _run(name, 4, False, tmp_path)
    digest = _line(plain, "digest: ")
    assert _line(traced1, "digest: ").split() == [digest, digest]
    assert _line(traced2, "digest: ").split() == [digest, digest]
    assert _line(other, "digest: ") != digest
    assert json.loads(_line(traced1, "trace counts: ")) == \
        json.loads(_line(traced2, "trace counts: "))
    assert res1["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert not hasattr(bch.group_product, "__wrapped__")
    assert not hasattr(GradedAlgebra.bracket_coords, "__wrapped__")
