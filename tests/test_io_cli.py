import json
import re
from fractions import Fraction as Q

import numpy as np
import pytest

from carnot import catalog
from carnot import io as cio
from carnot.cli import main
from conftest import run_optimized


def test_group_roundtrip_bit_exact(tmp_path, h12, g42):
    for g in (h12, g42, catalog.get("free_2_3")):
        text = cio.emit_group(g)
        p = tmp_path / "g.json"
        p.write_text(text)
        g2 = cio.load_group(str(p))
        assert g2.layer_of == g.layer_of
        assert g2.struct == g.struct
        assert cio.emit_group(g2) == text  # canonical: bit-identical re-emission


def test_rationals_roundtrip():
    assert cio.parse_rational("-3/7") == Q(-3, 7)
    assert cio.parse_rational("5") == 5
    assert cio.format_rational(Q(6, 4)) == "3/2"
    v = cio.parse_vector("1,0,1/2", dim=3)
    assert v == (1, 0, Q(1, 2))
    assert cio.format_vector(v) == "1,0,1/2"
    with pytest.raises(ValueError):
        cio.parse_vector("1,2", dim=3)


def test_validate_group_file(tmp_path):
    bad = {"name": "bad", "dim": 3, "step": 2, "layers": [1, 1, 2],
           "basis_names": ["x", "y", "z"],
           "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1, "num": 1, "den": 1}]}]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    report, err = cio.validate_group_file(str(p))
    assert err is None and not report.ok
    assert any(v["kind"] == "grading" for v in report.violations)
    p2 = tmp_path / "broken.json"
    p2.write_text("{not json")
    report2, err2 = cio.validate_group_file(str(p2))
    assert report2 is None and "line 1" in err2


def test_cli_group_and_catalog(capsys):
    assert main(["group", "info", "h1"]) == 0
    out = capsys.readouterr().out
    assert "dim: 3" in out and "stratified: True" in out
    assert main(["catalog", "list"]) == 0
    assert "h12" in capsys.readouterr().out
    assert main(["group", "emit", "--catalog", "h2_1"]) == 0
    emitted = capsys.readouterr().out
    assert json.loads(emitted)["dim"] == 6


def test_cli_algebra(capsys):
    assert main(["algebra", "product", "h1", "1,0,0", "0,1,0"]) == 0
    assert capsys.readouterr().out.strip() == "1,1,1/2"
    assert main(["algebra", "term", "-n", "2", "h1", "1,0,0", "0,1,0"]) == 0
    assert capsys.readouterr().out.strip() == "0,0,1/2"
    assert main(["algebra", "oracle", "h1", "--trials", "25"]) == 0
    assert "OK" in capsys.readouterr().out
    assert main(["algebra", "decompose", "-n", "2", "h1"]) == 0
    out = capsys.readouterr().out
    assert "1 1/2" in out and "2 0" in out


def test_cli_validate_exit_code(tmp_path, capsys):
    bad = {"name": "bad", "dim": 3, "step": 2, "layers": [1, 1, 2],
           "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1, "num": 1, "den": 1}]}],
           "basis_names": ["x", "y", "z"]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["group", "validate", str(p)]) == 2
    good = tmp_path / "good.json"
    good.write_text(cio.emit_group(catalog.get("h1")))
    assert main(["group", "validate", str(good)]) == 0


def test_cli_subgroups(tmp_path, capsys):
    mor = {"domain": "h1", "codomain": "r2",
           "matrix": [["1", "0", "0"], ["0", "1", "0"]]}
    p = tmp_path / "mor.json"
    p.write_text(json.dumps(mor))
    assert main(["subgroups", "classify-epi", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "surjective_not_epi"
    assert out["certificate"]["reason"] == "affine_infeasible"
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"vectors": [["0", "1", "0"], ["0", "0", "1"]]}))
    assert main(["subgroups", "complement", "--group", "h1", str(sub)]) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert out2["verdict"] == "h_epimorphism"
    assert main(["subgroups", "quotient", "--group", "h1", str(sub)]) == 0
    out3 = json.loads(capsys.readouterr().out)
    assert out3["quotient"]["dim"] == 1


def test_cli_subgroups_mono(tmp_path, capsys):
    mor = {"domain": "r1", "codomain": "h1", "matrix": [["1"], ["0"], ["0"]]}
    p = tmp_path / "mono.json"
    p.write_text(json.dumps(mor))
    assert main(["subgroups", "classify-mono", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "h_monomorphism"
    assert out["witness_basis"]


def test_cli_complement_undecided_exit_4(tmp_path, capsys):
    # a non-ideal of free_2_3 that holds the whole second layer: a
    # complement would hold x1, x2 and so [x2, x1], yet its second layer is
    # zero, so none exists, and no exact tier proves it.  The verdict does
    # not depend on --seed, and the command exits 4
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"vectors": [["0", "0", "1", "0", "0"],
                                           ["0", "0", "0", "1", "1"]]}))
    texts = []
    for seed in ("0", "9"):
        assert main(["--seed", seed, "subgroups", "complement",
                     "--group", "free_2_3", str(sub)]) == 4
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    out = json.loads(texts[0])
    assert out["verdict"] == "undecided"
    assert out["certificate"]["reason"] == "no_exact_tier"


def test_cli_experiment_lift(tmp_path, capsys):
    cfg = {"group": "h1", "control": {"name": "square"}, "steps": 400}
    p = tmp_path / "square.json"
    p.write_text(json.dumps(cfg))
    assert main(["--output-dir", str(tmp_path), "experiment", "lift", str(p)]) == 0
    summary = json.loads((tmp_path / "square_summary.json").read_text())
    assert abs(summary["endpoint"][2] - 1.0) <= 1e-8
    assert summary["horizontal"]
    # manifest records input hash and outputs
    manifest = json.loads((tmp_path / "square_manifest.json").read_text())
    assert str(p) in manifest["inputs"]
    assert any(o.endswith("square_curve.csv") for o in manifest["outputs"])
    # csv has full-precision numbers
    header = (tmp_path / "square_curve.csv").read_text().splitlines()[0]
    assert header == "t,x1,y1,z"


def test_cli_experiment_estimates(tmp_path, capsys):
    cfg = {"group": "h1", "nu": 1.0, "samples": 300}
    p = tmp_path / "est.json"
    p.write_text(json.dumps(cfg))
    assert main(["--output-dir", str(tmp_path), "experiment",
                 "verify-estimates", str(p)]) == 0
    lines = (tmp_path / "est_constants.csv").read_text().splitlines()
    assert lines[0] == "label,nu,samples,sup"
    assert len(lines) > 5


def test_cli_experiment_determinism(tmp_path, capsys):
    cfg = {"group": "h1", "control": {"name": "circle"}, "steps": 256,
           "t": 0.4, "scales": [1e-1, 1e-2]}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    outs = []
    for _ in range(2):
        assert main(["--output-dir", str(tmp_path), "--seed", "7",
                     "experiment", "pansu", str(p)]) == 0
        capsys.readouterr()
        outs.append((tmp_path / "c_quotient.csv").read_text())
    assert outs[0] == outs[1]


def test_cli_experiment_solver_failure_exit_code(tmp_path, capsys):
    # a one-iteration Newton budget cannot converge: shrink attempts
    # exhaust and the command reports a solver failure
    cfg = {"map": "radial_level", "base_point": [0, 1, 0, 1, 0],
           "radius": 0.3, "counts": [3, 3, 1], "budget": 1,
           "shrink_attempts": 1}
    p = tmp_path / "imp.json"
    p.write_text(json.dumps(cfg))
    assert main(["--output-dir", str(tmp_path), "experiment",
                 "implicit", str(p)]) == 3
    # so does a lift whose Richardson estimate stays above tol at 4 steps
    p = tmp_path / "lift.json"
    p.write_text(json.dumps({"group": "h1", "control": {"name": "circle"}, "steps": 4}))
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), "experiment", "lift", str(p)]) == 3
    assert "integrator error estimate" in json.loads(capsys.readouterr().out)["error"]


def _bad_weights_argv(directory):
    """verify-estimates on h1 with a group-file metric block of bad weights."""
    group = cio.group_to_dict(catalog.get("h1"))
    group["metric"] = {"kind": "weighted_max", "weights": [1, -1]}
    gfile = directory / "g.json"
    gfile.write_text(json.dumps(group))
    cfg = directory / "est.json"
    cfg.write_text(json.dumps({"group": str(gfile), "samples": 100}))
    return ["--output-dir", str(directory), "experiment", "verify-estimates", str(cfg)]


def test_cli_estimates_bad_metric_weights(request, tmp_path, capsys):
    # the metric block of a group file is input: bad weights are a
    # validation failure (exit 2), also under python -O
    from carnot.metric import HomogeneousMetric
    h1 = catalog.get("h1")
    for weights in ([1, -1], [1.0], [1, "x"]):
        with pytest.raises(ValueError, match="weights"):
            HomogeneousMetric(h1, "weighted_max", weights)
    assert main(_bad_weights_argv(tmp_path)) == 2
    assert "weights" in capsys.readouterr().out
    run = request.getfixturevalue("optimized_runs")["metric-weights"]
    assert run["code"] == 2 and "weights" in run["stdout"] and not run["stderr"]


def test_group_file_metric_block_checked(tmp_path, capsys):
    # both group-file parsers apply HomogeneousMetric's rule to the metric
    # block, and `group validate` names the field at fault
    group = cio.group_to_dict(catalog.get("h1"))
    path = tmp_path / "g.json"
    bad = {"metric.kind": [{"kind": "euclid"}],
           "metric.weights": [{"kind": "weighted_max", "weights": [1, -1]},
                              {"kind": "weighted_max", "weights": [1.0]},
                              {"kind": "weighted_max", "weights": [1, float("nan")]},
                              {"kind": "weighted_max", "weights": [1, "x"]},
                              {"kind": "weighted_max", "weights": [1, None]}]}
    for field, specs in bad.items():
        for spec in specs:
            group["metric"] = spec
            path.write_text(json.dumps(group))
            with pytest.raises(ValueError, match=field):
                cio.parse_group_dict(group)
            report, err = cio.validate_group_file(str(path))
            assert report is None and field in err
    group["metric"] = {"kind": "weighted_max", "weights": [1, 2]}
    assert cio.parse_group_dict(group).tags["metric_spec"] == group["metric"]
    path.write_text(json.dumps(group))
    assert cio.validate_group_file(str(path))[0].ok


def test_cli_group_validate_bad_metric_weights(tmp_path, capsys):
    group = cio.group_to_dict(catalog.get("h1"))
    group["metric"] = {"kind": "weighted_max", "weights": [1, -1]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(group))
    assert main(["group", "validate", str(path)]) == 2
    assert "metric.weights" in capsys.readouterr().out


# one edit of the h1 group file per schema rule, keyed by the field that the
# error must name
GROUP_PROBES = {
    "brackets[0].j": lambda g: g["brackets"][0].update(i=2, j=1),
    "brackets[0].terms[0].num": lambda g: g["brackets"][0]["terms"][0].update(num=0.1),
    "brackets[0].terms[0].den": lambda g: g["brackets"][0]["terms"][0].update(den=0),
    "brackets[0].terms[0].k": lambda g: g["brackets"][0]["terms"][0].update(k=9),
    "layers": lambda g: g["layers"].append(1),
    "step": lambda g: g.update(step=3),
}


def _probe_file(tmp_path, field):
    group = cio.group_to_dict(catalog.get("h1"))
    GROUP_PROBES[field](group)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(group))
    return group, path


@pytest.mark.parametrize("field", sorted(GROUP_PROBES))
def test_group_file_schema_probe(tmp_path, capsys, field):
    # both readers apply one schema, name the field, and the CLI exits 2
    group, path = _probe_file(tmp_path, field)
    with pytest.raises(ValueError, match="^" + re.escape(field) + ":"):
        cio.parse_group_dict(group)
    report, err = cio.validate_group_file(str(path))
    assert report is None and err.startswith("schema error: %s:" % field)
    for action in ("validate", "info"):
        assert main(["group", action, str(path)]) == 2
        out = capsys.readouterr().out
        assert field in out and len(out.strip().splitlines()) == 1


def test_cli_unknown_group_exit_code(capsys):
    assert main(["group", "info", "nosuch"]) == 2
    assert "nosuch" in capsys.readouterr().out


def test_group_file_layers_length_under_optimize(request):
    # the layers-length rule is not an assert: it holds under python -O
    run = request.getfixturevalue("optimized_runs")["layers-length"]
    assert run["code"] == 2 and "layers" in run["stdout"] and not run["stderr"]


def _write(directory, name, content):
    path = directory / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


BAD_MORPHISM = {"domain": "h1", "codomain": "r2", "matrix": [["1", "0"], ["0", "1"]]}

# one bad catalog name, morphism file, subalgebra file or experiment config
# per probe: the field its message must name, and the command line that
# reads it
INPUT_PROBES = {
    "catalog-h0": ("n >= 1", lambda d: ["group", "info", "h0"]),
    "catalog-free_0_3": ("p = 0", lambda d: ["group", "info", "free_0_3"]),
    "catalog-free_2_0": ("step = 0", lambda d: ["group", "info", "free_2_0"]),
    "classify-epi": ("matrix", lambda d: [
        "subgroups", "classify-epi", _write(d, "m.json", BAD_MORPHISM)]),
    "classify-mono": ("matrix", lambda d: [
        "subgroups", "classify-mono", _write(d, "m.json", BAD_MORPHISM)]),
    "complement": ("vectors[0]", lambda d: [
        "subgroups", "complement", "--group", "h1",
        _write(d, "s.json", {"vectors": [["1", "0"]]})]),
    "complement-no-vectors": ("vectors", lambda d: [
        "subgroups", "complement", "--group", "h1",
        _write(d, "s.json", {"vecs": [["1", "0", "0"]]})]),
    "complement-vectors-int": ("vectors", lambda d: [
        "subgroups", "complement", "--group", "h1", _write(d, "s.json", {"vectors": 5})]),
    "complement-not-object": ("vectors", lambda d: [
        "subgroups", "complement", "--group", "h1", _write(d, "s.json", [1, 2])]),
    "complement-zero-denominator": ("vectors[0]", lambda d: [
        "subgroups", "complement", "--group", "h1",
        _write(d, "s.json", {"vectors": [["1", "0", "1/0"]]})]),
    "classify-epi-no-codomain": ("codomain", lambda d: [
        "subgroups", "classify-epi",
        _write(d, "m.json", {"domain": "h1", "matrix": [["1", "0", "0"]]})]),
    "blowup-scales": ("scales", lambda d: [
        "experiment", "blowup",
        _write(d, "b.json", {"map": "xcoord", "base_point": [0, 0, 0],
                             "counts": [3, 3], "scales": [0.01, 0.1]})]),
    "blowup-count-zero": ("count", lambda d: [
        "experiment", "blowup",
        _write(d, "b.json", {"map": "xcoord", "base_point": [0, 0, 0], "count": 0})]),
    "estimates-samples-zero": ("samples", lambda d: [
        "experiment", "verify-estimates", _write(d, "e.json", {"group": "h1", "samples": 0})]),
    "estimates-samples-negative": ("samples", lambda d: [
        "experiment", "verify-estimates", _write(d, "e.json", {"group": "h1", "samples": -5})]),
    "estimates-samples-fraction": ("samples", lambda d: [
        "experiment", "verify-estimates",
        _write(d, "e.json", {"group": "h1", "samples": 2.7})]),
    "estimates-nu-negative": ("nu", lambda d: [
        "experiment", "verify-estimates", _write(d, "e.json", {"group": "h1", "nu": -1})]),
    "mvi-pairs-zero": ("pairs", lambda d: [
        "experiment", "mvi",
        _write(d, "m.json", {"map": "radial_level", "center": [0, 1, 0, 0, 0],
                             "r1": 0.2, "r2": 1.0, "pairs": 0})]),
    "mvi-pairs-fraction": ("pairs", lambda d: [
        "experiment", "mvi",
        _write(d, "m.json", {"map": "radial_level", "center": [0, 1, 0, 0, 0],
                             "r1": 0.2, "r2": 1.0, "pairs": 2.5})]),
    "mvi-bins-zero": ("bins", lambda d: [
        "experiment", "mvi",
        _write(d, "m.json", {"map": "radial_level", "center": [0, 1, 0, 0, 0],
                             "r1": 0.2, "r2": 1.0, "bins": 0})]),
    "config-json": ("line 1 column 2", lambda d: [
        "experiment", "lift", _write(d, "l.json", "{not json")]),
    "implicit-counts": ("counts", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, 0],
                             "counts": [5, 5]})]),
    "implicit-map": ("map", lambda d: [
        "experiment", "implicit", _write(d, "i.json", {"base_point": [0, 1, 0, 1, 0]})]),
    "lift-csv": ("control csv", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {
            "csv": _write(d, "c.csv", "t,u\n0,1\n1,1\n")}})]),
    "lift-direction": ("direction", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {
            "name": "line", "params": {"direction": [1]}}})]),
    "lift-start": ("start", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {"name": "square"},
                             "start": [0, 0]})]),
    "lift-csv-one-row": ("domain", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {
            "csv": _write(d, "c.csv", "t,u1,u2\n0,1,0\n")}})]),
    "lift-domain-empty": ("domain", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {
            "name": "circle", "params": {"domain": [1, 1]}}})]),
    "lift-domain-reversed": ("domain", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {
            "name": "line", "params": {"domain": [1, 0]}}})]),
    "lift-domain-type": ("domain", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {
            "name": "circle", "params": {"domain": "ab"}}})]),
    "lift-radius-null": ("control params", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {
            "name": "circle", "params": {"radius": None}}})]),
    "lift-control-type": ("control", lambda d: [
        "experiment", "lift", _write(d, "l.json", {"group": "h1", "control": "circle"})]),
    "lift-steps-null": ("steps", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {"name": "square"},
                             "steps": None})]),
    "lift-tol-null": ("tol", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {"name": "square"},
                             "tol": None})]),
    "config-not-object": ("JSON object", lambda d: [
        "experiment", "lift", _write(d, "l.json", [1, 2])]),
    "complement-missing-file": ("nosuch.json", lambda d: [
        "subgroups", "complement", "--group", "h1", str(d / "nosuch.json")]),
    "classify-epi-missing-file": ("nosuch.json", lambda d: [
        "subgroups", "classify-epi", str(d / "nosuch.json")]),
    "config-missing-file": ("nosuch.json", lambda d: [
        "experiment", "lift", str(d / "nosuch.json")]),
    "lift-csv-missing-file": ("nosuch.csv", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {"csv": str(d / "nosuch.csv")}})]),
    "group-info-no-file": ("file", lambda d: ["group", "info"]),
    "group-validate-no-file": ("file", lambda d: ["group", "validate"]),
    "group-emit-no-file": ("--catalog", lambda d: ["group", "emit"]),
    "catalog-emit-no-name": ("name", lambda d: ["catalog", "emit"]),
    "complement-no-group": ("--group", lambda d: [
        "subgroups", "complement", _write(d, "s.json", {"vectors": [["0", "0", "1"]]})]),
    "quotient-no-group": ("--group", lambda d: [
        "subgroups", "quotient", _write(d, "s.json", {"vectors": [["0", "0", "1"]]})]),
    "product-three-vectors": ("vectors", lambda d: [
        "algebra", "product", "h1", "1,0,0", "0,1,0", "1,1,1"]),
    "term-one-vector": ("vectors", lambda d: ["algebra", "term", "h1", "1,0,0"]),
    "product-not-rational": ("vectors", lambda d: [
        "algebra", "product", "h1", "1,x,0", "0,1,0"]),
    "product-zero-denominator": ("vectors", lambda d: [
        "algebra", "product", "h1", "1/0,0,0", "0,1,0"]),
    "term-n-range": ("-n", lambda d: [
        "algebra", "term", "-n", "3", "h1", "1,0,0", "0,1,0"]),
    "decompose-n-range": ("-n", lambda d: ["algebra", "decompose", "-n", "1", "h1"]),
    "oracle-trials-zero": ("--trials", lambda d: ["algebra", "oracle", "h1", "--trials", "0"]),
    "oracle-trials-negative": ("--trials", lambda d: [
        "algebra", "oracle", "h1", "--trials", "-1"]),
}


# command lines that must hold under python -O, where asserts are compiled
# out: each input probe, and the two checks above
OPTIMIZED_ARGVS = {
    probe: lambda d, make_argv=make_argv: ["--output-dir", str(d)] + make_argv(d)
    for probe, (_, make_argv) in INPUT_PROBES.items()}
OPTIMIZED_ARGVS["metric-weights"] = _bad_weights_argv
OPTIMIZED_ARGVS["layers-length"] = \
    lambda d: ["group", "info", str(_probe_file(d, "layers")[1])]


@pytest.fixture(scope="module")
def optimized_runs(tmp_path_factory):
    # every command line of OPTIMIZED_ARGVS, each with its files in its own
    # directory, in one python -O interpreter
    probes = {}
    for name, make_argv in OPTIMIZED_ARGVS.items():
        d = tmp_path_factory.mktemp(name)
        probes[name] = {"cwd": str(d), "argv": make_argv(d)}
    return run_optimized(probes, tmp_path_factory.mktemp("optimized"))


@pytest.mark.parametrize("optimized", [False, True], ids=["python", "python-O"])
@pytest.mark.parametrize("probe", sorted(INPUT_PROBES))
def test_bad_input_file_probe(request, tmp_path, capsys, probe, optimized):
    # a malformed input is a validation failure: exit 2 and one line naming
    # the field, with no traceback, also when asserts are compiled out
    field, make_argv = INPUT_PROBES[probe]
    if optimized:
        run = request.getfixturevalue("optimized_runs")[probe]
        code, out, err = run["code"], run["stdout"], run["stderr"]
    else:
        code = main(["--output-dir", str(tmp_path)] + make_argv(tmp_path))
        out, err = capsys.readouterr()
    assert code == 2 and not err
    assert field in out and len(out.strip().splitlines()) == 1


def test_library_input_checks_raise_value_error(tmp_path, h1):
    from carnot.algebra import AlgebraVector
    from carnot.curves import control_from_csv
    from carnot.morphism import GradedMorphism
    with pytest.raises(ValueError, match="expected shape 2 x 3"):
        GradedMorphism(h1, catalog.abelian(2), [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="expected shape 2 x 3"):
        GradedMorphism(h1, catalog.abelian(2), np.eye(2))
    with pytest.raises(ValueError, match="expected 3 coordinates"):
        AlgebraVector(h1, [0, 0])
    with pytest.raises(ValueError, match=r"vectors\[1\]"):
        cio.load_subalgebra_vectors(
            _write(tmp_path, "s.json", {"vectors": [["1", "0", "0"], ["1"]]}), 3)
    with pytest.raises(ValueError, match="control csv"):
        control_from_csv(h1, _write(tmp_path, "c.csv", "t\n0\n1\n"))


def test_cli_group_emit_keeps_metric_block(tmp_path, capsys):
    # emit, then load: the metric block survives with its kind and weights
    from carnot.cli import _metric_for
    group = cio.group_to_dict(catalog.get("h1"))
    group["metric"] = {"kind": "weighted_max", "weights": [1, 2]}
    src = tmp_path / "g.json"
    src.write_text(json.dumps(group))
    capsys.readouterr()
    assert main(["group", "emit", str(src)]) == 0
    out = tmp_path / "emitted.json"
    out.write_text(capsys.readouterr().out)
    metric = _metric_for(cio.load_group(str(out)))
    assert metric.kind == "weighted_max" and metric.weights == (1.0, 2.0)


def test_cli_experiment_mvi(tmp_path, capsys):
    cfg = {"map": "radial_level", "center": [0, 1, 0, 0, 0], "r1": 0.2,
           "r2": 1.0, "pairs": 60, "bins": 3}
    p = tmp_path / "mvi.json"
    p.write_text(json.dumps(cfg))
    assert main(["--output-dir", str(tmp_path), "experiment", "mvi", str(p)]) == 0
    summary = json.loads((tmp_path / "mvi_summary.json").read_text())
    assert set(summary) == {"experiment", "seed", "decreasing", "ratio_sups",
                            "defect_sups"}
    assert summary["decreasing"] and len(summary["ratio_sups"]) == 3
    lines = (tmp_path / "mvi_bins.csv").read_text().splitlines()
    assert lines[0] == "edge,ratio_sup,defect_sup" and len(lines) == 4


def test_cli_experiment_rank(tmp_path, capsys):
    cfg = {"map": "legendrian_line", "base_point": [0.0], "radius": 0.25, "count": 5}
    p = tmp_path / "rank.json"
    p.write_text(json.dumps(cfg))
    assert main(["--output-dir", str(tmp_path), "experiment", "rank", str(p)]) == 0
    summary = json.loads((tmp_path / "rank_summary.json").read_text())
    assert set(summary) == {"experiment", "seed", "lip_ratio", "graph_sup"}
    # the Legendrian line is its own graph: nothing leaves the image subgroup
    assert summary["lip_ratio"] == 0.0 and summary["graph_sup"] == 0.0
