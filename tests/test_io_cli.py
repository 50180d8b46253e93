import json
import re
import warnings
from fractions import Fraction as Q

import numpy as np
import pytest

from carnot import catalog, cli
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
    assert out["tier"] == "affine right-inverse system"
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"vectors": [["0", "1", "0"], ["0", "0", "1"]]}))
    assert main(["subgroups", "complement", "--group", "h1", str(sub)]) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert (out2["verdict"], out2["tier"]) == ("h_epimorphism", "affine right-inverse system")
    assert main(["subgroups", "quotient", "--group", "h1", str(sub)]) == 0
    out3 = json.loads(capsys.readouterr().out)
    assert out3["quotient"]["dim"] == 1


def test_cli_subgroups_mono(tmp_path, capsys):
    mor = {"domain": "r1", "codomain": "h1", "matrix": [["1"], ["0"], ["0"]]}
    p = tmp_path / "mono.json"
    p.write_text(json.dumps(mor))
    assert main(["subgroups", "classify-mono", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["verdict"], out["tier"]) == ("h_monomorphism", "coordinate complements")
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
    assert (out["verdict"], out["tier"]) == ("undecided", None)
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
# well formed, but it maps the centre of h1 into the first layer of r2
NOT_H_HOMOMORPHISM = {"domain": "h1", "codomain": "r2",
                      "matrix": [["1", "0", "1"], ["0", "1", "0"]]}

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
    "classify-epi-not-h-homomorphism": ("h-homomorphism", lambda d: [
        "subgroups", "classify-epi", _write(d, "m.json", NOT_H_HOMOMORPHISM)]),
    "classify-mono-not-h-homomorphism": ("h-homomorphism", lambda d: [
        "subgroups", "classify-mono", _write(d, "m.json", NOT_H_HOMOMORPHISM)]),
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
    "estimates-nu-below-the-radius-floor": ("nu", lambda d: [
        "experiment", "verify-estimates", _write(d, "e.json", {"group": "h1", "nu": 0.01})]),
    "estimates-nu-keeps-no-sample": ("no sample of 50 was kept", lambda d: [
        "experiment", "verify-estimates",
        _write(d, "e.json", {"group": "h1", "nu": 1e-13, "samples": 50})]),
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
    # a huge radius overflowed a float in the solver or the sampler, and a
    # NaN one (Python's json reads it) reached the solver
    "implicit-radius-huge": ("radius", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, 0],
                             "radius": 1e300})]),
    "blowup-R-huge": ("R", lambda d: [
        "experiment", "blowup",
        _write(d, "b.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, 0],
                             "R": 1e300})]),
    "implicit-radius-nan": ("radius", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", '{"map": "radial_level", "base_point": [0, 1, 0, 1, 0], '
                            '"radius": NaN}')]),
    # a non-finite tolerance ran: Infinity accepted any residual, NaN none
    "implicit-tol-infinite": ("tol", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", '{"map": "radial_level", "base_point": [0, 1, 0, 1, 0], '
                            '"tol": Infinity}')]),
    "lift-tol-nan": ("tol", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", '{"group": "h1", "control": {"name": "circle"}, "tol": NaN}')]),
    # a grid count below 1 ran one node, a negative shrink count exited 3
    # ("failed at None"), and a rank grid count of 0 failed inside numpy, then
    # was named by the library's `grid_count`, not by the config key
    "implicit-counts-zero": ("counts[0]", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, 0],
                             "counts": [0, 5, 1]})]),
    "implicit-counts-negative": ("counts[0]", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, 0],
                             "counts": [-3, 5, 1]})]),
    "implicit-shrink-negative": ("shrink_attempts", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, 0],
                             "shrink_attempts": -1})]),
    "rank-count-zero": (": count:", lambda d: [
        "experiment", "rank",
        _write(d, "r.json", {"map": "legendrian_line", "base_point": [0.2], "count": 0})]),
    # a name that is not a string: `group` once reached os.path.exists (an
    # integer, open(): see test_a_config_group_that_is_an_integer_exits_2),
    # `map` pdiff.named_map
    "lift-group-float": ("group", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": 1.5, "control": {"name": "circle"}})]),
    "estimates-group-object": ("group", lambda d: [
        "experiment", "verify-estimates", _write(d, "e.json", {"group": {}})]),
    "implicit-map-int": ("map", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", {"map": 3, "base_point": [0, 1, 0, 1, 0]})]),
    "rank-map-float": ("map", lambda d: [
        "experiment", "rank", _write(d, "r.json", {"map": 1.5, "base_point": [0, 0, 0]})]),
    "mvi-map-null": ("map", lambda d: [
        "experiment", "mvi",
        _write(d, "m.json", {"map": None, "center": [0, 1, 0, 0, 0], "r1": 0.2, "r2": 1.0})]),
    "blowup-map-list": ("map", lambda d: [
        "experiment", "blowup", _write(d, "b.json", {"map": [], "base_point": [0, 0, 0]})]),
    # a point of another length than the map's domain dimension
    "implicit-base-point-short": ("base_point", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", {"map": "radial_level", "base_point": [0, 1, 0]})]),
    "blowup-base-point-short": ("base_point", lambda d: [
        "experiment", "blowup",
        _write(d, "b.json", {"map": "radial_level", "base_point": [0, 1, 0]})]),
    "rank-base-point-long": ("base_point", lambda d: [
        "experiment", "rank",
        _write(d, "r.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, 0, 0]})]),
    "mvi-center-short": ("center", lambda d: [
        "experiment", "mvi",
        _write(d, "m.json", {"map": "radial_level", "center": [0, 1, 0], "r1": 0.2,
                             "r2": 1.0})]),
    # a NaN entry (Python's json reads it) ran, and printed NaN sups with exit 0
    "mvi-center-nan": ("center", lambda d: [
        "experiment", "mvi",
        _write(d, "m.json", '{"map": "radial_level", "center": [NaN, 1, 0, 1, 0], '
                            '"r1": 0.2, "r2": 1.0}')]),
    # control params that are not finite, or a radius above MAX_RADIUS,
    # reached the lift: numpy warned of overflow, and the line named no key
    "lift-circle-radius-huge": ("radius", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {
            "name": "circle", "params": {"radius": 1e300}}})]),
    "lift-circle-radius-nan": ("radius", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", '{"group": "h1", "control": {"name": "circle", '
                            '"params": {"radius": NaN}}}')]),
    "lift-line-direction-nan": ("direction", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", '{"group": "h1", "control": {"name": "line", '
                            '"params": {"direction": [1, NaN]}}}')]),
    "lift-domain-infinite": ("domain", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", '{"group": "h1", "control": {"name": "parabola", '
                            '"params": {"domain": [0, Infinity]}}}')]),
    # a name that is not a string raised "unhashable type", naming no key
    "lift-control-name-list": ("unknown control", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {"name": ["circle"]}})]),
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
    # unknown keys ran on the defaults: a misspelt key, a key outside
    # `params`, a param that a control does not take (the square's domain
    # was replaced by (0, 4))
    "implicit-misspelt-key": ("radiuss", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, 0],
                             "radiuss": 5})]),
    "implicit-bogus-key": ("bogus", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, 0], "bogus": 1})]),
    "lift-misspelt-key": ("stepz", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {"name": "square"}, "stepz": 3})]),
    "lift-direction-outside-params": ("control direction", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {"name": "line", "direction": [0, 1]}})]),
    "lift-params-unknown-key": ("control params radiuss", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {
            "name": "circle", "params": {"radiuss": 2}}})]),
    "lift-square-domain": ("control params domain", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {
            "name": "square", "params": {"domain": [0, 2]}}})]),
    # a negative scale printed LAPACK lines and a RuntimeWarning; an empty or
    # string list named no key
    "pansu-scales-negative": ("scales", lambda d: [
        "experiment", "pansu",
        _write(d, "p.json", {"group": "h1", "control": {"name": "circle"}, "steps": 256,
                             "scales": [0.1, -0.01]})]),
    "pansu-scales-empty": ("scales", lambda d: [
        "experiment", "pansu",
        _write(d, "p.json", {"group": "h1", "control": {"name": "circle"}, "steps": 256,
                             "scales": []})]),
    "pansu-scales-string": ("scales", lambda d: [
        "experiment", "pansu",
        _write(d, "p.json", {"group": "h1", "control": {"name": "circle"}, "steps": 256,
                             "scales": "ab"})]),
    # a point entry that is not a number named no key
    "mvi-center-string": ("center[0]", lambda d: [
        "experiment", "mvi",
        _write(d, "m.json", {"map": "radial_level", "center": ["a", 1, 0, 1, 0], "r1": 0.2,
                             "r2": 1.0})]),
    "lift-start-string": ("start[1]", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {"name": "square"},
                             "start": [0, "a", 0]})]),
    "implicit-base-point-string": ("base_point[4]", lambda d: [
        "experiment", "implicit",
        _write(d, "i.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, "a"]})]),
    # sizes above their maxima ended in a MemoryError, or ran without end
    "lift-steps-huge": ("steps", lambda d: [
        "experiment", "lift",
        _write(d, "l.json", {"group": "h1", "control": {"name": "square"},
                             "steps": 10 ** 12})]),
    "blowup-counts-huge": ("counts[1]", lambda d: [
        "experiment", "blowup",
        _write(d, "b.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, 0],
                             "counts": [3, 10 ** 12, 1]})]),
    "blowup-counts-product": ("counts", lambda d: [
        "experiment", "blowup",
        _write(d, "b.json", {"map": "radial_level", "base_point": [0, 1, 0, 1, 0],
                             "counts": [3, 3, 10 ** 7]})]),
    "estimates-samples-huge": ("samples", lambda d: [
        "experiment", "verify-estimates",
        _write(d, "e.json", {"group": "h1", "samples": 10 ** 12})]),
    "mvi-pairs-huge": ("pairs", lambda d: [
        "experiment", "mvi",
        _write(d, "m.json", {"map": "radial_level", "center": [0, 1, 0, 0, 0],
                             "r1": 0.2, "r2": 1.0, "pairs": 10 ** 12})]),
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
    # directory, in one python -O interpreter.  The directories are not
    # named after the probes: a message that prints a config path would
    # otherwise name the field through the probe's name
    probes = {}
    for name, make_argv in OPTIMIZED_ARGVS.items():
        d = tmp_path_factory.mktemp("probe")
        probes[name] = {"cwd": str(d), "argv": make_argv(d)}
    return run_optimized(probes, tmp_path_factory.mktemp("optimized"))


@pytest.mark.parametrize("optimized", [False, True], ids=["python", "python-O"])
@pytest.mark.parametrize("probe", sorted(INPUT_PROBES))
def test_bad_input_file_probe(request, tmp_path, capsys, probe, optimized):
    # a malformed input is a validation failure: exit 2 and one line naming
    # the field, with no traceback and no warning, also when asserts are
    # compiled out (pytest keeps warnings out of capsys: they are recorded)
    field, make_argv = INPUT_PROBES[probe]
    if optimized:
        run = request.getfixturevalue("optimized_runs")[probe]
        code, out, err = run["code"], run["stdout"], run["stderr"]
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--output-dir", str(tmp_path)] + make_argv(tmp_path))
        out, err = capsys.readouterr()
        err += "".join(str(w.message) for w in caught)
    assert code == 2 and not err, err
    assert field in out and len(out.strip().splitlines()) == 1


@pytest.mark.parametrize("fd", [0, 1, 5])
def test_a_config_group_that_is_an_integer_exits_2(tmp_path, fd):
    # a JSON integer as `group` once reached open() as a file descriptor
    # when one was open: 0 read a group file from stdin, 1 closed stdout
    # before the error was printed, and 5, not open, failed in catalog.get.
    # Run in a subprocess, so that no run can close this process's
    # descriptors; stdin holds a valid group file
    import os
    import subprocess
    import sys
    import carnot
    cfg = _write(tmp_path, "l.json", {"group": fd, "control": {"name": "circle"}})
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(carnot.__file__)))
    run = subprocess.run([sys.executable, "-m", "carnot.cli", "--output-dir", str(tmp_path),
                          "experiment", "lift", cfg], input=cio.emit_group(catalog.get("h1")),
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 2 and not run.stderr, (run.returncode, run.stderr)
    assert "group" in run.stdout and len(run.stdout.strip().splitlines()) == 1


def test_in_process_lifts_share_one_algebra_and_parser(tmp_path, capsys):
    # eight cli.main runs on one catalog group build its BCH table once, and
    # the argument parser once per process
    import sys
    from carnot import bch, cli
    law = bch._law.__wrapped__.__code__
    builds = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is law:
            builds.append(frame)

    cfg = _write(tmp_path, "l.json", {"group": "h1", "control": {"name": "square"},
                                      "steps": 64})
    catalog.get.cache_clear()
    sys.setprofile(count)
    try:
        codes = [main(["--output-dir", str(tmp_path), "experiment", "lift", cfg])
                 for _ in range(8)]
    finally:
        sys.setprofile(None)
    assert codes == [0] * 8 and len(builds) == 1
    assert cli.build_parser() is cli.build_parser()


def test_parsed_group_tags_are_read_only():
    group = cio.group_to_dict(catalog.get("h1"))
    group["metric"] = {"kind": "weighted_max", "weights": [1, 2]}
    g = cio.parse_group_dict(group)
    assert dict(g.tags) == {"metric_spec": group["metric"]}
    with pytest.raises(TypeError):
        g.tags["metric_spec"] = None


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


# one valid config per action; the schema test changes one key at a time
SCHEMA_BASE = {
    "lift": {"group": "h1", "control": {"name": "circle"}},
    "pansu": {"group": "h1", "control": {"name": "circle"}},
    "mvi": {"map": "radial_level", "center": [0, 1, 0, 0, 0], "r1": 0.2, "r2": 1.0},
    "implicit": {"map": "radial_level", "base_point": [0, 1, 0, 1, 0]},
    "rank": {"map": "legendrian_line", "base_point": [0.2]},
    "blowup": {"map": "radial_level", "base_point": [0, 1, 0, 1, 0]},
    "verify-estimates": {"group": "h1"},
}
# the length of each point, interval and grid of SCHEMA_BASE: the domain
# dimension of its group or map, and the first-layer dimension of h1
SCHEMA_DIMS = {"start": 3, "center": 5, "counts": 5, "direction": 2, "domain": 2}


def _bad_values(kind, dim):
    """Values that a key of `kind` must refuse, derived from the kind alone:
    a wrong type, non-finite numbers, and values below its minimum and above
    its maximum; `dim` is the length of a point or interval, or the most
    grid counts."""
    nan, inf = float("nan"), float("inf")
    if kind.kind in ("number", "radius", "integer"):
        out = ["1", None, True, [kind.lo], nan, inf, -inf, kind.lo - 1, kind.hi * 2 + 1]
        if kind.kind == "radius":
            out.append(kind.lo)
        if kind.kind == "integer":
            out += [kind.lo - 1, kind.hi + 1, kind.lo + 0.5]
        return out
    if kind.kind == "name":
        return [1.5, None, [], {}]
    if kind.kind in ("point", "interval"):
        return ["ab", 5, [kind.lo] * (dim + 1), [kind.lo] * (dim - 1)] + [
            [x] + [kind.lo] * (dim - 1) for x in ("a", None, nan, inf, kind.lo - 1, kind.hi + 1)
        ] + ([[1, 1], [1, 0]] if kind.kind == "interval" else [])
    if kind.kind == "scales":
        return ["ab", [], [0.1, -0.01], [0.01, 0.1], [0.1, 0.1], [kind.lo / 2], [kind.hi * 2],
                [nan], ["a"], [2.0 ** -k for k in range(33)]]
    if kind.kind == "integer list":
        return ["3", [], [0], [2.5], [kind.hi + 1], [None], [1] * (dim + 1),
                [kind.hi // 4 + 1] * 3]
    if kind.kind == "control":
        out = [("circle", "control"), ({}, "control name"), ({"name": "nosuch"}, "control name"),
               ({"name": ["circle"]}, "control name"), ({"csv": 5}, "control csv"),
               ({"name": "circle", "params": "x"}, "control params"),
               ({"name": "line", "direction": [0, 1]}, "control direction"),
               ({"csv": "c.csv", "name": "circle"}, "control name")]
        for name, params in cli.CONTROL_PARAMS.items():
            out.append(({"name": name, "params": {"bogus": 1}}, "control params bogus"))
            out += [({"name": name, "params": {p: bad}}, "control params " + p)
                    for p, k in params.items() for bad in _bad_values(k, SCHEMA_DIMS.get(p, 0))]
        return out
    raise AssertionError("no bad values for the kind %r" % kind.kind)


LEFT_OUT = object()


def _never_run(values):
    raise AssertionError("a bad config reached the run: %r" % (values,))


@pytest.mark.parametrize("action", sorted(cli.ACTIONS))
def test_every_key_refuses_the_bad_values_of_its_kind(tmp_path_factory, capsys, monkeypatch,
                                                      action):
    # for every key of the action's schema, each bad value of its kind, an
    # unknown key and a missing required key exit 2 with one line that names
    # the key right after the config path.  The run is replaced, so a value
    # that passes the reader fails here instead of running at its size
    monkeypatch.setitem(cli.ACTIONS, action, (_never_run, cli.ACTIONS[action][1]))
    d = tmp_path_factory.mktemp("cfg")
    base, cases = SCHEMA_BASE[action], [("bogus", 1, "bogus")]
    for key, kind in dict(cli.ACTIONS[action][1], seed=cli.SEED).items():
        if kind.default == "required":
            cases.append((key, LEFT_OUT, key))
        dim = len(base[key]) if isinstance(base.get(key), list) else SCHEMA_DIMS.get(key, 0)
        cases += [(key, bad, named) for bad, named in (
            _bad_values(kind, dim) if kind.kind == "control"
            else [(bad, key) for bad in _bad_values(kind, dim)])]
    wrong = []
    for key, bad, named in cases:
        cfg = dict(base, **{key: bad})
        if bad is LEFT_OUT:
            del cfg[key]
        path = _write(d, "c.json", json.dumps(cfg))
        code = main(["--output-dir", str(d), "experiment", action, path])
        out, err = capsys.readouterr()
        lines = out.strip().splitlines()
        if code != 2 or err or len(lines) != 1 or \
                not lines[0].startswith("invalid %s config %s: %s" % (action, path, named)):
            wrong.append((key, bad, code, out, err))
    assert not wrong, wrong[:5]
    assert len(cases) > 20, len(cases)


def _schema_table(title, keys):
    """The README table of a config schema: key, kind, default and bounds."""
    rows = ["%s:" % title, "", "| key | kind | default | bounds |", "|---|---|---|---|"]
    for key, kind in keys.items():
        default = ("required" if kind.default == "required" else kind.shown
                   if kind.default is None else json.dumps(kind.default))
        bounds = kind.bounds + (", entries in [%g, %g]" % (kind.lo, kind.hi)
                                if kind.contextual and kind.kind != "control" else "")
        rows.append("| `%s` | %s | %s | %s |" % (key, kind.kind, default, bounds))
    return "\n".join(rows)


def test_readme_tables_match_the_config_schema():
    import pathlib
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    tables = [_schema_table("`%s`" % action, dict(keys, seed=cli.SEED))
              for action, (_, keys) in cli.ACTIONS.items()]
    tables += [_schema_table("control `%s` params" % name, params)
               for name, params in cli.CONTROL_PARAMS.items() if params]
    tables += ["control `%s` takes no params" % name
               for name, params in cli.CONTROL_PARAMS.items() if not params]
    missing = [t for t in tables if t not in readme]
    assert not missing, "\n\n".join(missing)
