"""Command line interface.

Subcommands: group (validate / info / emit), catalog (list / emit),
algebra (product / term / decompose / oracle),
subgroups (classify-epi / classify-mono / complement / quotient),
experiment (lift / pansu / mvi / implicit / rank / blowup / verify-estimates).

Exit codes: 0 success, 2 validation failure, 3 solver failure,
4 undecided: no exact tier applies.  All sampled commands are deterministic
under --seed; exact-mode commands, the subgroups classifiers among them, are
deterministic unconditionally.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import catalog as cat
from . import io as cio
from . import metric as cmetric
from .algebra import AlgebraVector, GroupElement, homogeneous_dimension, is_stratified
from .bch import bch_term, decompose_cn, group_product, series_oracle_product

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_UNDECIDED = 4


class _BadInput(Exception):
    """A group argument, morphism or subalgebra file, or experiment config
    that fails validation; main prints its one-line message and returns
    EXIT_VALIDATION."""

    def __init__(self, what, err):
        super().__init__("%s: %s" % (what, " ".join(str(err).split())))


def _required(value, name):
    """An optional argument that the action needs; missing, it is bad input."""
    if value is None:
        raise _BadInput(name, "required by this action")
    return value


def _arg(name, fn, *args):
    """fn(*args), with a ValueError reported as the bad argument `name`."""
    try:
        return fn(*args)
    except ValueError as e:
        raise _BadInput(name, e) from None


def _load_group(spec):
    """Catalog name, or path to a group-definition file."""
    if os.path.exists(spec):
        try:
            return cio.load_group(spec)
        except (OSError, ValueError) as e:
            raise _BadInput("invalid group file %s" % spec, e) from None
    try:
        return cat.get(spec)
    except KeyError:
        raise _BadInput("unknown group %r" % spec, "not a catalog name or file") from None
    except ValueError as e:
        raise _BadInput("invalid group %r" % spec, e) from None


def _metric_for(algebra):
    spec = algebra.tags.get("metric_spec")
    if spec:
        return cmetric.HomogeneousMetric(algebra, spec["kind"],
                                         spec.get("weights") or None)
    return cmetric.default_metric(algebra)


# ---------------------------------------------------------------------------
# group / catalog
# ---------------------------------------------------------------------------

def cmd_group(args):
    if args.action == "validate":
        report, err = cio.validate_group_file(_required(args.file, "file"))
        if err:
            print(err)
            return EXIT_VALIDATION
        print(report)
        return EXIT_OK if report.ok else EXIT_VALIDATION
    if args.action == "info":
        g = _load_group(_required(args.file, "file"))
        print("name: %s" % g.name)
        print("dim: %d" % g.dim)
        print("step: %d" % g.step)
        print("layer dims: %s" % g.layer_dims())
        print("homogeneous dimension: %d" % homogeneous_dimension(g))
        print("stratified: %s" % is_stratified(g))
        return EXIT_OK
    if args.action == "emit":
        g = _load_group(_required(args.catalog or args.file, "file or --catalog"))
        sys.stdout.write(cio.emit_group(g))
        return EXIT_OK
    raise SystemExit("unknown group action %r" % args.action)


def cmd_catalog(args):
    if args.action == "list":
        for name in cat.catalog_names():
            g = cat.get(name)
            print("%-10s dim %2d  step %d  Q %2d" %
                  (name, g.dim, g.step, homogeneous_dimension(g)))
        return EXIT_OK
    if args.action == "emit":
        sys.stdout.write(cio.emit_group(_load_group(_required(args.name, "name"))))
        return EXIT_OK
    raise SystemExit("unknown catalog action %r" % args.action)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def cmd_algebra(args):
    g = _load_group(args.group)
    if args.action in ("product", "term"):
        if len(args.vectors) != 2:
            raise _BadInput("vectors", "expected 2, got %d" % len(args.vectors))
        x, y = (AlgebraVector(g, _arg("vectors", cio.parse_vector, v, g.dim))
                for v in args.vectors)
    if args.action == "product":
        p = group_product(x, y)
        check = series_oracle_product(x, y)
        if p.coords != check.coords:
            print("recursion and series oracle disagree", file=sys.stderr)
            return EXIT_VALIDATION
        print(cio.format_vector(p.coords))
        return EXIT_OK
    if args.action == "term":
        print(cio.format_vector(_arg("-n", bch_term, args.n, x, y).coords))
        return EXIT_OK
    if args.action == "decompose":
        dec = _arg("-n", decompose_cn, args.n, g)
        for alpha in sorted(dec.coefficients):
            print("%s %s" % ("".join(map(str, alpha)),
                             cio.format_rational(dec.coefficients[alpha])))
        return EXIT_OK
    if args.action == "oracle":
        if args.trials < 1:
            raise _BadInput("--trials", "expected an integer >= 1, got %d" % args.trials)
        rng = np.random.default_rng(args.seed)
        for _ in range(args.trials):
            xv = [cio.parse_rational("%d/%d" % (rng.integers(-6, 7),
                                                rng.integers(1, 5)))
                  for _ in range(g.dim)]
            yv = [cio.parse_rational("%d/%d" % (rng.integers(-6, 7),
                                                rng.integers(1, 5)))
                  for _ in range(g.dim)]
            x, y = AlgebraVector(g, xv), AlgebraVector(g, yv)
            if group_product(x, y).coords != series_oracle_product(x, y).coords:
                print("MISMATCH at x=%s y=%s" % (cio.format_vector(xv),
                                                 cio.format_vector(yv)))
                return EXIT_VALIDATION
        print("OK: %d random products agree with the series oracle" % args.trials)
        return EXIT_OK
    raise SystemExit("unknown algebra action %r" % args.action)


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def cmd_subgroups(args):
    from . import subgroups as sg
    if args.action in ("classify-epi", "classify-mono"):
        try:
            L = cio.load_morphism(args.file, _load_group)
        except (OSError, ValueError) as e:
            raise _BadInput("invalid morphism file %s" % args.file, e) from None
        if args.action == "classify-epi":
            out = sg.classify_epimorphism(L)
            print(json.dumps(out.to_json_dict(), indent=2))
            return EXIT_UNDECIDED if out.verdict == "undecided" else EXIT_OK
        out = sg.classify_monomorphism(L)
        print(json.dumps(out.to_json_dict(), indent=2))
        return EXIT_UNDECIDED if out.verdict == "undecided" else EXIT_OK
    g = _load_group(_required(args.group, "--group"))
    try:
        vectors = cio.load_subalgebra_vectors(args.file, g.dim)
    except (OSError, ValueError) as e:
        raise _BadInput("invalid subalgebra file %s" % args.file, e) from None
    try:
        sub = sg.layered_decomposition(g, vectors)
    except (sg.NotHomogeneous, sg.NotSubalgebra) as e:
        print(json.dumps({"error": str(e),
                          "witness": [str(c) for c in (e.witness or [])]}, indent=2))
        return EXIT_VALIDATION
    if args.action == "complement":
        out = sg.find_complement(sub)
        print(json.dumps(out.to_json_dict(), indent=2))
        return EXIT_UNDECIDED if out.verdict == "undecided" else EXIT_OK
    if args.action == "quotient":
        if not sg.is_ideal(sub):
            print(json.dumps({"error": "not an ideal"}, indent=2))
            return EXIT_VALIDATION
        qalg, dpi = sg.quotient(g, sub)
        out = {"quotient": cio.group_to_dict(qalg),
               "projection": [[cio.format_rational(c) for c in row]
                              for row in dpi.matrix]}
        print(json.dumps(out, indent=2))
        return EXIT_OK
    raise SystemExit("unknown subgroups action %r" % args.action)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _outpath(args, name):
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


def _control_from_cfg(cv, g, spec):
    if not isinstance(spec, dict):
        raise ValueError("control: expected an object, got %r" % (spec,))
    if "csv" in spec:
        try:
            return cv.control_from_csv(g, spec["csv"])
        except OSError as e:
            raise ValueError("control csv: %s" % e) from None
    try:
        return cv.make_control(g, spec["name"], **spec.get("params", {}))
    except TypeError as e:
        raise ValueError("control params: %s" % e) from None


def _number(cfg, key, default, kind=float, positive=False):
    """cfg[key], or the default, as a number; a bad value names its key.
    An int key takes only a JSON integer: 2.7 is refused, not truncated.
    With `positive` the number must be > 0 (a count at least 1)."""
    value = cfg.get(key, default)
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError("%s: expected an integer, got %r" % (key, value))
    try:
        value = kind(value)
    except (TypeError, ValueError):
        raise ValueError("%s: expected a number, got %r" % (key, value)) from None
    if positive and not value > 0:
        raise ValueError("%s: expected a number > 0, got %r" % (key, cfg[key]))
    return value


def cmd_experiment(args):
    from . import curves as cv
    from . import pdiff
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except (OSError, ValueError) as e:
        raise _BadInput("invalid config %s" % args.config, e) from None
    if not isinstance(cfg, dict):
        raise _BadInput("invalid config %s" % args.config, "expected a JSON object")
    base = os.path.splitext(os.path.basename(args.config))[0]

    try:
        seed = _number(cfg, "seed", args.seed, int)
        manifest = cio.RunManifest(command="experiment %s" % args.action, seed=seed)
        manifest.add_input(args.config)
        summary = {"experiment": args.action, "seed": seed}
        if args.action == "lift":
            g = _load_group(cfg["group"])
            control = _control_from_cfg(cv, g, cfg["control"])
            start = cfg.get("start", [0.0] * g.dim)
            if len(start) != g.dim:
                raise ValueError("start: expected %d coordinates, got %d"
                                 % (g.dim, len(start)))
            start = GroupElement(g, np.asarray(start, dtype=float))
            curve = cv.horizontal_lift(control, start, _number(cfg, "steps", 512, int),
                                       _number(cfg, "tol", 1e-8))
            rows = [[t] + list(c) for t, c in zip(curve.ts, curve.coords)]
            csv = cio.write_csv(_outpath(args, base + "_curve.csv"),
                                ["t"] + list(g.basis_names), rows)
            rep = cv.is_horizontal(curve, tol=_number(cfg, "check_tol", 1e-6))
            summary.update({"endpoint": list(map(float, curve.coords[-1])),
                            "horizontal_residual": rep.max_residual,
                            "horizontal": bool(rep.ok)})
            manifest.outputs.append(csv)

        elif args.action == "pansu":
            g = _load_group(cfg["group"])
            control = _control_from_cfg(cv, g, cfg["control"])
            start = GroupElement(g, np.zeros(g.dim))
            curve = cv.horizontal_lift(control, start, _number(cfg, "steps", 2048, int))
            t = _number(cfg, "t", 0.5)
            scales = cfg.get("scales", [1e-1, 1e-2, 1e-3, 1e-4])
            vals = cv.pansu_quotient_norms(curve, t, scales)
            csv = cio.write_csv(_outpath(args, base + "_quotient.csv"),
                                ["h", "quotient_norm"],
                                [[h, v] for h, v in zip(scales, vals)])
            summary.update({"order": cv.decay_order(scales, vals),
                            "norms": list(map(float, vals))})
            manifest.outputs.append(csv)

        elif args.action == "mvi":
            f = pdiff.named_map(cfg["map"])
            tab = pdiff.mean_value_ratio(
                f, np.asarray(cfg["center"], dtype=float), float(cfg["r1"]),
                float(cfg["r2"]), pair_samples=_number(cfg, "pairs", 800, int, positive=True),
                bins=_number(cfg, "bins", 4, int, positive=True), seed=seed)
            csv = cio.write_csv(_outpath(args, base + "_bins.csv"),
                                ["edge", "ratio_sup", "defect_sup"],
                                [[e, r, d] for e, r, d in
                                 zip(tab.bin_edges[:-1], tab.bin_sup, tab.bin_defect)])
            summary.update({"decreasing": bool(tab.decreasing()),
                            "ratio_sups": tab.bin_sup, "defect_sups": tab.bin_defect})
            manifest.outputs.append(csv)

        elif args.action == "implicit":
            f = pdiff.named_map(cfg["map"])
            sol, numerical = pdiff.implicit_function(
                f, np.asarray(cfg["base_point"], dtype=float),
                {"radius": _number(cfg, "radius", 0.3),
                 "counts": cfg.get("counts", None) or None,
                 "shrink_attempts": _number(cfg, "shrink_attempts", 3, int)},
                tol=_number(cfg, "tol", 1e-10), budget=_number(cfg, "budget", 100, int))
            rows = [list(n) + list(p) + [r] for n, p, r in
                    zip(sol.nodes, sol.phis, sol.residuals)]
            csv = cio.write_csv(_outpath(args, base + "_graph.csv"),
                                ["n%d" % i for i in range(f.domain.dim)] +
                                ["phi%d" % i for i in range(f.domain.dim)] +
                                ["residual"], rows)
            hc = sol.holder_constants()
            summary.update({"max_residual": float(np.max(sol.residuals)),
                            "numerical_kernel": bool(numerical),
                            "uniqueness": pdiff.uniqueness_check(sol, seed=seed),
                            **hc})
            manifest.outputs.append(csv)

        elif args.action == "rank":
            f = pdiff.named_map(cfg["map"])
            rp = pdiff.rank_parametrization(
                f, np.asarray(cfg["base_point"], dtype=float),
                grid_radius=_number(cfg, "radius", 0.25),
                grid_count=_number(cfg, "count", 5, int))
            summary.update({"lip_ratio": rp.lip_ratio,
                            "graph_sup": float(np.max(np.abs(rp.phi_points)))})

        elif args.action == "blowup":
            count = _number(cfg, "count", 400, int, positive=True)
            f = pdiff.named_map(cfg["map"])
            xbar = np.asarray(cfg["base_point"], dtype=float)
            sol, _ = pdiff.implicit_function(
                f, xbar, {"radius": _number(cfg, "radius", 0.4),
                          "counts": cfg.get("counts", None) or None})
            sampler = pdiff.LevelSetSampler(f, xbar, sol)
            rep = pdiff.tangent_cone_samples(
                sampler, xbar, sol.kernel, cfg.get("scales", [1e-1, 1e-2, 1e-3]),
                R=_number(cfg, "R", 1.0), count=count,
                seed=seed)
            csv = cio.write_csv(_outpath(args, base + "_blowup.csv"),
                                ["lambda", "hausdorff", "set_to_cone", "cone_to_set"],
                                [[l, d, a, b] for l, d, a, b in
                                 zip(rep.scales, rep.distances, rep.set_to_cone,
                                     rep.cone_to_set)])
            summary.update({"decreasing": bool(rep.decreasing),
                            "final": rep.distances[-1],
                            "cone_bracket_rank":
                            pdiff.tangent_cone_bracket_rank(sol.kernel)})
            manifest.outputs.append(csv)

        elif args.action == "verify-estimates":
            m = _metric_for(_load_group(cfg["group"]))
            nu = _number(cfg, "nu", 1.0, positive=True)
            samples = _number(cfg, "samples", 2000, int, positive=True)
            consts = collect_estimates(m, nu, samples, seed)
            csv = cio.constants_csv(_outpath(args, base + "_constants.csv"), consts)
            summary.update({"constants": {c.label: c.sup_observed for c in consts}})
            manifest.outputs.append(csv)

        else:
            raise SystemExit("unknown experiment %r" % args.action)
    except (KeyError, TypeError, ValueError) as e:
        raise _BadInput("invalid %s config %s" % (args.action, args.config), e) from None
    except RuntimeError as e:  # a solver or integrator that did not converge
        print(json.dumps({"error": str(e)}))
        return EXIT_SOLVER

    spath = _outpath(args, base + "_summary.json")
    with open(spath, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True, default=float)
        f.write("\n")
    manifest.outputs.append(spath)
    manifest.write(_outpath(args, base + "_manifest.json"))
    print(json.dumps(summary, indent=2, sort_keys=True, default=float))
    return EXIT_OK


def collect_estimates(m, nu, samples, seed):
    """All metric-estimate drivers for one group, each seeded with `seed`."""
    out = list(cmetric.verify_projection_estimate(m, radius=nu, samples=samples,
                                                  seed=seed))
    out.append(cmetric.norm_exp_estimate(m, nu=nu, samples=samples, seed=seed))
    out.append(cmetric.left_inverse_estimate(m, nu=nu, samples=samples, seed=seed))
    out.extend(cmetric.verify_conjugation_estimate(m, nu=nu, samples=samples,
                                                   seed=seed))
    out.append(cmetric.verify_product_estimate(m, nu=nu,
                                               samples=max(samples // 8, 50),
                                               seed=seed))
    out.append(cmetric.first_layer_constant(m, radius=nu, samples=samples, seed=seed))
    out.append(cmetric.quasi_triangle_constant(m, radius=nu, samples=samples,
                                               seed=seed))
    return out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="carnot",
                                description="exact and numerical computation "
                                "on graded nilpotent Lie groups")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default=".")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="validate / inspect / emit group files")
    g.add_argument("action", choices=["validate", "info", "emit"])
    g.add_argument("file", nargs="?", help="group file or catalog name")
    g.add_argument("--catalog", help="catalog name (for emit)")
    g.set_defaults(fn=cmd_group)

    c = sub.add_parser("catalog", help="built-in groups")
    c.add_argument("action", choices=["list", "emit"])
    c.add_argument("name", nargs="?")
    c.set_defaults(fn=cmd_catalog)

    a = sub.add_parser("algebra", help="group law and BCH terms")
    a.add_argument("action", choices=["product", "term", "decompose", "oracle"])
    a.add_argument("group")
    a.add_argument("vectors", nargs="*", help="comma-separated rationals")
    a.add_argument("-n", type=int, default=2, help="term index")
    a.add_argument("--trials", type=int, default=100)
    a.set_defaults(fn=cmd_algebra)

    s = sub.add_parser("subgroups", help="classification and factorization")
    s.add_argument("action", choices=["classify-epi", "classify-mono",
                                      "complement", "quotient"])
    s.add_argument("--group", help="ambient group (complement / quotient)")
    s.add_argument("file", help="morphism or subalgebra JSON file")
    s.set_defaults(fn=cmd_subgroups)

    e = sub.add_parser("experiment", help="run a configured experiment")
    e.add_argument("action", choices=["lift", "pansu", "mvi", "implicit",
                                      "rank", "blowup", "verify-estimates"])
    e.add_argument("config", help="experiment config JSON")
    e.set_defaults(fn=cmd_experiment)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _BadInput as e:
        print(e)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
