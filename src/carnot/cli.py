"""Command line interface.

Subcommands: group (validate / info / emit), catalog (list / emit),
algebra (product / term / decompose / oracle),
subgroups (classify-epi / classify-mono / complement / quotient),
experiment (lift / pansu / mvi / implicit / rank / blowup / verify-estimates).

Exit codes: 0 success, 2 validation failure, 3 solver failure, 4 undecided:
no exact tier applies.  ACTIONS declares each experiment's config keys, with
their kinds, defaults and bounds, and a config is read whole before anything
runs.  Sampled commands are deterministic under --seed, exact ones always.
"""

import argparse
import functools
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import catalog as cat
from . import curves as cv
from . import io as cio
from . import metric as cmetric
from . import pdiff
from . import subgroups as sg
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
        if p != series_oracle_product(x, y):
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
            xv, yv = ([cio.parse_rational("%d/%d" % (rng.integers(-6, 7), rng.integers(1, 5)))
                       for _ in range(g.dim)] for _ in range(2))
            x, y = AlgebraVector(g, xv), AlgebraVector(g, yv)
            if group_product(x, y) != series_oracle_product(x, y):
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
    if args.action in ("classify-epi", "classify-mono"):
        what = "invalid morphism file %s" % args.file
        try:
            L = cio.load_morphism(args.file, _load_group)
        except (OSError, ValueError) as e:
            raise _BadInput(what, e) from None
        # a well-formed file that is not an h-homomorphism is bad input too
        out = _arg(what, sg.classify_epimorphism if args.action == "classify-epi"
                   else sg.classify_monomorphism, L)
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
# experiments: one table of actions, each key with its kind, default and bounds
# ---------------------------------------------------------------------------

# The largest radius, and number in size, in a config (1e300 overflowed powers).
MAX_RADIUS = 1e6


class Kind(NamedTuple):
    """A config value's kind: check(value, key) returns it as a run takes it or
    raises ValueError naming `key`; a contextual kind also takes ctx, the keys
    read before.  kind(default) is a key; a default of None is described by `shown`."""
    kind: str
    bounds: str
    check: object
    lo: object = None
    hi: object = None
    default: object = "required"
    shown: str = None
    contextual: bool = False

    def __call__(self, default, shown=None):
        return self._replace(default=default, shown=shown)


def _expected(key, what, value):
    return ValueError("%s: expected %s, got %r" % (key, what, value))


def _read(keys, cfg, prefix, ctx):
    """The values of the object `cfg` by the table `keys`, read in its order and
    named after `prefix`; any other key is refused."""
    if not isinstance(cfg, dict):
        raise _expected(prefix.strip() or "config", "a JSON object", cfg)
    for k in cfg:
        if k not in keys:
            raise ValueError("%s%s: unknown key" % (prefix, k))
    out, seen = {}, dict(ctx)
    for k, kind in keys.items():
        if k not in cfg and kind.default == "required":
            raise ValueError("%s%s: required" % (prefix, k))
        seen[k] = out[k] = kind.default if k not in cfg else kind.check(
            cfg[k], prefix + k, *[seen] * kind.contextual)
    return out


def _numeric(kind, lo, hi):
    """A number in [lo, hi], (lo, hi] for a radius: never NaN or Infinity, which json reads."""
    integer = kind == "integer"
    bounds = ("(" if kind == "radius" else "[") + ("%d, %d]" if integer else "%g, %g]") % (lo, hi)

    def check(value, key):  # type(True) is bool: no flag is a number
        if type(value) not in ((int,) if integer else (int, float)) \
                or not (lo < value <= hi if kind == "radius" else lo <= value <= hi):
            raise _expected(key, "a%s %s in %s" % ("n" * integer, kind, bounds), value)
        return value if integer else float(value)
    return Kind(kind, bounds, check, lo, hi)


def _sequence(kind, bounds, entry, length, ok=None):
    """A list of `length` entries, or of (least, most), or of length(ctx), of the
    kind `entry`, each named by its index, that pass ok = (what it wants, test)."""
    def check(value, key, ctx):
        n = length(ctx) if callable(length) else length
        least, most = n if isinstance(n, tuple) else (n, n)
        if not isinstance(value, list) or not least <= len(value) <= most:
            raise _expected(key, "%s entries" % ("%d to %d" % n if least < most else n), value)
        xs = [entry.check(x, "%s[%d]" % (key, i)) for i, x in enumerate(value)]
        if ok and not ok[1](xs):
            raise _expected(key, ok[0], value)
        return xs
    return Kind(kind, bounds, check, entry.lo, entry.hi, contextual=True)


def _string(bounds, load):
    """A string, loaded; a JSON integer would reach open() as a file descriptor."""
    def check(value, key):
        if not isinstance(value, str):
            raise _expected(key, "a string", value)
        try:
            return load(value)
        except (KeyError, OSError, ValueError) as e:
            raise ValueError("%s: %s" % (key, e)) from None
    return Kind("name", bounds, check)


def _control(value, key, ctx):
    """{"csv": file}, or {"name": n, "params": {...}} with the params n declares."""
    if isinstance(value, dict) and "csv" in value:
        return _read({"csv": _string("", lambda path: cv.control_from_csv(
            ctx["group"], path))}, value, key + " ", ctx)["csv"]
    spec = _read({"name": ANY, "params": ANY({})}, value, key + " ", ctx)
    if spec["name"] not in list(CONTROL_PARAMS):
        raise ValueError("%s name: unknown control %r" % (key, spec["name"]))
    params = _read(CONTROL_PARAMS[spec["name"]], spec["params"], key + " params ", ctx)
    return cv.make_control(ctx["group"], spec["name"],
                           **{k: v for k, v in params.items() if v is not None})


ANY = Kind("any", "", lambda value, key: value)
NUMBER = _numeric("number", -MAX_RADIUS, MAX_RADIUS)
RADIUS = _numeric("radius", 0, MAX_RADIUS)
COUNT = functools.partial(_numeric, "integer")
INTERVAL = _sequence("interval", "t0 < t1", NUMBER, 2, ("t0 < t1", lambda t: t[0] < t[1]))
SCALES = _sequence("scales", "1 to 32, decreasing", _numeric("number", 1e-12, 1),
                   (1, 32), ("decreasing", lambda hs: all(a > b for a, b in zip(hs, hs[1:]))))
CONTROL_PARAMS = {
    "line": {"direction": _sequence("point", "first-layer dimension", NUMBER, lambda ctx: len(
        ctx["group"].layer_indices(1)))(None, "e_1"),
             "domain": INTERVAL(None, "[0, 1]")},
    "circle": {"radius": RADIUS(None, "1"), "domain": INTERVAL(None, "[0, 2 pi]")},
    "square": {},
    "parabola": {"domain": INTERVAL(None, "[0, 1]")}}


def _lift(c):
    g = c["group"]
    start = GroupElement(g, np.zeros(g.dim) if c["start"] is None else np.array(c["start"]))
    curve = cv.horizontal_lift(c["control"], start, c["steps"], c["tol"])
    rep = cv.is_horizontal(curve, tol=c["check_tol"])
    return {"endpoint": list(map(float, curve.coords[-1])),
            "horizontal_residual": rep.max_residual, "horizontal": bool(rep.ok)}, {
        "_curve.csv": (["t"] + list(g.basis_names), np.column_stack([curve.ts, curve.coords]))}


def _pansu(c):
    g, (t0, t1), t = c["group"], c["control"].domain, c["t"]
    if not t0 <= t <= t + c["scales"][0] <= t1:  # the scales decrease
        raise ValueError("t: expected t and t + scales[0] in the control domain [%g, %g], "
                         "got %r" % (t0, t1, t))
    curve = cv.horizontal_lift(c["control"], GroupElement(g, np.zeros(g.dim)), c["steps"])
    vals = cv.pansu_quotient_norms(curve, t, c["scales"])
    return {"order": cv.decay_order(c["scales"], vals), "norms": list(map(float, vals))}, {
        "_quotient.csv": (["h", "quotient_norm"], zip(c["scales"], vals))}


def _mvi(c):
    mv = pdiff.mean_value_ratio(c["map"], c["center"], c["r1"], c["r2"],
                                pair_samples=c["pairs"], bins=c["bins"], seed=c["seed"])
    csv = ["edge", "ratio_sup", "defect_sup"], zip(mv.bin_edges[:-1], mv.bin_sup, mv.bin_defect)
    return {"decreasing": bool(mv.decreasing()), "ratio_sups": mv.bin_sup,
            "defect_sups": mv.bin_defect}, {"_bins.csv": csv}


def _implicit(c):
    f, n = c["map"], range(c["map"].domain.dim)
    sol, numerical = pdiff.implicit_function(f, c["base_point"], {
        k: c[k] for k in ("radius", "counts", "shrink_attempts")}, c["tol"], c["budget"])
    return {**sol.holder_constants(), "uniqueness": pdiff.uniqueness_check(sol, seed=c["seed"]),
            "max_residual": float(np.max(sol.residuals)), "numerical_kernel": bool(numerical)}, {
        "_graph.csv": (["n%d" % i for i in n] + ["phi%d" % i for i in n] + ["residual"],
                       np.column_stack([sol.nodes, sol.phis, sol.residuals]))}


def _rank(c):
    rp = pdiff.rank_parametrization(c["map"], c["base_point"], c["radius"], c["count"])
    return {"lip_ratio": rp.lip_ratio, "graph_sup": float(np.max(np.abs(rp.phi_points)))}, {}


def _blowup(c):
    f, xbar = c["map"], c["base_point"]
    sol, _ = pdiff.implicit_function(f, xbar, {"radius": c["radius"], "counts": c["counts"]})
    rep = pdiff.tangent_cone_samples(pdiff.LevelSetSampler(f, xbar, sol), xbar, sol.kernel,
                                     c["scales"], R=c["R"], count=c["count"], seed=c["seed"])
    return {"decreasing": bool(rep.decreasing), "final": rep.distances[-1],
            "cone_bracket_rank": pdiff.tangent_cone_bracket_rank(sol.kernel)}, {
        "_blowup.csv": (["lambda", "hausdorff", "set_to_cone", "cone_to_set"],
                        zip(rep.scales, rep.distances, rep.set_to_cone, rep.cone_to_set))}


def _estimates(c):
    m, nu, n, seed = _metric_for(c["group"]), c["nu"], c["samples"], c["seed"]
    consts = [*cmetric.verify_projection_estimate(m, radius=nu, samples=n, seed=seed),
              cmetric.norm_exp_estimate(m, nu=nu, samples=n, seed=seed),
              cmetric.left_inverse_estimate(m, nu=nu, samples=n, seed=seed),
              *cmetric.verify_conjugation_estimate(m, nu=nu, samples=n, seed=seed),
              cmetric.verify_product_estimate(m, nu=nu, samples=max(n // 8, 50), seed=seed),
              cmetric.first_layer_constant(m, radius=nu, samples=n, seed=seed),
              cmetric.quasi_triangle_constant(m, radius=nu, samples=n, seed=seed)]
    return {"constants": {k.label: k.sup_observed for k in consts}}, {
        "_constants.csv": (["label", "nu", "samples", "sup"], [k.csv_row() for k in consts])}


GROUP = _string("catalog name or group file", _load_group)
MAP = _string("named map", lambda name: pdiff.named_map(name))
CONTROL = Kind("control", "`csv`, or `name` and `params`", _control, contextual=True)
COUNTS = _sequence("integer list", "1 per kernel direction, product <= 2048", COUNT(1, 2048),
                   lambda ctx: (1, ctx["map"].domain.dim),
                   ("at most 2048 nodes", lambda n: math.prod(n) <= 2048))(None, "7 per axis")
POINT = _sequence("point", "map domain dimension", NUMBER, lambda ctx: ctx["map"].domain.dim)
SEED = COUNT(0, 2 ** 32 - 1)(None, "--seed")  # a key of every action

# Each action: run(values), giving the summary entries and each CSV file as suffix:
# (header, rows), and its keys besides `seed`, with maxima that bound its memory.
ACTIONS = {
    "lift": (_lift, dict(group=GROUP, control=CONTROL, start=_sequence(
        "point", "group dimension", NUMBER, lambda ctx: ctx["group"].dim)(None, "origin"),
        steps=COUNT(2, 10 ** 5)(512), tol=NUMBER(1e-8), check_tol=NUMBER(1e-6))),
    "pansu": (_pansu, dict(group=GROUP, control=CONTROL, steps=COUNT(2, 10 ** 5)(2048),
                           t=NUMBER(0.5), scales=SCALES([1e-1, 1e-2, 1e-3, 1e-4]))),
    "mvi": (_mvi, dict(map=MAP, center=POINT, r1=RADIUS, r2=RADIUS,
                       pairs=COUNT(1, 20000)(800), bins=COUNT(1, 16)(4))),
    "implicit": (_implicit, dict(map=MAP, base_point=POINT, radius=RADIUS(0.3), counts=COUNTS,
                                 shrink_attempts=COUNT(0, 16)(3), tol=NUMBER(1e-10),
                                 budget=COUNT(1, 1000)(100))),
    "rank": (_rank, dict(map=MAP, base_point=POINT, radius=RADIUS(0.25), count=COUNT(1, 12)(5))),
    "blowup": (_blowup, dict(map=MAP, base_point=POINT, radius=RADIUS(0.4), counts=COUNTS,
                             scales=SCALES([1e-1, 1e-2, 1e-3]), R=RADIUS(1.0),
                             count=COUNT(1, 4000)(400))),
    "verify-estimates": (_estimates, dict(group=GROUP, nu=RADIUS(1.0),
                                          samples=COUNT(1, 10 ** 7)(2000))),
}


def cmd_experiment(args):
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except (OSError, ValueError) as e:
        raise _BadInput("invalid config %s" % args.config, e) from None
    run, keys = ACTIONS[args.action]
    try:
        values = _read(dict(keys, seed=SEED), cfg, "", {})
        seed = values["seed"] = args.seed if values["seed"] is None else values["seed"]
        summary, csvs = run(values)
    except ValueError as e:
        raise _BadInput("invalid %s config %s" % (args.action, args.config), e) from None
    except RuntimeError as e:  # a solver or integrator that did not converge
        print(json.dumps({"error": str(e)}))
        return EXIT_SOLVER
    os.makedirs(args.output_dir, exist_ok=True)
    base = os.path.join(args.output_dir, os.path.splitext(os.path.basename(args.config))[0])
    outputs = [cio.write_csv(base + suffix, *csv) for suffix, csv in csvs.items()]
    text = json.dumps({"experiment": args.action, "seed": seed, **summary},
                      indent=2, sort_keys=True, default=float)
    with open(base + "_summary.json", "w") as f:
        f.write(text + "\n")
    manifest = cio.RunManifest(command="experiment %s" % args.action, seed=seed,
                               outputs=outputs + [f.name])
    manifest.add_input(args.config)
    manifest.write(base + "_manifest.json")
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# One parser per process: it saves the build only where `main` runs more
# than once in one process (tests, in-process benchmark tasks); parsing
# leaves the parser as it is.
@functools.lru_cache(maxsize=None)
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
    e.add_argument("action", choices=list(ACTIONS))
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
