"""The three workloads of the carnot benchmark.

Each workload is one client in a closed loop over a fixed task mix.  Its
inputs come only from the seed: ``setup`` builds the algebras and every
input that needs the library to generate it, and ``round_tasks(state, b)`` returns
the tasks of round ``b`` (one task per cell of the mix), drawn from
``numpy.random.default_rng([seed, b])``.
A task is a callable that runs the library, checks the output and returns a
canonical string for the run digest; a failed check raises ``CheckFailed``.

Library functions are always looked up on their module at call time
(``bch.group_product``, never a name bound at import), so the traced run's
wrappers see every call the benchmark makes.
"""

import contextlib
import io as _stdio
import json
import math
import os
from fractions import Fraction as Q

import numpy as np

from carnot import bch, catalog, curves, metric, pdiff, subgroups
from carnot import cli as carnot_cli
from carnot.algebra import AlgebraVector, GroupElement, homogeneous_dimension
from carnot.morphism import GradedMorphism


class CheckFailed(Exception):
    """A task's output failed the benchmark's correctness check."""


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


def rounded(values, tol):
    """Float outputs for the digest, rounded to their check tolerance."""
    arr = np.asarray(values, dtype=float).ravel()
    return ",".join("%d" % v for v in np.rint(arr / tol).astype(np.int64))


def coords_text(coords):
    return ",".join(str(c) for c in coords)


class Task:
    __slots__ = ("kind", "fn")

    def __init__(self, kind, fn):
        self.kind = kind
        self.fn = fn


def _run_cli(argv):
    """carnot.cli.main in-process; returns (exit code, printed JSON)."""
    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = carnot_cli.main(argv)
    text = buf.getvalue()
    return code, (json.loads(text) if code == 0 else text)


def _write_config(workdir, name, cfg):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


# ---------------------------------------------------------------------------
# exact_law
# ---------------------------------------------------------------------------

class ExactLaw:
    """Exact group law on random rational pairs and triples, steps 2-5."""

    name = "exact_law"
    groups = ("h1", "h12", "g42", "free_2_3", "free_3_3", "free_2_4", "free_2_5")
    digest_rounds = 12

    def setup(self, seed, workdir):
        algs = {n: catalog.get(n) for n in self.groups}
        for alg in algs.values():
            bch.bch_word_polynomial(alg.step)   # the oracle's one-time table
        return {"seed": seed, "algs": algs}

    @staticmethod
    def _vectors(alg, rng, count):
        nums = rng.integers(-5, 6, size=(count, alg.dim))
        dens = rng.integers(1, 4, size=(count, alg.dim))
        return [AlgebraVector(alg, [Q(int(a), int(b)) for a, b in zip(nr, dr)])
                for nr, dr in zip(nums, dens)]

    def round_tasks(self, state, b):
        rng = np.random.default_rng([state["seed"], b])
        prods, assocs, terms = [], [], []
        for name in self.groups:
            alg = state["algs"][name]
            x, y, a, bb, c = self._vectors(alg, rng, 5)
            prods.append(Task("group_product", lambda x=x, y=y: self._product(x, y)))
            assocs.append(Task("associativity",
                               lambda a=a, b=bb, c=c: self._assoc(a, b, c)))
            terms.append(Task("bch_terms", lambda x=x, y=y: self._terms(x, y)))
        return prods + assocs + terms

    @staticmethod
    def _product(x, y):
        z = bch.group_product(x, y)
        ref = bch.series_oracle_product(x, y)   # also runs the matrix model
        check(z.coords == ref.coords, "recursion != series oracle")
        return coords_text(z.coords)

    @staticmethod
    def _assoc(a, b, c):
        left = bch.group_product(bch.group_product(a, b), c)
        right = bch.group_product(a, bch.group_product(b, c))
        check(left.coords == right.coords, "exact associativity fails")
        return coords_text(left.coords)

    @staticmethod
    def _terms(x, y):
        alg = x.algebra
        acc = [Q(0)] * alg.dim
        for n in range(1, alg.step + 1):
            acc = [s + t for s, t in zip(acc, bch.bch_term(n, x, y).coords)]
        check(tuple(acc) == bch.group_product(x, y).coords,
              "sum of c_n != group product")
        return coords_text(acc)

    def finish(self, state):
        return []

    def inputs(self, state):
        return _mix(state["algs"].values())


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _qdim(sub):
    if sub.total_dim == 0:
        return 0
    return homogeneous_dimension(subgroups.subalgebra_as_algebra(sub))


def _check_pair(alg, a, b):
    """Complementary pair with exact homogeneous-dimension additivity."""
    check(subgroups.is_complementary(a, b), "witness is not complementary")
    check(_qdim(a) + _qdim(b) == homogeneous_dimension(alg),
          "homogeneous dimensions do not add up")


def _basis_text(sub):
    return "|".join(coords_text(v) for v in sub.basis())


class Classify:
    """Complements and h-epi / h-mono classification of random homogeneous
    subalgebras; no group law."""

    name = "classify"
    groups = ("h1", "h2", "h3", "g42", "h12", "free_2_3", "free_3_2")
    budget = 6          # random-search trials before a search gives up
    digest_rounds = 2
    max_draws = 400

    def setup(self, seed, workdir):
        algs = {n: catalog.get(n) for n in self.groups}
        return {"seed": seed, "algs": algs, "ideals": 0, "others": 0}

    def _draw(self, alg, rng):
        """Two ideals, one non-ideal and one inclusion for one group."""
        ideals, others, first = [], [], None
        for _ in range(self.max_draws):
            sub = subgroups.random_homogeneous_subalgebra(
                alg, rng, n_generators=int(rng.integers(1, 3)))
            if sub.total_dim in (0, alg.dim):
                continue
            if first is None:
                first = sub
            if subgroups.is_ideal(sub):
                if len(ideals) < 2:
                    ideals.append(sub)
            elif not others:
                others.append(sub)
            if len(ideals) == 2 and others:
                break
        return {"ideals": ideals, "others": others, "mono": first,
                "seeds": [int(s) for s in rng.integers(0, 2 ** 31, size=4)]}

    def round_tasks(self, state, b):
        """Fresh subalgebras every round, so that a run averages over many
        inputs and the tail does not hang on a few of them."""
        rng = np.random.default_rng([state["seed"], b])
        tasks = []
        for name in self.groups:
            cell = self._draw(state["algs"][name], rng)
            state["ideals"] += len(cell["ideals"])
            state["others"] += len(cell["others"])
            seeds = iter(cell["seeds"])
            for sub in cell["ideals"]:
                tasks.append(Task("ideal", lambda s=sub, k=next(seeds):
                                  self._complement(s, True, k)))
            for sub in cell["others"]:
                tasks.append(Task("non_ideal", lambda s=sub, k=next(seeds):
                                  self._complement(s, False, k)))
            tasks.append(Task("inclusion", lambda s=cell["mono"], k=next(seeds):
                              self._inclusion(s, k)))
        return tasks

    def _complement(self, sub, ideal, seed):
        alg = sub.algebra
        out = subgroups.find_complement(sub, budget=self.budget, seed=seed)
        if out.verdict == "h_epimorphism":
            _check_pair(alg, sub, out.witness)
            detail = _basis_text(out.witness)
        elif out.verdict == "surjective_not_epi":
            check(ideal, "nonexistence claimed for a non-ideal")
            check(isinstance(out.witness, subgroups.NonexistenceCertificate),
                  "surjective_not_epi without a NonexistenceCertificate")
            detail = out.witness.reason
        else:
            check(out.verdict == "undecided" and
                  isinstance(out.witness, subgroups.BudgetExhausted),
                  "unexpected verdict %r" % out.verdict)
            detail = str(out.witness.trials)
        return "%s:%s:%s" % (_basis_text(sub), out.verdict, detail)

    def _inclusion(self, sub, seed):
        alg = sub.algebra
        small = subgroups.subalgebra_as_algebra(sub)
        basis = sub.basis()
        incl = GradedMorphism(small, alg, [[v[r] for v in basis]
                                           for r in range(alg.dim)])
        out = subgroups.classify_monomorphism(incl, budget=self.budget, seed=seed)
        if out.verdict == "h_monomorphism":
            n = out.normal_complement
            check(subgroups.is_ideal(n), "normal complement is not an ideal")
            _check_pair(alg, n, out.image)
            proj = out.projection
            check(all(proj.apply_coords(tuple(v)) == tuple(v) for v in basis),
                  "projection is not the identity on the image")
            detail = _basis_text(n)
        else:
            check(out.verdict == "undecided" and
                  isinstance(out.normal_complement, subgroups.BudgetExhausted),
                  "unexpected verdict %r" % out.verdict)
            detail = str(out.normal_complement.trials)
        return "%s:%s:%s" % (_basis_text(sub), out.verdict, detail)

    def finish(self, state):
        return []

    def inputs(self, state):
        drawn = state["ideals"] + state["others"]
        out = _mix(state["algs"].values())
        out["ideal_share"] = round(state["ideals"] / max(1, drawn), 4)
        out["complement_inputs"] = drawn
        return out


# ---------------------------------------------------------------------------
# level_set
# ---------------------------------------------------------------------------

XI = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
ETA = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
SCALES = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
HS = (1e-1, 1e-2, 1e-3, 1e-4)


def _lift_target(control, radius):
    """Closed-form endpoint of the lift from the identity of h1."""
    if control == "square":
        return np.array([0.0, 0.0, 1.0])
    if control == "parabola":
        return np.array([1.0, 1.0, 1.0 / 6.0])
    return np.array([0.0, 0.0, math.pi * radius ** 2])


class LevelSet:
    """Task family: criteria 08-10 cut into short tasks, horizontal lifts
    with Pansu quotients, and in-process CLI experiments.  Scalar damped
    Newton and the per-point float group law dominate."""

    cone_points = 20
    mv_pairs = 100

    def setup(self, seed, workdir):
        h2 = catalog.get("h2")
        h1 = catalog.get("h1")
        f = pdiff.radial_level_map(h2)
        sol, _ = pdiff.implicit_function(f, XI, {"radius": 0.4, "counts": [9, 9, 3]})
        sampler = pdiff.LevelSetSampler(f, XI, sol)
        configs = {
            "lift": _write_config(workdir, "lift", {
                "group": "h1", "control": {"name": "square"}, "steps": 400}),
            "implicit": _write_config(workdir, "implicit", {
                "map": "radial_level", "base_point": list(ETA),
                "radius": 0.3, "counts": [5, 5, 1]}),
            "blowup": _write_config(workdir, "blowup", {
                "map": "radial_level", "base_point": list(XI), "radius": 0.4,
                "counts": [5, 5, 3], "scales": [0.1, 0.01], "count": 12}),
        }
        return {"seed": seed, "f": f, "h1": h1, "h2": h2, "sol": sol,
                "sampler": sampler, "configs": configs, "workdir": workdir,
                "scale_max": {lam: 0.0 for lam in SCALES}}

    def round_tasks(self, state, b):
        rng = np.random.default_rng([state["seed"], b])
        seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=4)]
        r_xi, r_eta = rng.uniform(0.2, 0.45), rng.uniform(0.2, 0.3)
        lam = SCALES[b % len(SCALES)]
        control = ("square", "parabola", "circle")[b % 3]
        steps = int(rng.integers(400, 700))
        radius = float(rng.uniform(0.5, 1.5))
        t_frac = float(rng.uniform(0.2, 0.7))
        action = ("lift", "implicit", "blowup")[b % 3]
        return [
            Task("implicit", lambda: self._implicit(state, XI, r_xi, 0)),
            Task("implicit", lambda: self._implicit(state, ETA, r_eta, 1)),
            Task("tangent_cone", lambda: self._cone(state, lam, seeds[0])),
            Task("mean_value", lambda: self._mean_value(state, seeds[1])),
            Task("lift", lambda: self._lift(state, control, steps, radius, t_frac)),
            Task("cli_" + action, lambda: self._cli(state, action, seeds[2])),
        ]

    @staticmethod
    def _implicit(state, xbar, radius, bracket_rank):
        sol, numerical = pdiff.implicit_function(
            state["f"], xbar, {"radius": radius, "counts": [5, 5, 1]}, tol=1e-10)
        check(not numerical, "kernel was computed numerically")
        check(float(np.max(sol.residuals)) <= 1e-8, "implicit residual above 1e-8")
        check(pdiff.tangent_cone_bracket_rank(sol.kernel) == bracket_rank,
              "tangent cone bracket rank")
        return rounded(sol.phis, 1e-8)

    def _cone(self, state, lam, seed):
        rep = pdiff.tangent_cone_samples(state["sampler"], XI, state["sol"].kernel,
                                         [lam], R=1.0, count=self.cone_points,
                                         seed=seed)
        d = rep.distances[0]
        check(math.isfinite(d) and d > 0, "blow-up distance not finite and > 0")
        state["scale_max"][lam] = max(state["scale_max"][lam], d)
        return rounded(d, 1e-9)

    def _mean_value(self, state, seed):
        tab = pdiff.mean_value_ratio(state["f"], XI, r1=0.6, r2=8.0,
                                     pair_samples=self.mv_pairs, bins=4, seed=seed)
        sups = np.asarray(tab.bin_sup)
        check(bool(np.all(np.isfinite(sups)) and np.all(sups > 0)),
              "mean-value sups not finite and > 0")
        return rounded(sups, 1e-9)

    @staticmethod
    def _lift(state, control, steps, radius, t_frac):
        h1 = state["h1"]
        start = GroupElement(h1, np.zeros(3))
        ctl = curves.make_control(h1, control, radius=radius) if control == "circle" \
            else curves.make_control(h1, control)
        crv = curves.horizontal_lift(ctl, start, steps=steps)
        err = float(np.max(np.abs(crv.coords[-1] - _lift_target(control, radius))))
        check(err <= 1e-8, "lift endpoint error %.3g above 1e-8" % err)
        out = rounded(crv.coords[-1], 1e-8)
        if control == "square":
            check(curves.is_horizontal(crv, tol=1e-6).ok, "lift not horizontal")
            return out
        a, b = crv.domain
        vals = curves.pansu_quotient_norms(crv, a + t_frac * (b - a), HS)
        check(bool(np.all(np.isfinite(vals)) and np.all(vals > 0)),
              "Pansu quotients not finite and > 0")
        bound = 1.05 * vals[0] / HS[0]
        check(all(v <= bound * h for v, h in zip(vals, HS)),
              "Pansu quotient exceeds the first-order bound")
        return out + ";" + rounded(vals, 1e-9)

    @staticmethod
    def _cli(state, action, seed):
        code, summary = _run_cli(["--seed", str(seed), "--output-dir",
                                  state["workdir"], "experiment", action,
                                  state["configs"][action]])
        check(code == 0, "experiment %s exited %s" % (action, code))
        if action == "lift":
            err = float(np.max(np.abs(np.asarray(summary["endpoint"]) -
                                      _lift_target("square", 1.0))))
            check(err <= 1e-8 and summary["horizontal"], "CLI lift check")
            return rounded(summary["endpoint"], 1e-8)
        if action == "implicit":
            check(summary["max_residual"] <= 1e-8, "CLI implicit residual above 1e-8")
            check(math.isfinite(summary["kappa"]) and summary["kappa"] > 0,
                  "CLI kappa not finite and > 0")
            return rounded([summary["kappa"], summary["uniqueness"]], 1e-9)
        check(math.isfinite(summary["final"]) and summary["final"] > 0,
              "CLI blow-up distance not finite and > 0")
        return rounded(summary["final"], 1e-9)

    def finish(self, state):
        """The per-scale sup distances over the whole run must decrease
        (10% slack, as in BlowupReport) down to <= 0.05."""
        seen = [state["scale_max"][lam] for lam in SCALES if state["scale_max"][lam] > 0]
        return [
            ("blowup_decreasing", all(b <= a * 1.10 for a, b in zip(seen, seen[1:])),
             "per-scale blow-up distances %s" % seen),
            ("blowup_smallest", bool(seen) and seen[-1] <= 0.05,
             "smallest-scale blow-up distance of %s" % seen),
        ]

    def inputs(self, state):
        return _mix([state["h1"], state["h2"]])


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------

# Per-group sample counts: rejection sampling from a box costs ~0.01 ms per
# accepted point on h1 and ~13 ms on g42, so counts are set per group.
EST_GROUPS = (
    # name, gauge, box samples, ball samples, product-list samples, cloud
    ("h1", "koranyi", 8000, 2000, 50, 200),
    ("h12", "koranyi", 40000, 50, 5, 50),
    ("g42", "koranyi", 80000, 4, 1, 8),
    ("free_2_3", "weighted_max", 40000, 2000, 50, 200),
    ("free_2_4", "weighted_max", 40000, 400, 10, 100),
)
CLI_EST = (("h1", 400), ("free_2_3", 400), ("free_2_4", 100))


def _sup_ok(value, what):
    check(math.isfinite(value) and value > 0, "%s sup not finite and > 0" % what)
    return value


class Estimates:
    """Task family: metric-estimate routines over the batched float group
    law, Hausdorff distances between sampled clouds, and in-process
    verify-estimates.  Rejection sampling dominates."""

    def setup(self, seed, workdir):
        metrics = {}
        for name, gauge, *_ in EST_GROUPS:
            alg = catalog.get(name)
            alg.float_ops()
            metrics[name] = metric.koranyi(alg) if gauge == "koranyi" \
                else metric.weighted_max(alg)
        configs = {name: _write_config(workdir, "est_" + name, {
            "group": name, "samples": samples}) for name, samples in CLI_EST}
        return {"seed": seed, "metrics": metrics, "configs": configs,
                "workdir": workdir}

    def round_tasks(self, state, b):
        rng = np.random.default_rng([state["seed"], b, 1])
        tasks = []
        for name, gauge, box, ball, prods, cloud in EST_GROUPS:
            m = state["metrics"][name]
            s = [int(v) for v in rng.integers(0, 2 ** 31, size=8)]
            tasks += [
                Task("projection", lambda m=m, k=s[0], n=box: self._projection(m, n, k)),
                Task("norm_exp", lambda m=m, k=s[1], n=box: self._one(
                    metric.norm_exp_estimate(m, nu=1.0, samples=n, seed=k))),
                Task("left_inverse", lambda m=m, k=s[2], n=box: self._one(
                    metric.left_inverse_estimate(m, nu=1.0, samples=n, seed=k))),
                Task("conjugation", lambda m=m, k=s[3], n=ball: self._conjugation(m, n, k)),
                Task("product", lambda m=m, k=s[4], n=prods: self._one(
                    metric.verify_product_estimate(m, nu=1.0, samples=n, seed=k))),
                Task("quasi_triangle", lambda m=m, k=s[5], n=ball: self._triangle(m, n, k)),
                Task("first_layer", lambda m=m, k=s[6], n=box: self._one(
                    metric.first_layer_constant(m, radius=1.0, samples=n, seed=k))),
                Task("hausdorff", lambda m=m, k=s[7], n=cloud: self._hausdorff(m, n, k)),
            ]
        name, _ = CLI_EST[b % len(CLI_EST)]
        seed = int(rng.integers(0, 2 ** 31))
        tasks.append(Task("cli_verify_estimates",
                          lambda: self._cli(state, name, seed)))
        return tasks

    @staticmethod
    def _one(const):
        return rounded(_sup_ok(const.sup_observed, const.label), 1e-9)

    @staticmethod
    def _projection(m, n, seed):
        consts = metric.verify_projection_estimate(m, radius=1.0, samples=n, seed=seed)
        return rounded([_sup_ok(c.sup_observed, c.label) for c in consts], 1e-9)

    @staticmethod
    def _conjugation(m, n, seed):
        consts = metric.verify_conjugation_estimate(m, nu=1.0, samples=n, seed=seed)
        return rounded([_sup_ok(c.sup_observed, c.label) for c in consts], 1e-9)

    @staticmethod
    def _triangle(m, n, seed):
        const = metric.quasi_triangle_constant(m, radius=1.0, samples=n, seed=seed)
        sup = _sup_ok(const.sup_observed, const.label)
        if m.kind == "koranyi" and m.algebra.name in ("h1", "h12"):
            check(sup <= 1.0 + 1e-9, "Koranyi quasi-triangle %.12g > 1 + 1e-9" % sup)
        return rounded(sup, 1e-9)

    @staticmethod
    def _hausdorff(m, n, seed):
        rng = np.random.default_rng(seed)
        a = metric.sample_ball(m, 1.0, n, rng)
        b = metric.sample_ball(m, 1.0, n, rng)
        d = pdiff.hausdorff_distance(m, a, b)
        return rounded(_sup_ok(d, "hausdorff"), 1e-9)

    @staticmethod
    def _cli(state, name, seed):
        code, summary = _run_cli(["--seed", str(seed), "--output-dir",
                                  state["workdir"], "experiment", "verify-estimates",
                                  state["configs"][name]])
        check(code == 0, "verify-estimates exited %s" % code)
        consts = summary["constants"]
        return rounded([_sup_ok(consts[k], k) for k in sorted(consts)], 1e-9)

    def inputs(self, state):
        return _mix(m.algebra for m in state["metrics"].values())


class Analytic:
    """The float stack's analytic routines: each round is two level-set rounds
    and one estimates round, about equal in time.  One workload rather than
    two, so that each run can measure longer on a noisy host."""

    name = "analytic"
    digest_rounds = 1
    level_set = LevelSet()
    estimates = Estimates()

    def setup(self, seed, workdir):
        return {"level_set": self.level_set.setup(seed, workdir),
                "estimates": self.estimates.setup(seed, workdir)}

    def round_tasks(self, state, b):
        ls = state["level_set"]
        return (self.level_set.round_tasks(ls, 2 * b) +
                self.level_set.round_tasks(ls, 2 * b + 1) +
                self.estimates.round_tasks(state["estimates"], b))

    def finish(self, state):
        return self.level_set.finish(state["level_set"])

    def inputs(self, state):
        return {"level_set": self.level_set.inputs(state["level_set"]),
                "estimates": self.estimates.inputs(state["estimates"])}


def _mix(algs):
    """Step and dimension mix of the groups a workload draws from."""
    algs = list(algs)
    steps = sorted({a.step for a in algs})
    return {"groups": [a.name for a in algs],
            "steps": steps,
            "dims": [a.dim for a in algs]}


WORKLOADS = {w.name: w for w in (ExactLaw(), Classify(), Analytic())}
