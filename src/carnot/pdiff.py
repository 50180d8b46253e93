"""Pansu differentiability experiments for group-valued maps: numerical
differentials, the layer recursion for the full differential, contact-system
checks, the mean value defect, Newton-based inverse/implicit/rank solvers,
and tangent-cone blow-ups.

Maps are black boxes on a coordinate box; an analytic first-layer
differential can be attached (exact rational where possible) and is preferred
for kernel and complement computations, since classification verdicts from a
numerically thresholded rank are only as good as the threshold.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .algebra import homogeneous_dimension
from .bch import group_product_np
from .curves import contact_derivative
from .morphism import GradedMorphism
from .metric import default_metric, sample_ball, sphere_point
from .subgroups import (HomogeneousSubalgebra, classify_epimorphism,
                        classify_monomorphism, layered_decomposition)

Q = Fraction


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

class PDMap:
    """Group-valued map on a coordinate box.

    evaluator: float coords -> float coords.
    dfirst:    optional analytic first-layer differential, x -> matrix of
               shape (dim W_1, dim V_1) on the layer-1 bases.
    dfirst_exact: same but Fraction-valued at exact points (enables exact
               kernel/complement classification).
    """

    def __init__(self, domain, codomain, evaluator, box=None, dfirst=None,
                 dfirst_exact=None, name="map"):
        self.domain = domain
        self.codomain = codomain
        self.evaluator = evaluator
        self.box = box
        self.dfirst = dfirst
        self.dfirst_exact = dfirst_exact
        self.name = name

    def __call__(self, coords):
        return np.asarray(self.evaluator(np.asarray(coords, dtype=float)), dtype=float)

    def in_box(self, coords):
        if self.box is None:
            return True
        lo, hi = self.box
        return bool(np.all(coords >= lo) and np.all(coords <= hi))


def compose_maps(g, f, name=None):
    if f.codomain != g.domain:
        raise ValueError("compose_maps needs f.codomain == g.domain")
    return PDMap(f.domain, g.codomain, lambda x: g(f(x)),
                 box=f.box, name=name or ("%s*%s" % (g.name, f.name)))


def hom_map(L, name=None):
    """The map induced by an h-homomorphism (exact contact structure)."""
    Lf = L.to_float()
    return PDMap(L.domain, L.codomain, lambda x: Lf.matrix @ x,
                 dfirst=lambda x: _layer_block(Lf, 1), name=name or "hom")


def _layer_block(L, layer):
    di = L.domain.layer_indices(layer)
    ci = L.codomain.layer_indices(layer)
    return np.asarray(L.matrix, dtype=float)[np.ix_(ci, di)]


def dilation_map(algebra, r):
    ops = algebra.float_ops()
    m = len(algebra.layer_indices(1))
    return PDMap(algebra, algebra, lambda x: ops.dilate(x, float(r)),
                 dfirst=lambda x: float(r) * np.eye(m), name="dilation")


def left_translation_map(g):
    alg = g.algebra
    gc = np.asarray(g.to_float().coords, dtype=float)
    m = len(alg.layer_indices(1))
    return PDMap(alg, alg,
                 lambda x: group_product_np(alg, gc, x),
                 dfirst=lambda x: np.eye(m), name="left_translation")


def radial_level_map(h2):
    """f(x1..x5) = (sqrt(x2^2 + x3^2), x4) on the 5-dimensional Heisenberg
    group; its level sets have tangent cones of different bracket type at
    different points."""
    from .catalog import abelian
    r2 = abelian(2)

    def ev(x):
        return np.array([math.hypot(x[1], x[2]), x[3]])

    def dfirst(x):
        r = math.hypot(x[1], x[2])
        return np.array([[0.0, x[1] / r, x[2] / r, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])

    def dfirst_exact(coords):
        c1, c2 = Q(coords[1]), Q(coords[2])
        rsq = c1 * c1 + c2 * c2
        root = _exact_sqrt(rsq)
        if root is None:
            raise ValueError("analytic differential is irrational here")
        return [[Q(0), c1 / root, c2 / root, Q(0)],
                [Q(0), Q(0), Q(0), Q(1)]]

    return PDMap(h2, r2, ev, dfirst=dfirst, dfirst_exact=dfirst_exact,
                 name="radial_level")


def _exact_sqrt(q):
    q = Q(q)
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Q(num, den)
    return None


def vertical_shear_map(h1):
    """(x, y, z) -> (x, y, z + x^2): smooth, but the vertical shift violates
    the contact system away from {x = 0}; both detectors (contact residual,
    difference-quotient divergence) must agree on flagging it."""
    def ev(x):
        out = x.copy()
        out[2] = x[2] + x[0] ** 2
        return out
    return PDMap(h1, h1, ev, dfirst=lambda x: np.eye(2), name="vertical_shear")


def corner_map(h1):
    """x -> |x_1|: Lipschitz but not P-differentiable on the crease."""
    from .catalog import abelian
    return PDMap(h1, abelian(1), lambda x: np.array([abs(x[0])]), name="corner")


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def group_log_difference(pdmap, x, h_vec):
    """log( f(x)^{-1} f(x o exp(h_vec)) ) in codomain coordinates."""
    dom, cod = pdmap.domain, pdmap.codomain
    xh = group_product_np(dom, x, h_vec)
    if not pdmap.in_box(xh):
        raise ValueError("domain exit")
    fx, fxh = pdmap(x), pdmap(xh)
    return group_product_np(cod, -fx, fxh)


def horizontal_derivative(pdmap, x, direction, h=1e-5):
    """Central group-difference quotient along a first-layer direction; its
    first-layer part converges to the horizontal differential."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(direction, dtype=float)
    plus = group_log_difference(pdmap, x, h * v)
    minus = group_log_difference(pdmap, x, -h * v)
    return (plus - minus) / (2 * h)


def component_differentials(domain, codomain, dfirst_matrix, f_at_x):
    """Differentials of the layer components F_j of F = log o f, through the
    triangular recursion

        dF_j(h) = sum_{n=2}^{step} ((-1)^n / n!) pi_j([F(x), dF(h)]_{n-1}),

    built for j = 2..step on top of dF_1 (the right side at layer j only
    reads layers < j): the contact derivative of curves, one column per
    first-layer direction; dF vanishes on vertical inputs.  These are the
    objects of the first-order contact system; note dF_j is generally
    nonzero on horizontal h, so this is not the layer-preserving group
    differential (see lift_differential).  Returns the matrix of
    h -> sum_j dF_j(h)."""
    block = np.asarray(dfirst_matrix, dtype=float)
    mat = np.zeros((codomain.dim, domain.dim))
    mat[:, domain.layer_indices(1)] = contact_derivative(codomain, f_at_x, block.T).T
    return mat


def _bracket_combinations(domain, layer):
    """Each basis vector e_k of a higher layer as an exact combination
    e_k = sum c [e_a, e_b] over the pairs with layer(a) + layer(b) = layer,
    read from the structure table: a list of (k, [(a, b, c), ...])."""
    idx = domain.layer_indices(layer)
    pairs, gens = [], []
    for a in range(domain.dim):
        for b in domain.layer_indices(layer - domain.layer_of[a]):
            terms = domain.struct.get((min(a, b), max(a, b)))
            if terms:
                sgn = 1 if a < b else -1
                pairs.append((a, b))
                gens.append([sgn * terms.get(k, Q(0)) for k in idx])
    system = [[g[t] for g in gens] for t in range(len(idx))]
    out = []
    for pos, k in enumerate(idx):
        target = [Q(1) if t == pos else Q(0) for t in range(len(idx))]
        comb = linalg.solve(system, target) if gens else None
        if comb is None:
            raise ValueError("domain is not stratified: cannot lift layer %d" % layer)
        out.append((k, [(a, b, c) for (a, b), c in zip(pairs, comb) if c]))
    return out


def lift_differential(domain, codomain, dfirst_matrix):
    """Extend a first-layer block to the full layer-preserving Pansu
    differential.  The domain must be stratified: each higher basis vector is
    written exactly as a combination of brackets of lower layers, and the
    homomorphism property transports the block upward.  (The component
    recursion of component_differentials cannot see the vertical blocks: it
    vanishes on vertical inputs by layer preservation of dF_1.)

    Accepts a float matrix (returns a float morphism, transported with the
    float bracket) or a Fraction matrix (exact morphism); the bracket
    combinations are exact in both modes."""
    exact = not isinstance(dfirst_matrix, np.ndarray)
    if exact:
        block = [[Q(c) for c in row] for row in dfirst_matrix]
        cast, brk = Q, codomain.bracket_coords
    else:
        block = np.asarray(dfirst_matrix, dtype=float)
        cast, brk = float, codomain.float_ops().bracket
    zero = cast(0)
    ci1 = codomain.layer_indices(1)
    cols = {}
    for pos, b in enumerate(domain.layer_indices(1)):
        cols[b] = [zero] * codomain.dim
        for rpos, k in enumerate(ci1):
            cols[b][k] = block[rpos][pos]
    for layer in range(2, domain.step + 1):
        for k, comb in _bracket_combinations(domain, layer):
            col = [zero] * codomain.dim
            for a, b, c in comb:
                col = [x + cast(c) * y for x, y in zip(col, brk(cols[a], cols[b]))]
            cols[k] = col
    matrix = [[cols[b][k] for b in range(domain.dim)] for k in range(codomain.dim)]
    if not exact:
        matrix = np.array(matrix, dtype=float).reshape(codomain.dim, domain.dim)
    return GradedMorphism(domain, codomain, matrix)


@dataclass
class DifferentialReport:
    morphism: object
    defect_by_scale: dict
    converged: bool


def pansu_differential(pdmap, x, h_grid=(1e-2, 1e-3, 1e-4), seed=0):
    """Numerical Pansu differential at x: first-layer columns by Richardson-
    extrapolated central quotients (or the analytic first-layer differential
    when attached), lifted to all layers; reports the sup of
    rho(f(x)^{-1} f(xh), L(h)) / d(h) per scale on 24 sampled unit
    directions."""
    dom, cod = pdmap.domain, pdmap.codomain
    x = np.asarray(x, dtype=float)
    di1 = dom.layer_indices(1)
    ci1 = cod.layer_indices(1)
    if pdmap.dfirst is not None:
        d1 = np.asarray(pdmap.dfirst(x), dtype=float)
    else:
        cols = []
        for pos, k in enumerate(di1):
            v = np.zeros(dom.dim)
            v[k] = 1.0
            h1, h2 = min(h_grid), min(h_grid) / 2
            a = horizontal_derivative(pdmap, x, v, h1)[ci1]
            b = horizontal_derivative(pdmap, x, v, h2)
            cols.append((4 * b[ci1] - a) / 3.0)
        d1 = np.stack(cols, axis=1)
    L = lift_differential(dom, cod, d1)
    dmetric = default_metric(dom)
    cmetric = default_metric(cod)
    rng = np.random.default_rng(seed)
    opsd = dom.float_ops()
    defects = {}
    for h in h_grid:
        worst = 0.0
        for _ in range(24):
            u = sphere_point(dmetric, rng.standard_normal(dom.dim))
            hv = opsd.dilate(u, h)
            try:
                diff = group_log_difference(pdmap, x, hv)
            except ValueError:
                continue
            lh = L.matrix @ hv
            gap = group_product_np(cod, -lh, diff)
            worst = max(worst, float(cmetric.quasi_norm_np(gap)) /
                        float(dmetric.quasi_norm_np(hv)))
        defects[h] = worst
    scales = sorted(defects)
    # a genuinely P-differentiable map either shows decay across scales or
    # sits at the float noise floor (roundoff in vertical components scales
    # like sqrt(eps)/h, so the ratio cannot decrease indefinitely)
    floor = 3e-5 * max(1.0, float(np.max(np.abs(np.asarray(L.matrix)))))
    decays = defects[scales[0]] <= max(0.5 * defects[scales[-1]], 1e-7)
    converged = decays or min(defects.values()) <= floor
    return DifferentialReport(L, defects, converged)


def contact_check(pdmap, sample_points):
    """Residual of the first-order contact system
    X_i F_j = sum_n ((-1)^n / n!) pi_j([F, X_i F]_{n-1}) for all horizontal
    directions i and layers j >= 2, by central differences of step 1e-5."""
    h = 1e-5
    dom, cod = pdmap.domain, pdmap.codomain
    copc = cod.float_ops()
    worst = 0.0
    for x in sample_points:
        x = np.asarray(x, dtype=float)
        fx = pdmap(x)
        for k in dom.layer_indices(1):
            v = np.zeros(dom.dim)
            v[k] = h
            xp = group_product_np(dom, x, v)
            xm = group_product_np(dom, x, -v)
            xif = (pdmap(xp) - pdmap(xm)) / (2 * h)
            res = copc.project_tail(xif - copc.dexp_series(fx, xif), 2)
            worst = max(worst, float(np.max(np.abs(res))))
    return worst


# ---------------------------------------------------------------------------
# mean value defect
# ---------------------------------------------------------------------------

@dataclass
class MeanValueTable:
    """Per dyadic separation bin: the sup of the defect ratio
    rho(f(x)^{-1}f(y), Df(x)(x^{-1}y)) / d(x,y) (bin_sup) and of the
    undivided defect rho(...) (bin_defect).  For a continuously
    P-differentiable map the ratio decreases to 0; the undivided defect
    decays one order faster."""
    bin_edges: list
    bin_sup: list
    bin_defect: list
    samples: int

    def decreasing(self, slack=1.10):
        return all(b <= a * slack for a, b in zip(self.bin_sup, self.bin_sup[1:]))


def mean_value_ratio(pdmap, center, r1, r2, pair_samples=2000, bins=4,
                     word_system=None, seed=0):
    """Binned sup of rho(f(x)^{-1} f(y), Df(x)(x^{-1} y)) / d(x, y) over pairs
    in the ball of radius r1, binned dyadically by d(x, y).

    The nesting precondition (the piecewise-horizontal connecting lines must
    stay where the differential is controlled) is checked through the word
    constant when a word system is supplied."""
    dom, cod = pdmap.domain, pdmap.codomain
    dmetric, cmetric = default_metric(dom), default_metric(cod)
    if word_system is not None:
        from .metric import word_constant
        c = word_constant(word_system, samples=100, seed=seed).sup_observed
        if r1 + 2.0 * c * word_system.length * (2 * r1) > r2:
            raise ValueError("nesting condition violated: enlarge r2")
    if pdmap.dfirst is None:
        raise ValueError("mean_value_ratio needs the analytic first-layer differential")
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    ops = dom.float_ops()
    # paired design: each (base point, direction) is evaluated once per bin
    # at the bin's representative separation y = x o delta_{s_k}(u), which
    # populates every dyadic bin and lets the bin sups inherit the pointwise
    # monotonicity of the defect instead of sampling noise
    xs = sample_ball(dmetric, r1 / 2, pair_samples, rng)
    edges = [r1 / 2 ** k for k in range(bins + 1)]
    sups = [0.0] * bins
    defects = [0.0] * bins
    used = 0
    for u in xs:
        x = group_product_np(dom, center, u)
        L = lift_differential(dom, cod, pdmap.dfirst(x))
        w = sphere_point(dmetric, rng.standard_normal(dom.dim))
        used += 1
        for k in range(bins):
            s = edges[k] * (2 / 3)  # interior of bin k: (edges[k+1], edges[k]]
            y = group_product_np(dom, x, ops.dilate(w, s))
            d = float(dmetric.distance_np(x, y))
            xy = group_product_np(dom, -x, y)
            pred = L.matrix @ xy
            fdiff = group_product_np(cod, -pdmap(x), pdmap(y))
            gap = group_product_np(cod, -pred, fdiff)
            rho = float(cmetric.quasi_norm_np(gap))
            sups[k] = max(sups[k], rho / d)
            defects[k] = max(defects[k], rho)
    return MeanValueTable(edges, sups, defects, used)


# ---------------------------------------------------------------------------
# Newton machinery
# ---------------------------------------------------------------------------

def _newton(residual, t0, tol=1e-10, budget=100):
    """Damped Newton with central finite-difference Jacobian (step 1e-6,
    relative once |t| > 1) and Armijo backtracking."""
    t = np.asarray(t0, dtype=float).copy()
    r = residual(t)
    best, best_t = float(np.linalg.norm(r)), t.copy()
    for _ in range(budget):
        nrm = float(np.linalg.norm(r))
        if nrm <= tol:
            return t, nrm, True
        n_out, n_in = len(r), len(t)
        jac = np.zeros((n_out, n_in))
        h = 1e-6 * max(1.0, float(np.linalg.norm(t)))
        for c in range(n_in):
            dt = np.zeros(n_in)
            dt[c] = h
            jac[:, c] = (residual(t + dt) - residual(t - dt)) / (2 * h)
        try:
            step = np.linalg.solve(jac, -r) if n_out == n_in else \
                np.linalg.lstsq(jac, -r, rcond=None)[0]
        except np.linalg.LinAlgError:
            return best_t, best, False
        lam = 1.0
        while lam > 1e-8:
            cand = t + lam * step
            rc = residual(cand)
            if float(np.linalg.norm(rc)) < nrm:
                t, r = cand, rc
                break
            lam *= 0.5
        else:
            return best_t, best, False
        if float(np.linalg.norm(r)) < best:
            best, best_t = float(np.linalg.norm(r)), t.copy()
    return best_t, best, best <= tol


def product_set_membership(g, basis_a, basis_b, restarts=16, seed=0):
    """Numerical membership of g in exp(span A) exp(span B): one damped
    Newton solve (residual <= 1e-9) on the coefficient vector of (a, b) per
    random restart.  A solve counts only when its coefficients lie in the
    ball |t| <= 10.  Returns (found, best_residual, coeffs).

    A failure is a semi-decision, not a nonexistence proof; the bound matters
    because these product sets need not be closed (the defining equations can
    be solved asymptotically with coefficients running to infinity)."""
    alg = g.algebra
    gf = np.asarray(g.to_float().coords, dtype=float)
    A = np.array([[float(c) for c in v] for v in basis_a]).reshape(-1, alg.dim)
    B = np.array([[float(c) for c in v] for v in basis_b]).reshape(-1, alg.dim)
    na = len(A)

    def resid(t):
        return group_product_np(alg, t[:na] @ A, t[na:] @ B) - gf

    rng = np.random.default_rng(seed)
    best, best_t = math.inf, None
    for r in range(restarts):
        t0 = rng.standard_normal(na + len(B)) * (0.5 + r % 3)
        t, nrm, ok = _newton(resid, t0, tol=1e-9, budget=80)
        if float(np.linalg.norm(t)) > 10.0:
            continue
        if ok:
            return True, nrm, (t[:na], t[na:])
        if nrm < best:
            best, best_t = nrm, t
    return False, best, (None, None) if best_t is None else (best_t[:na], best_t[na:])


def local_inverse(pdmap, xbar, y):
    """Solve f(x) = y near xbar by damped Newton on coordinates; requires an
    invertible differential (checked numerically at xbar)."""
    if pdmap.domain.dim != pdmap.codomain.dim:
        raise ValueError("local_inverse needs equal domain and codomain dimensions")
    rep = pansu_differential(pdmap, xbar)
    if abs(np.linalg.det(np.asarray(rep.morphism.matrix))) < 1e-10:
        raise ValueError("differential not invertible at the base point")
    y = np.asarray(y, dtype=float)
    t, resid, ok = _newton(lambda z: pdmap(z) - y, np.asarray(xbar, dtype=float))
    if not ok:
        raise RuntimeError("no convergence within budget (residual %.3g)" % resid)
    return t, resid


def bilipschitz_bounds(pdmap, xbar, radius=0.2, samples=400, seed=0):
    """Sampled min/max of rho(f(a), f(b)) / d(a, b) near xbar."""
    dmetric, cmetric = default_metric(pdmap.domain), default_metric(pdmap.codomain)
    rng = np.random.default_rng(seed)
    xbar = np.asarray(xbar, dtype=float)
    a = sample_ball(dmetric, radius, samples, rng)
    b = sample_ball(dmetric, radius, samples, rng)
    lo, hi = math.inf, 0.0
    for u, v in zip(a, b):
        x = group_product_np(pdmap.domain, xbar, u)
        y = group_product_np(pdmap.domain, xbar, v)
        d = float(dmetric.distance_np(x, y))
        if d < 1e-8:
            continue
        r = float(cmetric.distance_np(pdmap(x), pdmap(y))) / d
        lo, hi = min(lo, r), max(hi, r)
    return lo, hi


# ---------------------------------------------------------------------------
# implicit function solver
# ---------------------------------------------------------------------------

@dataclass
class ImplicitSolution:
    pdmap: object
    xbar: np.ndarray
    kernel: object            # HomogeneousSubalgebra N
    witness: object           # complementary H
    nodes: np.ndarray         # (count, dim) kernel group elements n
    phis: np.ndarray          # (count, dim) solved h = phi(n), group coords
    residuals: np.ndarray
    level: np.ndarray
    grid_shape: tuple
    radius: float = 0.0

    def points(self):
        """The level-set points xbar o n o phi(n)."""
        dom = self.pdmap.domain
        nh = group_product_np(dom, self.nodes, self.phis)
        return group_product_np(dom, self.xbar[None, :], nh)

    def holder_constants(self):
        """kappa with d(phi(n), phi(n')) <= kappa d(phi(n')^-1 n^-1 n' phi(n'))
        over grid pairs (a seeded subset of 200000 on larger grids), plus the
        1/step-Holder constant against the Euclidean kernel displacement."""
        dom = self.pdmap.domain
        metric = default_metric(dom)
        count = len(self.nodes)
        idx = np.arange(count)
        ii, jj = np.meshgrid(idx, idx, indexing="ij")
        mask = ii < jj
        ii, jj = ii[mask], jj[mask]
        if len(ii) > 200000:
            sel = np.random.default_rng(0).choice(len(ii), 200000, replace=False)
            ii, jj = ii[sel], jj[sel]
        n, np_, ph, ph_ = (self.nodes[ii], self.nodes[jj],
                           self.phis[ii], self.phis[jj])
        num = metric.distance_np(ph, ph_)
        t = group_product_np(dom, -n, np_)
        t = group_product_np(dom, t, ph_)
        t = group_product_np(dom, -ph_, t)
        den = metric.quasi_norm_np(t)
        good = den > 1e-12
        kappa = float(np.max(num[good] / den[good])) if good.any() else 0.0
        ndisp = np.linalg.norm((-self.nodes[ii] + self.nodes[jj]), axis=-1)
        good2 = ndisp > 1e-12
        holder = float(np.max(num[good2] / ndisp[good2] ** (1.0 / dom.step))) \
            if good2.any() else 0.0
        return {"kappa": kappa, "holder_1_over_step": holder, "pairs": int(len(ii))}


def _rational_differential(pdmap, xbar):
    """The differential at xbar as an exact morphism, plus whether it is
    numerical: lifted from the analytic exact first-layer block when one is
    attached, else the numerical Pansu differential rounded to rationals
    (denominators <= 10^6, so entries below 5e-7 become 0)."""
    dom, cod = pdmap.domain, pdmap.codomain
    if pdmap.dfirst_exact is not None:
        exact_x = [Q(v).limit_denominator(10 ** 9) for v in xbar]
        return lift_differential(dom, cod, pdmap.dfirst_exact(exact_x)), False
    mat = np.asarray(pansu_differential(pdmap, xbar).morphism.matrix)
    return GradedMorphism(dom, cod, [[Q(v).limit_denominator(10 ** 6) for v in row]
                                     for row in mat]), True


def _graph_newton(pdmap, xbar, node, hbasis, level, t0, tol, budget):
    """Newton solve of f(xbar o node o exp(c @ hbasis)) = level over the
    coefficients c on the complement H: one point of the intrinsic graph."""
    dom = pdmap.domain
    base = group_product_np(dom, xbar, node)

    def resid(hcoef):
        return pdmap(group_product_np(dom, base, hcoef @ hbasis)) - level

    return _newton(resid, t0, tol=tol, budget=budget)


def implicit_function(pdmap, xbar, grid_spec=None, tol=1e-10, budget=100):
    """Solve the level set of f through xbar as an intrinsic graph over the
    kernel of the differential.

    The differential must be an h-epimorphism; its kernel N and a
    complementary H are computed exactly when the analytic differential is
    attached (else numerically, with a warning flag).  Each grid node n in N
    gets a damped-Newton solve of f(xbar n h) = f(xbar) over H, seeded by
    continuation from the previous node.

    The neighbourhood sizes of the underlying theorem are existential: if a
    node fails, the grid box is halved (up to `shrink_attempts` times) and
    the achieved radius is reported on the solution.
    """
    dom = pdmap.domain
    grid_spec = grid_spec or {}
    xbar = np.asarray(xbar, dtype=float)
    L, numerical_kernel = _rational_differential(pdmap, xbar)
    cls = classify_epimorphism(L)
    if cls.verdict != "h_epimorphism":
        raise ValueError("differential is not an h-epimorphism: %s" % cls.verdict)
    N, H = cls.kernel, cls.witness
    nbasis = np.array([[float(c) for c in v] for v in N.basis()])
    hbasis = np.array([[float(c) for c in v] for v in H.basis()])
    nlayers = N.basis_layers()
    radius = float(grid_spec.get("radius", 0.3))
    counts = list(grid_spec.get("counts", None) or [7] * len(nbasis))
    if len(counts) != len(nbasis):
        raise ValueError("counts: expected %d grid counts (one per kernel basis "
                         "vector), got %d" % (len(nbasis), len(counts)))
    shrink_attempts = int(grid_spec.get("shrink_attempts", 3))
    target = pdmap(xbar)

    last_error = None
    for attempt in range(shrink_attempts + 1):
        axes = []
        for c, l in zip(counts, nlayers):
            r = radius ** l
            axes.append(np.linspace(-r, r, c) if c > 1 else np.array([0.0]))
        mesh = np.meshgrid(*axes, indexing="ij")
        coeffs = np.stack([m.ravel() for m in mesh], axis=-1)
        nodes = coeffs @ nbasis
        count = len(nodes)
        phis = np.zeros((count, dom.dim))
        resids = np.zeros(count)
        hdim = len(hbasis)
        prev = np.zeros(hdim)
        row_len = counts[-1] if counts else 1
        phis_coef_cache = np.zeros(hdim)
        failed = False
        for i in range(count):
            seed_coef = prev if i % max(row_len, 1) != 0 or i == 0 \
                else phis_coef_cache
            hc, r, ok = _graph_newton(pdmap, xbar, nodes[i], hbasis, target,
                                      seed_coef, tol, budget)
            if not ok:
                last_error = "node %d of radius %.3g (residual %.3g)" % (
                    i, radius, r)
                failed = True
                break
            if i % max(row_len, 1) == 0:
                phis_coef_cache = hc.copy()
            prev = hc
            phis[i] = hc @ hbasis
            resids[i] = r
        if not failed:
            return ImplicitSolution(pdmap, xbar, N, H, nodes, phis, resids,
                                    target, tuple(counts), radius), \
                numerical_kernel
        radius *= 0.5  # the theorem's neighbourhood is existential: shrink
    raise RuntimeError("implicit solve failed at %s after %d shrink attempts"
                       % (last_error, shrink_attempts))


def uniqueness_check(solution, restarts=5, subset=40, seed=0):
    """Multi-restart agreement of the implicit solve at random nodes, each
    restart from a normal draw of scale 0.3: the empirical surrogate for
    uniqueness of the graph map."""
    hbasis = np.array([[float(c) for c in v] for v in solution.witness.basis()])
    rng = np.random.default_rng(seed)
    worst = 0.0
    pick = rng.choice(len(solution.nodes), size=min(subset, len(solution.nodes)),
                      replace=False)
    for i in pick:
        sols = []
        for r in range(restarts):
            t0 = rng.standard_normal(len(hbasis)) * 0.3
            hc, rr, ok = _graph_newton(solution.pdmap, solution.xbar, solution.nodes[i],
                                       hbasis, solution.level, t0, 1e-11, 200)
            if ok:
                sols.append(hc @ hbasis)
        for a in sols:
            worst = max(worst, float(np.max(np.abs(a - solution.phis[i]))))
    return worst


def translated_graph_check(solution, g, subset=25, seed=0):
    """Left-translating the graph yields a graph over the same kernel
    subgroup: decompose the translated points along (N, H) and re-solve the
    translated level problem at the new nodes."""
    pdmap = solution.pdmap
    dom = pdmap.domain
    g = np.asarray(g, dtype=float)
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(solution.nodes), size=min(subset, len(solution.nodes)),
                      replace=False)
    hbasis = np.array([[float(c) for c in v] for v in solution.witness.basis()])
    new_xbar = group_product_np(dom, g, solution.xbar)
    translated = PDMap(dom, pdmap.codomain,
                       lambda x: pdmap.evaluator(group_product_np(dom, -g, x)))
    worst = 0.0
    for i in pick:
        node, phi = solution.nodes[i], solution.phis[i]
        nh = group_product_np(dom, node, phi)
        n2, h2 = split_coords_np(dom, solution.kernel, solution.witness, nh)
        seed0 = np.linalg.lstsq(hbasis.T, h2, rcond=None)[0]
        hc, r, ok = _graph_newton(translated, new_xbar, n2, hbasis, solution.level,
                                  seed0, 1e-11, 200)
        if not ok:
            return math.inf
        worst = max(worst, float(np.max(np.abs(hc @ hbasis - h2))))
    return worst


def split_coords_np(algebra, first, second, coords):
    """Float layerwise split g = exp(p) exp(h) along a complementary pair."""
    p = np.zeros(algebra.dim)
    h = np.zeros(algebra.dim)
    for layer in range(1, algebra.step + 1):
        idx = algebra.layer_indices(layer)
        if not idx:
            continue
        corr = group_product_np(algebra, p, h)
        cols = [np.array([float(c) for c in v])
                for v in first.layer_basis(layer) + second.layer_basis(layer)]
        npcols = len(first.layer_basis(layer))
        if not cols:
            continue
        m = np.array([[c[k] for c in cols] for k in idx])
        rhs = np.array([coords[k] - corr[k] for k in idx])
        sol = np.linalg.lstsq(m, rhs, rcond=None)[0]
        for t, (c, col) in enumerate(zip(sol, cols)):
            if t < npcols:
                p = p + c * col
            else:
                h = h + c * col
    return p, h


# ---------------------------------------------------------------------------
# rank parametrization
# ---------------------------------------------------------------------------

@dataclass
class RankParametrization:
    pdmap: object
    image: object
    normal: object
    projection: object
    psi_points: np.ndarray     # preimages
    h_points: np.ndarray       # grid on the image subgroup
    phi_points: np.ndarray     # graph values in N
    lip_ratio: float


def rank_parametrization(pdmap, xbar, grid_radius=0.25, grid_count=6):
    """Represent the image of f near xbar as an intrinsic graph over the
    image subgroup of the differential: psi inverts p o f, and
    phi(h) = (p-complement part of f(psi(h)))."""
    cod = pdmap.codomain
    xbar = np.asarray(xbar, dtype=float)
    T, _ = _rational_differential(pdmap, xbar)
    mono = classify_monomorphism(T)
    if mono.verdict != "h_monomorphism":
        raise ValueError("differential is not an h-monomorphism: %s" % mono.verdict)
    H, N, p = mono.image, mono.normal_complement, mono.projection
    pmat = np.asarray(p.to_float().matrix)
    hbasis = np.array([[float(c) for c in v] for v in H.basis()])
    fxbar = pdmap(xbar)
    h0 = np.linalg.lstsq(hbasis.T, pmat @ fxbar, rcond=None)[0]

    hlayers = H.basis_layers()
    offsets = [np.linspace(-grid_radius ** l, grid_radius ** l, grid_count)
               for l in hlayers]
    mesh = np.meshgrid(*offsets, indexing="ij")
    coeffs = np.stack([m.ravel() for m in mesh], axis=-1) + h0

    psi_pts, h_pts, phi_pts = [], [], []
    t_seed = xbar.copy()
    for c in coeffs:
        target = c @ hbasis

        def resid(z):
            return pmat @ pdmap(z) - target

        z, r, ok = _newton(resid, t_seed, budget=200)
        if not ok:
            raise RuntimeError("rank solve failed (residual %.3g)" % r)
        t_seed = z
        fz = pdmap(z)
        hpart = pmat @ fz
        npart = group_product_np(cod, -hpart, fz)
        psi_pts.append(z)
        h_pts.append(hpart)
        phi_pts.append(npart)
    psi_pts, h_pts, phi_pts = map(np.array, (psi_pts, h_pts, phi_pts))
    cmetric = default_metric(cod)
    lip = 0.0
    for i in range(len(h_pts)):
        for j in range(i + 1, len(h_pts)):
            d = float(cmetric.distance_np(h_pts[i], h_pts[j]))
            if d > 1e-10:
                lip = max(lip, float(np.linalg.norm(phi_pts[i] - phi_pts[j])) / d)
    return RankParametrization(pdmap, H, N, p, psi_pts, h_pts, phi_pts, lip)


# ---------------------------------------------------------------------------
# tangent cones and blow-ups
# ---------------------------------------------------------------------------

@dataclass
class BlowupReport:
    scales: list
    distances: list
    set_to_cone: list
    cone_to_set: list
    R: float

    def __post_init__(self):
        assert all(d >= 0 for d in self.distances)

    @property
    def decreasing(self):
        return all(b <= a * 1.10 for a, b in zip(self.distances, self.distances[1:]))


class LevelSetSampler:
    """Samples a level set as the intrinsic graph produced by the implicit
    solver, exposing both dilated point clouds and graph heights over kernel
    nodes."""

    def __init__(self, pdmap, xbar, solution):
        self.pdmap = pdmap
        self.xbar = np.asarray(xbar, dtype=float)
        self.solution = solution
        self._hbasis = np.array([[float(c) for c in v]
                                 for v in solution.witness.basis()])

    def _solve(self, node, seed_coef=None):
        t0 = np.zeros(len(self._hbasis)) if seed_coef is None else seed_coef
        hc, r, ok = _graph_newton(self.pdmap, self.xbar, node, self._hbasis,
                                  self.solution.level, t0, 1e-10, 200)
        if not ok:
            raise RuntimeError("sampler solve failed")
        return hc

    def dilated_points(self, lam, count, rng, R):
        """Points of D_R cap delta_{1/lam}(xbar^{-1} S)."""
        dom = self.pdmap.domain
        ops = dom.float_ops()
        nbasis = np.array([[float(c) for c in v] for v in self.solution.kernel.basis()])
        layers = self.solution.kernel.basis_layers()
        out = []
        seed_coef = None
        while len(out) < count:
            coef = np.array([rng.uniform(-(1.2 * R) ** l, (1.2 * R) ** l)
                             for l in layers])
            u = coef @ nbasis
            n = ops.dilate(u, lam)
            hc = self._solve(n, seed_coef)
            seed_coef = hc
            nh = group_product_np(dom, n, hc @ self._hbasis)
            pt = ops.dilate(nh, 1.0 / lam)
            metric = default_metric(dom)
            if float(metric.quasi_norm_np(pt)) <= R:
                out.append(pt)
        return np.array(out)

    def graph_height(self, lam, node_u):
        """gauge(delta_{1/lam} phi(delta_lam u)): the distance from the cone
        node u to its graph point after zooming."""
        dom = self.pdmap.domain
        ops = dom.float_ops()
        n = ops.dilate(node_u, lam)
        hc = self._solve(n)
        phi = hc @ self._hbasis
        metric = default_metric(dom)
        return float(metric.quasi_norm_np(ops.dilate(phi, 1.0 / lam)))


def _is_vertical(sub):
    """A subalgebra of a step <= 2 algebra that contains the whole second
    layer."""
    alg = sub.algebra
    rows = [list(v) for v in sub.basis()]
    return alg.step <= 2 and all(linalg.in_span(rows, list(alg.basis_coords(k)))
                                 for k in alg.layer_indices(2))


def distance_to_vertical_subgroup(metric, sub, points):
    """Exact homogeneous distance from points to a vertical subgroup of a
    step-2 group (one containing the whole second layer): minimize over the
    free vertical part and the first-layer span.  Raises ValueError on any
    other subgroup."""
    alg = metric.algebra
    if not _is_vertical(sub):
        raise ValueError("distance_to_vertical_subgroup needs step <= 2 and a "
                         "subgroup containing the whole second layer")
    idx1 = alg.layer_indices(1)
    rows = [[v[k] for k in idx1] for v in sub.layer_basis(1)]
    pts = np.asarray(points, dtype=float)
    p1 = pts[:, idx1]
    if rows:
        B = np.array([[float(c) for c in r] for r in rows])
        proj = p1 @ B.T @ np.linalg.inv(B @ B.T) @ B
        perp = p1 - proj
    else:
        perp = p1
    rep = np.zeros_like(pts)
    rep[:, idx1] = perp
    return metric.quasi_norm_np(rep)


def _directed_hausdorff(metric, A, B):
    """sup over a in A of the distance from a to the cloud B, brute force in
    chunks of 256 (k-d trees only support Minkowski metrics)."""
    worst = 0.0
    for s in range(0, len(A), 256):
        blk = A[s:s + 256]
        d = metric.distance_np(blk[:, None, :], B[None, :, :])
        worst = max(worst, float(np.max(np.min(d, axis=1))))
    return worst


def hausdorff_distance(metric, cloud_a, cloud_b):
    """Symmetric Hausdorff distance between point clouds in the homogeneous
    metric."""
    return max(_directed_hausdorff(metric, cloud_a, cloud_b),
               _directed_hausdorff(metric, cloud_b, cloud_a))


def cone_samples(algebra, cone, R, count, rng):
    """Random points of the subgroup exp(cone) with gauge <= R in the default
    metric."""
    metric = default_metric(algebra)
    basis = np.array([[float(c) for c in v] for v in cone.basis()])
    layers = cone.basis_layers()
    out = []
    while len(out) < count:
        coef = np.array([rng.uniform(-(1.3 * R) ** l, (1.3 * R) ** l) for l in layers])
        # subgroup = exp of the subalgebra: exponential coordinates directly
        v = coef @ basis
        if float(metric.quasi_norm_np(v)) <= R:
            out.append(v)
    return np.array(out)


def tangent_cone_samples(sampler, xbar, cone, scales, R=1.0, count=1200, seed=0):
    """Blow-up report: per scale, the two one-sided deviations between the
    dilated set of a LevelSetSampler and the candidate cone inside D_R, in
    the default metric.

    set -> cone uses the exact vertical projection when the cone is vertical
    (else nearest neighbours in a dense cone sample); cone -> set uses the
    intrinsic graph height over sampled cone nodes.  The base point is the
    sampler's; xbar is not read.  Raises ValueError unless the scales are
    non-empty, positive and strictly decreasing."""
    scales = [float(lam) for lam in scales]
    if not scales or not all(a > b for a, b in zip(scales, scales[1:] + [0.0])):
        raise ValueError("scales must be non-empty, positive and strictly "
                         "decreasing; got %r" % (scales,))
    alg = sampler.pdmap.domain
    metric = default_metric(alg)
    rng = np.random.default_rng(seed)
    vertical = _is_vertical(cone)
    set_to_cone, cone_to_set, dists = [], [], []
    for lam in scales:
        cloud = sampler.dilated_points(lam, count, rng, R)
        if vertical:
            d_a = float(np.max(distance_to_vertical_subgroup(metric, cone, cloud)))
        else:
            cs = cone_samples(alg, cone, R, 4 * count, rng)
            d_a = _directed_hausdorff(metric, cloud, cs)
        nodes = cone_samples(alg, cone, 0.95 * R, count, rng)
        d_b = max(sampler.graph_height(lam, u) for u in nodes)
        set_to_cone.append(d_a)
        cone_to_set.append(d_b)
        dists.append(max(d_a, d_b))
    return BlowupReport(scales, dists, set_to_cone, cone_to_set, R)


def tangent_cone_bracket_rank(cone):
    """Rank of the bracket map on the cone subalgebra: 0 means commutative."""
    alg = cone.algebra
    basis = cone.basis()
    rows = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            rows.append(list(alg.bracket_coords(basis[i], basis[j])))
    return linalg.rank(rows) if rows else 0


def tangent_dim_check(solution):
    """H-dim of the tangent cone equals H-dim(G) - H-dim(M), exactly, through
    the exact kernel."""
    from .subgroups import subalgebra_as_algebra
    G = solution.pdmap.domain
    M = solution.pdmap.codomain
    n_alg = subalgebra_as_algebra(solution.kernel)
    return {"tangent": homogeneous_dimension(n_alg),
            "ambient": homogeneous_dimension(G),
            "target": homogeneous_dimension(M),
            "ok": homogeneous_dimension(n_alg) ==
            homogeneous_dimension(G) - homogeneous_dimension(M)}


# ---------------------------------------------------------------------------
# named maps (experiment configs and the command line refer to these)
# ---------------------------------------------------------------------------

def named_map(name):
    from . import catalog
    if name == "radial_level":
        return radial_level_map(catalog.get("h2"))
    if name == "xcoord":
        h1 = catalog.get("h1")
        return PDMap(h1, catalog.abelian(1), lambda c: np.array([c[0]]),
                     dfirst=lambda c: np.array([[1.0, 0.0]]),
                     dfirst_exact=lambda c: [[1, 0]], name="xcoord")
    if name == "vertical_shear":
        return vertical_shear_map(catalog.get("h1"))
    if name == "corner":
        return corner_map(catalog.get("h1"))
    if name.startswith("dilation:"):
        return dilation_map(catalog.get("h1"), float(name.split(":")[1]))
    if name == "legendrian_line":
        h1 = catalog.get("h1")
        return PDMap(catalog.abelian(1), h1,
                     lambda t: np.array([t[0], 0.0, 0.0]),
                     dfirst=lambda t: np.array([[1.0], [0.0]]),
                     dfirst_exact=lambda t: [[1], [0]], name="legendrian_line")
    raise KeyError("unknown named map %r" % name)
