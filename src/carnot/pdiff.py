"""Pansu differentiability experiments for group-valued maps: numerical
differentials, the layer recursion for the full differential, contact-system
checks, the mean value defect, Newton-based inverse/implicit/rank solvers,
and tangent-cone blow-ups.

Maps are black boxes on a coordinate box; an analytic first-layer
differential can be attached (exact rational where possible) and is preferred
for kernel and complement computations, since classification verdicts from a
numerically thresholded rank are only as good as the threshold.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .algebra import (check_radius, check_samples, draw_until, homogeneous_dimension,
                      masked_sup, streamed)
from .bch import group_product_np
from .curves import contact_derivative
from .morphism import GradedMorphism
from .metric import default_metric, sample_ball, sphere_point, word_constant
from .subgroups import classify_epimorphism, classify_monomorphism

Q = Fraction


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

class PDMap:
    """Group-valued map on a coordinate box.

    evaluator: float coords -> float coords, on arrays: it maps shape
               (..., domain.dim) to (..., codomain.dim), so one call serves a
               point or a batch (write it with x[..., i]).  Calls check the
               output shape and raise ValueError naming the map otherwise.
    dfirst:    optional analytic first-layer differential at one point,
               x -> matrix of shape (dim W_1, dim V_1) on the layer-1 bases.
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
        x = np.asarray(coords, dtype=float)
        out = np.asarray(self.evaluator(x), dtype=float)
        expect = x.shape[:-1] + (self.codomain.dim,)
        if out.shape != expect:
            raise ValueError("map %r: evaluator gave shape %s on input of shape %s, "
                             "expected %s (evaluators map (..., %d) to (..., %d))"
                             % (self.name, out.shape, x.shape, expect,
                                self.domain.dim, self.codomain.dim))
        return out

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
    return PDMap(L.domain, L.codomain, lambda x: x @ Lf.matrix.T,
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
    from . import catalog
    r2 = catalog.get("r2")

    def ev(x):
        return np.stack([np.hypot(x[..., 1], x[..., 2]), x[..., 3]], axis=-1)

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
        out[..., 2] = x[..., 2] + x[..., 0] ** 2
        return out
    return PDMap(h1, h1, ev, dfirst=lambda x: np.eye(2), name="vertical_shear")


def corner_map(h1):
    """x -> |x_1|: Lipschitz but not P-differentiable on the crease."""
    from . import catalog
    return PDMap(h1, catalog.get("r1"), lambda x: np.abs(x[..., :1]),
                 name="corner")


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
    read from the structure table: a list of (k, [(a, b, c), ...]), each c
    struct_den times the solution on the integer table."""
    idx = domain.layer_indices(layer)
    table = {(i, j): dict(terms) for i, j, terms in domain.struct_num}
    pairs, gens = [], []
    for a in range(domain.dim):
        for b in domain.layer_indices(layer - domain.layer_of[a]):
            terms = table.get((min(a, b), max(a, b)))
            if terms:
                sgn = 1 if a < b else -1
                pairs.append((a, b))
                gens.append([sgn * terms.get(k, 0) for k in idx])
    system = [[g[t] for g in gens] for t in range(len(idx))]
    out = []
    for pos, k in enumerate(idx):
        target = [int(t == pos) for t in range(len(idx))]
        comb = linalg.solve(system, target) if gens else None
        if comb is None:
            raise ValueError("domain is not stratified: cannot lift layer %d" % layer)
        out.append((k, [(a, b, domain.struct_den * c) for (a, b), c in zip(pairs, comb) if c]))
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
    if isinstance(dfirst_matrix, np.ndarray):
        return GradedMorphism(domain, codomain, _lift_blocks(domain, codomain,
                                                             dfirst_matrix))
    block = np.array([[Q(c) for c in row] for row in dfirst_matrix], dtype=object)
    block = block.reshape(len(codomain.layer_indices(1)), len(domain.layer_indices(1)))
    return GradedMorphism(domain, codomain,
                          _lift_blocks(domain, codomain, block).tolist())


def _lift_blocks(domain, codomain, blocks):
    """The body of lift_differential on first-layer blocks stacked along the
    leading axes: shape (..., dim W_1, dim V_1) -> (..., codomain.dim,
    domain.dim).  Float blocks move with the float bracket, an object array
    of Fractions (one block) with the exact one."""
    if blocks.dtype == object:
        cast = Q

        def brk(u, v):
            return np.array(codomain.bracket_coords(u, v), dtype=object)
    else:
        blocks = np.asarray(blocks, dtype=float)
        cast, brk = float, codomain.float_ops().bracket
    # cols[..., b, :] is the image of the domain basis vector e_b
    cols = np.full(blocks.shape[:-2] + (domain.dim, codomain.dim), cast(0),
                   dtype=blocks.dtype)
    for pos, b in enumerate(domain.layer_indices(1)):
        cols[..., b, codomain.layer_indices(1)] = blocks[..., :, pos]
    for layer in range(2, domain.step + 1):
        for k, comb in _bracket_combinations(domain, layer):
            cols[..., k, :] = sum(cast(c) * brk(cols[..., a, :], cols[..., b, :])
                                  for a, b, c in comb)
    return cols.swapaxes(-1, -2)


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
    constant when a word system is supplied.  Both counts, `pair_samples`
    and `bins`, must be integers >= 1, and both radii finite numbers > 0."""
    check_samples(pair_samples, "pair_samples")
    check_samples(bins, "bins")
    r1 = check_radius(r1, "r1")
    r2 = check_radius(r2, "r2")
    dom, cod = pdmap.domain, pdmap.codomain
    dmetric, cmetric = default_metric(dom), default_metric(cod)
    if word_system is not None:
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
    x = group_product_np(dom, center, xs)
    blocks = np.array([pdmap.dfirst(p) for p in x], dtype=float)
    lifts = _lift_blocks(dom, cod, blocks.reshape(len(x), len(cod.layer_indices(1)),
                                                  len(dom.layer_indices(1))))
    w = sphere_point(dmetric, rng.standard_normal((len(x), dom.dim)))
    # arrays of shape (pairs, bins, dim): s_k in the interior of bin k,
    # (edges[k+1], edges[k]]
    s = np.array(edges[:bins]) * (2 / 3)
    x = x[:, None, :]
    y = group_product_np(dom, x, ops.dilate(w[:, None, :], s))
    d = dmetric.distance_np(x, y)
    pred = np.einsum("pij,pbj->pbi", lifts, group_product_np(dom, -x, y))
    fdiff = group_product_np(cod, -pdmap(x), pdmap(y))
    rho = cmetric.quasi_norm_np(group_product_np(cod, -pred, fdiff))
    sups = np.max(rho / d, axis=0, initial=0.0)
    defects = np.max(rho, axis=0, initial=0.0)
    return MeanValueTable(edges, sups.tolist(), defects.tolist(), len(xs))


# ---------------------------------------------------------------------------
# Newton machinery
# ---------------------------------------------------------------------------

def _newton(residual, t0, tol=1e-10, budget=100):
    """Damped Newton on N independent systems at once.

    t0 has shape (N, k); residual(t, rows) returns the residuals, shape
    (len(rows), n), of the systems `rows` at the points t, one row each.
    Every iteration takes the central-difference Jacobians of all active
    systems from one residual call on 2k rows per system (step 1e-6,
    relative once |t| > 1), solves the stacked Newton systems (least
    squares through the pseudo-inverse when n != k) and backtracks (Armijo,
    halving down to 1e-8) on a per-system mask.  A system leaves the batch
    when it converges, stalls or meets a singular Jacobian.  Returns
    (t, residual norms, ok) of shapes (N, k), (N,) and (N,)."""
    t = np.array(t0, dtype=float)
    count, k = t.shape
    r = residual(t, np.arange(count))
    nrm = np.linalg.norm(r, axis=-1)
    eye = np.eye(k)
    active = np.arange(count)
    for _ in range(budget):
        active = active[nrm[active] > tol]
        if not len(active):
            break
        ta, ra = t[active], r[active]
        h = 1e-6 * np.maximum(1.0, np.linalg.norm(ta, axis=-1))[:, None, None]
        probes = np.concatenate([ta[:, None] + h * eye, ta[:, None] - h * eye], axis=1)
        rp = residual(probes.reshape(2 * k * len(active), k), np.repeat(active, 2 * k))
        rp = rp.reshape(len(active), 2 * k, -1)
        jac = ((rp[:, :k] - rp[:, k:]) / (2 * h)).swapaxes(1, 2)
        if jac.shape[1] == k:
            solvable = np.linalg.slogdet(jac)[0] != 0  # exactly where solve raises
        else:
            solvable = np.isfinite(jac).all(axis=(1, 2))  # where the SVD can run
        step = np.zeros_like(ta)
        rhs = -ra[solvable][..., None]
        step[solvable] = (np.linalg.solve(jac[solvable], rhs) if jac.shape[1] == k
                          else np.linalg.pinv(jac[solvable]) @ rhs)[..., 0]
        lam = np.ones(len(active))
        moved = np.zeros(len(active), dtype=bool)
        pending = np.flatnonzero(solvable)
        while len(pending):
            cand = ta[pending] + lam[pending, None] * step[pending]
            rc = residual(cand, active[pending])
            nc = np.linalg.norm(rc, axis=-1)
            better = nc < nrm[active[pending]]
            rows = active[pending[better]]
            t[rows], r[rows], nrm[rows] = cand[better], rc[better], nc[better]
            moved[pending[better]] = True
            pending = pending[~better]
            lam[pending] *= 0.5
            pending = pending[lam[pending] > 1e-8]
        active = active[moved]
    return t, nrm, nrm <= tol


def product_set_membership(g, basis_a, basis_b, restarts=16, seed=0):
    """Numerical membership of g in exp(span A) exp(span B): one damped
    Newton solve (residual <= 1e-9) on the coefficient vector of (a, b) per
    random restart, all restarts in one batch.  The first converging restart
    (in restart order) whose coefficients lie in the ball |t| <= 10 wins.
    Returns (found, best_residual, coeffs).

    A failure is a semi-decision, not a nonexistence proof; the bound matters
    because these product sets need not be closed (the defining equations can
    be solved asymptotically with coefficients running to infinity)."""
    alg = g.algebra
    gf = np.asarray(g.to_float().coords, dtype=float)
    A = np.array([[float(c) for c in v] for v in basis_a]).reshape(-1, alg.dim)
    B = np.array([[float(c) for c in v] for v in basis_b]).reshape(-1, alg.dim)
    na = len(A)
    rng = np.random.default_rng(seed)
    scale = 0.5 + np.arange(restarts) % 3
    t0 = rng.standard_normal((restarts, na + len(B))) * scale[:, None]
    # every restart solves the same system
    t, nrm, ok = _newton(lambda c, rows: group_product_np(alg, c[:, :na] @ A,
                                                          c[:, na:] @ B) - gf,
                         t0, tol=1e-9, budget=80)
    inside = np.linalg.norm(t, axis=-1) <= 10.0
    won = np.flatnonzero(inside & ok)
    if len(won):
        return True, float(nrm[won[0]]), (t[won[0], :na], t[won[0], na:])
    tried = np.flatnonzero(inside & np.isfinite(nrm))
    if not len(tried):
        return False, math.inf, (None, None)
    i = tried[np.argmin(nrm[tried])]
    return False, float(nrm[i]), (t[i, :na], t[i, na:])


def local_inverse(pdmap, xbar, y):
    """Solve f(x) = y near xbar by damped Newton on coordinates; requires an
    invertible differential (checked numerically at xbar)."""
    if pdmap.domain.dim != pdmap.codomain.dim:
        raise ValueError("local_inverse needs equal domain and codomain dimensions")
    rep = pansu_differential(pdmap, xbar)
    if abs(np.linalg.det(np.asarray(rep.morphism.matrix))) < 1e-10:
        raise ValueError("differential not invertible at the base point")
    y = np.asarray(y, dtype=float)
    t, resid, ok = _newton(lambda z, rows: pdmap(z) - y,
                           np.asarray(xbar, dtype=float)[None, :])
    if not ok[0]:
        raise RuntimeError("no convergence within budget (residual %.3g)" % resid[0])
    return t[0], float(resid[0])


def bilipschitz_bounds(pdmap, xbar, radius=0.2, samples=400, seed=0):
    """Sampled min/max of rho(f(a), f(b)) / d(a, b) near xbar, over pairs
    with d(a, b) >= 1e-8, in blocks (algebra.streamed) of n pairs: two ball
    samples of n points, a then b, translated by xbar.  The min is 1 / sup
    d(a, b) / rho(f(a), f(b)); no pair kept raises streamed's ValueError."""
    radius = check_radius(radius)
    dom = pdmap.domain
    dmetric, cmetric = default_metric(dom), default_metric(pdmap.codomain)
    rng = np.random.default_rng(seed)
    xbar = np.asarray(xbar, dtype=float)

    def block(n):
        x = group_product_np(dom, xbar, sample_ball(dmetric, radius, n, rng))
        y = group_product_np(dom, xbar, sample_ball(dmetric, radius, n, rng))
        d = dmetric.distance_np(x, y)
        rho = cmetric.distance_np(pdmap(x), pdmap(y))
        far = d >= 1e-8
        with np.errstate(divide="ignore"):  # rho = 0 gives the min 1 / inf = 0
            return (masked_sup(rho.copy(), d, far), masked_sup(d, rho, far)), int(far.sum())

    labels = ["bilipschitz_%s[%s]" % (kind, pdmap.name) for kind in ("upper", "inverse")]
    upper, inverse = streamed(samples, block, labels, radius)
    return 1.0 / inverse.sup_observed, upper.sup_observed


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


def _graph_residual(pdmap, bases, hbasis, level):
    """Residual of the systems f(bases[i] o exp(c @ hbasis)) = level over the
    coefficients c on the complement H, one system per base point: the
    points of the intrinsic graph, in the form _newton takes."""
    dom = pdmap.domain

    def resid(hcoef, rows):
        return pdmap(group_product_np(dom, bases[rows], hcoef @ hbasis)) - level

    return resid


def implicit_function(pdmap, xbar, grid_spec=None, tol=1e-10, budget=100):
    """Solve the level set of f through xbar as an intrinsic graph over the
    kernel of the differential.

    The differential must be an h-epimorphism; its kernel N and a
    complementary H are computed exactly when the analytic differential is
    attached (else numerically, with a warning flag).  The grid nodes n in N
    are solved together: one batched damped-Newton call on f(xbar n h) =
    f(xbar) over H, every node seeded at h = 0.

    The neighbourhood sizes of the underlying theorem are existential: if a
    node fails, the grid box is halved (up to `shrink_attempts` times) and
    the achieved radius is reported on the solution.  Grid counts must be
    integers >= 1 and `shrink_attempts` >= 0, else ValueError.
    """
    dom = pdmap.domain
    grid_spec = grid_spec or {}
    xbar = np.asarray(xbar, dtype=float)
    L, numerical_kernel = _rational_differential(pdmap, xbar)
    cls = classify_epimorphism(L)
    if cls.verdict != "h_epimorphism":
        raise ValueError("differential is not an h-epimorphism: %s" % cls.verdict)
    N, H = cls.kernel, cls.witness
    nbasis = np.array(N.float_basis())
    hbasis = np.array(H.float_basis())
    nlayers = N.basis_layers()
    radius = float(grid_spec.get("radius", 0.3))
    counts = list(grid_spec.get("counts", None) or [7] * len(nbasis))
    if len(counts) != len(nbasis):
        raise ValueError("counts: expected %d grid counts (one per kernel basis "
                         "vector), got %d" % (len(nbasis), len(counts)))
    for n, c in enumerate(counts):
        check_samples(c, "counts[%d]" % n)
    shrink_attempts = grid_spec.get("shrink_attempts", 3)
    check_samples(shrink_attempts, "shrink_attempts", least=0)
    target = pdmap(xbar)

    last_error = None
    for attempt in range(shrink_attempts + 1):
        axes = [_grid_axis(radius ** l, c) for c, l in zip(counts, nlayers)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coeffs = np.stack([m.ravel() for m in mesh], axis=-1)
        nodes = coeffs @ nbasis
        resid = _graph_residual(pdmap, group_product_np(dom, xbar, nodes), hbasis,
                                target)
        hc, resids, ok = _newton(resid, np.zeros((len(nodes), len(hbasis))), tol,
                                 budget)
        if ok.all():
            return ImplicitSolution(pdmap, xbar, N, H, nodes, hc @ hbasis, resids,
                                    target, tuple(counts), radius), \
                numerical_kernel
        i = np.flatnonzero(~ok)[0]
        last_error = "node %d of radius %.3g (residual %.3g)" % (i, radius, resids[i])
        radius *= 0.5  # the theorem's neighbourhood is existential: shrink
    raise RuntimeError("implicit solve failed at %s after %d shrink attempts"
                       % (last_error, shrink_attempts))


def _grid_axis(r, count):
    """`count` evenly spaced offsets on [-r, r]; one node sits at the centre."""
    return np.linspace(-r, r, count) if count > 1 else np.array([0.0])


def uniqueness_check(solution, restarts=5, subset=40, seed=0):
    """Multi-restart agreement of the implicit solve at random nodes, each
    restart from a normal draw of scale 0.3, all solved in one batch: the
    empirical surrogate for uniqueness of the graph map."""
    hbasis = np.array(solution.witness.float_basis())
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(solution.nodes), size=min(subset, len(solution.nodes)),
                      replace=False)
    pick = np.repeat(pick, restarts)
    t0 = rng.standard_normal((len(pick), len(hbasis))) * 0.3
    bases = group_product_np(solution.pdmap.domain, solution.xbar,
                             solution.nodes[pick])
    hc, _, ok = _newton(_graph_residual(solution.pdmap, bases, hbasis, solution.level),
                        t0, 1e-11, 200)
    gaps = np.abs(hc @ hbasis - solution.phis[pick])[ok]
    return float(np.max(gaps, initial=0.0))


def translated_graph_check(solution, g, subset=25, seed=0):
    """Left-translating the graph yields a graph over the same kernel
    subgroup: decompose the translated points along (N, H) and re-solve the
    translated level problem at the new nodes, all in one batch."""
    pdmap = solution.pdmap
    dom = pdmap.domain
    g = np.asarray(g, dtype=float)
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(solution.nodes), size=min(subset, len(solution.nodes)),
                      replace=False)
    hbasis = np.array(solution.witness.float_basis())
    new_xbar = group_product_np(dom, g, solution.xbar)
    translated = PDMap(dom, pdmap.codomain,
                       lambda x: pdmap.evaluator(group_product_np(dom, -g, x)))
    nh = group_product_np(dom, solution.nodes[pick], solution.phis[pick])
    n2, h2 = split_coords_np(dom, solution.kernel, solution.witness, nh)
    seed0 = np.linalg.lstsq(hbasis.T, h2.T, rcond=None)[0].T
    resid = _graph_residual(translated, group_product_np(dom, new_xbar, n2), hbasis,
                            solution.level)
    hc, _, ok = _newton(resid, seed0, 1e-11, 200)
    if not ok.all():
        return math.inf
    return float(np.max(np.abs(hc @ hbasis - h2), initial=0.0))


def split_coords_np(algebra, first, second, coords):
    """Float layerwise split g = exp(p) exp(h) along a complementary pair, on
    coordinate arrays of shape (..., dim)."""
    coords = np.asarray(coords, dtype=float)
    p = np.zeros(coords.shape)
    h = np.zeros(coords.shape)
    bases = [list(zip(s.basis_layers(), s.float_basis())) for s in (first, second)]
    for layer in range(1, algebra.step + 1):
        idx = algebra.layer_indices(layer)
        firsts, seconds = ([v for l, v in b if l == layer] for b in bases)
        if not idx or not firsts + seconds:
            continue
        cols = np.array(firsts + seconds)
        rhs = (coords - group_product_np(algebra, p, h))[..., idx]
        sol = np.linalg.lstsq(cols[:, idx].T, rhs.reshape(-1, len(idx)).T,
                              rcond=None)[0].T.reshape(rhs.shape[:-1] + (len(cols),))
        p = p + sol[..., :len(firsts)] @ cols[:len(firsts)]
        h = h + sol[..., len(firsts):] @ cols[len(firsts):]
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
    image subgroup of the differential: psi inverts p o f (one batched
    Newton solve over the grid, every node seeded at xbar), and
    phi(h) = (p-complement part of f(psi(h))).  `grid_count` nodes per
    image direction, an integer >= 1, else ValueError."""
    check_samples(grid_count, "grid_count")
    cod = pdmap.codomain
    xbar = np.asarray(xbar, dtype=float)
    T, _ = _rational_differential(pdmap, xbar)
    mono = classify_monomorphism(T)
    if mono.verdict != "h_monomorphism":
        raise ValueError("differential is not an h-monomorphism: %s" % mono.verdict)
    H, N, p = mono.image, mono.normal_complement, mono.projection
    pmat = np.asarray(p.to_float().matrix)
    hbasis = np.array(H.float_basis())
    fxbar = pdmap(xbar)
    h0 = np.linalg.lstsq(hbasis.T, pmat @ fxbar, rcond=None)[0]

    offsets = [_grid_axis(grid_radius ** l, grid_count) for l in H.basis_layers()]
    mesh = np.meshgrid(*offsets, indexing="ij")
    coeffs = np.stack([m.ravel() for m in mesh], axis=-1) + h0

    targets = coeffs @ hbasis
    psi_pts, r, ok = _newton(lambda z, rows: pdmap(z) @ pmat.T - targets[rows],
                             np.tile(xbar, (len(targets), 1)), budget=200)
    if not ok.all():
        raise RuntimeError("rank solve failed (residual %.3g)" % r[~ok][0])
    fz = pdmap(psi_pts)
    h_pts = fz @ pmat.T
    phi_pts = group_product_np(cod, -h_pts, fz)
    ii, jj = np.triu_indices(len(h_pts), k=1)
    d = default_metric(cod).distance_np(h_pts[ii], h_pts[jj])
    far = d > 1e-10
    lip = float(np.max(np.linalg.norm(phi_pts[ii] - phi_pts[jj], axis=-1)[far] / d[far],
                       initial=0.0))
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
        if not all(d >= 0 for d in self.distances):
            raise ValueError("blow-up distances must be >= 0, got %r" % (self.distances,))

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
        self._hbasis = np.array(solution.witness.float_basis())

    def _graph_points(self, nodes):
        """phi(n) for kernel nodes of shape (n, dim): one batched solve,
        every node seeded at h = 0."""
        dom = self.pdmap.domain
        resid = _graph_residual(self.pdmap, group_product_np(dom, self.xbar, nodes),
                                self._hbasis, self.solution.level)
        hc, _, ok = _newton(resid, np.zeros((len(nodes), len(self._hbasis))), 1e-10, 200)
        if not ok.all():
            raise RuntimeError("sampler solve failed")
        return hc @ self._hbasis

    def dilated_points(self, lam, count, rng, R):
        """Points of D_R cap delta_{1/lam}(xbar^{-1} S): candidate nodes are
        drawn and solved in batches until `count` land in D_R."""
        dom = self.pdmap.domain
        ops = dom.float_ops()
        metric = default_metric(dom)
        nbasis = np.array(self.solution.kernel.float_basis())
        half = (1.2 * R) ** np.array(self.solution.kernel.basis_layers())

        def draw(n):
            nodes = ops.dilate(rng.uniform(-half, half, size=(n, len(half))) @ nbasis,
                               lam)
            pts = ops.dilate(group_product_np(dom, nodes, self._graph_points(nodes)),
                             1.0 / lam)
            return pts[metric.quasi_norm_np(pts) <= R]

        return draw_until(count, (dom.dim,), draw)

    def graph_height(self, lam, nodes):
        """gauge(delta_{1/lam} phi(delta_lam u)) for cone nodes u of shape
        (n, dim): the distance from each node to its graph point after
        zooming."""
        dom = self.pdmap.domain
        ops = dom.float_ops()
        phi = self._graph_points(ops.dilate(np.asarray(nodes, dtype=float), lam))
        return default_metric(dom).quasi_norm_np(ops.dilate(phi, 1.0 / lam))


def _is_vertical(sub):
    """A subalgebra of a step <= 2 algebra that contains the whole second
    layer."""
    alg = sub.algebra
    return alg.step <= 2 and all(sub.contains(alg.basis_coords(k))
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
    rows = [v for v, l in zip(sub.float_basis(), sub.basis_layers()) if l == 1]
    pts = np.asarray(points, dtype=float)
    p1 = pts[:, idx1]
    if rows:
        B = np.array(rows)[:, idx1]
        proj = p1 @ B.T @ np.linalg.inv(B @ B.T) @ B
        perp = p1 - proj
    else:
        perp = p1
    rep = np.zeros_like(pts)
    rep[:, idx1] = perp
    return metric.quasi_norm_np(rep)


def _hausdorff_sups(metric, A, B):
    """The two directed Hausdorff distances (sup over a in A of the distance
    from a to B, and sup over b in B of the distance from b to A), brute
    force in one pass over A x B, in chunks of 256 rows of A (k-d trees only
    support Minkowski metrics).  Both gauges read layer squares, so
    N(-x) = N(x), and d(b, a) = N((-b) o a) = N((-a) o b) = d(a, b) up to
    rounding: row minima give the first sup and running column minima the
    second."""
    worst, col_min = 0.0, np.full(len(B), np.inf)
    for s in range(0, len(A), 256):
        d = metric.distance_np(A[s:s + 256, None, :], B[None, :, :])
        worst = max(worst, float(np.max(np.min(d, axis=1))))
        np.minimum(col_min, np.min(d, axis=0), out=col_min)
    return worst, float(np.max(col_min))


def hausdorff_distance(metric, cloud_a, cloud_b):
    """Symmetric Hausdorff distance between point clouds in the homogeneous
    metric.  Raises ValueError when a cloud is empty."""
    if not (len(cloud_a) and len(cloud_b)):
        raise ValueError("hausdorff_distance needs two nonempty clouds")
    return max(_hausdorff_sups(metric, cloud_a, cloud_b))


def cone_samples(algebra, cone, R, count, rng):
    """Random points of the subgroup exp(cone) with gauge <= R in the default
    metric."""
    metric = default_metric(algebra)
    basis = np.array(cone.float_basis())
    half = (1.3 * R) ** np.array(cone.basis_layers())

    def draw(n):
        # subgroup = exp of the subalgebra: exponential coordinates directly
        v = rng.uniform(-half, half, size=(n, len(half))) @ basis
        return v[metric.quasi_norm_np(v) <= R]

    return draw_until(count, (algebra.dim,), draw)


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
            d_a = _hausdorff_sups(metric, cloud, cs)[0]
        nodes = cone_samples(alg, cone, 0.95 * R, count, rng)
        d_b = float(np.max(sampler.graph_height(lam, nodes)))
        set_to_cone.append(d_a)
        cone_to_set.append(d_b)
        dists.append(max(d_a, d_b))
    return BlowupReport(scales, dists, set_to_cone, cone_to_set, R)


def tangent_cone_bracket_rank(cone):
    """Rank of the bracket map on the cone subalgebra: 0 means commutative.
    It brackets the integer rows on the integer table; the rank does not see
    their nonzero scalings."""
    bracket = cone.algebra.bracket_num
    return linalg.rank([bracket(u, v) for u, v in itertools.combinations(cone.rows, 2)])


def tangent_dim_check(solution):
    """H-dim of the tangent cone equals H-dim(G) - H-dim(M), exactly, through
    the exact kernel: the cone's is the sum of its basis layers."""
    tangent = sum(solution.kernel.basis_layers())
    ambient = homogeneous_dimension(solution.pdmap.domain)
    target = homogeneous_dimension(solution.pdmap.codomain)
    return {"tangent": tangent, "ambient": ambient, "target": target,
            "ok": tangent == ambient - target}


# ---------------------------------------------------------------------------
# named maps (experiment configs and the command line refer to these)
# ---------------------------------------------------------------------------

def named_map(name):
    from . import catalog
    if name == "radial_level":
        return radial_level_map(catalog.get("h2"))
    if name == "xcoord":
        h1 = catalog.get("h1")
        return PDMap(h1, catalog.get("r1"), lambda c: c[..., :1].copy(),
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
        return PDMap(catalog.get("r1"), h1,
                     lambda t: np.concatenate(
                         [t[..., :1], np.zeros(t.shape[:-1] + (2,))], axis=-1),
                     dfirst=lambda t: np.array([[1.0], [0.0]]),
                     dfirst_exact=lambda t: [[1], [0]], name="legendrian_line")
    raise KeyError("unknown named map %r" % name)
