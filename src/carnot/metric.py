"""Homogeneous quasi-norms and distances, generating word systems, and the
sampled verification drivers for the metric estimates.

Two gauge families are provided.  The Koranyi gauge
    N(x) = (|pi_1 x|^4 + 16 |pi_2 x|^2)^{1/4}
on step-2 groups (the constant 16 makes it a genuine distance on H-type
groups); and the weighted-max gauge
    N(x) = max_i w_i |pi_i x|^{1/i},
a quasi-distance whose quasi-triangle constant is measured, not assumed.
Distances are left-invariant by construction: d(x, y) = N(x^{-1} y).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import GroupElement, EmpiricalConstant
from .bch import group_product_np

from fractions import Fraction
Q = Fraction


def metric_weights(step, kind, weights=None):
    """The per-layer weights of a `kind` metric on a step-`step` algebra
    (none for the Koranyi gauge).  Raises ValueError, its message opening
    with the field at fault (kind or weights), for an unknown kind, a Koranyi
    gauge above step 2, or weights that are not `step` positive numbers."""
    if kind == "koranyi":
        if step > 2:
            raise ValueError("kind 'koranyi' is defined here for step <= 2 only")
        return ()
    if kind != "weighted_max":
        raise ValueError("kind %r is unknown; use 'koranyi' or 'weighted_max'" % (kind,))
    w = [1.0] * step if weights is None else weights
    try:
        w = tuple(float(x) for x in w)
    except (TypeError, ValueError):
        w = ()
    if len(w) != step or not all(x > 0 for x in w):
        raise ValueError("weights must be %d positive numbers, one per layer; got %r"
                         % (step, weights))
    return w


class HomogeneousMetric:
    def __init__(self, algebra, kind="koranyi", weights=None):
        self.algebra = algebra
        self.kind = kind
        self.weights = metric_weights(algebra.step, kind, weights)

    # -- vectorized core ----------------------------------------------------
    def quasi_norm_np(self, coords):
        return self._gauge(self.algebra.float_ops().layer_squares(coords))

    def _gauge(self, sq):
        """The gauge of points whose squared layer norms are sq, shape
        (..., step): Koranyi sqrt(sqrt(s_1^2 + 16 s_2)), weighted max the
        running maximum of the roots (w_i sqrt(s_i))^{1/i}."""
        if self.kind == "koranyi":
            q = sq[..., 0] * sq[..., 0]
            if self.algebra.step >= 2:
                q = q + 16.0 * sq[..., 1]
            return np.sqrt(np.sqrt(q))
        out = None
        for i, w in enumerate(self.weights, start=1):
            v = _root(w * np.sqrt(sq[..., i - 1]), i)
            out = v if out is None else np.maximum(out, v)
        return out

    def distance_np(self, a, b):
        a = np.asarray(a, dtype=float)
        return self.quasi_norm_np(group_product_np(self.algebra, -a, b))

    def __repr__(self):
        return "HomogeneousMetric(%s, %s)" % (self.algebra.name, self.kind)


def _root(v, i):
    """v ** (1 / i) for v >= 0, by sqrt and cbrt up to i = 4."""
    if i == 1:
        return v
    if i == 2:
        return np.sqrt(v)
    if i == 3:
        return np.cbrt(v)
    if i == 4:
        return np.sqrt(np.sqrt(v))
    return v ** (1.0 / i)


def quasi_norm(x, metric):
    if x.algebra != metric.algebra:
        raise ValueError("metric/algebra mismatch")
    return float(metric.quasi_norm_np(np.asarray(x.to_float().coords, dtype=float)))


def distance(x, y, metric):
    if x.algebra != metric.algebra or y.algebra != metric.algebra:
        raise ValueError("metric/algebra mismatch")
    return float(metric.distance_np(np.asarray(x.to_float().coords, dtype=float),
                                    np.asarray(y.to_float().coords, dtype=float)))


def koranyi(algebra):
    return HomogeneousMetric(algebra, "koranyi")


def weighted_max(algebra, weights=None):
    return HomogeneousMetric(algebra, "weighted_max", weights)


def default_metric(algebra):
    return koranyi(algebra) if algebra.step <= 2 else weighted_max(algebra)


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------
# Batches are column-major: a sampler draws a (dim, count) array and returns
# its (count, dim) transpose, so each coordinate is one contiguous column for
# the group law (bch._float_terms) and FloatOps.layer_squares, which read
# x[..., k] columns and keep the input's memory order.

def sample_box(algebra, radius, count, rng):
    """Euclidean-coordinate box sample, shape (count, dim), column-major."""
    return rng.uniform(-radius, radius, size=(algebra.dim, count)).T


def _unit_vectors(rng, count, d):
    """`count` directions uniform on the unit sphere of R^d, shape (count, d),
    column-major; one column-sum reduction gives the norms."""
    g = rng.standard_normal((d, count))
    g /= np.sqrt(np.square(g).sum(axis=0))
    return g.T


def _euclidean_ball(rng, radius, count, d):
    """`count` points uniform in the Euclidean ball of R^d, shape (count, d),
    column-major; `radius` is one number or one per point."""
    scale = np.asarray(radius, dtype=float) * rng.uniform(size=count) ** (1.0 / d)
    return _unit_vectors(rng, count, d) * scale[:, None]


def sample_ball(metric, radius, count, rng):
    """`count` points uniform (Haar) in the gauge ball N(x) <= radius, shape
    (count, dim), column-major (the transpose of a (dim, count) draw), drawn
    in closed form.  Haar measure is Lebesgue measure in exponential
    coordinates, so this is the law of rejection from a box.

    Weighted max: layer i is uniform in its Euclidean ball of radius
    radius**i / w_i.  Koranyi, with m = dim V_1 and k = dim V_2 (0 in step
    1): s = |x_1|^4 / r^4 is Beta(m/4, k/2 + 1), x_1 lies on the sphere of
    radius r s^{1/4}, and x_2 is uniform in the ball of radius
    r^2 sqrt(1 - s) / 4."""
    alg = metric.algebra
    layers = [alg.layer_indices(i) for i in range(1, alg.step + 1)]
    out = np.zeros((alg.dim, count))
    if metric.kind == "koranyi":
        m, k = len(layers[0]), len(layers[1]) if alg.step == 2 else 0
        s = rng.beta(m / 4, k / 2 + 1, size=count)
        out[layers[0]] = _unit_vectors(rng, count, m).T * (radius * s ** 0.25)
        if k:
            out[layers[1]] = _euclidean_ball(rng, radius ** 2 * np.sqrt(1 - s) / 4,
                                             count, k).T
        return out.T
    for i, (idx, w) in enumerate(zip(layers, metric.weights), start=1):
        if idx:
            out[idx] = _euclidean_ball(rng, radius ** i / w, count, len(idx)).T
    return out.T


def draw_until(count, row_shape, draw):
    """The first `count` rows, each of shape `row_shape`, that draw(n)
    accepts, where draw(n) takes n fresh candidates and returns the accepted
    ones in draw order.  Each call asks for the rows still missing over the
    acceptance rate seen so far (Laplace-smoothed, 20% margin, at most
    16 * count)."""
    kept = [np.zeros((0,) + tuple(row_shape))]
    have = drawn = 0
    while have < count:
        n = count if not drawn else \
            min(math.ceil(1.2 * (count - have) * (drawn + 1) / (have + 1)), 16 * count)
        kept.append(draw(n))
        have, drawn = have + len(kept[-1]), drawn + n
    return np.concatenate(kept)[:count]


def sphere_point(metric, u):
    """Dilate nonzero points, shape (..., dim), onto the unit sphere of the
    gauge."""
    n = metric.quasi_norm_np(u)
    if not np.all(n > 0):
        raise ValueError("sphere_point needs nonzero points")
    return metric.algebra.float_ops().dilate(u, 1.0 / n)


# ---------------------------------------------------------------------------
# estimate drivers
# ---------------------------------------------------------------------------

def _check_samples(samples):
    """The sample-count check of every estimate below, at entry."""
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) \
            or samples < 1:
        raise ValueError("samples must be an integer >= 1, got %r" % (samples,))


def first_layer_lower_bound(x, y, metric):
    """|pi_1(xi - eta)| / d(x, y); the sampled sup realizes the comparison
    constant between the gauge and the first-layer Euclidean norm."""
    if x == y:
        raise ValueError("coincident points excluded")
    ops = metric.algebra.float_ops()
    xc = np.asarray(x.to_float().coords, dtype=float)
    yc = np.asarray(y.to_float().coords, dtype=float)
    num = float(np.linalg.norm(ops.project_layer(xc - yc, 1)))
    return num / float(metric.distance_np(xc, yc))


def first_layer_constant(metric, radius=1.0, samples=2000, seed=0):
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    pts = sample_box(metric.algebra, radius, 2 * samples, rng)
    a, b = pts[:samples], pts[samples:]
    num = np.sqrt(metric.algebra.float_ops().layer_squares(a - b)[:, 0])
    den = metric.distance_np(a, b)
    mask = den > 1e-12
    sup = float(np.max(num[mask] / den[mask]))
    return EmpiricalConstant("first_layer_comparison[%s]" % metric.algebra.name,
                             sup, int(mask.sum()), nu=radius)


def verify_projection_estimate(metric, radius=1.0, samples=4000, seed=0):
    """Per-layer sup of |pi^i(log x)| / d(x)^i over `samples` points drawn
    uniformly from the gauge ball of the given radius; one EmpiricalConstant
    per layer i >= 1."""
    _check_samples(samples)
    alg = metric.algebra
    rng = np.random.default_rng(seed)
    sq = alg.float_ops().layer_squares(sample_ball(metric, radius, samples, rng))
    norms = metric._gauge(sq)
    mask = norms > 1e-9
    kept = int(mask.sum())
    # a point outside the mask gets gauge inf, so its ratios are 0
    norms = np.where(mask, norms, np.inf)
    # tails[i - 1] = |pi^i|^2, the sum of the squared layer norms of layers
    # j >= i, added from the top layer down
    tails, acc = [], 0.0
    for i in range(alg.step, 0, -1):
        acc = acc + sq[:, i - 1]
        tails.insert(0, acc)
    out, power = [], 1.0
    for i, tail in enumerate(tails, start=1):
        power = power * norms
        out.append(EmpiricalConstant(
            "tail_projection K_U layer>=%d[%s]" % (i, alg.name),
            float(np.max(np.sqrt(tail) / power, initial=0.0)), kept, nu=radius))
    return out


def norm_exp_estimate(metric, nu=1.0, samples=4000, seed=0):
    """sup d(exp xi) / |xi|^{1/step} over |xi| <= nu: xi is a uniform
    direction times a radius |xi| drawn uniformly from [0.05, nu]."""
    _check_samples(samples)
    alg = metric.algebra
    rng = np.random.default_rng(seed)
    directions = _unit_vectors(rng, samples, alg.dim)
    radii = rng.uniform(0.05, nu, samples)
    ratios = metric.quasi_norm_np(directions * radii[:, None]) / _root(radii, alg.step)
    return EmpiricalConstant("gauge_vs_norm kappa(nu)[%s]" % alg.name,
                             float(np.max(ratios)), samples, nu=nu)


def left_inverse_estimate(metric, nu=1.0, samples=4000, seed=0):
    """sup |(-xi) o eta| / |xi - eta| over |xi|, |eta| <= nu (Euclidean
    coordinate norms; the group-difference comparison).  The ratio is taken
    on squared norms, with one square root of the sup."""
    _check_samples(samples)
    alg = metric.algebra
    rng = np.random.default_rng(seed)
    xi = sample_box(alg, nu / math.sqrt(alg.dim), samples, rng)
    eta = sample_box(alg, nu / math.sqrt(alg.dim), samples, rng)
    ops = alg.float_ops()
    num = ops.layer_squares(group_product_np(alg, -xi, eta)).sum(axis=-1)
    den = ops.layer_squares(xi - eta).sum(axis=-1)
    mask = den > 1e-24
    return EmpiricalConstant("group_difference_vs_linear C(nu)[%s]" % alg.name,
                             math.sqrt(float(np.max(num[mask] / den[mask]))),
                             int(mask.sum()), nu=nu)


def verify_conjugation_estimate(metric, nu=1.0, samples=4000, seed=0):
    """sup over d(x), d(y) <= nu of d(y^-1 x y) / |log x|^{1/step} and of
    d(y^-1 x y) / d(x)^{1/step}."""
    _check_samples(samples)
    alg = metric.algebra
    rng = np.random.default_rng(seed)
    x = sample_ball(metric, nu, samples, rng)
    y = sample_ball(metric, nu, samples, rng)
    xy = group_product_np(alg, x, y)
    conj = group_product_np(alg, -y, xy)
    d_conj = metric.quasi_norm_np(conj)
    norm_x = np.linalg.norm(x, axis=-1)
    d_x = metric.quasi_norm_np(x)
    mask = (norm_x > 1e-9) & (d_x > 1e-9)
    e = 1.0 / alg.step
    c1 = EmpiricalConstant("conjugation_vs_norm[%s]" % alg.name,
                           float(np.max(d_conj[mask] / norm_x[mask] ** e)),
                           int(mask.sum()), nu=nu)
    c2 = EmpiricalConstant("conjugation_vs_gauge[%s]" % alg.name,
                           float(np.max(d_conj[mask] / d_x[mask] ** e)),
                           int(mask.sum()), nu=nu)
    return c1, c2


def _product_ratios(metric, nu, b, pert):
    """The product-list statistic of K candidates at once: factors b and
    perturbations pert of shape (K, N, dim), A_j = B_j p_j.  Returns the mask
    of candidates that meet the tail hypothesis (every d(B_j..B_N) <= nu),
    the pairwise one (every d(A_j, B_j) <= nu) and den > 1e-12, and the
    ratios d(A_1..A_N, B_1..B_N) / den, den = sum_j d(A_j, B_j)^{1/step}."""
    alg = metric.algebra

    def tails(m):
        # out[:, j] = m_j .. m_N, by N - 1 batched products from the right
        out = m.copy()
        for j in range(m.shape[1] - 2, -1, -1):
            out[:, j] = group_product_np(alg, m[:, j], out[:, j + 1])
        return out

    a = group_product_np(alg, b, pert)
    tb, d = tails(b), metric.distance_np(a, b)
    den = 0.0
    for j in range(b.shape[1]):
        den = den + d[:, j] ** (1.0 / alg.step)
    ok = ~np.any(metric.quasi_norm_np(tb) > nu, axis=1) & \
        ~np.any(d > nu, axis=1) & (den > 1e-12)
    return ok, metric.distance_np(tails(a)[:, 0], tb[:, 0]) / np.where(ok, den, 1.0)


def verify_product_estimate(metric, nu=1.0, n_factors=3, samples=800, seed=0):
    """sup of d(A_1..A_N, B_1..B_N) / sum_j d(A_j, B_j)^{1/step} over
    `samples` factor lists that satisfy the tail and pairwise hypotheses.
    Candidates are drawn in batches (draw_until): per batch of K, one
    sample_ball call gives the K N factors B_j, from the ball of radius
    nu / 2N, and one more the K N perturbations p_j (A_j = B_j p_j), from the
    ball of radius nu / 2.  A candidate that violates a hypothesis is
    discarded; the first `samples` kept, in draw order, give the sup."""
    _check_samples(samples)
    alg = metric.algebra
    rng = np.random.default_rng(seed)
    shape = (-1, n_factors, alg.dim)

    def draw(k):
        b = sample_ball(metric, nu / (2 * n_factors), k * n_factors, rng).reshape(shape)
        pert = sample_ball(metric, nu / 2, k * n_factors, rng).reshape(shape)
        ok, ratios = _product_ratios(metric, nu, b, pert)
        return ratios[ok]

    ratios = draw_until(samples, (), draw)
    return EmpiricalConstant("product_list_comparison K_nu[N=%d,%s]"
                             % (n_factors, alg.name),
                             float(np.max(ratios, initial=0.0)), len(ratios), nu=nu)


def quasi_triangle_constant(metric, radius=1.0, samples=4000, seed=0):
    """sup N(x o y) / (N(x) + N(y)); 1 for a genuine distance."""
    _check_samples(samples)
    alg = metric.algebra
    rng = np.random.default_rng(seed)
    x = sample_ball(metric, radius, samples, rng)
    y = sample_ball(metric, radius, samples, rng)
    xy = group_product_np(alg, x, y)
    num = metric.quasi_norm_np(xy)
    den = metric.quasi_norm_np(x) + metric.quasi_norm_np(y)
    mask = den > 1e-12
    return EmpiricalConstant("quasi_triangle[%s,%s]" % (metric.kind, alg.name),
                             float(np.max(num[mask] / den[mask])), int(mask.sum()),
                             nu=radius)


# ---------------------------------------------------------------------------
# word systems
# ---------------------------------------------------------------------------

@dataclass
class WordSystem:
    """Index sequence into the first-layer basis directions; the product of
    dilated generators P^s(a) = prod_{t<=s} exp(a_t * X_{i_t} / scale_t).

    Generators are rescaled so each factor has gauge 1 at a = 1; the scales
    are recorded because the construction assumes unit generators."""
    algebra: object
    indices: tuple            # positions into the layer-1 index list
    metric: object
    commutator_blocks: tuple = ()   # ((start, i, j), ...) 4-letter blocks
    generator_scales: tuple = ()

    @property
    def length(self):
        return len(self.indices)

    def generator_vector(self, t):
        alg = self.algebra
        k = alg.layer_indices(1)[self.indices[t]]
        v = np.zeros(alg.dim)
        v[k] = 1.0 / self.generator_scales[t]
        return v


def standard_word_system(algebra, metric=None):
    """Built-in generating word system for abelian and step-2 groups: the m
    horizontal letters solve the first layer linearly, and one 4-letter
    commutator block per chosen bracket pair fills the second layer (in step
    2 the commutator of two exponentials is exactly the exponential of the
    bracket)."""
    if algebra.step > 2:
        raise ValueError("no registered word system beyond step 2")
    metric = metric or default_metric(algebra)
    idx1 = algebra.layer_indices(1)
    m = len(idx1)
    indices = list(range(m))
    blocks = []
    if algebra.step == 2 and algebra.layer_indices(2):
        idx2 = algebra.layer_indices(2)
        chosen = []
        import itertools as it
        from . import linalg
        span = linalg.Span([])
        for (i, j) in it.combinations(range(m), 2):
            br = algebra.bracket_coords(algebra.basis_coords(idx1[i]),
                                        algebra.basis_coords(idx1[j]))
            if span.add([br[k] for k in idx2]):
                chosen.append((i, j))
            if len(chosen) == len(idx2):
                break
        if len(chosen) < len(idx2):
            raise ValueError("first layer does not generate the second")
        for (i, j) in chosen:
            blocks.append((len(indices), i, j))
            indices.extend([i, j, i, j])
    scales = []
    for t in indices:
        v = np.zeros(algebra.dim)
        v[idx1[t]] = 1.0
        scales.append(float(metric.quasi_norm_np(v)))
    return WordSystem(algebra, tuple(indices), metric, tuple(blocks), tuple(scales))


def generating_word(a, ws, s=None):
    """P^s(a): the literal product of dilated generators; P^0 = identity."""
    alg = ws.algebra
    a = list(a)
    if s is None:
        s = len(a)
    if not (0 <= s <= ws.length):
        raise ValueError("s out of range 0..%d" % ws.length)
    exact = all(isinstance(c, (int, Fraction)) for c in a) and \
        all(sc == 1.0 for sc in ws.generator_scales)
    if exact:
        from .bch import group_product_coords
        cur = alg.zero_coords()
        idx1 = alg.layer_indices(1)
        for t in range(s):
            vec = [Q(0)] * alg.dim
            vec[idx1[ws.indices[t]]] = Q(a[t])
            cur = group_product_coords(alg, cur, tuple(vec))
        return GroupElement(alg, cur)
    cur = np.zeros(alg.dim)
    for t in range(s):
        vec = float(a[t]) * ws.generator_vector(t)
        cur = group_product_np(alg, cur, vec)
    return GroupElement(alg, cur)


def solve_word(x, ws):
    """Coefficients a with P^N(a) = x, for the built-in step <= 2 systems.

    The horizontal letters take the first-layer coordinates; the remaining
    vertical defect is solved through the commutator blocks, coefficient c
    becoming the 4-letter pattern (s, sgn(c) s, -s, -sgn(c) s) with
    s = sqrt(|c|) (positive first letter)."""
    alg = ws.algebra
    if alg.step > 2:
        raise ValueError("no registered solver for this group")
    xc = np.asarray(x.to_float().coords, dtype=float)
    idx1 = alg.layer_indices(1)
    m = len(idx1)
    a = np.zeros(ws.length)
    for t in range(m):
        a[t] = xc[idx1[ws.indices[t]]] * ws.generator_scales[t]
    if alg.step == 1 or not ws.commutator_blocks:
        return a
    horiz = np.zeros(alg.dim)
    for t in range(m):
        horiz = group_product_np(alg, horiz, a[t] * ws.generator_vector(t))
    defect = group_product_np(alg, -horiz, xc)
    idx2 = alg.layer_indices(2)
    fops = alg.float_ops()
    cols = []
    for (start, i, j) in ws.commutator_blocks:
        u, v = np.zeros(alg.dim), np.zeros(alg.dim)
        u[idx1[i]] = 1.0 / ws.generator_scales[start]
        v[idx1[j]] = 1.0 / ws.generator_scales[start + 1]
        cols.append(fops.bracket(u, v)[idx2])
    bmat = np.array(cols).T
    coeffs = np.linalg.solve(bmat, defect[idx2])
    for (start, i, j), c in zip(ws.commutator_blocks, coeffs):
        s = math.sqrt(abs(c))
        t = math.copysign(s, c) if c != 0 else 0.0
        a[start:start + 4] = [s, t, -s, -t]
    return a


def word_constant(ws, samples=400, seed=0):
    """c(G, d): max over sampled unit-sphere points of max_s |a_s|, in the
    word system's metric."""
    _check_samples(samples)
    metric = ws.metric
    alg = ws.algebra
    rng = np.random.default_rng(seed)
    sup = 0.0
    for _ in range(samples):
        u = rng.standard_normal(alg.dim)
        u /= max(np.linalg.norm(u), 1e-12)
        xc = sphere_point(metric, u)
        a = solve_word(GroupElement(alg, xc), ws)
        sup = max(sup, float(np.max(np.abs(a))))
    return EmpiricalConstant("word_coefficient c(G,d)[%s]" % alg.name,
                             sup, samples, nu=1.0)
