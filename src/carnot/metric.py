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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (GroupElement, EmpiricalConstant, check_radius, check_samples,
                      draw_until, identity_element, masked_sup, streamed, unit_vectors)
from .bch import group_product, group_product_np


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
# the group law's compiled block kernels (bch._float_terms) and
# FloatOps.layer_squares, which read x[..., k] columns and keep the input's
# memory order.


def sample_box(algebra, radius, count, rng):
    """Euclidean-coordinate box sample, shape (count, dim), column-major."""
    return rng.uniform(-radius, radius, size=(algebra.dim, count)).T


def _layer_norms(metric, radius, count, rng):
    """The Euclidean layer norms |x_i| of `count` points uniform (Haar) in
    the gauge ball N(x) <= radius, in the law of sample_ball's docstring:
    yields (i, norms) for each nonempty layer i in turn, drawing from rng
    just before each yield.  A weighted-max layer, and the Koranyi layer 2,
    is uniform in a Euclidean ball, so its norms are R U^{1/d_i}; the
    Koranyi layer-1 norm is r s^{1/4}.  The radius is read as a float."""
    alg, radius = metric.algebra, float(radius)
    dims = [len(alg.layer_indices(i)) for i in range(1, alg.step + 1)]
    if metric.kind == "koranyi":
        m, k = dims[0], dims[1] if alg.step == 2 else 0
        s = rng.beta(m / 4, k / 2 + 1, size=count)
        yield 1, radius * s ** 0.25
        if k:
            yield 2, _ball_radii(rng, radius ** 2 * np.sqrt(1 - s) / 4, count, k)
        return
    for i, (d, w) in enumerate(zip(dims, metric.weights), start=1):
        if d:
            yield i, _ball_radii(rng, radius ** i / w, count, d)


def _ball_radii(rng, radius, count, d):
    """The norms of `count` points uniform in the Euclidean ball of R^d:
    radius U^{1/d}, one uniform U each; `radius` is one number or one per
    point."""
    return np.asarray(radius, dtype=float) * rng.uniform(size=count) ** (1.0 / d)


def sample_ball(metric, radius, count, rng):
    """`count` points uniform (Haar) in the gauge ball N(x) <= radius, shape
    (count, dim), column-major (the transpose of a (dim, count) draw), drawn
    in closed form.  Haar measure is Lebesgue measure in exponential
    coordinates, so this is the law of rejection from a box.

    Weighted max: layer i is uniform in its Euclidean ball of radius
    radius**i / w_i.  Koranyi, with m = dim V_1 and k = dim V_2 (0 in step
    1): s = |x_1|^4 / r^4 is Beta(m/4, k/2 + 1), x_1 lies on the sphere of
    radius r s^{1/4}, and x_2 is uniform in the ball of radius
    r^2 sqrt(1 - s) / 4.  The draws, layer by layer: the layer's norms (the
    Koranyi split s first; for a layer uniform in a ball of radius R, one
    uniform U per point, norm R U^{1/d_i}), then its directions, d_i
    standard normals per point, normalised."""
    alg = metric.algebra
    out = np.zeros((alg.dim, count))
    for i, norms in _layer_norms(metric, radius, count, rng):
        idx = alg.layer_indices(i)
        out[idx] = unit_vectors(rng, count, len(idx)).T * norms
    return out.T


def ball_layer_squares(metric, radius, count, rng):
    """The squared layer norms |x_i|^2, shape (count, step), column-major, of
    `count` points uniform in the gauge ball N(x) <= radius: the law of
    FloatOps.layer_squares of sample_ball points, from the same layer-norm
    draws, without drawing their directions (0 on an empty layer)."""
    sq = np.zeros((metric.algebra.step, count))
    for i, norms in _layer_norms(metric, radius, count, rng):
        sq[i - 1] = np.square(norms)
    return sq.T


def direction_layer_squares(algebra, count, rng):
    """The squared layer norms |u_i|^2, shape (count, step), column-major, of
    `count` directions u uniform on the unit sphere of R^dim, without drawing
    the directions: Dirichlet(d_1/2, ..., d_s/2), drawn as G_i / sum_j G_j
    from independent G_i ~ Gamma(d_i/2), one per nonempty layer in order
    (0 on an empty layer).  A one-dimensional layer draws G_i as Z^2 / 2
    from one standard normal Z, which has the law of Gamma(1/2) and is
    cheaper to draw."""
    sq = np.zeros((algebra.step, count))
    for i in range(1, algebra.step + 1):
        d = len(algebra.layer_indices(i))
        if d == 1:
            sq[i - 1] = np.square(rng.standard_normal(count)) / 2
        elif d:
            sq[i - 1] = rng.standard_gamma(d / 2, size=count)
    sq /= sq.sum(axis=0)
    return sq.T


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
    """sup |pi_1(a - b)| / d(a, b) over pairs of the box of half-side
    `radius`, drawn per block of n pairs as one box sample of 2n points, a
    then b.  No full-size temporary is made: a is negated in place, since
    d(a, b) = N((-a) o b) and a - b = -((-a) + b) has the same squares, and
    only the layer-1 columns of (-a) + b are formed, one at a time."""
    radius = check_radius(radius)
    alg = metric.algebra
    rng = np.random.default_rng(seed)

    def block(n):
        pts = sample_box(alg, radius, 2 * n, rng)
        a, b = np.negative(pts[:n], out=pts[:n]), pts[n:]
        num = np.zeros(n)
        for k in alg.layer_indices(1):
            col = a[:, k] + b[:, k]
            num += np.square(col, out=col)
        num = np.sqrt(num, out=num)
        den = metric.quasi_norm_np(group_product_np(alg, a, b))
        mask = den > 1e-12
        return masked_sup(num, den, mask), int(mask.sum())

    return streamed(samples, block, ["first_layer_comparison[%s]" % alg.name],
                    radius)[0]


def verify_projection_estimate(metric, radius=1.0, samples=4000, seed=0):
    """Per-layer sup of |pi^i(log x)| / d(x)^i over `samples` points drawn
    uniformly from the gauge ball of the given radius; one EmpiricalConstant
    per layer i >= 1.  The ratios read only the squared layer norms of the
    points, so only those are drawn (ball_layer_squares), not the points."""
    radius = check_radius(radius)
    alg = metric.algebra
    rng = np.random.default_rng(seed)

    def block(n):
        sq = ball_layer_squares(metric, radius, n, rng)
        norms = metric._gauge(sq)
        mask = norms > 1e-9
        # a point outside the mask gets gauge inf, so its ratios are 0
        norms = np.where(mask, norms, np.inf)
        # tails[i - 1] = |pi^i|^2, the sum of the squared layer norms of
        # layers j >= i, added from the top layer down
        tails, acc = [], 0.0
        for i in range(alg.step, 0, -1):
            acc = acc + sq[:, i - 1]
            tails.insert(0, acc)
        sups, power = [], 1.0
        for tail in tails:
            power = power * norms
            sups.append(np.max(np.sqrt(tail) / power, initial=0.0))
        return sups, int(mask.sum())

    return streamed(samples, block, ["tail_projection K_U layer>=%d[%s]" % (i, alg.name)
                                     for i in range(1, alg.step + 1)], radius)


def norm_exp_estimate(metric, nu=1.0, samples=4000, seed=0):
    """sup d(exp xi) / |xi|^{1/step} over |xi| <= nu: xi = r u with u a
    uniform unit direction and r drawn uniformly from [0.05, nu], so nu must
    exceed 0.05.  The gauge of r u reads only r^2 |u_i|^2, so per block only
    the layer shares |u_i|^2 are drawn (direction_layer_squares), then the
    radii."""
    nu = check_radius(nu, "nu", above=0.05)
    alg = metric.algebra
    rng = np.random.default_rng(seed)

    def block(n):
        sq = direction_layer_squares(alg, n, rng)
        radii = rng.uniform(0.05, nu, n)
        sq *= np.square(radii)[:, None]
        return np.max(metric._gauge(sq) / _root(radii, alg.step)), n

    return streamed(samples, block, ["gauge_vs_norm kappa(nu)[%s]" % alg.name], nu)[0]


def left_inverse_estimate(metric, nu=1.0, samples=4000, seed=0):
    """sup |(-xi) o eta| / |xi - eta| over |xi|, |eta| <= nu (Euclidean
    coordinate norms; the group-difference comparison), drawn per block of n
    pairs as two box samples of n points, xi then eta.  The ratio is taken
    on squared norms, with one square root of each block's sup.  xi is
    negated in place, and xi - eta = -((-xi) + eta) has the same squares, so
    no full-size temporary is made beside the product."""
    nu = check_radius(nu, "nu")
    alg = metric.algebra
    rng = np.random.default_rng(seed)
    ops = alg.float_ops()
    half = nu / math.sqrt(alg.dim)

    def block(n):
        xi = sample_box(alg, half, n, rng)
        eta = sample_box(alg, half, n, rng)
        neg = np.negative(xi, out=xi)
        num = ops.layer_squares(group_product_np(alg, neg, eta)).sum(axis=-1)
        den = ops.layer_squares(np.add(neg, eta, out=neg)).sum(axis=-1)
        mask = den > 1e-24
        return math.sqrt(masked_sup(num, den, mask)), int(mask.sum())

    return streamed(samples, block,
                    ["group_difference_vs_linear C(nu)[%s]" % alg.name], nu)[0]


def verify_conjugation_estimate(metric, nu=1.0, samples=4000, seed=0):
    """sup over d(x), d(y) <= nu of d(y^-1 x y) / |log x|^{1/step} and of
    d(y^-1 x y) / d(x)^{1/step}, drawn per block of n pairs as two ball
    samples of n points, x then y."""
    nu = check_radius(nu, "nu")
    alg = metric.algebra
    rng = np.random.default_rng(seed)
    e = 1.0 / alg.step

    def block(n):
        x = sample_ball(metric, nu, n, rng)
        y = sample_ball(metric, nu, n, rng)
        conj = group_product_np(alg, -y, group_product_np(alg, x, y))
        d_conj = metric.quasi_norm_np(conj)
        norm_x = np.linalg.norm(x, axis=-1)
        d_x = metric.quasi_norm_np(x)
        mask = (norm_x > 1e-9) & (d_x > 1e-9)
        return ((masked_sup(d_conj.copy(), norm_x ** e, mask),
                 masked_sup(d_conj, d_x ** e, mask)), int(mask.sum()))

    return tuple(streamed(samples, block, ["conjugation_vs_norm[%s]" % alg.name,
                                           "conjugation_vs_gauge[%s]" % alg.name], nu))


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
    check_samples(samples)
    nu = check_radius(nu, "nu")
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
    """sup N(x o y) / (N(x) + N(y)); 1 for a genuine distance.  Drawn per
    block of n pairs as two ball samples of n points, x then y."""
    radius = check_radius(radius)
    alg = metric.algebra
    rng = np.random.default_rng(seed)

    def block(n):
        x = sample_ball(metric, radius, n, rng)
        y = sample_ball(metric, radius, n, rng)
        num = metric.quasi_norm_np(group_product_np(alg, x, y))
        den = metric.quasi_norm_np(x) + metric.quasi_norm_np(y)
        mask = den > 1e-12
        return masked_sup(num, den, mask), int(mask.sum())

    return streamed(samples, block, ["quasi_triangle[%s,%s]" % (metric.kind, alg.name)],
                    radius)[0]


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
        cur = identity_element(alg)
        idx1 = alg.layer_indices(1)
        for t in range(s):
            vec = [0] * alg.dim
            vec[idx1[ws.indices[t]]] = a[t]
            cur = group_product(cur, GroupElement(alg, vec))
        return cur
    cur = np.zeros(alg.dim)
    for t in range(s):
        vec = float(a[t]) * ws.generator_vector(t)
        cur = group_product_np(alg, cur, vec)
    return GroupElement(alg, cur)


def solve_word(x, ws):
    """Coefficients a, shape (..., N), with P^N(a) = x, for the built-in
    step <= 2 systems; x is a GroupElement or float coordinates of shape
    (..., dim), one path for a point and a batch.

    The horizontal letters take the first-layer coordinates; the remaining
    vertical defect is solved through the commutator blocks, one
    np.linalg.solve for all points, coefficient c becoming the 4-letter
    pattern (s, sgn(c) s, -s, -sgn(c) s), s = sqrt(|c|) (positive first)."""
    alg = ws.algebra
    if alg.step > 2:
        raise ValueError("no registered solver for this group")
    xc = np.asarray(x.to_float().coords if isinstance(x, GroupElement) else x, dtype=float)
    idx1 = alg.layer_indices(1)
    m = len(idx1)
    a = np.zeros(xc.shape[:-1] + (ws.length,))
    a[..., :m] = xc[..., [idx1[i] for i in ws.indices[:m]]] * \
        np.array(ws.generator_scales[:m])
    if alg.step == 1 or not ws.commutator_blocks:
        return a
    horiz = np.zeros(alg.dim)
    for t in range(m):
        horiz = group_product_np(alg, horiz, a[..., t, None] * ws.generator_vector(t))
    idx2 = alg.layer_indices(2)
    rhs = group_product_np(alg, -horiz, xc)[..., idx2]
    # block (start, i, j) spells i j i j: its column is [X_i, X_j], scaled
    gen, bracket = ws.generator_vector, alg.float_ops().bracket
    bmat = np.array([bracket(gen(t), gen(t + 1))
                     for t, _, _ in ws.commutator_blocks])[:, idx2].T
    c = np.linalg.solve(bmat, rhs.reshape(-1, len(bmat)).T).T.reshape(rhs.shape)
    s = np.sqrt(np.abs(c))
    pattern = np.stack([s, np.copysign(s, c)], axis=-1)
    for b, (start, _, _) in enumerate(ws.commutator_blocks):
        a[..., start:start + 2] = pattern[..., b, :]
        a[..., start + 2:start + 4] = -pattern[..., b, :]
    return a


def word_constant(ws, samples=400, seed=0):
    """c(G, d): max over sampled unit-sphere points of max_s |a_s|, in the
    word system's metric.  In blocks (algebra.streamed): n unit_vectors of
    R^dim, dilated onto the gauge sphere and solved as one batch."""
    alg, rng = ws.algebra, np.random.default_rng(seed)

    def block(n):
        a = solve_word(sphere_point(ws.metric, unit_vectors(rng, n, alg.dim)), ws)
        return np.max(np.abs(a)), n

    return streamed(samples, block, ["word_coefficient c(G,d)[%s]" % alg.name], 1.0)[0]
