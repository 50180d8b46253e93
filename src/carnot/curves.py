"""Horizontal curves in graded groups: lifts of first-layer controls,
horizontality checks, difference quotients of Pansu type, group-valued
Riemann sums, and variation.

A curve Gamma = exp(gamma) is horizontal iff Gamma' = Gamma u(t) with u(t) in
the first layer; in exponential coordinates, for every layer i >= 2,

    dgamma_i/dt = sum_{n=2}^{step} ((-1)^n / n!) pi_i([gamma, dgamma/dt]_{n-1}).

The lift multiplies fourth-order Magnus increments, one per grid cell, in the
float group law by a prefix scan, with a Richardson halving check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import GroupElement, EmpiricalConstant, check_radius
from .bch import group_product_np
from .metric import default_metric


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

def _interp(t, ts, rows):
    """Row-wise linear interpolation of samples rows[j] at times ts[j]."""
    return np.stack([np.interp(t, ts, rows[:, k]) for k in range(rows.shape[1])],
                    axis=-1)


class SampledCurve:
    """Discretized curve: strictly increasing time grid and per-sample
    exponential coordinates, shape (n, dim)."""

    def __init__(self, algebra, ts, coords, control=None):
        self.algebra = algebra
        self.ts = np.asarray(ts, dtype=float)
        self.coords = np.asarray(coords, dtype=float)
        if self.ts.ndim != 1 or self.coords.shape != (len(self.ts), algebra.dim):
            raise ValueError("curve samples must have shape (len(ts), %d), got %s for %d times"
                             % (algebra.dim, self.coords.shape, self.ts.size))
        if not np.all(np.diff(self.ts) > 0):
            raise ValueError("time grid must be strictly increasing")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("coordinates must be finite")
        self.control = control

    @property
    def domain(self):
        return float(self.ts[0]), float(self.ts[-1])

    def eval(self, t):
        """Linear interpolation at a time or an array of times; exact at grid points."""
        return _interp(t, self.ts, self.coords)

    def derivative_grid(self):
        """Central differences in the interior, one-sided at the ends."""
        return np.gradient(self.coords, self.ts, axis=0)


@dataclass
class HorizontalControl:
    """First-layer velocity: `fn` maps times of shape (n,) to coordinates on
    the layer-1 basis, shape (n, dim V_1); `breakpoints` mark the
    discontinuities of piecewise controls."""
    fn: object
    domain: tuple
    smoothness: str = "smooth"
    breakpoints: tuple = ()
    name: str = ""

    def __call__(self, t):
        """The velocity at one time, shape (dim V_1,); times (n,) give (n, dim V_1)."""
        t = np.asarray(t, dtype=float)
        v = np.asarray(self.fn(np.atleast_1d(t)), dtype=float)
        return v[0] if t.ndim == 0 else v


def control_from_csv(algebra, path):
    """Sampled control from a CSV with column t followed by one column per
    first-layer coordinate; linear interpolation between samples."""
    m = len(algebra.layer_indices(1))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ts, vals = data[:, 0], data[:, 1:]
    if vals.shape[1] != m:
        raise ValueError("control csv %s: expected %d columns (t and one per "
                         "first-layer coordinate), got %d"
                         % (path, m + 1, data.shape[1]))
    if not np.all(np.diff(ts) > 0):
        raise ValueError("control csv %s: column t must be strictly increasing" % path)
    return HorizontalControl(lambda t: _interp(t, ts, vals),
                             (float(ts[0]), float(ts[-1])), "sampled", name="csv")


# the sides of the unit square loop, one per unit of time; t % 4 may round
# up to 4.0 just below a multiple of 4, which stays on the last side
_SQUARE_SIDES = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def make_control(algebra, name, **params):
    """Built-ins: line, circle, square, parabola (the last three use the
    first two horizontal directions), each a function of an array of times.
    A `radius` or `direction` entry that is not a finite number raises
    ValueError naming it."""
    m = len(algebra.layer_indices(1))
    domain = params.get("domain", (0.0, 2 * math.pi) if name == "circle" else (0.0, 1.0))
    if name == "line":
        direction = np.asarray(params.get("direction", [1.0] + [0.0] * (m - 1)))
        if direction.shape != (m,) or direction.dtype.kind not in "iuf" \
                or not np.all(np.isfinite(direction)):
            raise ValueError("control line: direction needs %d finite numbers, got %r"
                             % (m, params["direction"]))
        return HorizontalControl(lambda t: np.tile(direction, (len(t), 1)), domain,
                                 "smooth", name="line")
    if m < 2:
        raise ValueError("control %r needs at least two horizontal directions" % name)
    r = float(params.get("radius", 1.0)) if name == "circle" else None
    if r is not None and not math.isfinite(r):
        raise ValueError("control circle: radius must be finite, got %r" % r)
    planar = {"circle": lambda t: np.stack([-r * np.sin(t), r * np.cos(t)], axis=-1),
              "square": lambda t: _SQUARE_SIDES[np.minimum(np.floor(t % 4.0), 3).astype(int)],
              "parabola": lambda t: np.stack([np.ones_like(t), 2.0 * t], axis=-1)
              }.get(name) if isinstance(name, str) else None
    if planar is None:
        raise ValueError("unknown control %r" % name)
    smoothness, breakpoints = "smooth", ()
    if name == "square":
        domain, smoothness, breakpoints = (0.0, 4.0), "piecewise", (1.0, 2.0, 3.0)
    return HorizontalControl(lambda t: np.pad(planar(t), ((0, 0), (0, m - 2))), domain,
                             smoothness, breakpoints, name)


# ---------------------------------------------------------------------------
# the contact ODE and the lift
# ---------------------------------------------------------------------------

def _embed_layer1(algebra, v1):
    v1 = np.asarray(v1, dtype=float)
    out = np.zeros(v1.shape[:-1] + (algebra.dim,))
    out[..., algebra.layer_indices(1)] = v1
    return out


def contact_derivative(algebra, gamma, v1):
    """Full velocity of a horizontal curve through gamma with first-layer
    velocity v1: ascending through the layers, each correction only reads the
    lower ones."""
    ops = algebra.float_ops()
    gdot = _embed_layer1(algebra, v1)
    for i in range(2, algebra.step + 1):
        gdot = gdot + ops.project_layer(ops.dexp_series(gamma, gdot), i)
    return gdot


def horizontal_residuals(algebra, gamma, gdot):
    """Residual of the contact system on layers >= 2, batched."""
    ops = algebra.float_ops()
    gdot = np.asarray(gdot, dtype=float)
    return ops.project_tail(gdot - ops.dexp_series(gamma, gdot), 2)


def _lift_path(algebra, control, start_coords, t0, t1, steps):
    """Grid of `steps` cells from t0 to t1 (either order) and the lift at its
    nodes, start exp(Omega_1) ... exp(Omega_k): Omega_k is the fourth-order
    Magnus increment from the control at the two (interior) Gauss points."""
    ts = np.linspace(t0, t1, steps + 1)
    h = (t1 - t0) / steps
    mid, off = 0.5 * (ts[:-1] + ts[1:]), math.sqrt(3.0) / 6.0 * h
    v1 = control(np.concatenate([mid - off, mid + off]))
    m = len(algebra.layer_indices(1))
    if v1.shape != (2 * steps, m):
        raise ValueError("control must map %d times into layer 1 as shape %s, got shape %s"
                         % (2 * steps, (2 * steps, m), v1.shape))
    a1, a2 = np.split(_embed_layer1(algebra, v1), 2)
    omega = (0.5 * h) * (a1 + a2) + (math.sqrt(3.0) / 12.0 * h * h) * \
        algebra.float_ops().bracket(a1, a2)
    path = np.vstack([start_coords, omega])
    # Hillis-Steele scan: after the pass with shift d, row i holds the
    # product of rows max(0, i - 2d + 1) .. i in order
    d = 1
    while d <= steps:
        path[d:] = group_product_np(algebra, path[:-d], path[d:])
        d *= 2
    return ts, path


def horizontal_lift(control, start, steps=256, tol=1e-8):
    """Lift a first-layer control from `start` by Magnus steps (`_lift_path`).

    Piecewise controls are lifted segment by segment between their
    breakpoints.  A Richardson halving pass estimates the endpoint error and
    raises if it exceeds `tol` (so callers can trust the advertised
    accuracy); the returned curve carries the fine grid.
    """
    algebra = start.algebra
    if steps < 2:
        raise ValueError("horizontal lift needs steps >= 2, got %r" % (steps,))
    try:
        t0, t1 = map(float, control.domain)
    except (TypeError, ValueError):
        t0 = t1 = 0.0
    if not (t0 < t1 and math.isfinite(t1 - t0)):
        raise ValueError("control domain must be finite with t0 < t1, got %r"
                         % (control.domain,))
    cuts = [t0] + [b for b in control.breakpoints if t0 < b < t1] + [t1]
    grids, paths = [], []
    g = np.asarray(start.to_float().coords, dtype=float)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        seg_steps = max(2, int(round(steps * (hi - lo) / (t1 - t0))))
        ts_f, path_f = _lift_path(algebra, control, g, lo, hi, 2 * seg_steps)
        _, path_c = _lift_path(algebra, control, g, lo, hi, seg_steps)
        err = np.max(np.abs(path_f[-1] - path_c[-1])) / 15.0
        if err > tol:
            raise RuntimeError("integrator error estimate %.3g above tol %.3g; "
                               "increase steps" % (err, tol))
        grids.append(ts_f if not grids else ts_f[1:])
        paths.append(path_f if not paths else path_f[1:])
        g = path_f[-1]
    return SampledCurve(algebra, np.concatenate(grids), np.concatenate(paths),
                        control=control)


@dataclass
class HorizontalityReport:
    max_residual: float
    tol: float
    n_points: int

    @property
    def ok(self):
        return self.max_residual <= self.tol


def _five_point_derivative(ts, coords):
    """Derivative at the nodes 2 .. n-3 of the degree-4 interpolant through
    each node and its two neighbours on either side: fourth order on any
    grid, and the stencil (1, -8, 0, 8, -1) / 12h on an even one."""
    centre = np.arange(2, len(ts) - 2)[:, None]
    idx = centre + np.arange(-2, 3)
    s = ts[idx] - ts[centre]             # offsets from the centre node
    nb = [0, 1, 3, 4]                    # the neighbours' columns
    w = np.empty_like(s)                 # Lagrange basis derivatives at offset 0
    for k in nb:
        w[:, k] = np.prod(-s[:, [m for m in nb if m != k]], axis=1) / \
            np.prod(s[:, [k]] - s[:, [m for m in range(5) if m != k]], axis=1)
    w[:, 2] = -np.sum(1.0 / s[:, nb], axis=1)
    return np.einsum("ik,ikd->id", w, coords[idx])


def is_horizontal(curve, tol=1e-6):
    """Max residual of the contact system over interior grid points, the
    velocity taken by a five-point (fourth-order) difference, so the residual
    of an accurate lift sits far below any central-difference error.  The two
    grid points at each end, and those whose stencil would reach across a
    declared control breakpoint, are excluded: the system only holds at
    smoothness points."""
    if len(curve.ts) < 5:
        raise ValueError("need at least 5 samples")
    keep = np.ones(len(curve.ts) - 4, dtype=bool)
    if curve.control is not None:
        for b in curve.control.breakpoints:
            keep &= ~((curve.ts[:-4] < b) & (b < curve.ts[4:]))
    gdot = _five_point_derivative(curve.ts, curve.coords)
    res = horizontal_residuals(curve.algebra, curve.coords[2:-2][keep], gdot[keep])
    return HorizontalityReport(float(np.max(np.abs(res))) if res.size else 0.0,
                               tol, int(keep.sum()))


# ---------------------------------------------------------------------------
# difference quotients and averages
# ---------------------------------------------------------------------------

def _gamma_dot1(curve, t):
    if curve.control is not None:
        return _embed_layer1(curve.algebra, curve.control(t))
    d = curve.derivative_grid()
    return curve.algebra.float_ops().project_layer(_interp(t, curve.ts, d), 1)


def pansu_quotient(curve, t, h):
    """delta_{1/h}( (-h gdot_1(t)) o (-gamma(t)) o gamma(t+h) ): the rescaled
    group-difference defect of the curve against its one-parameter tangent.
    Decays to 0 with h at continuity points of the first-layer velocity."""
    a, b = curve.domain
    if not (a <= t <= b and a <= t + h <= b) or h == 0:
        raise ValueError("window outside the curve domain")
    alg = curve.algebra
    g_t = curve.eval(t)
    g_th = _refined_eval(curve, t, t + h)
    v = _gamma_dot1(curve, t)
    inner = group_product_np(alg, -g_t, g_th)
    full = group_product_np(alg, -h * v, inner)
    # coordinate form of delta_{1/h}, valid for either sign of h
    return full * (1.0 / h) ** np.asarray(alg.float_ops().layer_of, dtype=float)


def _refined_eval(curve, t, s):
    """gamma(s), re-integrated from gamma(t) when a control is attached (the
    grid alone cannot support h^2-level accuracy at very small h)."""
    if curve.control is None or s == t:
        return curve.eval(s)
    return _lift_path(curve.algebra, curve.control, curve.eval(t), t, s, 64)[1][-1]


def pansu_quotient_norms(curve, t, hs):
    return np.array([float(np.linalg.norm(pansu_quotient(curve, t, h))) for h in hs])


def decay_order(hs, values):
    """Least-squares slope of log(values) against log(hs), values floored at
    1e-14."""
    hs = np.asarray(hs, dtype=float)
    values = np.maximum(np.asarray(values, dtype=float), 1e-14)
    return float(np.polyfit(np.log(hs), np.log(values), 1)[0])


def sup_average(ts, values, t, lam):
    """sup over 0 <= tau <= lam (or lam <= tau <= 0) of the integral mean of
    `values` on [t, t+tau], trapezoid quadrature on the given grid."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = (t, t + lam) if lam > 0 else (t + lam, t)
    if lo < ts[0] - 1e-12 or hi > ts[-1] + 1e-12:
        raise ValueError("window escapes the grid")
    mask = (ts >= lo - 1e-12) & (ts <= hi + 1e-12)
    if not mask.any():
        raise ValueError("window [%r, %r] holds no grid point" % (lo, hi))
    sub_t = ts[mask]
    sub_v = values[mask]
    if lam < 0:
        sub_t, sub_v = sub_t[::-1], sub_v[::-1]
        sub_t = sub_t[0] - (sub_t - sub_t[0])
    acc = np.cumsum(0.5 * np.abs(np.diff(sub_t)) * (sub_v[1:] + sub_v[:-1]))
    tau = np.abs(sub_t[1:] - sub_t[0])
    return float(np.max(acc[tau > 0] / tau[tau > 0], initial=sub_v[0]))


# ---------------------------------------------------------------------------
# group Riemann sums
# ---------------------------------------------------------------------------

def group_riemann_sum(curve, partition):
    """Vector sum over the partition of the group increments
    log(Gamma(t_k)^{-1} Gamma(t_{k+1}))."""
    alg = curve.algebra
    ts = np.asarray(partition, dtype=float)
    a, b = curve.domain
    if ts[0] < a - 1e-12 or ts[-1] > b + 1e-12 or np.any(np.diff(ts) <= 0):
        raise ValueError("invalid partition")
    pts = curve.eval(ts)
    inc = group_product_np(alg, -pts[:-1], pts[1:])
    return inc.sum(axis=0)


def riemann_limit(curve):
    """The mesh -> 0 limit of the group Riemann sum:
    gamma(s) - gamma(0) + sum_{n>=2} ((-1)^{n-1}/n!) int [gamma, dgamma]_{n-1}."""
    ops = curve.algebra.float_ops()
    coords, ts = curve.coords, curve.ts
    gdot = np.gradient(coords, ts, axis=0)
    return coords[-1] - coords[0] - np.trapezoid(ops.dexp_series(coords, gdot),
                                                 ts, axis=0)


# ---------------------------------------------------------------------------
# variation
# ---------------------------------------------------------------------------

def variation(curve, metric=None):
    """Total variation two ways: (A) sup of partition sums over dyadic
    refinements (2^4 .. 2^16 intervals, stopping at relative change 1e-6 or
    at four times the curve's grid), (B) quadrature of rho(exp(gdot_1)).
    For a smooth horizontal curve the two agree; non-horizontal input makes
    them legitimately disagree and is flagged."""
    metric = metric or default_metric(curve.algebra)
    alg = curve.algebra
    a, b = curve.domain
    prev = None
    var_a = 0.0
    for level in range(4, 17):
        n = 2 ** level
        pts = curve.eval(np.linspace(a, b, n + 1))
        d = metric.distance_np(pts[:-1], pts[1:])
        var_a = float(np.sum(d))
        if prev is not None and abs(var_a - prev) <= 1e-6 * max(var_a, 1e-12):
            break
        prev = var_a
        if n >= len(curve.ts) * 4:
            break
    if curve.control is not None:
        v1 = _embed_layer1(alg, curve.control(curve.ts))
    else:
        v1 = alg.float_ops().project_layer(curve.derivative_grid(), 1)
    var_b = float(np.trapezoid(metric.quasi_norm_np(v1), curve.ts))
    rep = is_horizontal(curve, tol=1e-5)
    return {"partition": var_a, "first_layer_integral": var_b,
            "horizontal": rep.ok, "agreement": abs(var_a - var_b) /
            max(abs(var_b), 1e-12)}


@dataclass
class LipReport:
    lip_gamma1: float
    lip_curve: float
    contact_residual: float
    ratio_upper: float
    ratio_lower: float

    @property
    def group_lipschitz_compatible(self):
        return self.contact_residual <= 1e-5


def verify_ac_lip_characterization(curve, metric=None):
    """Discrete Lipschitz constants of the first-layer part and of the curve
    under the homogeneous metric, plus the contact-system residual.  The
    two-sided comparison Lip(gamma_1) ~ Lip(Gamma) is meaningful exactly when
    the residual vanishes."""
    metric = metric or default_metric(curve.algebra)
    alg = curve.algebra
    ops = alg.float_ops()
    dt = np.diff(curve.ts)
    d1 = np.linalg.norm(ops.project_layer(np.diff(curve.coords, axis=0), 1), axis=-1)
    lip1 = float(np.max(d1 / dt))
    dgrp = metric.distance_np(curve.coords[:-1], curve.coords[1:])
    lipg = float(np.max(dgrp / dt))
    res = is_horizontal(curve, tol=1e-6).max_residual
    return LipReport(lip1, lipg, res,
                     ratio_upper=lipg / max(lip1, 1e-300),
                     ratio_lower=lip1 / max(lipg, 1e-300))


# ---------------------------------------------------------------------------
# layerwise lift estimate driver
# ---------------------------------------------------------------------------

def lift_layer_bound(control, algebra, lambdas, steps=512):
    """Sampled sup over the lambda grid and layers i >= 2 of
    |int_0^lam gdot_i| / (A_0^lam(gdot_1 - X) * lam^i), for lifts from the
    identity, with X = gdot_1(0).  Each lambda must be a finite number > 0,
    no shorter than the first cell of the lift's grid."""
    lambdas = [check_radius(lam, "lambdas[%d]" % i) for i, lam in enumerate(lambdas)]
    start = GroupElement(algebra, np.zeros(algebra.dim))
    curve = horizontal_lift(control, start, steps=steps)
    t0 = control.domain[0]
    x_ref = _embed_layer1(algebra, control(t0))
    ops = algebra.float_ops()
    sup = 0.0
    for i, lam in enumerate(lambdas):
        mask = curve.ts <= t0 + lam + 1e-12
        ts = curve.ts[mask]
        if len(ts) < 2:
            raise ValueError("lambdas[%d] = %r is shorter than the first cell of the lift, "
                             "%r" % (i, lam, float(curve.ts[1] - curve.ts[0])))
        gdot = np.gradient(curve.coords[mask], ts, axis=0)
        avg = sup_average(ts, np.linalg.norm(
            ops.project_layer(gdot, 1) - x_ref, axis=-1), ts[0], ts[-1] - ts[0])
        if avg <= 1e-14:
            continue
        for i in range(2, algebra.step + 1):
            integ = float(np.linalg.norm(np.trapezoid(
                ops.project_layer(gdot, i), ts, axis=0)))
            sup = max(sup, integ / (avg * lam ** i))
    return EmpiricalConstant("lift_layer_bound[%s,%s]" % (algebra.name,
                                                          control.name or "control"),
                             sup, len(lambdas))
