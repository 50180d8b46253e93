"""Baker-Campbell-Hausdorff machinery, exact and float.

Two independent routes compute the group product in exponential coordinates:

* ``group_product`` reads a table built from the classical BCH recursion
      (n+1) c_{n+1}(X,Y) = 1/2 [X-Y, c_n(X,Y)]
          + sum_{p>=1, 2p<=n} K_{2p} sum_{k_1+..+k_{2p}=n}
                [c_{k_1}, [..., [c_{k_{2p}}, X+Y] ...]]
  with K_{2p} = B_{2p}/(2p)! (Bernoulli numbers, B_2 = 1/6).  The recursion
  runs once per algebra, on symbolic coordinates x_0..x_{d-1}, y_0..y_{d-1}:
  each coordinate of each c_n is an ``algebra.Polynomial``, and the brackets
  are the algebra's own ``bracket_coords`` on vectors of them.  The table
  keeps the coefficients as integers over one denominator; it is built on
  first use and kept in the algebra's memo (``algebra.per_algebra``).
* ``series_oracle_product`` computes log(exp(x) exp(y)) in the truncated free
  tensor algebra on two letters and evaluates the resulting Lie polynomial
  through the Dynkin bracketing.  Its word plan is folded by alternation
  ([a, a] = 0, [b, a] = -[a, b]) to about a third of the words, the same
  integers.  It never touches the recursion, so exact agreement of the two
  is a real check, and it settles every sign convention.

The table is compiled once per algebra into generated straight-line Python,
kept in the memo too: exact kernels for the product and each c_n
(``_exact_kernels``), and float kernels for one point and for a block of
arrays (``_float_kernels``), each set compiled on its first use.
They serve ``bch_term``, ``group_product``, the raw-coordinate law
``group_product_coords`` on Fraction tuples, and its float twin
``group_product_np`` on arrays of shape (..., dim), broadcast over the
leading axes.  The latter is the one float group law of the analytic modules
(metric, curves, pdiff).

The exact routes run in integers over common denominators: the table holds
integer coefficients over one denominator, the oracle scales its letters to
integers and sums each word over one common denominator, and the algebra's
bracket runs on its integer structure table.  Both routes take the integer
forms (nums, den) of exact vectors and return one, so no Fraction is built
between products: they are formed where values leave (``coords``, the
tuples of ``group_product_coords``, the matrices of d exp).
Nilpotency makes all series finite, so there are no convergence questions.
"""

import collections
import functools
import math
from fractions import Fraction

import numpy as np

from . import linalg
from .algebra import (AlgebraVector, GroupElement, Polynomial, bracket, check_radius,
                      masked_sup, per_algebra, streamed, unit_vectors)
from .morphism import GradedMorphism

Q = Fraction


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def bernoulli(m):
    """Bernoulli number B_m with the B_1 = -1/2 convention (so B_2 = 1/6)."""
    if m == 0:
        return Q(1)
    acc = Q(0)
    for j in range(m):
        acc += Q(math.comb(m + 1, j)) * bernoulli(j)
    return -acc / (m + 1)


@functools.lru_cache(maxsize=None)
def _k_coefficient(twop):
    return bernoulli(twop) / Q(math.factorial(twop))


@functools.lru_cache(maxsize=None)
def _compositions(n, parts):
    """All tuples of `parts` positive integers summing to n."""
    if parts == 1:
        return ((n,),)
    out = []
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


# ---------------------------------------------------------------------------
# the recursion, run once per algebra on polynomial coordinates
# ---------------------------------------------------------------------------

def _bch_terms(algebra):
    """[None, c_1, ..., c_step] on symbolic coordinates: c_n[k] is the k-th
    coordinate of c_n(X, Y) as a Polynomial in x_i (variable i) and y_i
    (variable dim + i), bracketed by the algebra's own bracket_coords."""
    d = algebra.dim
    zero = [Polynomial()] * d

    def lin(a, b, scale):
        return [p + scale * q for p, q in zip(a, b)]

    x = [Polynomial({(i,): 1}) for i in range(d)]
    y = [Polynomial({(d + i,): 1}) for i in range(d)]
    c = [None, lin(x, y, 1)]
    xmy = lin(x, y, -1)
    for n in range(1, algebra.step):
        acc = lin(zero, algebra.bracket_coords(xmy, c[n]), Q(1, 2))
        for p in range(1, n // 2 + 1):
            for comp in _compositions(n, 2 * p):
                t = algebra.bracket_coords(c[comp[-1]], c[1])
                for k in reversed(comp[:-1]):
                    t = algebra.bracket_coords(c[k], t)
                acc = lin(acc, t, _k_coefficient(2 * p))
        c.append(lin(zero, acc, Q(1, n + 1)))
    return c


@per_algebra
def _law(algebra):
    """The algebra's BCH table (rows, dens, float_rows), kept in its memo.
    rows[n] lists (k, ((a, monomial), ...)) over the nonzero coordinates k of
    c_n, with integers a and c_n[k] = sum a monomial / dens[k]; float_rows[n]
    holds the same rows with the floats a / dens[k]."""
    c = _bch_terms(algebra)
    dens = [math.lcm(*(q.denominator for cn in c[1:] for q in cn[k].terms.values()))
            for k in range(algebra.dim)]
    polys = [[(k, sorted(p.terms.items())) for k, p in enumerate(cn) if p] for cn in c[1:]]
    rows = [None] + [tuple((k, tuple((int(q * dens[k]), m) for m, q in terms))
                           for k, terms in cn) for cn in polys]
    float_rows = [None] + [tuple((k, tuple((float(q), m) for m, q in terms))
                                 for k, terms in cn) for cn in polys]
    return rows, dens, float_rows


_CHUNK = 100   # terms per generated statement: CPython's compiler recurses along a long sum


def _compile(name, params, lines, scope=None):
    """The function `name` of the generated source lines, in a fresh scope."""
    scope = dict(scope or {})
    source = "def %s(%s):\n    %s\n" % (name, params, "\n    ".join(lines))
    exec(compile(source, "<carnot.bch %s kernel>" % name, "exec"), scope)
    return scope[name]


def _sums(target, terms, first):
    """Statements adding the signed terms ("+ 2*v0", "- v1*v3") to `target`
    left to right, _CHUNK at a time, the first onto the expression `first`
    (e.g. "o3*d2"), or onto nothing if it is empty."""
    chunks = [" ".join(terms[i:i + _CHUNK]) for i in range(0, len(terms), _CHUNK)]
    return ["%s = %s" % (target, "%s %s" % (head, chunk) if head else chunk.lstrip("+ "))
            for head, chunk in zip([first] + [target] * len(chunks), chunks)]


def _unpack(algebra):
    return "[%s] = v" % ", ".join("v%d" % i for i in range(2 * algebra.dim))


def _product(mono, names):
    """The source of the product of the variables v<i>, i in mono, starting
    from the longest prefix of mono that `names` names."""
    j = max([j for j in range(2, len(mono) + 1) if mono[:j] in names] or [1])
    return "*".join([names[mono[:j]] if j > 1 else "v%d" % mono[0]] +
                    ["v%d" % i for i in mono[j:]])


def _degree_sets(step):
    """The degrees of the kernels, by index n: all of 1..step for n = 0 (the
    product), and n alone for the term c_n."""
    return [range(1, step + 1)] + [(n,) for n in range(1, step + 1)]


@per_algebra
def _exact_kernels(algebra):
    """The rows of _law compiled once into straight-line Python, kept in the
    algebra's memo: (den, kernels), den = lcm(dens), and kernels[n](v, D)
    the integer numerators over den D^n (D^step for n = 0) at the variables
    v, scaled to integers over D, of the sum of c_n over _degree_sets[n].

    Each coordinate k is one Horner sum in D over the degrees, with its
    coefficients pre-scaled from dens[k] to den; a leading product of
    variables that two or more terms share is computed once, as p<i>.  The
    source is built from ints and the names v<i>, o<k>, p<i> and d<j> alone."""
    rows, dens, _ = _law(algebra)
    den, table = math.lcm(*dens), [None] + [dict(r) for r in rows[1:]]

    def compiled(degrees):
        lines, coords, names = [], [], {}
        uses = collections.Counter(m[:j] for n in degrees for terms in table[n].values()
                                   for _, m in terms for j in range(2, len(m) + 1))
        for p in sorted((p for p, c in uses.items() if c > 1), key=len):
            lines.append("p%d = %s" % (len(names), _product(p, names)))
            names[p] = "p%d" % len(names)
        for k in range(algebra.dim):
            scale, last = den // dens[k], 0
            for n in degrees:
                if k not in table[n]:
                    continue
                terms = ["%s %s%s" % ("-" if a < 0 else "+", "%d*" % abs(a * scale)
                                      if abs(a * scale) != 1 else "", _product(m, names))
                         for a, m in table[n][k]]
                lines += _sums("o%d" % k, terms, "o%d*d%d" % (k, n - last) if last else "")
                last = n
            if last and last < degrees[-1]:
                lines.append("o%d = o%d*d%d" % (k, k, degrees[-1] - last))
            coords.append("o%d" % k if last else "0")
        powers = ["d%d = d%d*d1" % (j, j - 1) for j in range(2, len(degrees))]
        return _compile("exact", "v, d1", [_unpack(algebra)] + powers + lines +
                        ["return [%s]" % ", ".join(coords)])

    return den, [compiled(degrees) for degrees in _degree_sets(algebra.step)]


@per_algebra
def _float_kernels(algebra):
    """The float rows of _law compiled once into straight-line Python, kept
    in the algebra's memo: (point, block), by index n as _degree_sets.
    point[n](out, v) returns the list out plus the terms of degree >= 2 at
    the float variables v; block[n] is a tuple of functions f(out, v,
    scratch), one per degree >= 2, that add the same terms onto the rows of
    the arrays out in place, in turn, each monomial built in scratch by
    np.multiply.  Both keep _law's operation order: each term is its
    coefficient times the variables left to right, and the terms of k are
    added left to right, degree by degree, onto out[k].  The source is built
    from the repr of the float coefficients and the names v<i> and o<k> alone."""
    _, _, rows = _law(algebra)
    table = [None] + [dict(r) for r in rows[1:]]
    outs = "[%s]" % ", ".join("o%d" % k for k in range(algebra.dim))

    def point(degrees):
        lines = []
        for k in range(algebra.dim):
            lines += _sums("o%d" % k, ["+ %r*%s" % (a, _product(m, {})) for n in degrees
                                       for a, m in table[n].get(k, ())], "o%d" % k)
        return _compile("point", "o, v", ["%s = o" % outs, _unpack(algebra)] + lines +
                        ["return %s" % outs])

    def block(n):
        lines = [_unpack(algebra)]
        for k, terms in rows[n]:
            lines.append("o%d = o[%d]" % (k, k))
            for a, (first, *rest) in terms:
                lines += ["multiply(v%d, %r, s)" % (first, a)] + \
                    ["multiply(s, v%d, s)" % i for i in rest] + ["add(o%d, s, o%d)" % (k, k)]
        return _compile("block", "o, v, s", lines, {"multiply": np.multiply, "add": np.add})

    blocks = [block(n) for n in range(2, algebra.step + 1)]
    return ([point([n for n in degrees if n > 1]) for degrees in _degree_sets(algebra.step)],
            [tuple(blocks), ()] + [(b,) for b in blocks])


def _exact_terms(algebra, x, y, n):
    """c_n(X, Y), or for n = 0 the sum of all c_n, on the integer forms
    x = (nums, den) and y, as an integer form (nums, den), not reduced.  The
    variables are scaled to integers over D = lcm of the two denominators,
    and the compiled kernel returns the numerators over den D^n."""
    den, kernels = _exact_kernels(algebra)
    (xn, xd), (yn, yd) = x, y
    big_d = math.lcm(xd, yd)
    sx, sy = big_d // xd, big_d // yd
    v = [a * sx for a in xn] + [a * sy for a in yn]
    return kernels[n](v, big_d), den * big_d ** (n or algebra.step)


_BLOCK_ITEMS = 32768   # coordinates per block of the batched float law (256 KiB)


def _float_terms(algebra, x, y, n):
    """Float twin of _exact_terms on arrays of shape (..., dim), starting from
    c_1 = x + y (or zeros for a term c_n with n >= 2), through the compiled
    float kernels.  One point runs over Python floats, also when it comes as
    a batch of one; a batch runs over column views.  Both kernels do the
    same float operations in the same order, so they agree bit for bit.

    A batch runs in blocks of at most _BLOCK_ITEMS coordinates along the
    leading axis of the broadcast shape, so that each block's columns stay
    in cache (about 4096 rows of a dimension-8 group).  A factor that
    broadcasts along that axis enters every block whole, so no factor is
    copied or expanded.  The block kernel builds each monomial in one
    scratch array and adds it into its output row in place, so a block
    allocates one array.  The result takes the memory order of x + y: on
    column-major input (the samplers' layout) each column is contiguous and
    the result is column-major, bit for bit the row-major result."""
    total = x + y if n <= 1 else np.zeros(np.broadcast_shapes(x.shape, y.shape))
    point, blocks = _float_kernels(algebra)
    if total.ndim == 1:
        return np.array(point[n](total.tolist(), x.tolist() + y.tolist()))
    if total.size == algebra.dim:
        return _float_terms(algebra, x.reshape(-1), y.reshape(-1), n).reshape(total.shape)
    out = total.transpose(-1, *range(total.ndim - 1))
    rows = max(1, _BLOCK_ITEMS * len(total) // max(1, total.size))
    x, y = (v.reshape((1,) * (total.ndim - v.ndim) + v.shape) for v in (x, y))
    for s in range(0, len(total), rows):
        xb, yb = (v if len(v) == 1 else v[s:s + rows] for v in (x, y))
        columns = [xb[..., i] for i in range(algebra.dim)] + \
            [yb[..., i] for i in range(algebra.dim)]
        block = out[:, s:s + rows]
        scratch = np.empty(block.shape[1:])
        for kernel in blocks[n]:
            kernel(block, columns, scratch)
    return total


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def bch_term(n, x, y):
    """Homogeneous BCH term c_n(X, Y); c_1 = X + Y, c_2 = [X,Y]/2."""
    alg = x.algebra
    if not (1 <= n <= alg.step):
        raise ValueError("term index %d out of range 1..%d" % (n, alg.step))
    x._check(y)
    if x.scalar_mode == "float":
        return AlgebraVector(alg, _float_terms(alg, x.coords, y.coords, n))
    return AlgebraVector.from_int_form(alg, *_exact_terms(alg, x.int_form, y.int_form, n))


def group_product(x, y):
    """Group operation read in exponential coordinates: sum of all c_n."""
    alg = x.algebra
    x._check(y)
    if x.scalar_mode == "float":
        return _product_class(x, y)(alg, _float_terms(alg, x.coords, y.coords, 0))
    return _product_class(x, y).from_int_form(alg, *_exact_terms(alg, x.int_form, y.int_form, 0))


def _product_class(x, y):
    """A product is a GroupElement if either factor is one."""
    return GroupElement if isinstance(x, GroupElement) or isinstance(y, GroupElement) \
        else AlgebraVector


def group_inverse(x):
    """Inverse is coordinate negation in exponential coordinates."""
    return -x


def group_product_coords(algebra, xc, yc):
    """Exact group product on raw coordinate sequences, as a Fraction tuple."""
    x, y = (AlgebraVector(algebra, c).int_form for c in (xc, yc))
    return AlgebraVector.from_int_form(
        algebra, *_exact_terms(algebra, x, y, 0)).coords


def group_product_np(algebra, x, y):
    """Float group product on coordinate arrays of shape (..., dim),
    broadcast over the leading axes; the float twin of group_product_coords."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1:] != (algebra.dim,) or y.shape[-1:] != (algebra.dim,):
        raise ValueError("coordinate arrays must end in the algebra dimension %d"
                         % algebra.dim)
    return _float_terms(algebra, x, y, 0)


# ---------------------------------------------------------------------------
# differential of exp
# ---------------------------------------------------------------------------

def exp_differential(x):
    """Matrix of Id - sum_{n>=2} ((-1)^n / n!) ad(X)^{n-1}.

    Unipotent because ad(X) is nilpotent; its columns agree with
    d/dt log(exp(-X) exp(X + t b_j)) at t = 0 (see exp_differential_oracle).
    """
    alg = x.algebra
    if x.scalar_mode != "exact":
        raise ValueError("exp_differential needs an exact vector")
    n = alg.dim
    ad = [[Q(0)] * n for _ in range(n)]
    for j in range(n):
        col = alg.bracket_coords(x.coords, alg.basis_coords(j))
        for k in range(n):
            ad[k][j] = col[k]
    out = linalg.identity(n)
    power = linalg.identity(n)
    for m in range(2, alg.step + 1):
        power = linalg.matmul(ad, power)  # ad(X)^{m-1}
        coeff = -Q((-1) ** m, math.factorial(m))
        for r in range(n):
            for c in range(n):
                out[r][c] += coeff * power[r][c]
    return GradedMorphism(alg, alg, out)


def exp_differential_oracle(x):
    """Independent route: column j is the t-derivative at 0 of
    log(exp(-X) exp(X + t b_j)), evaluated through the free tensor algebra.

    Writes exp(-x)(sum_k (1/k!) sum_{i+j=k-1} x^i b x^j) as a Lie polynomial
    and evaluates it with Dynkin bracketing; only exp/log series and the
    Dynkin idempotent are used, not the BCH recursion.
    """
    alg = x.algebra
    if x.scalar_mode != "exact":
        raise ValueError("exp_differential_oracle needs an exact vector")
    poly = dexp_word_polynomial(alg.step)
    cols = [_dynkin_evaluate(poly, alg, {0: x.int_form, 1: (alg.basis_coords(j), 1)})
            for j in range(alg.dim)]
    matrix = [[Q(nums[k], common) for nums, common in cols] for k in range(alg.dim)]
    return GradedMorphism(alg, alg, matrix)


# ---------------------------------------------------------------------------
# free tensor algebra on two letters, truncated
# ---------------------------------------------------------------------------

class FreeSeries:
    """Element of the free associative algebra on letters 0..d-1, truncated
    above `degree`.  terms maps letter tuples to Fraction coefficients; the
    empty word carries the scalar part (0 for Lie elements, 1 for group-like
    ones)."""

    def __init__(self, degree, terms=None):
        self.degree = degree
        self.terms = dict(terms or {})

    @classmethod
    def letter(cls, letter, degree, sign=Q(1)):
        """The single letter `letter`, times `sign`."""
        return cls(degree, {(letter,): sign})

    def add(self, other, scale=Q(1)):
        if self.degree != other.degree:
            raise ValueError("truncation degree mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Q(0)) + scale * c
            if out[w] == 0:
                del out[w]
        return FreeSeries(self.degree, out)

    def mul(self, other):
        if self.degree != other.degree:
            raise ValueError("truncation degree mismatch")
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                if len(w1) + len(w2) > self.degree:
                    continue
                w = w1 + w2
                out[w] = out.get(w, Q(0)) + c1 * c2
        return FreeSeries(self.degree, {w: c for w, c in out.items() if c != 0})

    def commutator(self, other):
        """[self, other] = self other - other self."""
        return self.mul(other).add(other.mul(self), Q(-1))

    def graded_component(self, n):
        return {w: c for w, c in self.terms.items() if len(w) == n}


def _exp_series(a):
    """exp of a series with zero scalar part."""
    if a.terms.get((), 0) != 0:
        raise AssertionError("exp needs a series with zero scalar part")
    out = FreeSeries(a.degree, {(): Q(1)})
    power = FreeSeries(a.degree, {(): Q(1)})
    for k in range(1, a.degree + 1):
        power = power.mul(a)
        out = out.add(power, Q(1, math.factorial(k)))
    return out


def _log_series(g):
    """log of a group-like series (scalar part 1)."""
    if g.terms.get((), 0) != 1:
        raise AssertionError("log needs a series with scalar part 1")
    u = g.add(FreeSeries(g.degree, {(): Q(1)}), Q(-1))
    out = FreeSeries(g.degree)
    power = FreeSeries(g.degree, {(): Q(1)})
    for m in range(1, g.degree + 1):
        power = power.mul(u)
        out = out.add(power, Q((-1) ** (m + 1), m))
    return out


@functools.lru_cache(maxsize=None)
def bch_word_polynomial(degree):
    """log(exp(x) exp(y)) in the truncated free tensor algebra on {x, y}."""
    x = FreeSeries.letter(0, degree)
    y = FreeSeries.letter(1, degree)
    return _log_series(_exp_series(x).mul(_exp_series(y)))


@functools.lru_cache(maxsize=None)
def dexp_word_polynomial(degree):
    """exp(-x) (d/dt) exp(x + t y) at t = 0 in the truncated free tensor
    algebra on {x, y}: exp(-x) times sum_k 1/k! sum_{i+j=k-1} x^i y x^j."""
    lin = FreeSeries(degree)
    for k in range(1, degree + 1):
        coeff = Q(1, math.factorial(k))
        for i in range(k):
            word = (0,) * i + (1,) + (0,) * (k - 1 - i)
            lin.terms[word] = lin.terms.get(word, Q(0)) + coeff
    return _exp_series(FreeSeries.letter(0, degree, sign=Q(-1))).mul(lin)


def _dynkin_evaluate(series, algebra, letters):
    """Evaluate a Lie polynomial given as an associative series.

    By Dynkin-Specht-Wever, a homogeneous Lie element P of degree n satisfies
    P = (1/n) * delta(P) with delta the left-to-right bracketing of words, so
    each word w = l_1 ... l_n contributes (coeff/n) [[..[l_1,l_2],..],l_n].

    The words are those of _word_plan, folded by alternation: no word
    starts with two equal letters or with its larger letter first, which
    leaves about a third of them.  The letters are integer forms {letter:
    (nums, den)}, scaled to integers over their common denominator D.  The
    words are walked in sorted order, so the left-nested bracket of a word
    is the stored value of its prefix bracketed with the last letter by the
    algebra's bracket_num: each distinct prefix is bracketed once, and a
    zero prefix drops every word that extends it.  A word of degree n enters
    an integer sum over one common denominator that absorbs coeff/n, D^n and
    struct_den^(n-1).  Returns the integer form (nums, common), not reduced.
    """
    words, top, lcm_w = _word_plan(series)
    den = math.lcm(*(d for _, d in letters.values()))
    ints = {l: tuple(n * (den // d) for n in nums) for l, (nums, d) in letters.items()}
    sd = algebra.struct_den
    scale = [(den * sd) ** j for j in range(top + 1)]
    acc = [0] * algebra.dim
    path, values = (), []  # values[t]: the left-nested bracket of path[:t + 1]
    for w, num in words:
        m = 0
        while m < len(path) and m < len(w) and path[m] == w[m]:
            m += 1
        del values[m:]
        for letter in w[m:]:
            if not values:
                values.append(ints[letter])
            elif any(values[-1]):
                values.append(algebra.bracket_num(values[-1], ints[letter]))
            else:
                break
        path = w[:len(values)]
        if len(values) < len(w) or not any(values[-1]):
            continue
        a = num * scale[top - len(w)]
        acc = [s + a * v for s, v in zip(acc, values[-1])]
    return acc, lcm_w * den ** top * sd ** (top - 1)


@functools.lru_cache(maxsize=None)
def _word_plan(series):
    """The words of a Lie polynomial for _dynkin_evaluate, once per series
    (the cached word polynomials, which nobody mutates): (w, num) in sorted
    order, the top degree, and the lcm L of the denominators len(w) c_w,
    with c_w / len(w) = num / L.

    The plan is folded by alternation, since [a, a] = 0 and [b, a] =
    -[a, b]: a word whose first two letters are equal is dropped, one whose
    first letter is the larger is entered as the word with those two
    swapped and its num negated, merged with that word, and a word whose
    merged num is 0 is dropped.  The algebra's bracket_num is exactly
    alternating on integers, so the sum is the same integers; top and L
    are those of the unfolded words."""
    terms = series.terms
    words = sorted(terms)
    if words and not words[0]:
        if terms[()] != 0:
            raise ValueError("not a Lie element (scalar part)")
        words = words[1:]
    lcm_w = math.lcm(*(terms[w].denominator * len(w) for w in words))
    folded = collections.Counter()
    for w in words:
        num = terms[w].numerator * (lcm_w // (terms[w].denominator * len(w)))
        if len(w) < 2 or w[0] < w[1]:
            folded[w] += num
        elif w[0] > w[1]:
            folded[(w[1], w[0]) + w[2:]] -= num
    plan = sorted((w, num) for w, num in folded.items() if num)
    return plan, max(map(len, words), default=1), lcm_w


def series_oracle_product(x, y):
    """Independent BCH oracle: log(exp(x)exp(y)) from the free tensor algebra,
    projected into the algebra by Dynkin bracketing.  If the algebra carries a
    registered unipotent matrix model, the result is cross-checked against
    exact matrix exp/log as well."""
    alg = x.algebra
    x._check(y)
    if x.scalar_mode != "exact":
        raise ValueError("the series oracle runs in exact mode")
    poly = bch_word_polynomial(alg.step)
    out = _product_class(x, y).from_int_form(
        alg, *_dynkin_evaluate(poly, alg, {0: x.int_form, 1: y.int_form}))
    model = alg.tags.get("matrix_model")
    if model is not None and AlgebraVector.from_int_form(
            alg, *model.product_form(x.int_form, y.int_form)) != out:
        raise AssertionError("matrix model disagrees with the series oracle")
    return out


# ---------------------------------------------------------------------------
# the multilinear decomposition of c_n
# ---------------------------------------------------------------------------

class LnDecomposition:
    """Coefficients e_{n,alpha}, alpha in {1,2}^{n-1}, with
    c_n(A1, A2) = sum_alpha e_{n,alpha} * B_n(A_alpha, A1 + A2)
    where B_n is the right-nested bracket [X1,[X2,[...,[X_{n-1},X_n]..]]."""

    def __init__(self, n, coefficients):
        self.n = n
        self.coefficients = dict(coefficients)

    def evaluate(self, a1, a2):
        """Exact evaluation of the right-hand side on algebra vectors."""
        args = {1: a1, 2: a2}
        out = AlgebraVector.from_int_form(a1.algebra, (0,) * a1.algebra.dim, 1)
        for alpha, e in self.coefficients.items():
            if e == 0:
                continue
            vec = a1 + a2
            for letter in reversed(alpha):
                vec = bracket(args[letter], vec)
            out = out + e * vec
        return out


@functools.lru_cache(maxsize=None)
def _decompose_cn_universal(n):
    """Solve for e_{n,alpha} in the free tensor algebra; free variables are
    pinned to 0, which reproduces (1/2, 0) at n = 2."""
    deg = n
    cn = bch_word_polynomial(deg).graded_component(n)
    alphas = [tuple(a) for a in _tuples_12(n - 1)]
    # expand B_n(A_alpha, A1+A2) into words; letters 0 <-> A1, 1 <-> A2
    words = sorted({w for w in _all_words(2, n)})
    windex = {w: i for i, w in enumerate(words)}
    cols = []
    for alpha in alphas:
        series = FreeSeries(deg, {(0,): Q(1), (1,): Q(1)})  # A1 + A2
        for letter in reversed(alpha):
            arg = FreeSeries.letter(letter - 1, deg)
            series = arg.commutator(series)
        col = [Q(0)] * len(words)
        for w, c in series.terms.items():
            col[windex[w]] = c
        cols.append(col)
    matrix = [[cols[a][r] for a in range(len(alphas))] for r in range(len(words))]
    rhs = [cn.get(w, Q(0)) for w in words]
    sol = linalg.solve(matrix, rhs)
    if sol is None:
        raise AssertionError("multilinear decomposition system is inconsistent")
    return {alpha: e for alpha, e in zip(alphas, sol)}


def _tuples_12(length):
    if length == 0:
        return [()]
    shorter = _tuples_12(length - 1)
    return [t + (v,) for t in shorter for v in (1, 2)]


def _all_words(nletters, length):
    if length == 0:
        return [()]
    shorter = _all_words(nletters, length - 1)
    return [w + (l,) for w in shorter for l in range(nletters)]


def decompose_cn(n, algebra):
    """Multilinear decomposition of c_n for 2 <= n <= step.  The coefficients
    are universal (free Lie algebra on two generators); the algebra argument
    fixes the admissible range of n."""
    if not (2 <= n <= algebra.step):
        raise ValueError("n = %d out of range 2..%d" % (n, algebra.step))
    return LnDecomposition(n, _decompose_cn_universal(n))


# ---------------------------------------------------------------------------
# remainder splitting and difference bounds
# ---------------------------------------------------------------------------

def cn_remainder(n, x, y):
    """R_n with c_n(X,Y) = ((-1)^{n-1}/n!) [ (Y-X)/2, X+Y ]_{n-1} + R_n.

    R_2 vanishes identically; for n >= 3 the remainder is cubically small in
    X + Y on bounded sets."""
    alg = x.algebra
    if not (2 <= n <= alg.step):
        raise ValueError("n out of range 2..step")
    cn = bch_term(n, x, y)
    half = Q(1, 2) if x.scalar_mode == "exact" else 0.5
    a = half * (y - x)
    b = x + y
    vec = b
    for _ in range(n - 1):
        vec = bracket(a, vec)
    coeff = Q((-1) ** (n - 1), math.factorial(n))
    main = coeff * vec if x.scalar_mode == "exact" else float(coeff) * vec
    return cn - main


def cn_difference_ratio(n, x, y, d1, d2, nu):
    """||c_n(X+D1, Y+D2) - c_n(X, Y)|| / (nu^{n-1} max(||D1||, ||D2||));
    zero perturbations give ratio 0 by convention."""
    denom = nu ** (n - 1) * max(d1.norm(), d2.norm())
    if denom == 0:
        return 0.0
    diff = bch_term(n, x + d1, y + d2) - bch_term(n, x, y)
    return diff.norm() / denom


def cn_difference_bound(algebra, n, nu, samples=200, seed=0):
    """Sampled sup of cn_difference_ratio over ||X||, ||Y||, ||D|| <= nu, in
    blocks (algebra.streamed): a block of k samples draws X, Y, D1 and D2 in
    turn, each as k vectors r u, unit_vectors u then radii r on [0, nu]."""
    nu = check_radius(nu, "nu")
    if not 1 <= n <= algebra.step:
        raise ValueError("term index %d out of range 1..%d" % (n, algebra.step))
    rng = np.random.default_rng(seed)

    def block(k):
        x, y, d1, d2 = (unit_vectors(rng, k, algebra.dim) * rng.uniform(0, nu, (k, 1))
                        for _ in range(4))
        diff = _float_terms(algebra, x + d1, y + d2, n) - _float_terms(algebra, x, y, n)
        den = nu ** (n - 1) * np.maximum(_norms(d1), _norms(d2))
        return masked_sup(_norms(diff), den, den != 0), k

    label = "bch_term_difference gamma_%d[%s]" % (n, algebra.name)
    return streamed(samples, block, [label], nu)[0]


def bilinear_bound(algebra, n, nu=1.0, samples=400, seed=0):
    """Sampled sup of ||c_n(X, Y)|| / ||[X, Y]|| over ||X||, ||Y|| <= nu with
    [X, Y] != 0; finite because every addend of c_n beyond the first contains
    a bracket factor.  `samples` pairs are drawn in blocks, as X and Y of
    cn_difference_bound; a pair with ||[X, Y]|| < 1e-9 is dropped, and the
    constant's `samples` counts the pairs kept."""
    nu = check_radius(nu, "nu")
    if not 2 <= n <= algebra.step:
        raise ValueError("bilinear_bound needs 2 <= n <= step = %d, got n = %d"
                         % (algebra.step, n))
    rng = np.random.default_rng(seed)

    def block(k):
        x, y = (unit_vectors(rng, k, algebra.dim) * rng.uniform(0, nu, (k, 1))
                for _ in range(2))
        br = _norms(algebra.float_ops().bracket(x, y))
        keep = br >= 1e-9
        return masked_sup(_norms(_float_terms(algebra, x, y, n)), br, keep), int(keep.sum())

    label = "bch_term_vs_bracket alpha_%d[%s]" % (n, algebra.name)
    return streamed(samples, block, [label], nu)[0]


def _norms(v):
    """The norms of the rows of v, each as AlgebraVector.norm takes it (the
    dot product of a contiguous row), so the two agree bit for bit."""
    v = np.ascontiguousarray(v)
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
