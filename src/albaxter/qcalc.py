"""q-calculus primitives and the Baxter kernel functions.

The deformation parameter is written alpha (the letter q is reserved for
the dynamical variables).  Throughout, eta = 1/alpha - 1 and the Jackson
operator acting on functions of r_1..r_N in direction k is

    q_k f = (f(r) - f(..., alpha r_k, ...)) / r_k,

i.e. (1 - alpha) times the Jackson derivative

    D_k f = (f(..., alpha r_k, ...) - f(r)) / (alpha r_k - r_k).

Functions are passed in as callables on a coordinate array (see
funspace.rho_product for the product kernels of the Baxter equation).
jackson_op also takes stacked points, a (len(point), n) array whose
columns are n points; f then returns n values.
jackson_integral evaluates its integrand this way, once per block of nodes
alpha^n w for all its bounds w instead of once per node: f takes a
(len(point), B) array and returns B values, or a scalar (lambda r: 1.0)
that broadcasts.  The bounds are scalars or arrays, with one point or one
per bound.  The first block has ceil(ln(JACKSON_TAIL) / ln|alpha|) + 2
nodes per bound, each next block twice as many, JACKSON_MAX_NODES in all.
A bound's sum ends at its first nonzero term below JACKSON_TAIL
max(|partial sum|, largest |term| so far), a relative rule, at its first
zero term past the depth where |alpha|^n < JACKSON_TAIL, or at its first
NaN or infinite term, with that non-finite value; a zero of f at a node
above that depth does not end it.  It adds its terms in node order, so it
equals the node-by-node sum bit for bit.

Every Baxter kernel goes through one scalar kernel for (x; alpha)_inf,
the factor loop and log series of qpochhammer_inf.  It multiplies out the
factors 1 - x alpha^p with |x alpha^p| >= THETA = 1/4 and takes the rest
as the exponential of the log series -sum_j y^j / (j (1 - alpha^j)),
|y| < THETA, which needs at most 27 terms at any real alpha.  Its cost is
therefore O(ln(|x|/THETA) / ln(1/|alpha|)) factors plus a bounded number
of terms, so arguments |x| < THETA cost the same at alpha -> 1 as at
alpha = 1/2; the series denominators are built once per alpha.  Its error
is a few eps per factor plus eps times |y / (1 - alpha)|.  qpochhammer_inf
tests no factor for a pole.  rho_site and the slot form of F_k take the guarded
form, _poch_guarded: the same factor loop raises QPochhammerPoleError at
the first factor |1 - x alpha^p| < POLE_TOL, and its parts are memoised
on the exact bits of x and alpha (the last POCH_CACHE_SIZE arguments), so
each distinct argument is evaluated once while it stays in the cache.
"""

import cmath
import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

# (x; alpha)_inf: factors with |x alpha^p| >= THETA are multiplied out, the
# rest is summed as a log series in powers of |y| < THETA.
THETA = 0.25
MAX_FACTORS = 5_000_000
_EPS = 2.0**-53
# A factor |1 - x alpha^p| below this counts as a pole of 1/(x; alpha)_inf.
POLE_TOL = 1e-12
# Guarded (x; alpha)_inf parts kept for reuse; the suites repeat an argument
# within a few dozen calls of its first use.
POCH_CACHE_SIZE = 128
# Jackson integral: the sum stops at the first nonzero term below
# JACKSON_TAIL times max(|partial sum|, largest |term|), or at a zero term
# where |alpha|^n < JACKSON_TAIL; no stop in JACKSON_MAX_NODES raises.
JACKSON_TAIL = 1e-16
JACKSON_MAX_NODES = 10_000


class QPochhammerPoleError(ValueError):
    """A factor of (x; alpha)_inf vanished (pole of its reciprocal)."""


@dataclass(frozen=True)
class QParam:
    """Deformation parameter alpha with derived quantities.

    Default policy is real alpha in (0, 1): every infinite product then
    converges and all power/log branches are principal.  Complex alpha with
    |alpha| < 1 is allowed behind allow_complex=True.
    """

    alpha: complex
    allow_complex: bool = field(default=False, compare=False)

    def __post_init__(self):
        a = complex(self.alpha)
        if self.allow_complex:
            if not abs(a) < 1 or a == 0:
                raise ValueError("complex alpha requires 0 < |alpha| < 1")
        else:
            if abs(a.imag) > 0 or not 0.0 < a.real < 1.0:
                raise ValueError("alpha must be real in (0, 1); "
                                 "pass allow_complex=True for complex alpha")
            object.__setattr__(self, "alpha", a.real)

    @property
    def eta(self):
        return 1.0 / self.alpha - 1.0

    @property
    def one_plus_eta(self):
        return 1.0 / self.alpha

    @property
    def sqrt_alpha(self):
        # principal branch, used consistently for all mu -> mu*sqrt(alpha) shifts
        return complex(np.sqrt(complex(self.alpha)))

    @functools.cached_property
    def log_alpha(self):
        """Principal ln(alpha) as a numpy complex, taken once per QParam."""
        return np.log(complex(self.alpha))


def qpochhammer_inf(x, qp):
    """Infinite q-Pochhammer product (x; alpha)_inf = prod_{p>=0} (1 - x alpha^p).

    Evaluated in two parts that split at |x alpha^p| = THETA:

    * the factors with |x alpha^p| >= THETA are multiplied out.  There are
      n = ceil(ln(|x|/THETA) / ln(1/|alpha|)) of them (none when
      |x| < THETA); above MAX_FACTORS the call raises ValueError before
      any work is done;
    * the rest, (y; alpha)_inf with y = x alpha^n and |y| < THETA, is
      exp(-sum_{j>=1} y^j / (j (1 - alpha^j))) (Gasper & Rahman, Basic
      Hypergeometric Series, 1.3).  Each 1 - alpha^j is taken as
      (1 - alpha)(1 + alpha + ... + alpha^(j-1)) with the sum built by
      recurrence, so it keeps full relative precision as alpha -> 1, where
      1 - alpha^j taken directly would cancel.  The series stops after J
      terms, the least J with |y|^J <= eps (1 - |alpha|) / |1 - alpha|;
      J <= 27 for real alpha.

    Error model: the cut-off tail is below eps times the first series term
    |y / (1 - alpha)|, i.e. below the rounding of the sum itself.  What
    remains is rounding: about eps per multiplied factor plus eps times
    that first term, which grows like 1/(1 - alpha) as alpha -> 1.
    A value beyond the double range comes back as 0 or with an infinite
    modulus; a NaN or infinite argument raises ValueError or OverflowError,
    as the plain product did.  No factor is tested for a zero here; the
    kernel callers raise QPochhammerPoleError for that (_poch_guarded).
    """
    return _poch_value(*_qpochhammer_parts(x, qp.alpha))


def _poch_value(prod, e):
    """prod exp(e), the value of (x; alpha)_inf from its parts."""
    if e == 0:  # nothing left after the factors: (0; alpha)_inf = 1
        return prod
    try:
        return prod * cmath.exp(e)
    except OverflowError:
        # exp(e) overflows only for alpha near 1 and y on or left of the
        # imaginary axis; for real alpha the factors multiplied out lie at
        # the same phase, have modulus > 1 there, and the value overflows
        # too: an infinite modulus with the phase carried on
        return cmath.rect(math.inf, cmath.phase(prod) + e.imag)


@functools.lru_cache(maxsize=32, typed=True)
def _series_table(a):
    """[log tolerance, denominators j (1 + a + ... + a^(j-1)), last sum, a^j]
    of the log series at alpha = a, grown to the longest series asked for."""
    return [math.log(_EPS * (1.0 - abs(a)) / abs(1.0 - a)), [], 0.0, 1.0]


def _qpochhammer_parts(x, a, log=False, guard=False):
    """(prod, e) with (x; alpha)_inf = prod exp(e) at alpha = a: prod
    multiplies out the factors with |x alpha^p| >= THETA (log=True: sums
    their logs), e is the log series of the rest (0 when the rest is
    (0; alpha)_inf = 1), its denominators from the per-alpha table.  See
    `qpochhammer_inf`.  guard=True raises QPochhammerPoleError at the first
    factor |1 - x alpha^p| < POLE_TOL; only factors with |x alpha^p| near 1
    come that close to 0, and all of them are multiplied out."""
    if not abs(a) < 1:
        raise ValueError("(x; alpha)_inf requires |alpha| < 1")
    x0 = x = complex(x)
    prod = 0j if log else 1.0 + 0.0j
    if abs(x) >= THETA:
        n = math.ceil(math.log(abs(x) / THETA) / -math.log(abs(a)))
        if n > MAX_FACTORS:
            raise ValueError("q-Pochhammer truncation exceeds term cap")
        for p in range(n):
            f = 1.0 - x
            if guard and abs(f) < POLE_TOL:
                raise QPochhammerPoleError(
                    f"vanishing Pochhammer factor 1 - x alpha^{p} at x={x0}")
            prod = prod + cmath.log(f) if log else prod * f
            x *= a
    if x == 0:
        return prod, 0.0
    table = _series_table(a)
    terms, d = math.ceil(table[0] / math.log(abs(x))), table[1]
    while len(d) < terms:
        table[2] += table[3]  # 1 + a + ... + a^(j-1) = (1 - a^j) / (1 - a)
        table[3] *= a
        d.append((len(d) + 1) * table[2])
    s, xj = 0.0, 1.0
    for dj in d[:terms]:
        xj *= x
        s += xj / dj
    return prod, -s / (1.0 - a)


def qexp(x, qp):
    """q-exponential 1/(x(1-alpha); alpha)_inf, which tends to e^x as alpha->1."""
    return 1.0 / qpochhammer_inf(x * (1.0 - qp.alpha), qp)


def jackson_op(f, k, qp, point):
    """Operator action q_k f = (f(r) - f(alpha r_k)) / r_k at a point, or
    at each column of a stacked (len(point), n) array of points."""
    point = np.asarray(point, dtype=complex)
    rk = point[k - 1]
    if np.any(rk == 0):
        raise ZeroDivisionError("Jackson difference q_k needs r_k != 0")
    scaled = point.copy()
    scaled[k - 1] = qp.alpha * rk
    return (f(point) - f(scaled)) / rk


def _mul_unfused(x, y):
    """x * y on complex arrays, rounded as a scalar complex product is.

    numpy may fuse the multiply-adds of a vector complex product (FMA) but
    not those of a scalar one; taking the product in real parts keeps a
    blocked sum bit-identical to a node-by-node one.
    """
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def jackson_integral(f, k, qp, b, a=None, point=None):
    """Definite Jackson integral of f in direction r_k.

    One-point form: int_0^b d_alpha r_k f = sum_{n>=0} alpha^n b f(.., alpha^n b, ..);
    two-point form over [a, b] by subtraction.  This is the standard
    Jackson integral without its factor 1 - alpha, so that q_k inverts it.
    The bounds b (and a) are scalars or arrays of shape (n,), one integral
    per bound; the surrounding coordinates come from `point`, of shape
    (len(point),) or (len(point), n), one column per bound (default zeros).

    f is called on blocks of nodes: a (len(point), B) array whose row k-1
    holds alpha^n w for consecutive n, bound after bound (all bounds in one
    call), the other rows that bound's point.  It returns B values, or one
    scalar that stands for all of them.  The first block has
    ceil(ln(JACKSON_TAIL) / ln|alpha|) + 2 nodes per bound and each next
    one twice as many, so a polynomial integrand at alpha = 1/2 takes one
    call.  A bound's sum stops at its first nonzero term below
    JACKSON_TAIL max(|partial sum|, largest |term| so far).  A zero term
    stops it only at a node alpha^n w with |alpha|^n < JACKSON_TAIL (the
    last two nodes of the first block and beyond): f may vanish at one
    node (r - w at r = w), and a difference inside f may cancel to 0 deep
    in the tail.  So an all-zero integrand stops after one call, at 0.  A
    NaN or infinite term ends its bound's sum with a NaN or infinite
    value, which a residual reports as a FAIL.  Each bound adds its terms
    in node order, so it equals its node-by-node sum bit for bit whatever
    bounds share the call; f may be evaluated beyond a stop in the last
    block.  With no stop within JACKSON_MAX_NODES nodes it raises
    ValueError.
    """
    alpha = qp.alpha
    if abs(alpha) >= 1:
        raise ValueError("Jackson integral requires |alpha| < 1")
    b = np.asarray(b, dtype=complex)
    if a is not None:
        a = np.broadcast_to(np.asarray(a, dtype=complex), b.shape)
    bounds = b.ravel() if a is None else np.concatenate([b.ravel(), a.ravel()])
    if point is None:
        point = np.zeros(k, dtype=complex)
    point = np.asarray(point, dtype=complex)
    # the point of each bound, columns in the order of `bounds`
    cols = np.broadcast_to(point.reshape(len(point), -1), (len(point), b.size))
    cols = np.tile(cols, 1 if a is None else 2)
    first = math.ceil(math.log(JACKSON_TAIL) / math.log(abs(alpha))) + 2
    out = np.zeros(bounds.size, dtype=complex)  # a zero bound stays at 0
    live = np.flatnonzero(bounds)
    # per live bound: the first node of the next block, the running sum and
    # the largest |term| so far
    w, acc, top = (bounds[live], np.zeros(live.size, dtype=complex),
                   np.zeros(live.size))
    done, size = 0, first
    while live.size and done < JACKSON_MAX_NODES:
        size = min(size, JACKSON_MAX_NODES - done)
        # w, w alpha, w alpha^2, ...: the products of a running w *= alpha
        chain = np.full((live.size, size + 1), alpha, dtype=complex)
        chain[:, 0] = w
        nodes = np.multiply.accumulate(chain, axis=1, out=chain)[:, :-1]
        pts = np.repeat(cols[:, live], size, axis=1)
        pts[k - 1] = nodes.ravel()
        vals = np.broadcast_to(f(pts), nodes.size).reshape(nodes.shape)
        terms = _mul_unfused(nodes, vals)
        # sequential, in node order, from each bound's running sums
        sums = np.cumsum(np.concatenate([acc[:, None], terms], 1), 1)[:, 1:]
        # np.hypot rounds as scalar abs() does; np.abs of a complex
        # vector need not
        mags = np.hypot(terms.real, terms.imag)
        top = np.maximum.accumulate(np.concatenate([top[:, None], mags], 1),
                                    1)[:, 1:]
        scale = np.maximum(np.hypot(sums.real, sums.imag), top)
        # a NaN or infinite term ends the sum too, at a non-finite value;
        # a zero term only in the tail
        deep = abs(alpha) ** np.arange(done, done + size) < JACKSON_TAIL
        small = (np.where(mags > 0, mags < JACKSON_TAIL * scale, deep)
                 | ~np.isfinite(mags))
        hit = small.any(axis=1)
        rows = np.flatnonzero(hit)
        out[live[rows]] = sums[rows, small[rows].argmax(axis=1)]
        live, w, acc, top = (live[~hit], chain[~hit, -1], sums[~hit, -1],
                             top[~hit, -1])
        done, size = done + size, 2 * size
    if live.size:
        raise ValueError("Jackson integral tail not decaying within node cap")
    res = out if a is None else out[:b.size] - out[b.size:]
    return res[0] if b.ndim == 0 else res


def leibniz_parts_residuals(qp, cf, cg, x, b, a):
    """|LHS - RHS| of the q-product rule q_1(f g) = f q_1 g + g(alpha r) q_1 f
    at r = x and of q-integration by parts, int_a^b f q_1 g = f g |_a^b
    - int_a^b g(alpha r) q_1 f (Gasper & Rahman, 1.11), shape (2, n), for
    f = cf_0 + cf_1 r + cf_2 r^2, g = cg_0 + cg_1 r + cg_2 r^3, one pair per
    row of cf, cg and entry of x, b, a.  The coefficients ride along as
    coordinates 2..7, so all pairs take 3 jackson_op and 2 jackson_integral
    calls.
    """
    pts = np.vstack([x, np.transpose(cf), np.transpose(cg)]).astype(complex)
    F = lambda r, y: r[1] + r[2] * y + r[3] * y**2
    G = lambda r, y: r[4] + r[5] * y + r[6] * y**3
    f, g = (lambda r: F(r, r[0])), (lambda r: G(r, r[0]))
    ga = lambda r: G(r, qp.alpha * r[0])
    qf = lambda r: jackson_op(f, 1, qp, r)
    qg = lambda r: jackson_op(g, 1, qp, r)
    rule = (jackson_op(lambda r: f(r) * g(r), 1, qp, pts)
            - (f(pts) * qg(pts) + ga(pts) * qf(pts)))
    lhs = jackson_integral(lambda r: f(r) * qg(r), 1, qp, b, a, pts)
    rhs = (F(pts, b) * G(pts, b) - F(pts, a) * G(pts, a)
           - jackson_integral(lambda r: ga(r) * qf(r), 1, qp, b, a, pts))
    return np.abs([rule, lhs - rhs])


# ---------------------------------------------------------------------------
# Baxter kernel pieces


@dataclass(frozen=True)
class KernelSite:
    """Per-site kernel parameters: the Backlund parameter mu and the two
    tilded values r~_k, r~_{k-1} entering the site factor."""

    mu: complex
    rtilde_k: complex
    rtilde_km1: complex

    def __post_init__(self):
        if self.mu == 0 or self.rtilde_k == 0 or self.rtilde_km1 == 0:
            raise ValueError("mu and both rtilde parameters must be nonzero")


_BITS = struct.Struct("<4d").pack


def _poch_guarded(x, qp):
    """(x; alpha)_inf and its parts (prod, e), (x; alpha)_inf = prod exp(e),
    raising QPochhammerPoleError where a factor vanishes.

    A factor counts as vanishing when |1 - x alpha^p| < POLE_TOL; the
    factor loop of `_qpochhammer_parts` tests each factor it multiplies
    out, which takes in every factor with |x alpha^p| near 1.  A value that
    is merely small, with no factor near zero, is returned as it is.  The
    results of the last POCH_CACHE_SIZE arguments are kept, keyed on the
    bits of x and alpha (so 0.5+0j and 0.5-0j are two arguments) and on
    the type of alpha; a pole is not kept, so it raises on every call.
    """
    x, a = complex(x), qp.alpha
    return _guarded_memo(_BITS(x.real, x.imag, a.real, a.imag), x, a)


@functools.lru_cache(maxsize=POCH_CACHE_SIZE, typed=True)
def _guarded_memo(bits, x, a):
    parts = _qpochhammer_parts(x, a, guard=True)
    return _poch_value(*parts), parts


def rho_site(ks, qp, r_k):
    """Site kernel factor

        rho_k(mu, r_k) = 1 / ((r_k/r~_{k-1}; a)_inf (-r_k/(mu^2 r~_k); a)_inf),

    normalized to rho_k(mu, 0) = 1.  It solves
    rho_k(mu, r_k) = [mu^2 r~_k r~_{k-1} / ((mu^2 r~_k + r_k)(r~_{k-1} - r_k))]
    rho_k(mu, alpha r_k).  (x; alpha)_inf converges for every x when
    |alpha| < 1, so any r_k is accepted; only a vanishing factor raises.
    Near alpha = 1 one Pochhammer can underflow to 0 while the other
    overflows (at alpha = 1 - 1e-4, (0.2; alpha)_inf ~ e^-2110 and
    (-0.2; alpha)_inf ~ e^1908).  Where their product is 0 or not finite,
    the two are combined in logs, from the memoised parts prod exp(e) of
    `_poch_guarded`, and where a part prod itself leaves the normal double
    range, its log is summed factor by factor.
    """
    x1 = r_k / ks.rtilde_km1
    x2 = -r_k / (ks.mu**2 * ks.rtilde_k)
    v1, parts1 = _poch_guarded(x1, qp)
    v2, parts2 = _poch_guarded(x2, qp)
    v = v1 * v2
    if v != 0 and cmath.isfinite(v):
        return 1.0 / v
    z = 0j
    for x, (prod, e) in ((x1, parts1), (x2, parts2)):
        if 2.0**-1022 <= abs(prod) < math.inf:  # a normal double
            z -= cmath.log(prod) + e
        else:  # underflowed (subnormal or 0), overflowed or NaN
            z -= sum(_qpochhammer_parts(x, qp.alpha, log=True))
    try:
        return cmath.exp(z)
    except OverflowError:
        return cmath.rect(math.inf, z.imag)


def rho_functional_residual(ks, qp, r_k):
    """Residual of the defining scaling relation of rho_k at r_k."""
    lhs = rho_site(ks, qp, r_k)
    coef = (ks.mu**2 * ks.rtilde_k * ks.rtilde_km1
            / ((ks.mu**2 * ks.rtilde_k + r_k) * (ks.rtilde_km1 - r_k)))
    rhs = coef * rho_site(ks, qp, qp.alpha * r_k)
    return abs(lhs - rhs) / max(abs(lhs), 1.0)


def ghat(z, qp):
    """A solution of Ghat(z) = z Ghat(alpha z) via the principal logarithm.

    Implemented as z^(1/2 - ln z / (2 ln alpha)); any alpha-periodic factor
    is immaterial, only the functional equation is contractual.
    """
    z = complex(z)
    if z == 0 or (z.real < 0 and z.imag == 0):
        raise ValueError("ghat branch error: z on the closed negative axis")
    return z ** (0.5 - np.log(z) / (2.0 * qp.log_alpha))


def kernel_G(c, cp, mu, qp):
    """Homogeneous-of-degree(-1) prefactor

        G(c, c') = (1/c') (c/c')^(2 ln mu / ln alpha) Ghat(c/c')

    satisfying G(alpha c, c') = (mu^2 alpha c'/c) G(alpha c, alpha c')
    and G(alpha c, c') = (mu^2 c'/c) G(c, c').
    """
    z = c / cp
    if z == 0 or (complex(z).real < 0 and complex(z).imag == 0):
        raise ValueError("kernel_G branch error: c/c' on the closed negative axis")
    return ((1.0 / cp) * z ** (2.0 * np.log(complex(mu)) / qp.log_alpha)
            * ghat(z, qp))


def _kernel_F_slots(u, v, w, mu, qp):
    p1 = _poch_guarded(-w / (mu**2 * v), qp)[0]
    p2 = _poch_guarded(qp.alpha * w / u, qp)[0]
    return kernel_G(u, v, mu, qp) / (p1 * p2)


def feq_residuals(c_k, c_k1, r_k, mu, qp):
    """Relative residuals of the four functional equations tying F_k to the
    dressing-matrix exchange relations at one point, from the five slot
    triples of F they involve, each evaluated once."""
    a = qp.alpha
    c, cp, r = c_k, c_k1, r_k
    F0, F_aaa, F_aa, F_c, F_ar = (
        _kernel_F_slots(u, v, w, mu, qp)
        for u, v, w in ((a * c, cp, r), (a * c, a * cp, a * r),
                        (a * c, a * cp, r), (c, cp, r), (a * c, cp, a * r)))
    e1 = (r * F0 + mu**2 * a * cp * F_aaa - (r + mu**2 * a * cp) * F_aa)
    e2 = (r - c) * F0 - (r * F_c - c * F_ar)
    e3 = c * F0 - (r + mu**2 * a * cp) * F_aa
    e4 = (c - r) * F0 - mu**2 * cp * F_c
    return np.abs([e1, e2, e3, e4]) / max(abs(F0), 1e-30)


def qhat_kernel(mu, qp, rtilde, r):
    """Full Baxter kernel

        Qhat_mu(alpha r~ | r) = prod_k [ r~_k (r_k/r~_{k-1}; a)_inf
                                         (-r_k/(mu^2 r~_k); a)_inf ]^(-1)

    with periodic site indexing, normalized to prod_k 1/r~_k at r = 0.
    """
    rtilde = np.asarray(rtilde, dtype=complex)
    r = np.asarray(r, dtype=complex)
    if rtilde.shape != r.shape:
        raise ValueError("rtilde and r must have equal length")
    if np.any(rtilde == 0):
        raise ValueError("all rtilde_k must be nonzero")
    acc = 1.0 + 0.0j
    N = r.size
    for k in range(N):
        ks = KernelSite(mu=mu, rtilde_k=rtilde[k], rtilde_km1=rtilde[k - 1])
        acc *= rho_site(ks, qp, r[k]) / rtilde[k]
    return acc
