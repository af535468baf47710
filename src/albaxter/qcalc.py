"""q-calculus primitives and the Baxter kernel functions.

The deformation parameter is written alpha (the letter q is reserved for
the dynamical variables).  Throughout, eta = 1/alpha - 1 and the Jackson
operator acting on functions of r_1..r_N in direction k is

    q_k f = (f(r) - f(..., alpha r_k, ...)) / r_k,

i.e. (1 - alpha) times the Jackson derivative

    D_k f = (f(..., alpha r_k, ...) - f(r)) / (alpha r_k - r_k).

Functions are passed in as callables on a coordinate array (see
funspace.rho_product for the product kernels of the Baxter equation).
jackson_op and jackson_derivative also take stacked points, a
(len(point), n) array whose columns are n points; f then returns n values.
jackson_integral evaluates its integrand this way, once per block of nodes
alpha^n b instead of once per node: f takes a (len(point), B) array and
returns B values, or a scalar (lambda r: 1.0) that broadcasts; the bounds
are scalars.  The first block has ceil(ln(JACKSON_TAIL) / ln|alpha|) + 2
nodes (one block for a polynomial at alpha = 1/2), each next block twice
as many, JACKSON_MAX_NODES in all.  The stop rule is the node-by-node one:
the sum ends at the first term below JACKSON_TAIL max(1, |partial sum|),
and the terms are added in node order, so the result is the same bit for
bit.

Every Baxter kernel goes through one scalar kernel, qpochhammer_inf for
(x; alpha)_inf.  It multiplies out the factors 1 - x alpha^p with
|x alpha^p| >= THETA = 1/4 and takes the rest as the exponential of the
log series -sum_j y^j / (j (1 - alpha^j)), |y| < THETA, which needs at
most 27 terms at any real alpha.  Its cost is therefore
O(ln(|x|/THETA) / ln(1/|alpha|)) factors plus a bounded number of terms,
so arguments |x| < THETA cost the same at alpha -> 1 as at alpha = 1/2.
Its error is a few eps per factor plus eps times |y / (1 - alpha)|.  The
kernel itself never tests for a pole; rho_site and the slot form of F_k
raise QPochhammerPoleError where a factor |1 - x alpha^p| < POLE_TOL.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

# (x; alpha)_inf: factors with |x alpha^p| >= THETA are multiplied out, the
# rest is summed as a log series in powers of |y| < THETA.
THETA = 0.25
MAX_FACTORS = 5_000_000
_EPS = 2.0**-53
# A factor |1 - x alpha^p| below this counts as a pole of 1/(x; alpha)_inf.
POLE_TOL = 1e-12
# Jackson integral: the sum stops at the first term below JACKSON_TAIL times
# max(1, |partial sum|); no stop within JACKSON_MAX_NODES nodes raises.
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
    a = qp.alpha
    if not abs(a) < 1:
        raise ValueError("(x; alpha)_inf requires |alpha| < 1")
    x = complex(x)
    prod = 1.0 + 0.0j
    if abs(x) >= THETA:
        n = math.ceil(math.log(abs(x) / THETA) / -math.log(abs(a)))
        if n > MAX_FACTORS:
            raise ValueError("q-Pochhammer truncation exceeds term cap")
        for _ in range(n):
            prod *= 1.0 - x
            x *= a
    if x == 0:
        return prod
    terms = math.ceil(math.log(_EPS * (1.0 - abs(a)) / abs(1.0 - a))
                      / math.log(abs(x)))
    s, xj, aj, g = 0.0, 1.0, 1.0, 0.0
    for j in range(1, terms + 1):
        xj *= x
        g += aj  # 1 + a + ... + a^(j-1) = (1 - a^j) / (1 - a)
        aj *= a
        s += xj / (j * g)
    e = -s / (1.0 - a)
    try:
        return prod * cmath.exp(e)
    except OverflowError:
        # exp(e) overflows only for alpha near 1 and y on or left of the
        # imaginary axis; for real alpha the factors multiplied out lie at
        # the same phase, have modulus > 1 there, and the value overflows
        # too: an infinite modulus with the phase carried on
        return cmath.rect(math.inf, cmath.phase(prod) + e.imag)


def qexp(x, qp):
    """q-exponential 1/(x(1-alpha); alpha)_inf, which tends to e^x as alpha->1."""
    return 1.0 / qpochhammer_inf(x * (1.0 - qp.alpha), qp)


def _scaled(point, k, factor):
    pt = np.array(point, dtype=complex)
    pt[k - 1] = factor * pt[k - 1]
    return pt


def jackson_op(f, k, qp, point):
    """Operator action q_k f = (f(r) - f(alpha r_k)) / r_k at a point, or
    at each column of a stacked (len(point), n) array of points."""
    point = np.asarray(point, dtype=complex)
    rk = point[k - 1]
    if np.any(rk == 0):
        raise ZeroDivisionError("Jackson difference q_k needs r_k != 0")
    return (f(point) - f(_scaled(point, k, qp.alpha))) / rk


def jackson_derivative(f, k, qp, point):
    """Jackson derivative D_k f = q_k f / (1 - alpha) in direction r_k
    (1-based), at a point or at stacked points as jackson_op."""
    return jackson_op(f, k, qp, point) / (1.0 - qp.alpha)


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
    The surrounding coordinates are taken from `point` (defaults to zeros
    away from site k).

    f is called on blocks of nodes: a (len(point), B) array whose row k-1
    holds alpha^n b for B consecutive n, the other rows `point`.  It returns
    B values, or one scalar that stands for all of them; the bounds are
    scalars.  The first block has ceil(ln(JACKSON_TAIL) / ln|alpha|) + 2
    nodes and each next one twice as many, so a polynomial integrand at
    alpha = 1/2 takes one call per bound.  The sum stops at the first n
    with |term_n| < JACKSON_TAIL max(1, |sum_{m<=n} term_m|) and adds the
    terms in node order, so it equals the node-by-node sum bit for bit;
    f may be evaluated at nodes of the last block beyond that n.  With no
    stop within JACKSON_MAX_NODES nodes it raises ValueError.
    """
    alpha = qp.alpha
    if abs(alpha) >= 1:
        raise ValueError("Jackson integral requires |alpha| < 1")
    if point is None:
        point = np.zeros(k, dtype=complex)
    point = np.asarray(point, dtype=complex)
    first = math.ceil(math.log(JACKSON_TAIL) / math.log(abs(alpha))) + 2

    def one_point(bound):
        if bound == 0:
            return 0.0 + 0.0j
        acc = 0.0 + 0.0j
        w = complex(bound)  # first node of the next block
        done, size = 0, first
        while done < JACKSON_MAX_NODES:
            size = min(size, JACKSON_MAX_NODES - done)
            # w, w alpha, w alpha^2, ...: the products of a running w *= alpha
            chain = np.cumprod(np.r_[w, np.full(size, alpha, dtype=complex)])
            nodes, w = chain[:-1], chain[-1]
            pts = np.repeat(point[:, None], size, axis=1)
            pts[k - 1] = nodes
            terms = _mul_unfused(nodes, np.broadcast_to(f(pts), size))
            sums = np.cumsum(np.r_[acc, terms])[1:]  # sequential, in order
            # np.hypot rounds as scalar abs() does; np.abs of a complex
            # vector need not
            small = (np.hypot(terms.real, terms.imag) < JACKSON_TAIL
                     * np.maximum(1.0, np.hypot(sums.real, sums.imag)))
            if small.any():
                return sums[small.argmax()]
            acc = sums[-1]
            done += size
            size *= 2
        raise ValueError("Jackson integral tail not decaying within node cap")

    upper = one_point(b)
    return upper if a is None else upper - one_point(a)


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


def _poch_guarded(x, qp):
    """(x; alpha)_inf, raising QPochhammerPoleError where a factor vanishes.

    A factor counts as vanishing when |1 - x alpha^p| < POLE_TOL.  Only the
    factors with |x alpha^p| near 1 can do so, so the two integers p >= 0
    on either side of p* = -ln|x| / ln|alpha| are tested.  A value that is
    merely small, with no factor near zero, is returned as it is.
    """
    v = qpochhammer_inf(x, qp)
    if x != 0:
        a = qp.alpha
        p_star = -math.log(abs(x)) / math.log(abs(a))
        for p in (math.floor(p_star), math.ceil(p_star)):
            if p >= 0 and abs(1.0 - x * a**p) < POLE_TOL:
                raise QPochhammerPoleError(
                    f"vanishing Pochhammer factor 1 - x alpha^{p} at x={x}")
    return v


def rho_site(ks, qp, r_k):
    """Site kernel factor

        rho_k(mu, r_k) = 1 / ((r_k/r~_{k-1}; a)_inf (-r_k/(mu^2 r~_k); a)_inf),

    normalized to rho_k(mu, 0) = 1.  It solves
    rho_k(mu, r_k) = [mu^2 r~_k r~_{k-1} / ((mu^2 r~_k + r_k)(r~_{k-1} - r_k))]
    rho_k(mu, alpha r_k).  (x; alpha)_inf converges for every x when
    |alpha| < 1, so any r_k is accepted; only a vanishing factor raises.
    """
    x1 = r_k / ks.rtilde_km1
    x2 = -r_k / (ks.mu**2 * ks.rtilde_k)
    return 1.0 / (_poch_guarded(x1, qp) * _poch_guarded(x2, qp))


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
    la = np.log(complex(qp.alpha))
    return z ** (0.5 - np.log(z) / (2.0 * la))


def kernel_G(c, cp, mu, qp):
    """Homogeneous-of-degree(-1) prefactor

        G(c, c') = (1/c') (c/c')^(2 ln mu / ln alpha) Ghat(c/c')

    satisfying G(alpha c, c') = (mu^2 alpha c'/c) G(alpha c, alpha c')
    and G(alpha c, c') = (mu^2 c'/c) G(c, c').
    """
    z = c / cp
    if z == 0 or (complex(z).real < 0 and complex(z).imag == 0):
        raise ValueError("kernel_G branch error: c/c' on the closed negative axis")
    la = np.log(complex(qp.alpha))
    return (1.0 / cp) * z ** (2.0 * np.log(complex(mu)) / la) * ghat(z, qp)


def kernel_F(c_k, c_k1, r_k, mu, qp):
    """Closed-form site kernel F_k(alpha c_k, c_{k+1}, r_k).

    In slot form F(u, v, w) = G(u, v) / ((-w/(mu^2 v); a)_inf (a w/u; a)_inf)
    evaluated at u = alpha c_k, v = c_{k+1}, w = r_k.  Every relation it is
    checked by is linear in F, so a constant factor would be immaterial.
    """
    return _kernel_F_slots(qp.alpha * c_k, c_k1, r_k, mu, qp)


def _kernel_F_slots(u, v, w, mu, qp):
    p1 = _poch_guarded(-w / (mu**2 * v), qp)
    p2 = _poch_guarded(qp.alpha * w / u, qp)
    return kernel_G(u, v, mu, qp) / (p1 * p2)


def feq_residuals(c_k, c_k1, r_k, mu, qp):
    """Relative residuals of the four functional equations tying F_k to the
    dressing-matrix exchange relations, evaluated at one point.
    """
    a = qp.alpha
    F = lambda u, v, w: _kernel_F_slots(u, v, w, mu, qp)
    c, cp, r = c_k, c_k1, r_k
    scale = abs(F(a * c, cp, r))
    e1 = (r * F(a * c, cp, r) + mu**2 * a * cp * F(a * c, a * cp, a * r)
          - (r + mu**2 * a * cp) * F(a * c, a * cp, r))
    e2 = ((r - c) * F(a * c, cp, r)
          - (r * F(c, cp, r) - c * F(a * c, cp, a * r)))
    e3 = c * F(a * c, cp, r) - (r + mu**2 * a * cp) * F(a * c, a * cp, r)
    e4 = (c - r) * F(a * c, cp, r) - mu**2 * cp * F(c, cp, r)
    return np.abs([e1, e2, e3, e4]) / max(scale, 1e-30)


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
