"""q-calculus primitives and the Baxter kernel functions.

The deformation parameter is written alpha (the letter q is reserved for
the dynamical variables).  Throughout, eta = 1/alpha - 1 and the Jackson
operator acting on functions of r_1..r_N in direction k is

    q_k f = (f(r) - f(..., alpha r_k, ...)) / r_k,

i.e. (1 - alpha) times the Jackson derivative

    D_k f = (f(..., alpha r_k, ...) - f(r)) / (alpha r_k - r_k).

Functions are passed in as callables on a coordinate array (see
funspace.rho_product for the product kernels of the Baxter equation).
"""

from dataclasses import dataclass, field

import numpy as np


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

    @classmethod
    def from_eta(cls, eta, **kw):
        return cls(1.0 / (1.0 + eta), **kw)


def qpochhammer_inf(x, qp, tail=1e-17, max_terms=5_000_000):
    """Infinite q-Pochhammer product (x; alpha)_inf = prod_p (1 - x alpha^p).

    Truncated once |x alpha^p| < tail, giving relative error below 1e-15.
    """
    a = qp.alpha
    if not abs(a) < 1:
        raise ValueError("(x; alpha)_inf requires |alpha| < 1")
    x = complex(x)
    if x == 0:
        return 1.0 + 0.0j
    # number of factors until |x| |a|^p < tail
    n = int(np.ceil((np.log(tail) - np.log(abs(x))) / np.log(abs(a)))) + 1
    if n > max_terms:
        raise ValueError("q-Pochhammer truncation exceeds term cap")
    if n <= 0:
        return 1.0 + 0.0j
    factors = 1.0 - x * np.power(complex(a), np.arange(n))
    return complex(np.prod(factors))


def qexp(x, qp):
    """q-exponential 1/(x(1-alpha); alpha)_inf, which tends to e^x as alpha->1."""
    return 1.0 / qpochhammer_inf(x * (1.0 - qp.alpha), qp)


def _scaled(point, k, factor):
    pt = np.array(point, dtype=complex)
    pt[k - 1] = factor * pt[k - 1]
    return pt


def jackson_derivative(f, k, qp, point):
    """Jackson derivative of f in direction r_k (1-based) at a point."""
    point = np.asarray(point, dtype=complex)
    rk = point[k - 1]
    if rk == 0:
        raise ZeroDivisionError("Jackson derivative needs r_k != 0")
    return (f(_scaled(point, k, qp.alpha)) - f(point)) / (qp.alpha * rk - rk)


def jackson_op(f, k, qp, point):
    """Operator action q_k f = (f(r) - f(alpha r_k)) / r_k at a point."""
    point = np.asarray(point, dtype=complex)
    rk = point[k - 1]
    if rk == 0:
        raise ZeroDivisionError("operator q_k needs r_k != 0")
    return (f(point) - f(_scaled(point, k, qp.alpha))) / rk


def jackson_integral(f, k, qp, b, a=None, point=None, terms=10_000,
                     tail=1e-16):
    """Definite Jackson integral of f in direction r_k.

    One-point form: int_0^b d_alpha r_k f = sum_{n>=0} alpha^n b f(.., alpha^n b, ..);
    two-point form over [a, b] by subtraction.  The surrounding coordinates
    are taken from `point` (defaults to zeros away from site k).
    """
    if abs(qp.alpha) >= 1:
        raise ValueError("Jackson integral requires |alpha| < 1")
    if point is None:
        point = np.zeros(k, dtype=complex)
    point = np.asarray(point, dtype=complex)

    def one_point(bound):
        if bound == 0:
            return 0.0 + 0.0j
        acc = 0.0 + 0.0j
        w = complex(bound)
        for n in range(terms):
            pt = np.array(point, dtype=complex)
            pt[k - 1] = w
            term = w * f(pt)
            acc += term
            if abs(term) < tail * max(1.0, abs(acc)):
                return acc
            w *= qp.alpha
        raise ValueError("Jackson integral tail not decaying within term cap")

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
    normalization: complex = 1.0

    def __post_init__(self):
        if self.mu == 0 or self.rtilde_k == 0 or self.rtilde_km1 == 0:
            raise ValueError("mu and both rtilde parameters must be nonzero")


def _poch_guarded(x, qp):
    v = qpochhammer_inf(x, qp)
    if abs(v) < 1e-12:
        raise QPochhammerPoleError(f"vanishing Pochhammer factor at x={x}")
    return v


def rho_site(ks, qp, r_k):
    """Site kernel factor

        rho_k(mu, r_k) = G_k / ((r_k/r~_{k-1}; a)_inf (-r_k/(mu^2 r~_k); a)_inf)

    with G_k = ks.normalization.  It solves
    rho_k(mu, r_k) = [mu^2 r~_k r~_{k-1} / ((mu^2 r~_k + r_k)(r~_{k-1} - r_k))]
    rho_k(mu, alpha r_k).
    """
    x1 = r_k / ks.rtilde_km1
    x2 = -r_k / (ks.mu**2 * ks.rtilde_k)
    bound = 1.0 / (1.0 - abs(qp.alpha))
    if abs(x1) >= bound or abs(x2) >= bound:
        raise ValueError("Pochhammer argument outside convergence guard")
    return ks.normalization / (_poch_guarded(x1, qp) * _poch_guarded(x2, qp))


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


def kernel_F(c_k, c_k1, r_k, mu, qp, amplitude=1.0):
    """Closed-form site kernel F_k(alpha c_k, c_{k+1}, r_k).

    In slot form F(u, v, w) = A G(u, v) / ((-w/(mu^2 v); a)_inf (a w/u; a)_inf)
    evaluated at u = alpha c_k, v = c_{k+1}, w = r_k.
    """
    return _kernel_F_slots(qp.alpha * c_k, c_k1, r_k, mu, qp, amplitude)


def _kernel_F_slots(u, v, w, mu, qp, amplitude=1.0):
    p1 = _poch_guarded(-w / (mu**2 * v), qp)
    p2 = _poch_guarded(qp.alpha * w / u, qp)
    return amplitude * kernel_G(u, v, mu, qp) / (p1 * p2)


def feq_residuals(c_k, c_k1, r_k, mu, qp, amplitude=1.0):
    """Relative residuals of the four functional equations tying F_k to the
    dressing-matrix exchange relations, evaluated at one point.
    """
    a = qp.alpha
    F = lambda u, v, w: _kernel_F_slots(u, v, w, mu, qp, amplitude)
    c, cp, r = c_k, c_k1, r_k
    scale = abs(F(a * c, cp, r))
    e1 = (r * F(a * c, cp, r) + mu**2 * a * cp * F(a * c, a * cp, a * r)
          - (r + mu**2 * a * cp) * F(a * c, a * cp, r))
    e2 = ((r - c) * F(a * c, cp, r)
          - (r * F(c, cp, r) - c * F(a * c, cp, a * r)))
    e3 = c * F(a * c, cp, r) - (r + mu**2 * a * cp) * F(a * c, a * cp, r)
    e4 = (c - r) * F(a * c, cp, r) - mu**2 * cp * F(c, cp, r)
    return np.abs([e1, e2, e3, e4]) / max(scale, 1e-30)


def qhat_kernel(mu, qp, rtilde, r, amplitude=1.0):
    """Full Baxter kernel

        Qhat_mu(alpha r~ | r) = A prod_k [ r~_k (r_k/r~_{k-1}; a)_inf
                                           (-r_k/(mu^2 r~_k); a)_inf ]^(-1)

    with periodic site indexing.  The normalization A cancels from every
    residual contract.
    """
    rtilde = np.asarray(rtilde, dtype=complex)
    r = np.asarray(r, dtype=complex)
    if rtilde.shape != r.shape:
        raise ValueError("rtilde and r must have equal length")
    if np.any(rtilde == 0):
        raise ValueError("all rtilde_k must be nonzero")
    acc = complex(amplitude)
    N = r.size
    for k in range(N):
        ks = KernelSite(mu=mu, rtilde_k=rtilde[k], rtilde_km1=rtilde[k - 1])
        acc *= rho_site(ks, qp, r[k]) / rtilde[k]
    return acc
