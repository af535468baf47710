"""Function-space action of the quantum monodromy on product kernels.

Operators act on functions of (r_1..r_N) through the Jackson calculus: q_k
is the scaled difference (f(r) - f(.., alpha r_k, ..))/r_k and r_k is
multiplication by the coordinate, so L_k(mu) = [[mu, q_k], [r_k, 1/mu]].

A product kernel rho(r) = prod_k rho_k(r_k) is held as its site values,
v_k = rho_k(r_k) and v_k^alpha = rho_k(alpha r_k) from qcalc.rho_sites.
Operators at different sites commute and each acts only on its own factor
rho_k, so every identity below is read off the site values at O(N) cost.
Each word of Tr L_N ... L_1 takes one entry from every L_k, a word applied
to rho is the product of the site-wise actions, and the sum over the 2^N
words is

    (Tr L(mu) rho)(r) = Tr(S_N ... S_1),
    S_k = [[mu v_k,  (v_k - v_k^alpha)/r_k],
           [r_k v_k, v_k/mu]].

This verifies the pointwise q-difference trace identity and the
site-by-site triangularization that produces it:

    (Tr L(mu) rho)(r) = mu^N rho_{mu/sa}(r) + mu^(-N) rho_{mu sa}(alpha r).

The quantum determinant acts as Delta = prod_k (1 - r_k q_k), one factor
per site, so (Delta rho)(r) = prod_k (v_k - r_k (v_k - v_k^alpha)/r_k),
which must equal rho(alpha r) = prod_k v_k^alpha.
"""

import numpy as np

# funspace.jackson_op stays bound: perfbench's tracer test rebinds and
# restores it through this name.
from .qcalc import jackson_op, rho_sites  # noqa: F401


def _values(mu, qp, rtilde, point):
    """(r, v, v^alpha): the point and the site values rho_k at r_k and at
    alpha r_k."""
    r = np.asarray(point, dtype=complex)
    return (r, rho_sites(mu, qp, rtilde, r),
            rho_sites(mu, qp, rtilde, qp.alpha * r))


def trace_action(mu, qp, rtilde, point):
    """(Tr L(mu) rho)(point) = Tr(S_N ... S_1) on the product kernel rho."""
    r, v, va = (x.tolist() for x in _values(mu, qp, rtilde, point))
    t11, t12, t21, t22 = 1.0, 0.0, 0.0, 1.0
    for r_k, v_k, va_k in zip(r, v, va):  # Python scalars: fast at N = 2
        a, b, c, d = mu * v_k, (v_k - va_k) / r_k, r_k * v_k, v_k / mu
        t11, t12, t21, t22 = (a * t11 + b * t21, a * t12 + b * t22,
                              c * t11 + d * t21, c * t12 + d * t22)
    return complex(t11 + t22)


def baxter_action_residual(mu, qp, rtilde, sample_points, shift=None):
    """Pointwise residual of the q-difference trace identity.

    For each sample r:  |(Tr L(mu) rho)(r) - mu^N rho_{mu/s}(r)
    - mu^(-N) rho_{mu s}(alpha r)| with s = sqrt(alpha) by default.
    Passing a wrong shift (e.g. s = alpha) is the negative control.
    The powers of mu are taken into the site products, which overflow to
    inf, never raise.
    """
    s = qp.sqrt_alpha if shift is None else complex(shift)
    res = []
    for pt in np.atleast_2d(np.asarray(sample_points, dtype=complex)):
        up = np.prod(mu * rho_sites(mu / s, qp, rtilde, pt))
        dn = np.prod(rho_sites(mu * s, qp, rtilde, qp.alpha * pt) / mu)
        res.append(abs(trace_action(mu, qp, rtilde, pt) - up - dn))
    return float(np.max(res))  # unlike max(), keeps an overflow NaN


def triangular_check(mu, qp, rtilde, point):
    """Entrywise residuals of the gauged site actions L^_k = M_{k+1}^-1 L_k
    M_k, M_k = [[0, 1], [-1, -mu r~_{k-1}]] (det M_k = 1), applied to rho_k
    at r_k = point[k-1], against the lower-triangular form

        [[ (mu r~_k / r~_{k-1}) rho_k(mu/sa, r_k)          , 0 ],
         [ -q_k rho_k                                       ,
           (r~_{k-1} / (mu r~_k)) rho_k(mu sa, alpha r_k) ]].

    Returns an (N, 4) array of abs residuals, row k-1 for site k, ordered
    (e11, e12, e21, e22); e12 is the defining condition of rho_k.
    """
    rtilde = np.asarray(rtilde, dtype=complex)
    sa, rt_km1 = qp.sqrt_alpha, np.roll(rtilde, 1)
    r, v, va = _values(mu, qp, rtilde, point)
    qv = (v - va) / r  # q_k rho_k
    S = np.stack([mu * v, qv, r * v, v / mu], -1).reshape(-1, 2, 2)
    one, zero = np.ones_like(rtilde), np.zeros_like(rtilde)
    M = np.stack([zero, one, -one, -mu * rt_km1], -1).reshape(-1, 2, 2)
    # adjugate of M_{k+1}
    Minv = np.stack([-mu * rtilde, -one, one, zero], -1).reshape(-1, 2, 2)
    Lhat = Minv @ S @ M
    up = rho_sites(mu / sa, qp, rtilde, r)
    dn = rho_sites(mu * sa, qp, rtilde, qp.alpha * r)
    want = np.stack([(mu * rtilde / rt_km1) * up, zero, -qv,
                     (rt_km1 / (mu * rtilde)) * dn], -1)
    return np.abs(Lhat.reshape(-1, 4) - want)


def delta_action(mu, qp, rtilde, point):
    """((prod_k (1 - r_k q_k)) rho)(point) and rho(alpha point), the two
    sides of the quantum-determinant identity on the product kernel."""
    r, v, va = _values(mu, qp, rtilde, point)
    return complex(np.prod(v - r * ((v - va) / r))), complex(np.prod(va))
