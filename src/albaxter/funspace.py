"""Function-space action of the quantum monodromy on product kernels.

Operators act on functions of (r_1..r_N) through the Jackson calculus: q_k
is the scaled difference (f(r) - f(.., alpha r_k, ..))/r_k and r_k is
multiplication by the coordinate, so L_k(mu) = [[mu, q_k], [r_k, 1/mu]].

On a product kernel rho(r) = prod_k rho_k(r_k) the monodromy trace is
exactly a trace of numeric 2x2 matrices.  Each word of Tr L_N ... L_1 takes
one entry from every L_k; operators at different sites commute and each
acts only on its own factor rho_k, so a word applied to rho is the product
of the site-wise actions, and the sum over words is

    (Tr L(mu) rho)(r) = Tr(S_N ... S_1),
    S_k = [[mu rho_k(r_k),  (rho_k(r_k) - rho_k(alpha r_k))/r_k],
           [r_k rho_k(r_k), rho_k(r_k)/mu]],

at O(N) cost instead of 2^N words.  This verifies the pointwise
q-difference trace identity and the site-by-site triangularization that
produces it:

    (Tr L(mu) rho)(r) = mu^N rho_{mu/sa}(r) + mu^(-N) rho_{mu sa}(alpha r).
"""

import functools

import numpy as np

from .qcalc import KernelSite, jackson_op, rho_site


def _site_rho(mu, qp, rt_k, rt_km1):
    """rho_k(r_k) = 1/((r_k/r~_{k-1}; a)_inf (-r_k/(mu^2 r~_k); a)_inf)."""
    return functools.partial(rho_site, KernelSite(mu, rt_k, rt_km1), qp)


def _site_rhos(mu, qp, rtilde):
    rtilde = np.asarray(rtilde, dtype=complex)
    return [_site_rho(mu, qp, rtilde[k], rtilde[k - 1])
            for k in range(rtilde.size)]


def _site_action(mu, qp, rho_k, r_k):
    """S_k: the entries of L_k(mu) applied to the site factor rho_k at r_k."""
    r_k = complex(r_k)
    v = rho_k(r_k)
    return np.array([[mu * v, (v - rho_k(qp.alpha * r_k)) / r_k],
                     [r_k * v, v / mu]])


def rho_product(mu, qp, rtilde):
    """Product kernel rho = prod_k rho_k(mu, r_k), periodic in r~; callable."""
    sites = _site_rhos(mu, qp, rtilde)

    def rho(point):
        val = 1.0
        for rho_k, r_k in zip(sites, point):
            val *= rho_k(r_k)
        return val

    return rho


def trace_action(mu, qp, rtilde, point):
    """(Tr L(mu) rho)(point) = Tr(S_N ... S_1) on the product kernel rho."""
    T = np.eye(2, dtype=complex)
    for rho_k, r_k in zip(_site_rhos(mu, qp, rtilde), point):
        T = _site_action(mu, qp, rho_k, r_k) @ T
    return complex(np.trace(T))


def baxter_action_residual(mu, qp, rtilde, sample_points, shift=None):
    """Pointwise residual of the q-difference trace identity.

    For each sample r:  |(Tr L(mu) rho)(r) - mu^N rho_{mu/s}(r)
    - mu^(-N) rho_{mu s}(alpha r)| with s = sqrt(alpha) by default.
    Passing a wrong shift (e.g. s = alpha) is the negative control.
    """
    s = qp.sqrt_alpha if shift is None else complex(shift)
    N = np.asarray(rtilde).size
    rho_up = rho_product(mu / s, qp, rtilde)
    rho_dn = rho_product(mu * s, qp, rtilde)
    res = []
    for pt in np.atleast_2d(np.asarray(sample_points, dtype=complex)):
        rhs = mu**N * rho_up(pt) + mu ** (-N) * rho_dn(qp.alpha * pt)
        res.append(abs(trace_action(mu, qp, rtilde, pt) - rhs))
    return float(np.max(res))  # unlike max(), keeps an overflow NaN


def site_gauge_matrix(mu, rtilde, k):
    """The unit-determinant gauge matrix M_k = [[0, 1], [-1, -mu r~_{k-1}]]."""
    rtilde = np.asarray(rtilde, dtype=complex)
    return np.array([[0.0, 1.0], [-1.0, -mu * rtilde[k - 2]]], dtype=complex)


def triangular_check(mu, qp, rtilde, k, point):
    """Entrywise residuals of the gauged site action L^_k = M_{k+1}^-1 L_k M_k
    applied to rho_k at a point, against the lower-triangular form

        [[ (mu r~_k / r~_{k-1}) rho_k(mu/sa, r_k)          , 0 ],
         [ -q_k rho_k                                       ,
           (r~_{k-1} / (mu r~_k)) rho_k(mu sa, alpha r_k) ]].

    Returns abs residuals ordered (e11, e12, e21, e22); e12 is the defining
    condition of rho_k.
    """
    rtilde = np.asarray(rtilde, dtype=complex)
    point = np.asarray(point, dtype=complex)
    sa, rt_k, rt_km1 = qp.sqrt_alpha, rtilde[k - 1], rtilde[k - 2]
    r_k = point[k - 1]
    rho, rho_up, rho_dn = (_site_rho(m, qp, rt_k, rt_km1)
                           for m in (mu, mu / sa, mu * sa))

    Mk1 = site_gauge_matrix(mu, rtilde, k % rtilde.size + 1)
    Minv = np.array([[Mk1[1, 1], -Mk1[0, 1]], [-Mk1[1, 0], Mk1[0, 0]]],
                    dtype=complex)  # adjugate; det M = 1
    Lhat = (Minv @ _site_action(mu, qp, rho, r_k)
            @ site_gauge_matrix(mu, rtilde, k))

    e11 = abs(Lhat[0, 0] - (mu * rt_k / rt_km1) * rho_up(r_k))
    e12 = abs(Lhat[0, 1])
    e21 = abs(Lhat[1, 0] + jackson_op(lambda p: rho(p[k - 1]), k, qp, point))
    e22 = abs(Lhat[1, 1] - (rt_km1 / (mu * rt_k)) * rho_dn(qp.alpha * r_k))
    return np.array([e11, e12, e21, e22])


def delta_action_residual(f, qp, N, point):
    """|prod_k (1 - r_k q_k) f (point) - f(alpha point)|; exact identity.

    f is any callable on points; the factors nest with k = N innermost.
    They reach f 3^N times at 2^N distinct points (each r_k or alpha r_k,
    f(alpha point) among them); f is evaluated once per distinct point.
    """
    seen = {}

    def f_once(p):
        key = p.tobytes()
        return seen[key] if key in seen else seen.setdefault(key, f(p))

    def factor(g, k):
        return lambda p: g(p) - p[k - 1] * jackson_op(g, k, qp, p)

    g = f_once
    for k in range(N, 0, -1):
        g = factor(g, k)
    point = np.asarray(point, dtype=complex)
    return float(abs(g(point) - f_once(qp.alpha * point)))
