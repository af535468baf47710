"""Independent reference computations used only by the tests."""

import mpmath
import numpy as np

from albaxter.backlund import bt_apply
from albaxter.classical_chain import ChainState
from albaxter.qcalc import JACKSON_MAX_NODES, JACKSON_TAIL


def central_difference_map_jacobian(state, mu, opts=None, step=1e-4):
    """(dq~/dq, dq~/dr, dr~/dq, dr~/dr) of the Backlund map by central
    differences, each column from two cold-start bt_apply solves at states
    perturbed by +-step in one real direction.  4N solves; its error is
    O(step^2) truncation plus O(eps/step) roundoff.
    """
    N = state.N
    A, B, C, D = (np.zeros((N, N), dtype=complex) for _ in range(4))
    for n in range(N):
        e = np.zeros(N)
        e[n] = step
        for dq, dr, dqt, drt in ((e, 0.0, A, C), (0.0, e, B, D)):
            hi = bt_apply(ChainState(state.q + dq, state.r + dr), mu,
                          opts).target
            lo = bt_apply(ChainState(state.q - dq, state.r - dr), mu,
                          opts).target
            dqt[:, n] = (hi.q - lo.q) / (2 * step)
            drt[:, n] = (hi.r - lo.r) / (2 * step)
    return A, B, C, D


def generating_function_mp(bt, dps=30):
    """F(r, r~) from its defining integrals by mpmath.quad at `dps` digits:

    sum_k [ int_{r_{k+1}+1}^{r~_k} ln(z - r_{k+1})/z dz
          + int_{1/mu^2}^{r~_k} ln(mu^2 z + r_k)/z dz
          - ln(r~_k) ln(mu^2 r~_{k-1}) - 2 ln(mu)^2 ]

    on real positive data; returns an mpf.
    """
    with mpmath.workdps(dps):
        r = [mpmath.mpf(float(v.real)) for v in bt.source.r]
        rt = [mpmath.mpf(float(v.real)) for v in bt.target.r]
        mu = mpmath.mpf(float(bt.mu.real))
        total = mpmath.mpf(0)
        for k in range(len(r)):
            a, b = r[(k + 1) % len(r)], r[k]
            x, y = rt[k], rt[k - 1]
            i1 = mpmath.quad(lambda z: mpmath.log(z - a) / z, [a + 1, x])
            i2 = mpmath.quad(lambda z: mpmath.log(mu**2 * z + b) / z,
                             [1 / mu**2, x])
            total += (i1 + i2 - mpmath.log(x) * mpmath.log(mu**2 * y)
                      - 2 * mpmath.log(mu) ** 2)
        return +total


def qpochhammer_mp(x, alpha):
    """(x; alpha)_inf as an mpc, from sources independent of the log series
    of qcalc.qpochhammer_inf; x and alpha are taken as exact doubles.

    - |alpha| <= 0.9: mpmath's own qp at 40 digits (it raises NoConvergence
      from alpha = 0.99 up);
    - otherwise, at 60 digits: the product of the factors 1 - x alpha^p
      with |x alpha^p| > 1 - |alpha|, times Euler's series
      (y; alpha)_inf = sum_n (-1)^n alpha^(n(n-1)/2) y^n / (alpha; alpha)_n
      for the rest, y = x alpha^p.  Its terms fall at least like 1/n!,
      since |y| <= 1 - |alpha|.
    """
    x, alpha = complex(x), complex(alpha)
    if abs(alpha) <= 0.9:
        with mpmath.workdps(40):
            return +mpmath.qp(mpmath.mpc(x), mpmath.mpc(alpha))
    with mpmath.workdps(60):
        y, a = mpmath.mpc(x), mpmath.mpc(alpha)
        prod = mpmath.mpc(1)
        while abs(y) > 1 - abs(a):
            prod *= 1 - y
            y *= a
        total, term, n = mpmath.mpc(1), mpmath.mpc(1), 0
        while abs(term) > mpmath.mpf("1e-50") * abs(total):
            # term_{n+1} / term_n = -alpha^n y / (1 - alpha^(n+1))
            term *= -a**n * y / (1 - a ** (n + 1))
            total += term
            n += 1
        return prod * total


def jackson_integral_loop(f, k, qp, b, a=None, point=None):
    """Jackson integral by the node-by-node loop that qcalc.jackson_integral
    replaces: one integrand call on a (len(point),) point per node
    alpha^n b, the terms summed in node order, stopping at the first term
    below JACKSON_TAIL * max(1, |partial sum|), at most JACKSON_MAX_NODES
    nodes.
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
        for _ in range(JACKSON_MAX_NODES):
            pt = np.array(point, dtype=complex)
            pt[k - 1] = w
            term = w * f(pt)
            acc += term
            if abs(term) < JACKSON_TAIL * max(1.0, abs(acc)):
                return acc
            w *= qp.alpha
        raise ValueError("Jackson integral tail not decaying within term cap")

    upper = one_point(b)
    return upper if a is None else upper - one_point(a)
