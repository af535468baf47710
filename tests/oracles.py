"""Independent reference computations used only by the tests."""

import mpmath
import numpy as np

from albaxter.algebra import LaurentPoly, MultiDual
from albaxter.backlund import bt_apply
from albaxter.classical_chain import ChainState
from albaxter.qcalc import JACKSON_MAX_NODES, JACKSON_TAIL


# ---------------------------------------------------------------------------
# Generic-ring classical chain: the Lax matrices, monodromy and brackets
# over LaurentPoly and MultiDual arithmetic that the dense transfer kernel
# of classical_chain is tested against.


class Mat2:
    """2x2 matrix over a ring: complex numbers, MultiDual, or LaurentPoly
    over either.  Products keep the factor order, so entries from a
    non-commutative ring multiply correctly too."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11, a12, a21, a22):
        self.a11, self.a12, self.a21, self.a22 = a11, a12, a21, a22

    def __matmul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def trace(self):
        return self.a11 + self.a22

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21


def seed_duals(values, offset, nvars):
    """Seed an array of values as independent variables offset..offset+len-1."""
    return [MultiDual.variable(v, offset + i, nvars) for i, v in enumerate(values)]


def _ordered_product(factors):
    """F_N ... F_1 for factors listed F_1 first."""
    M = None
    for F in factors:
        M = F if M is None else F @ M
    return M


def _laurent_lax(qk, rk):
    return Mat2(LaurentPoly.x(1), LaurentPoly.const(qk),
                LaurentPoly.const(rk), LaurentPoly.x(-1))


def local_lax(state, k):
    """Lax matrix [[lam, q_k], [r_k, 1/lam]] at site k (1-based) over
    Laurent polynomials."""
    if not 1 <= k <= state.N:
        raise IndexError(f"site {k} out of range 1..{state.N}")
    return _laurent_lax(state.q[k - 1], state.r[k - 1])


def monodromy(state):
    """Ordered product L_N ... L_1 over Laurent polynomials."""
    return _ordered_product(local_lax(state, k) for k in range(1, state.N + 1))


def _numeric_monodromy(q, r, lam):
    """L_N(lam) ... L_1(lam) at a numeric point, entries in q's ring."""
    return _ordered_product(Mat2(lam, qk, rk, 1.0 / lam)
                            for qk, rk in zip(q, r))


def poisson_bracket(f, g, state):
    """Exact bracket of two observables.

    f and g are callables taking (q, r) where the entries support ring
    arithmetic; they are evaluated once on MultiDual-seeded variables, so
    the gradients entering

        {f, g} = sum_k (df/dq_k dg/dr_k - df/dr_k dg/dq_k)(1 - q_k r_k)

    are exact, not finite differences.
    """
    N = state.N
    nv = 2 * N
    qd = seed_duals(state.q, 0, nv)
    rd = seed_duals(state.r, N, nv)
    fd, gd = f(qd, rd), g(qd, rd)
    fp = fd.partials if isinstance(fd, MultiDual) else np.zeros(nv)
    gp = gd.partials if isinstance(gd, MultiDual) else np.zeros(nv)
    w = 1.0 - state.q * state.r
    return complex(np.sum((fp[:N] * gp[N:] - fp[N:] * gp[:N]) * w))


def observable_entry(i, j, lam):
    """Monodromy entry L(lam)_{ij} (1-based) as a bracket observable."""
    def f(q, r):
        M = _numeric_monodromy(q, r, lam)
        return (M.a11, M.a12, M.a21, M.a22)[2 * (i - 1) + (j - 1)]
    return f


def observable_trace(lam):
    """Tr L(lam) as a bracket observable."""
    def f(q, r):
        return _numeric_monodromy(q, r, lam).trace()
    return f


def observable_conserved(i):
    """H_i extracted from the Laurent trace, as a bracket observable."""
    def f(q, r):
        M = _ordered_product(_laurent_lax(qk, rk) for qk, rk in zip(q, r))
        return M.trace().coeff(len(q) - 2 * i)
    return f


def observable_det(q, r):
    """det L = prod_k (1 - q_k r_k) as a bracket observable."""
    acc = 1.0
    for qk, rk in zip(q, r):
        acc = acc * (1.0 - qk * rk)
    return acc


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
