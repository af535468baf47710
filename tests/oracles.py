"""Independent reference computations used only by the tests."""

import math

import mpmath
import numpy as np

from albaxter import backlund, classical_chain as chain, fock
from albaxter.algebra import LaurentPoly, MultiDual
from albaxter.backlund import bt_apply
from albaxter.classical_chain import ChainState
from albaxter.qcalc import (JACKSON_MAX_NODES, JACKSON_TAIL, MAX_FACTORS,
                            POLE_TOL, THETA, KernelSite, QPochhammerPoleError,
                            _kernel_F_slots, jackson_integral, jackson_op,
                            qpochhammer_inf, rho_site)


# ---------------------------------------------------------------------------
# Generic-ring classical chain: the Lax matrices, monodromy and brackets
# over LaurentPoly and MultiDual arithmetic that the point kernels of
# classical_chain are tested against, and the dense Laurent coefficients of
# the monodromy.


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


def lax_left(M, qk, rk):
    """L_k M for a dense (2, 2, 2N+1) monodromy factor, one site of the
    coefficient loop `dense_monodromy_loop`: the lam and 1/lam
    diagonal of L_k shift row 0 up and row 1 down one power.  The
    off-diagonal products q_k M_1 and r_k M_0 fill an empty buffer and the
    shifted rows are added to them in place; the lowest power of row 0 and
    the highest of row 1 keep the product alone."""
    out = np.empty_like(M)
    np.multiply(qk, M[1], out=out[0])
    np.multiply(rk, M[0], out=out[1])
    up, down = out[0, :, 1:], out[1, :, :-1]
    np.add(up, M[0, :, :-1], out=up)
    np.add(down, M[1, :, 1:], out=down)
    return out


def lax_left_zeros(M, qk, rk):
    """L_k M in the form that lax_left replaced: a zeroed buffer takes the
    shifted rows, then the off-diagonal products are added to it."""
    out = np.zeros_like(M)
    out[0, :, 1:] = M[0, :, :-1]
    out[1, :, :-1] = M[1, :, 1:]
    out[0] += qk * M[1]
    out[1] += rk * M[0]
    return out


def dense_monodromy_loop(state, step=lax_left):
    """The dense (2, 2, 2N+1) monodromy L_N ... L_1 by one `step`
    (lax_left or lax_left_zeros) per site; index e + N holds the
    coefficient of lam^e."""
    N = state.N
    M = np.zeros((2, 2, 2 * N + 1), dtype=complex)
    M[0, 0, N] = M[1, 1, N] = 1.0
    for qk, rk in zip(state.q, state.r):
        M = step(M, qk, rk)
    return M


def prefix_products_loop(q, r, lams):
    """The prefix and suffix products of the local Lax matrices of a stack
    of B states, q and r of shape (B, N), each at its own n points, lams of
    shape (B, n), by the N-step loop of stacked 2x2 matmuls that
    classical_chain's doubling scan replaced.  Returns pre and suf of shape
    (N + 1, B, n, 2, 2): pre[k] = L_k ... L_1 and suf[k] = L_N ... L_{k+1}."""
    lams = np.asarray(lams, dtype=complex)
    N = q.shape[1]
    L = np.empty((N,) + lams.shape + (2, 2), dtype=complex)
    L[..., 0, 0] = lams
    L[..., 0, 1] = q.T[:, :, None]
    L[..., 1, 0] = r.T[:, :, None]
    L[..., 1, 1] = 1.0 / lams
    pre = np.empty((N + 1,) + L.shape[1:], dtype=complex)
    suf = np.empty_like(pre)
    pre[0] = suf[N] = np.eye(2)
    for k in range(N):
        np.matmul(L[k], pre[k], out=pre[k + 1])
        np.matmul(suf[N - k], L[N - 1 - k], out=suf[N - 1 - k])
    return pre, suf


def dressing_matrix(bt, k, lam):
    """Dressing matrix D_k(lam) of a solved map, sites 1-based."""
    if not 1 <= k <= bt.source.N:
        raise IndexError(f"site {k} out of range")
    b = bt.source.q[k - 1]
    c = bt.target.r[k - 2]  # r~_{k-1}, periodic
    mu = bt.mu
    return np.array([[lam**2 - mu**2 * (1.0 - b * c), lam * b],
                     [lam * c, 1.0]], dtype=complex)


def intertwining_loop(bt, lam):
    """Max-entry residual of L~_k(lam) D_k(lam) - D_{k+1}(lam) L_k(lam) by
    the per-site loop of single 2x2 products that
    backlund.intertwining_residual replaced, and the largest entry of the
    products compared, the scale its roundoff is measured on.  Returns
    (residual, scale)."""
    q, r = bt.source.q, bt.source.r
    qt, rt = bt.target.q, bt.target.r
    N = bt.source.N
    res, scale = [], 0.0
    for k in range(N):
        Lk = np.array([[lam, q[k]], [r[k], 1.0 / lam]], dtype=complex)
        Ltk = np.array([[lam, qt[k]], [rt[k], 1.0 / lam]], dtype=complex)
        left = Ltk @ dressing_matrix(bt, k + 1, lam)
        right = dressing_matrix(bt, (k + 1) % N + 1, lam) @ Lk
        res.append(np.abs(left - right).max())
        scale = max(scale, np.abs(left).max(), np.abs(right).max())
    return float(np.max(res)), scale


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


def poly_jacobian(q, rt, mu):
    """J = dP/dr~ of the denominator-cleared first line P as a dense N x N
    array: cyclic lower-bidiagonal, J_kk = mu^2 (1 - q_k r~_{k-1}) and
    J_{k,k-1} = -(mu^2 r~_k q_k + 1) (added, so N = 1 folds both in)."""
    N = len(q)
    u = np.roll(rt, 1)
    J = np.zeros((N, N), dtype=complex)
    idx = np.arange(N)
    J[idx, idx] = mu**2 * (1.0 - q * u)
    J[idx, (idx - 1) % N] += -(mu**2 * rt * q + 1.0)
    return J


def dense_polish_step(q, r, rt, mu):
    """The Newton step J^{-1} P of the Backlund polish by one dense solve of
    the N x N cyclic lower-bidiagonal J = dP/dr~, as backlund._polish took
    it before the ring recurrence of backlund._polish_step."""
    return np.linalg.solve(poly_jacobian(q, rt, mu),
                           backlund._poly_residual(q, r, rt, mu))


def map_jacobian(bt):
    """Exact Jacobian of the solved map (q, r) -> (q~, r~) as dense blocks.

    Returns (A, B, C, D) = (dq~/dq, dq~/dr, dr~/dq, dr~/dr), each N x N,
    by the implicit function theorem on the denominator-cleared first
    line P_k = mu^2 r~_k (1 - q_k r~_{k-1}) - r~_{k-1} + r_k = 0.  With
    J = dP/dr~, dP/dr = I and dP_k/dq_k = -mu^2 r~_k r~_{k-1}:

        D = -J^{-1},    C = D diag(-mu^2 r~_k r~_{k-1}),

    from the dense inverse of `poly_jacobian`.  q~ = (1 - rhs)/r~ from the
    second line reads r~_{k-1}, r~_k, r~_{k+1} and r_k, r_{k+1}, so
    A = G C and B = G D + E with G = dq~/dr~ and E = dq~/dr|_r~ banded;
    G is applied by row shifts, and at N <= 2 the coinciding neighbours
    add up.  This is the dense form that backlund.canonicity_check
    reduces to band identities.
    """
    q, r = bt.source.q, bt.source.r
    rt, mu = bt.target.r, bt.mu
    try:
        D = -np.linalg.inv(poly_jacobian(q, rt, mu))
    except np.linalg.LinAlgError as exc:
        raise backlund.BTError("singular Jacobian in the Backlund map") \
            from exc
    u = np.roll(rt, 1)     # r~_{k-1}
    rtp = np.roll(rt, -1)  # r~_{k+1}
    C = D * (-mu**2 * rt * u)

    a = rt - np.roll(r, -1)  # r~_k - r_{k+1}
    b = mu**2 * rt + r
    den = mu**2 * rtp * u
    rhs = a * b / den
    g0 = (-(1.0 - rhs) / rt - (b + mu**2 * a) / den) / rt
    gm = rhs / (rt * u)
    gp = rhs / (rt * rtp)

    def apply_g(X):  # (G X)_k = g0_k X_k + gm_k X_{k-1} + gp_k X_{k+1}
        return (g0[:, None] * X + gm[:, None] * np.roll(X, 1, axis=0)
                + gp[:, None] * np.roll(X, -1, axis=0))

    A = apply_g(C)
    B = apply_g(D)
    idx = np.arange(len(q))
    # the indices of each statement are distinct; at N = 1 both hit B_00
    B[idx, idx] += -a / (den * rt)
    B[idx, (idx + 1) % len(q)] += b / (den * rt)
    return A, B, C, D


def bracket_deviation(jac, w, wt):
    """Max deviation of the transformed brackets from the canonical ones,
    on the dense blocks.

    jac = (A, B, C, D) as from `map_jacobian`; w = 1 - q r is the source
    bracket weight, applied as a column scaling, and wt = 1 - q~ r~ the
    required {q~_k, r~_k}.  Blocks: A W D^T - B W C^T - diag(wt) and the
    antisymmetric A W B^T - B W A^T and C W D^T - D W C^T.  A NaN in any
    block is returned, never skipped.
    """
    A, B, C, D = jac
    Aw, Cw = A * w, C * w
    qr = Aw @ D.T - (B * w) @ C.T
    qr[np.diag_indices_from(qr)] -= wt
    X = Aw @ B.T
    Y = Cw @ D.T
    return float(np.max([np.abs(qr).max(), np.abs(X - X.T).max(),
                         np.abs(Y - Y.T).max()]))


def dense_canonicity(bt):
    """`bracket_deviation` of a solved map on its dense Jacobian: the check
    that backlund.canonicity_check took before its band identities."""
    w = 1.0 - bt.source.q * bt.source.r
    return bracket_deviation(map_jacobian(bt), w,
                             1.0 - bt.target.q * bt.target.r)


def site_partials_loop(a, b, x, y, mu):
    """The five complex-step partials of backlund._site_terms in its slots
    (a, b, x, y, mu), one call per slot with the step in that slot alone and
    the other slots real, as generating_function_check took them before the
    stacked call of backlund._site_partials."""
    h = 1e-30
    slots = [a, b, x, y, mu]
    out = []
    for i in range(5):
        stepped = list(slots)
        stepped[i] = stepped[i] + 1j * h
        out.append(backlund._site_terms(*stepped).imag / h)
    return np.array(out)


def li2_mp(x, dps=40):
    """Li2(x) and its derivative -ln(1 - x)/x for real x < 1, by mpmath's
    polylog at `dps` digits; two mpf."""
    with mpmath.workdps(dps):
        t = mpmath.mpf(float(x))
        d = -mpmath.log1p(-t) / t if t else mpmath.mpf(1)
        return +mpmath.polylog(2, t), +d


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


def qpochhammer_log_mp(x, alpha, dps=50):
    """log (x; alpha)_inf as an mpc for |x| < 1, by its power series
    -sum_{j>=1} x^j / (j (1 - alpha^j)) at `dps` digits, summed whole: no
    factor is multiplied out, so it stays fast and in range at alpha -> 1,
    where qpochhammer_mp multiplies ~10^5 factors.  The branch is that of
    sum_p log(1 - x alpha^p) with principal logs."""
    with mpmath.workdps(dps):
        y, a = mpmath.mpc(complex(x)), mpmath.mpc(complex(alpha))
        total, yj, aj, j = mpmath.mpc(0), mpmath.mpc(1), mpmath.mpc(1), 0
        tol = mpmath.mpf(10) ** -dps
        while True:
            j += 1
            yj *= y
            aj *= a
            term = yj / (j * (1 - aj))
            total += term
            if abs(term) <= tol * abs(total):
                return -total


def jackson_derivative(f, k, qp, point):
    """Jackson derivative D_k f = q_k f / (1 - alpha) in direction r_k
    (1-based), at a point or at stacked points as qcalc.jackson_op."""
    return jackson_op(f, k, qp, point) / (1.0 - qp.alpha)


def _jackson_loop(f, k, qp, b, a, point, stop):
    """Node-by-node Jackson integral: one integrand call on a
    (len(point),) point per node alpha^n b, the terms summed in node
    order, ending at the first node where stop(|term|, |partial sum|,
    largest |term| so far, node index n) holds, at most JACKSON_MAX_NODES
    nodes."""
    if abs(qp.alpha) >= 1:
        raise ValueError("Jackson integral requires |alpha| < 1")
    if point is None:
        point = np.zeros(k, dtype=complex)
    point = np.asarray(point, dtype=complex)

    def one_point(bound):
        if bound == 0:
            return 0.0 + 0.0j
        acc, top = 0.0 + 0.0j, 0.0
        w = complex(bound)
        for n in range(JACKSON_MAX_NODES):
            pt = np.array(point, dtype=complex)
            pt[k - 1] = w
            term = w * f(pt)
            acc += term
            top = max(top, abs(term))
            if stop(abs(term), abs(acc), top, n):
                return acc
            w *= qp.alpha
        raise ValueError("Jackson integral tail not decaying within term cap")

    upper = one_point(b)
    return upper if a is None else upper - one_point(a)


def jackson_integral_loop(f, k, qp, b, a=None, point=None):
    """qcalc.jackson_integral node by node, with its relative stop rule:
    the first nonzero term below JACKSON_TAIL * max(|partial sum|, largest
    |term| so far), or a zero term at a node alpha^n b with |alpha|^n <
    JACKSON_TAIL, or a NaN or infinite term."""
    def stop(term, acc, top, n):
        if term == 0:
            return abs(qp.alpha) ** n < JACKSON_TAIL
        return term < JACKSON_TAIL * max(acc, top) or not math.isfinite(term)
    return _jackson_loop(f, k, qp, b, a, point, stop)


def jackson_integral_absolute_loop(f, k, qp, b, a=None, point=None):
    """The Jackson integral with the stop rule qcalc used before it became
    relative: the first term below JACKSON_TAIL * max(1, |partial sum|),
    absolute wherever the integral is below 1."""
    return _jackson_loop(f, k, qp, b, a, point,
                         lambda term, acc, top, _: term < JACKSON_TAIL
                         * max(1.0, acc))


def leibniz_parts_loop(qp, cf, cg, x, b, a):
    """qcalc.leibniz_parts_residuals by the per-pair loop it replaced: per
    pair, the product rule on one-column points and the two integrals by
    parts as scalar jackson_integral calls.  Returns the residuals, shape
    (2, n), and the largest term each of them compares."""
    out = []
    for cf_i, cg_i, x_i, b_i, a_i in zip(cf, cg, x, b, a):
        f = lambda r: cf_i[0] + cf_i[1] * r[0] + cf_i[2] * r[0] ** 2
        g = lambda r: cg_i[0] + cg_i[1] * r[0] + cg_i[2] * r[0] ** 3
        pt = np.array([x_i])
        lhs = jackson_op(lambda r: f(r) * g(r), 1, qp, pt)
        rhs = (f(pt) * jackson_op(g, 1, qp, pt)
               + g(pt * qp.alpha) * jackson_op(f, 1, qp, pt))
        qg = lambda r: jackson_op(g, 1, qp, r)
        qf = lambda r: jackson_op(f, 1, qp, r)
        lhs2 = jackson_integral(lambda r: f(r) * qg(r), 1, qp, b_i, a_i)
        ga = lambda r: g(qp.alpha * r)
        ends = (f([b_i]) * g([b_i]), f([a_i]) * g([a_i]))
        rest = jackson_integral(lambda r: ga(r) * qf(r), 1, qp, b_i, a_i)
        rhs2 = ends[0] - ends[1] - rest
        # the largest of the products f(x') g(x'') / x that the two q_1
        # differences of each side are made of, and of the terms of parts
        xs = (x_i, qp.alpha * x_i)
        rule = (max(abs(f([u])) for u in xs) * max(abs(g([u])) for u in xs)
                / x_i)
        out.append((abs(lhs - rhs), abs(lhs2 - rhs2), rule,
                    max(map(abs, (lhs2, *ends, rest)))))
    out = np.array(out, dtype=float).T
    return out[:2], out[2:]


def ybe_residual_loop(lams, nus, etas):
    """fock.ybe_residual by the per-draw loop it replaced: per draw, the
    three R-matrices and one three-operand einsum per side.  Returns the
    residuals and, per draw, the largest sum of |products| in an entry of
    either side."""
    # T[a, b, g, d] with the Kronecker labelling T_{ab,gd} = A_ab B_gd
    as4 = lambda R: R.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    res, scale = [], []
    for lam, nu, eta in zip(lams, nus, etas):
        R1 = as4(fock.quantum_rmatrix(lam / nu, 1.0, eta))
        R2 = as4(fock.quantum_rmatrix(lam, 1.0, eta))
        R3 = as4(fock.quantum_rmatrix(nu, 1.0, eta))
        lhs = np.einsum("icja,cmkb,anbr->ijkmnr", R1, R2, R3)
        rhs = np.einsum("jakb,icbr,cman->ijkmnr", R3, R2, R1)
        res.append(np.abs(lhs - rhs).max())
        A1, A2, A3 = map(np.abs, (R1, R2, R3))
        scale.append(max(
            np.einsum("icja,cmkb,anbr->ijkmnr", A1, A2, A3).max(),
            np.einsum("jakb,icbr,cman->ijkmnr", A3, A2, A1).max()))
    return np.array(res), np.array(scale)


def entry_brackets(state, lam, nu):
    """The 4x4 {L(lam) (x) L(nu)} of Poisson brackets between monodromy
    entries, from exact prefix/suffix gradients; Kronecker indexing follows
    T_{ab,gd} = {L(lam)_ab, L(nu)_gd}.
    """
    dq, dr, _ = chain._entry_gradients(state.q[None], state.r[None],
                                       [[lam, nu]])
    return chain._brackets_of(dq[0], dr[0], 1.0 - state.q * state.r)[0]


def rmatrix_relation_residual(state, lam, nu):
    """`classical_chain.rmatrix_relation_residuals` for one draw."""
    return float(chain.rmatrix_relation_residuals([state], [lam], [nu])[0])


def rmatrix_relation_residuals_loop(states, lams, nus):
    """classical_chain.rmatrix_relation_residuals with the per-draw tail it
    replaced: per draw, the 4x4 brackets, np.kron of the two monodromies
    (the last prefix products of the gradient loop), the r-matrix and the
    commutator.  Each draw's largest entry difference is divided by the
    larger of the largest bracket term sum sum_k (|f_q g_r| + |f_r g_q|)
    |w_k| and the largest entry of |r| |K| + |K| |r|."""
    dq, dr, M = chain._entry_gradients(np.stack([s.q for s in states]),
                                       np.stack([s.r for s in states]),
                                       np.column_stack((lams, nus)))
    res = []
    for i, (state, lam, nu) in enumerate(zip(states, lams, nus)):
        w = 1.0 - state.q * state.r
        fq, fr = dq[i][0][:, :, None, None], dr[i][0][:, :, None, None]
        gq, gr = dq[i][1][None, None], dr[i][1][None, None]
        br = np.sum((fq * gr - fr * gq) * w, axis=-1)
        terms = np.sum((np.abs(fq * gr) + np.abs(fr * gq)) * np.abs(w),
                       axis=-1)
        lhs = br.transpose(0, 2, 1, 3).reshape(4, 4)
        K = np.kron(M[i][0], M[i][1])
        rmat = chain.classical_rmatrix(lam, nu)
        r, k = np.abs(rmat), np.abs(K)
        scale = max(terms.max(), (r @ k + k @ r).max())
        res.append(np.abs(lhs - (rmat @ K - K @ rmat)).max() / scale)
    return np.array(res)


def qpochhammer_parts_loop(x, qp):
    """(prod, e) of qcalc._qpochhammer_parts by the loop it replaced: the
    log tolerance and the denominators j (1 + alpha + ... + alpha^(j-1))
    rebuilt on every call."""
    a = qp.alpha
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
        return prod, 0.0
    eps = 2.0**-53
    terms = math.ceil(math.log(eps * (1.0 - abs(a)) / abs(1.0 - a))
                      / math.log(abs(x)))
    s, xj, aj, g = 0.0, 1.0, 1.0, 0.0
    for j in range(1, terms + 1):
        xj *= x
        g += aj
        aj *= a
        s += xj / (j * g)
    return prod, -s / (1.0 - a)


def poch_guarded_two_pass(x, qp):
    """qcalc._poch_guarded as it was, unmemoised and in two passes: the
    value (x; alpha)_inf first, then a pole test of the two factors
    1 - x alpha^p on either side of p* = -ln|x| / ln|alpha|, with
    alpha^p taken as a power.  Returns the value, not the parts."""
    v = qpochhammer_inf(x, qp)
    if x != 0:
        a = qp.alpha
        p_star = -math.log(abs(x)) / math.log(abs(a))
        for p in (math.floor(p_star), math.ceil(p_star)):
            if p >= 0 and abs(1.0 - x * a**p) < POLE_TOL:
                raise QPochhammerPoleError(
                    f"vanishing Pochhammer factor 1 - x alpha^{p} at x={x}")
    return v


def kernel_F(c_k, c_k1, r_k, mu, qp):
    """Closed-form site kernel F_k(alpha c_k, c_{k+1}, r_k).

    In slot form F(u, v, w) = G(u, v) / ((-w/(mu^2 v); a)_inf (a w/u; a)_inf)
    evaluated at u = alpha c_k, v = c_{k+1}, w = r_k.  Every relation it is
    checked by is linear in F, so a constant factor would be immaterial.
    """
    return _kernel_F_slots(qp.alpha * c_k, c_k1, r_k, mu, qp)


def feq_residuals_loop(c_k, c_k1, r_k, mu, qp):
    """qcalc.feq_residuals as it was, with one kernel evaluation per
    occurrence of F (11 of them, on 5 distinct slot triples)."""
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


def rho_product_loop(mu, qp, rtilde):
    """The product kernel rho(r) = prod_k rho_k(mu, r_k) as a callable on
    points, one qcalc.rho_site call per site, periodic in r~ (the closure
    funspace held before it took the kernel as site values)."""
    rtilde = np.asarray(rtilde, dtype=complex)
    sites = [KernelSite(mu, rtilde[k], rtilde[k - 1])
             for k in range(rtilde.size)]

    def rho(point):
        val = 1.0
        for ks, r_k in zip(sites, point):
            val *= rho_site(ks, qp, r_k)
        return val

    return rho


def delta_action_loop(f, qp, N, point):
    """(prod_k (1 - r_k q_k) f)(point) for any callable f: the nested
    factors, k = N innermost, call f 3^N times."""
    def factor(g, k):
        return lambda p: g(p) - p[k - 1] * jackson_op(g, k, qp, p)

    g = f
    for k in range(N, 0, -1):
        g = factor(g, k)
    return g(np.asarray(point, dtype=complex))


def delta_action_residual_loop(f, qp, N, point):
    """The quantum-determinant identity by the 2^N operator tree:
    |delta_action_loop(f) - f(alpha point)|."""
    point = np.asarray(point, dtype=complex)
    return float(abs(delta_action_loop(f, qp, N, point)
                     - f(qp.alpha * point)))


def qboson_residual_loop(rep):
    """fock.qboson_residual by the pair loop it replaced: for each of the
    N^2 pairs (j, k) the terms of [q_j, r_k] = eta (1 - q_j r_j) delta_jk
    on the probe block, summed in that order, the largest |entry| of the
    sum over that of any single term."""
    V = rep.probes("qboson")
    res = []
    for j in range(rep.N):
        for k in range(rep.N):
            terms = [rep.q(j, rep.r(k, V)), -rep.r(k, rep.q(j, V))]
            if j == k:
                terms += [-rep.qp.eta * V, rep.qp.eta * rep.q(j, rep.r(j, V))]
            res.append(np.abs(sum(terms)).max()
                       / np.max([np.abs(t).max() for t in terms]))
    return float(np.max(res))


def bethe_roots_mp(roots, N, alpha, dps=50):
    """Bethe roots polished at `dps` digits by mpmath's Newton (numerical
    Jacobian) on the product form of the equations in lam itself,

        prod_{j != k} (lam_j^2 (1+eta) - lam_k^2)
            = lam_k^{2N} prod_{j != k} (lam_j^2 - (1+eta) lam_k^2),

    started from `roots`; 1 + eta = 1/alpha with alpha an exact double.
    """
    m = len(roots)
    with mpmath.workdps(dps):
        ope = 1 / mpmath.mpf(alpha)

        def equations(*lam):
            out = []
            for k in range(m):
                lhs = rhs = mpmath.mpf(1)
                for j in range(m):
                    if j != k:
                        lhs *= lam[j] ** 2 * ope - lam[k] ** 2
                        rhs *= lam[j] ** 2 - ope * lam[k] ** 2
                out.append(lhs - lam[k] ** (2 * N) * rhs)
            return out

        sol = mpmath.findroot(equations, [mpmath.mpc(complex(z))
                                          for z in roots])
        return np.array([complex(sol[k]) for k in range(m)])


def tq_remainder_mp(roots, N, alpha, dps=50):
    """bethe.transfer_poly_roots's relative remainder at `dps` digits, on
    the same roots (exact doubles): x^N Psi_-(x) + alpha^m Psi_+(x) long
    divided by Psi(x) = prod_j (x - lam_j^2), max |remainder| over the
    largest coefficient of the dividend and of |P| * |Psi|."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        lam2 = [mpmath.mpc(complex(z)) ** 2 for z in roots]
        m = len(lam2)

        def from_roots(zs):  # ascending coefficients of prod (x - z)
            c = [mpmath.mpc(1)]
            for z in zs:
                c = [-z * c[0]] + [c[i - 1] - z * c[i]
                                   for i in range(1, len(c))] + [c[-1]]
            return c
        psi = from_roots(lam2)
        rhs = [mpmath.mpc(0)] * (N + m + 1)
        for i, c in enumerate(from_roots([a * z for z in lam2])):
            rhs[N + i] += c
        for i, c in enumerate(from_roots([z / a for z in lam2])):
            rhs[i] += a**m * c
        rem, quo = list(rhs), [mpmath.mpc(0)] * (N + 1)
        for i in range(N, -1, -1):  # psi is monic
            quo[i] = rem[i + m]
            for j in range(m + 1):
                rem[i + j] -= quo[i] * psi[j]
        conv = [sum(abs(quo[i]) * abs(psi[k - i])
                    for i in range(max(0, k - m), min(k, N) + 1))
                for k in range(N + m + 1)]
        scale = max(max(abs(c) for c in rhs), max(conv))
        return float(max(abs(c) for c in rem[:m]) / scale)
