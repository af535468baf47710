"""Classical Backlund transformation of the Ablowitz-Ladik chain.

The one-parameter map (q, r) -> (q~, r~) is defined by the pair of
relations (periodic in k):

    1 - q_k r_k   = (r~_{k-1} - r_k)(mu^2 r~_k + r_k) / (mu^2 r~_k r~_{k-1})
    1 - q~_k r~_k = (r~_k - r_{k+1})(mu^2 r~_k + r_k) / (mu^2 r~_{k+1} r~_{k-1})

The first line is solved for r~ by damped Newton with continuation in |mu|
from a small seed (the mu -> 0 balance forces r~_k -> r_{k+1}, which seeds
the iteration); q~ is then read off the second line.  The map is generated
by the intertwining relation L~_k D_k = D_{k+1} L_k with the dressing
matrix

    D_k(lam) = [[lam^2 - mu^2 (1 - b_k c_k), lam b_k], [lam c_k, 1]],

b_k = q_k, c_k = r~_{k-1}, which is singular at lam = mu with kernel
(1, -mu r~_{k-1})^T.  That spectrality gives L_k(mu)|w_k> = gamma_k
|w_{k+1}> and the trace formula Tr L(mu) = det L(mu)/gamma + gamma.
"""

from dataclasses import dataclass, field

import numpy as np

from .classical_chain import ChainState, conserved_quantities, monodromy_matrix

LOG_BRANCH_NOTE = "generating-function checks need real data with principal logs"


class BTError(RuntimeError):
    """Newton non-convergence, singular Jacobian, or vanishing denominator."""


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12
    max_iter: int = 100
    mu_seed: float = 1e-3
    growth: float = 2.0
    max_damping: int = 30


@dataclass(frozen=True)
class BTResult:
    mu: complex
    source: ChainState
    target: ChainState
    gamma_site: np.ndarray
    newton_iters: int
    residual: float
    mu_path: tuple = field(default=(), repr=False)

    @property
    def gamma(self):
        return complex(np.prod(self.gamma_site))


def _line1_residual(q, r, rt, mu):
    u = np.roll(rt, 1)  # r~_{k-1}
    return (1.0 - q * r) - (u - r) * (mu**2 * rt + r) / (mu**2 * rt * u)


def _line2_qtilde(r, rt, mu):
    u = np.roll(rt, 1)        # r~_{k-1}
    rtp = np.roll(rt, -1)     # r~_{k+1}
    rp = np.roll(r, -1)       # r_{k+1}
    rhs = (rt - rp) * (mu**2 * rt + r) / (mu**2 * rtp * u)
    return (1.0 - rhs) / rt


def _poly_residual(q, r, rt, mu):
    # first line cleared of denominators: mu^2 r~_k (1 - q_k r~_{k-1})
    # - r~_{k-1} + r_k = 0; no 1/mu^2 amplification at small mu
    u = np.roll(rt, 1)
    return mu**2 * rt * (1.0 - q * u) - u + r


def _newton(q, r, rt, mu, opts):
    """Damped Newton on the denominator-cleared first line.

    Converges to the floating-point floor of the residual; the as-printed
    residual contract is enforced by the caller at the target mu only,
    because the printed form divides by mu^2 and is not evaluable to 1e-12
    at the small-mu continuation rungs.
    """
    N = len(q)
    floor = 64 * np.finfo(float).eps * (1.0 + np.abs(r).max()
                                        + np.abs(rt).max())
    with np.errstate(all="ignore"):
        F = _poly_residual(q, r, rt, mu)
    err = np.abs(F).max()
    if not np.isfinite(err):
        raise BTError("non-finite residual at Newton start")
    for it in range(opts.max_iter):
        if err < floor:
            return rt, it
        if np.any(np.abs(rt) < 1e-12):
            raise BTError("vanishing r~ denominator during Newton")
        u = np.roll(rt, 1)
        J = np.zeros((N, N), dtype=complex)
        idx = np.arange(N)
        J[idx, idx] = mu**2 * (1.0 - q * u)
        J[idx, (idx - 1) % N] += -(mu**2 * rt * q + 1.0)
        try:
            delta = np.linalg.solve(J, F)
        except np.linalg.LinAlgError as exc:
            raise BTError("singular Jacobian in Backlund Newton") from exc
        step = 1.0
        improved = False
        for _ in range(opts.max_damping):
            cand = rt - step * delta
            if not np.any(np.abs(cand) < 1e-12):
                with np.errstate(all="ignore"):
                    Fc = _poly_residual(q, r, cand, mu)
                errc = np.abs(Fc).max()
                if np.isfinite(errc) and (errc < err or errc < floor):
                    rt, F, err = cand, Fc, errc
                    improved = True
                    break
            step *= 0.5
        if not improved:
            if err < 1e3 * floor:  # stagnated at the float floor
                return rt, it + 1
            raise BTError("Newton damping failed to reduce the residual")
    if err < 1e3 * floor:
        return rt, opts.max_iter
    raise BTError(f"Backlund Newton did not converge (residual {err:.3e})")


def bt_apply(state, mu, opts=None, initial_guess=None):
    """Apply the Backlund map at parameter mu.

    With no initial_guess the solver continues in |mu| from opts.mu_seed,
    starting from the shift guess r~_k = r_{k+1}.  Passing initial_guess
    (an r~ array) runs a single warm-started Newton at mu, which is what
    the finite-difference canonicity probes use.
    """
    if mu == 0:
        raise BTError("Backlund parameter mu must be nonzero")
    opts = opts or SolverOptions()
    q, r = state.q, state.r
    if np.any(np.abs(r) < 1e-12):
        raise BTError("state has r_k ~ 0; Backlund denominators vanish")

    total_iters = 0
    path = []
    if initial_guess is not None:
        rt = np.asarray(initial_guess, dtype=complex).copy()
        rt, it = _newton(q, r, rt, mu, opts)
        total_iters += it
        path.append(complex(mu))
    else:
        rt = np.roll(r, -1).astype(complex)
        scales = []
        s = min(1.0, opts.mu_seed / abs(mu))
        while s < 1.0:
            scales.append(s)
            s *= opts.growth
        scales.append(1.0)
        i = 0
        prev = None  # last converged (scale, rt)
        while i < len(scales):
            s = scales[i]
            try:
                rt_new, it = _newton(q, r, rt, s * mu, opts)
            except BTError:
                lo = prev[0] if prev is not None else scales[0] * 0.5
                mid = np.sqrt(lo * s)  # geometric bisection of the mu ladder
                if s - mid < 1e-6 * s:
                    raise
                scales.insert(i, mid)
                continue
            total_iters += it
            path.append(complex(s * mu))
            prev = (s, rt_new.copy())
            rt = rt_new
            i += 1

    qt = _line2_qtilde(r, rt, mu)
    res1 = float(np.abs(_line1_residual(q, r, rt, mu)).max())
    res2 = float(np.abs((1.0 - qt * rt)
                        - (rt - np.roll(r, -1)) * (mu**2 * rt + r)
                        / (mu**2 * np.roll(rt, -1) * np.roll(rt, 1))).max())
    if max(res1, res2) >= opts.tol:
        raise BTError(f"transformation residual {max(res1, res2):.3e} "
                      f"above tolerance {opts.tol:.1e} at mu={mu}")
    target = ChainState(qt, rt)
    gam, _ = _gamma_least_squares(q, r, rt, mu)
    if abs(np.prod(gam)) == 0:
        raise BTError("vanishing spectrality factor gamma")
    return BTResult(mu=complex(mu), source=state, target=target,
                    gamma_site=gam, newton_iters=total_iters,
                    residual=max(res1, res2), mu_path=tuple(path))


def dressing_matrix(bt, k, lam):
    """Dressing matrix D_k(lam) for a converged map, sites 1-based."""
    if not 1 <= k <= bt.source.N:
        raise IndexError(f"site {k} out of range")
    b = bt.source.q[k - 1]
    c = bt.target.r[k - 2]  # r~_{k-1}, periodic
    mu = bt.mu
    return np.array([[lam**2 - mu**2 * (1.0 - b * c), lam * b],
                     [lam * c, 1.0]], dtype=complex)


def kernel_vector(bt, k):
    """Kernel of D_k(mu): the vector (1, -mu r~_{k-1})^T."""
    return np.array([1.0, -bt.mu * bt.target.r[k - 2]], dtype=complex)


def intertwining_residual(bt, lam):
    """Max-entry residual of L~_k(lam) D_k(lam) - D_{k+1}(lam) L_k(lam)."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    q, r = bt.source.q, bt.source.r
    qt, rt = bt.target.q, bt.target.r
    N = bt.source.N
    res = []
    for k in range(N):
        Lk = np.array([[lam, q[k]], [r[k], 1.0 / lam]], dtype=complex)
        Ltk = np.array([[lam, qt[k]], [rt[k], 1.0 / lam]], dtype=complex)
        Dk = dressing_matrix(bt, k + 1, lam)
        Dk1 = dressing_matrix(bt, (k + 1) % N + 1, lam)
        res.append(np.abs(Ltk @ Dk - Dk1 @ Lk).max())
    return float(np.max(res, initial=0.0))  # a NaN is returned, not skipped


def _gamma_least_squares(q, r, rt, mu):
    """Least-squares gamma_k from L_k(mu)|w_k> = gamma_k |w_{k+1}>,
    with the per-site collinearity defect.

    With |w_k> = (1, w0_k) and |w_{k+1}> = (1, w1_k) the projection has the
    closed form gamma_k = (v0 + conj(w1) v1) / (1 + |w1|^2), where
    (v0, v1) = L_k(mu)|w_k>.
    """
    w0 = -mu * np.roll(rt, 1)  # -mu r~_{k-1}
    w1 = -mu * rt
    v0 = mu + q * w0
    v1 = r + (1.0 / mu) * w0
    nv = np.hypot(np.abs(v0), np.abs(v1))
    if np.any(nv < 1e-300):
        raise BTError("degenerate kernel vector in spectrality")
    gam = (v0 + np.conj(w1) * v1) / (1.0 + np.abs(w1) ** 2)
    coll = np.hypot(np.abs(v0 - gam), np.abs(v1 - gam * w1)) / nv
    return gam, coll


@dataclass(frozen=True)
class SpectralityReport:
    gamma_site: np.ndarray
    collinearity: np.ndarray
    gamma: complex
    trace_residual: float


def spectrality(bt):
    """Per-site proportionality factors and the trace formula residual.

    gamma_k is extracted by least squares over the two components of
    L_k(mu)|w_k> against |w_{k+1}>, with the collinearity defect reported;
    then |Tr L(mu) - (det L(mu)/gamma + gamma)| closes the loop.
    """
    q, r, rt = bt.source.q, bt.source.r, bt.target.r
    mu = bt.mu
    gam, coll = _gamma_least_squares(q, r, rt, mu)
    gamma = complex(np.prod(gam))
    M = monodromy_matrix(bt.source, mu)
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    trace_residual = float(abs(tr - (det / gamma + gamma)))
    return SpectralityReport(gamma_site=gam, collinearity=coll,
                             gamma=gamma, trace_residual=trace_residual)


# ---------------------------------------------------------------------------
# Generating function


def _gl_panel(f, a, b, nodes, x, w):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * np.sum(w * f(mid + half * x))


def _adaptive_integral(f, a, b, rel_tol=1e-11, base_nodes=20, depth=24):
    """Adaptive Gauss-Legendre on a straight segment, refined by bisection
    until doubling the node count moves a panel by less than tolerance."""
    if a == b:
        return 0.0
    xs1, ws1 = np.polynomial.legendre.leggauss(base_nodes)
    xs2, ws2 = np.polynomial.legendre.leggauss(2 * base_nodes)

    def recurse(lo, hi, d):
        coarse = _gl_panel(f, lo, hi, base_nodes, xs1, ws1)
        fine = _gl_panel(f, lo, hi, 2 * base_nodes, xs2, ws2)
        if abs(fine - coarse) <= rel_tol * (abs(fine) + 1.0) or d == 0:
            return fine
        mid = 0.5 * (lo + hi)
        return recurse(lo, mid, d - 1) + recurse(mid, hi, d - 1)

    return recurse(a, b, depth)


def _require_real_positive(bt):
    q, r = bt.source.q, bt.source.r
    qt, rt = bt.target.q, bt.target.r
    mu = bt.mu
    def realv(z):
        if np.abs(np.imag(z)).max() > 1e-12:
            raise ValueError(LOG_BRANCH_NOTE)
        return np.real(z)
    if abs(mu.imag) > 1e-12 or mu.real <= 0:
        raise ValueError(LOG_BRANCH_NOTE)
    q, r, qt, rt = realv(q), realv(r), realv(qt), realv(rt)
    ok = (np.all(r > 0) and np.all(rt > 0)
          and np.all(1.0 - q * r > 0) and np.all(1.0 - qt * rt > 0)
          and np.all(np.roll(rt, 1) - r > 0)
          and np.all(mu.real**2 * rt + r > 0))
    if not ok:
        raise ValueError("logarithm arguments would cross the negative axis")
    return q, r, qt, rt, mu.real


def generating_function(bt, rel_tol=1e-11, base_nodes=20):
    """Canonical generating function F(r, r~) by adaptive quadrature.

    F = sum_k [ int_{r_{k+1}+1}^{r~_k} ln(z - r_{k+1})/z dz
              + int_{1/mu^2}^{r~_k} ln(mu^2 z + r_k)/z dz
              - ln(r~_k) ln(mu^2 r~_{k-1}) - 2 ln(mu)^2 ],

    restricted to real positive data so every logarithm stays principal.
    """
    _, r, _, rt, mu = _require_real_positive(bt)
    return _generating_function_raw(r, rt, mu, rel_tol, base_nodes)


def _generating_function_raw(r, rt, mu, rel_tol=1e-11, base_nodes=20):
    N = len(r)
    total = 0.0
    for k in range(N):
        rk = r[k]
        rkp1 = r[(k + 1) % N]
        rtk = rt[k]
        rtkm1 = rt[k - 1]
        i1 = _adaptive_integral(lambda z: np.log(z - rkp1) / z,
                                rkp1 + 1.0, rtk, rel_tol, base_nodes)
        i2 = _adaptive_integral(lambda z: np.log(mu**2 * z + rk) / z,
                                1.0 / mu**2, rtk, rel_tol, base_nodes)
        total += i1 + i2 - np.log(rtk) * np.log(mu**2 * rtkm1) \
            - 2.0 * np.log(mu)**2
    return total


def conjugate_flow_variable(bt):
    """Phi = dF/dmu at fixed (r, r~): (2/mu) sum_k ln((mu^2 r~_k + r_k)/(mu^2 r~_k))."""
    r, rt, mu = bt.source.r, bt.target.r, bt.mu
    return (2.0 / mu) * np.sum(np.log((mu**2 * rt + r) / (mu**2 * rt)))


def generating_function_check(bt, step=1e-6, rel_tol=1e-11, base_nodes=20):
    """Central-difference verification that F generates the map.

    Compares dF/dr~_k with ln(1 - q~_k r~_k)/r~_k, dF/dr_k with
    -ln(1 - q_k r_k)/r_k, and dF/dmu with the explicit flow variable Phi.
    """
    q, r, qt, rt, mu = _require_real_positive(bt)
    N = len(r)

    def F(rv, rtv, muv):
        return _generating_function_raw(rv, rtv, muv, rel_tol, base_nodes)

    res_rt = []
    for k in range(N):
        hi, lo = rt.copy(), rt.copy()
        hi[k] += step
        lo[k] -= step
        grad = (F(r, hi, mu) - F(r, lo, mu)) / (2 * step)
        res_rt.append(abs(grad - np.log(1.0 - qt[k] * rt[k]) / rt[k]))

    res_r = []
    for k in range(N):
        hi, lo = r.copy(), r.copy()
        hi[k] += step
        lo[k] -= step
        grad = (F(hi, rt, mu) - F(lo, rt, mu)) / (2 * step)
        res_r.append(abs(grad + np.log(1.0 - q[k] * r[k]) / r[k]))

    dmu = (F(r, rt, mu + step) - F(r, rt, mu - step)) / (2 * step)
    res_phi = abs(dmu - conjugate_flow_variable(bt).real)

    return {"grad_residual_rtilde": float(np.max(res_rt, initial=0.0)),
            "grad_residual_r": float(np.max(res_r, initial=0.0)),
            "phi_residual": res_phi}


def classical_baxter_check(bt):
    """Residual of Tr L(mu) = mu^N e^(mu Phi/2) + det L(mu) mu^(-N) e^(-mu Phi/2),

    with Phi evaluated through the eigenvalue product as
    (2/mu) ln(det L(mu) / (mu^N gamma)); the log branch drops out of the
    exponentials, making this an algebraic rearrangement of the trace
    formula.
    """
    mu = bt.mu
    N = bt.source.N
    M = monodromy_matrix(bt.source, mu)
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    gamma = bt.gamma
    phi = (2.0 / mu) * np.log(det / (mu**N * gamma))
    lhs = mu**N * np.exp(0.5 * mu * phi) + det / mu**N * np.exp(-0.5 * mu * phi)
    return float(abs(tr - lhs))


def canonicity_check(state, mu, step=1e-6, opts=None):
    """Finite-difference check that the map preserves the bracket.

    The Jacobian of (q, r) -> (q~, r~) is estimated by central differences
    (each perturbed solve warm-starts from the base solution), and the
    transformed brackets are required to satisfy {q~_k, r~_j} =
    (1 - q~_k r~_k) delta_kj with {q~, q~} = {r~, r~} = 0 under the source
    bracket.  Returns the max deviation (finite-difference limited).
    """
    opts = opts or SolverOptions()
    base = bt_apply(state, mu, opts)
    N = state.N
    w = 1.0 - state.q * state.r

    def solved(dq, dr):
        pert = ChainState(state.q + dq, state.r + dr)
        res = bt_apply(pert, mu, opts, initial_guess=base.target.r)
        return res.target.q, res.target.r

    A = np.zeros((N, N), dtype=complex)  # dq~/dq
    B = np.zeros((N, N), dtype=complex)  # dq~/dr
    C = np.zeros((N, N), dtype=complex)  # dr~/dq
    D = np.zeros((N, N), dtype=complex)  # dr~/dr
    e = np.zeros(N)
    for n in range(N):
        e[:] = 0.0
        e[n] = step
        qp, rp = solved(e, 0.0)
        qm, rm = solved(-e, 0.0)
        A[:, n] = (qp - qm) / (2 * step)
        C[:, n] = (rp - rm) / (2 * step)
        qp, rp = solved(0.0, e)
        qm, rm = solved(0.0, -e)
        B[:, n] = (qp - qm) / (2 * step)
        D[:, n] = (rp - rm) / (2 * step)

    W = np.diag(w)
    qr = A @ W @ D.T - B @ W @ C.T
    qq = A @ W @ B.T - B @ W @ A.T
    rr = C @ W @ D.T - D @ W @ C.T
    target = np.diag(1.0 - base.target.q * base.target.r)
    dev = max(np.abs(qr - target).max(), np.abs(qq).max(), np.abs(rr).max())
    return float(dev)
