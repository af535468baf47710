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

Every solve starts from the shift guess; there is no warm start.  The
Jacobian of the map comes from the implicit function theorem on the
denominator-cleared first line P(q, r, r~) = 0: with J = dP/dr~, the
cyclic lower-bidiagonal matrix Newton solves with, dr~/dr = -J^{-1} and
dr~/dq = J^{-1} diag(mu^2 r~_k r~_{k-1}); the q~ blocks follow by the
chain rule through the second line (`map_jacobian`).  Canonicity is
checked on that exact Jacobian, after one solve of the map.
"""

from dataclasses import dataclass, field

import numpy as np

from .classical_chain import ChainState, monodromy_matrix

LOG_BRANCH_NOTE = "generating-function checks need real data with principal logs"


class BTError(RuntimeError):
    """Newton non-convergence, singular Jacobian, or vanishing denominator."""


# Newton iterations per rung, step halvings per iteration, and the |mu|
# ladder: from MU_SEED up to |mu| by factors of MU_GROWTH.
MAX_ITER = 100
MAX_DAMPING = 30
MU_SEED = 1e-3
MU_GROWTH = 2.0


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12


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


def _poly_jacobian(q, rt, mu):
    """J = dP/dr~ of the denominator-cleared first line P: cyclic
    lower-bidiagonal, J_kk = mu^2 (1 - q_k r~_{k-1}) and
    J_{k,k-1} = -(mu^2 r~_k q_k + 1) (added, so N = 1 folds both in)."""
    N = len(q)
    u = np.roll(rt, 1)
    J = np.zeros((N, N), dtype=complex)
    idx = np.arange(N)
    J[idx, idx] = mu**2 * (1.0 - q * u)
    J[idx, (idx - 1) % N] += -(mu**2 * rt * q + 1.0)
    return J


def _newton(q, r, rt, mu):
    """Damped Newton on the denominator-cleared first line.

    Converges to the floating-point floor of the residual; the as-printed
    residual contract is enforced by the caller at the target mu only,
    because the printed form divides by mu^2 and is not evaluable to 1e-12
    at the small-mu continuation rungs.
    """
    floor = 64 * np.finfo(float).eps * (1.0 + np.abs(r).max()
                                        + np.abs(rt).max())
    with np.errstate(all="ignore"):
        F = _poly_residual(q, r, rt, mu)
    err = np.abs(F).max()
    if not np.isfinite(err):
        raise BTError("non-finite residual at Newton start")
    for it in range(MAX_ITER):
        if err < floor:
            return rt, it
        if np.any(np.abs(rt) < 1e-12):
            raise BTError("vanishing r~ denominator during Newton")
        J = _poly_jacobian(q, rt, mu)
        try:
            delta = np.linalg.solve(J, F)
        except np.linalg.LinAlgError as exc:
            raise BTError("singular Jacobian in Backlund Newton") from exc
        step = 1.0
        improved = False
        for _ in range(MAX_DAMPING):
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
        return rt, MAX_ITER
    raise BTError(f"Backlund Newton did not converge (residual {err:.3e})")


def bt_apply(state, mu, opts=None):
    """Apply the Backlund map at parameter mu.

    The solver continues in |mu| from MU_SEED up to |mu| by factors of
    MU_GROWTH, starting from the shift guess r~_k = r_{k+1}; a rung that
    fails is bisected geometrically.  There is no warm start: every call
    solves from the shift guess, so the map is a function of
    (state, mu, opts.tol) alone.  BTError is raised when the as-printed
    residual of either line is not below opts.tol.
    """
    if mu == 0:
        raise BTError("Backlund parameter mu must be nonzero")
    opts = opts or SolverOptions()
    q, r = state.q, state.r
    if np.any(np.abs(r) < 1e-12):
        raise BTError("state has r_k ~ 0; Backlund denominators vanish")

    total_iters = 0
    path = []
    rt = np.roll(r, -1).astype(complex)
    scales = []
    s = min(1.0, MU_SEED / abs(mu))
    while s < 1.0:
        scales.append(s)
        s *= MU_GROWTH
    scales.append(1.0)
    i = 0
    prev = None  # last converged (scale, rt)
    while i < len(scales):
        s = scales[i]
        try:
            rt_new, it = _newton(q, r, rt, s * mu)
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
    if np.any(gam == 0):  # each factor: their product underflows at large N
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


def _log_det_gamma(bt):
    """(ln det L, ln gamma) as the sums over sites of ln(1 - q_k r_k) and
    ln gamma_k.  The products underflow at large N (prod_k gamma_k is
    10^-397.6 on a random N = 512 state at mu = 0.17); their logs do not, and
    every caller only exponentiates them, so the branch drops out."""
    s = bt.source
    return (complex(np.sum(np.log(1.0 - s.q * s.r))),
            complex(np.sum(np.log(bt.gamma_site))))


@dataclass(frozen=True)
class SpectralityReport:
    gamma_site: np.ndarray
    collinearity: np.ndarray
    gamma: complex
    det_over_gamma: complex
    trace_residual: float


def spectrality(bt):
    """Per-site proportionality factors and the trace formula residual.

    gamma_k is extracted by least squares over the two components of
    L_k(mu)|w_k> against |w_{k+1}>, with the collinearity defect reported;
    then |Tr L(mu) - (det L(mu)/gamma + gamma)| closes the loop, with
    det L(mu)/gamma from the logs of `_log_det_gamma`.
    """
    q, r, rt = bt.source.q, bt.source.r, bt.target.r
    mu = bt.mu
    gam, coll = _gamma_least_squares(q, r, rt, mu)
    gamma = complex(np.prod(gam))
    log_det, log_gamma = _log_det_gamma(bt)
    det_over_gamma = complex(np.exp(log_det - log_gamma))
    M = monodromy_matrix(bt.source, mu)
    tr = M[0, 0] + M[1, 1]
    trace_residual = float(abs(tr - (det_over_gamma + gamma)))
    return SpectralityReport(gamma_site=gam, collinearity=coll, gamma=gamma,
                             det_over_gamma=det_over_gamma,
                             trace_residual=trace_residual)


# ---------------------------------------------------------------------------
# Generating function


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


def _li2(x):
    """Dilogarithm Li2(x) for real x < 1, or within a complex step of it.

    Li2(x) = spence(1 - x) on [0, 1).  A negative x goes through the
    Landen form Li2(x) = -Li2(x/(x - 1)) - ln^2(1 - x)/2, whose argument
    lies in (0, 1): scipy's complex spence loses up to 1e-11 relative in
    the imaginary part near 1 - x = 1.27 and 4.74, which a complex step
    would read as the derivative.
    """
    # deferred: a module-level scipy.special import adds ~25% to `import albaxter`
    from scipy.special import spence
    neg = np.real(x) < 0
    out = spence(1.0 - np.where(neg, x / (x - 1.0), x))
    return np.where(neg, -out - 0.5 * np.log1p(-x) ** 2, out)


def _site_terms(a, b, x, y, mu):
    """Site terms f_k of F, with a = r_{k+1}, b = r_k, x = r~_k and
    y = r~_{k-1}, the two integrals of `generating_function` in closed form:

        int ln(z - a)/z dz     = ln^2(z)/2 + Li2(a/z),
        int ln(mu^2 z + b)/z dz = ln^2(mu^2 z)/2 + Li2(-b/(mu^2 z)).

    Analytic in every slot near real data that passes
    `_require_real_positive`, so a complex step in one slot differentiates
    it; the slots broadcast, one site per entry.
    """
    m2 = mu**2
    lx, lmx = np.log(x), np.log(m2 * x)
    i1 = (0.5 * lx**2 + _li2(a / x)
          - 0.5 * np.log(1.0 + a) ** 2 - _li2(a / (1.0 + a)))
    i2 = 0.5 * lmx**2 + _li2(-b / (m2 * x)) - _li2(-b)
    return i1 + i2 - lx * np.log(m2 * y) - 2.0 * np.log(mu) ** 2


def generating_function(bt):
    """Canonical generating function F(r, r~) = sum_k f_k, in closed form.

    F = sum_k [ int_{r_{k+1}+1}^{r~_k} ln(z - r_{k+1})/z dz
              + int_{1/mu^2}^{r~_k} ln(mu^2 z + r_k)/z dz
              - ln(r~_k) ln(mu^2 r~_{k-1}) - 2 ln(mu)^2 ],

    with both integrals as dilogarithms (`_site_terms`), restricted to
    real positive data so every logarithm stays principal.
    """
    _, r, _, rt, mu = _require_real_positive(bt)
    return float(np.sum(_site_terms(np.roll(r, -1), r, rt, np.roll(rt, 1),
                                    mu)))


def conjugate_flow_variable(bt):
    """Phi = dF/dmu at fixed (r, r~): (2/mu) sum_k ln((mu^2 r~_k + r_k)/(mu^2 r~_k))."""
    r, rt, mu = bt.source.r, bt.target.r, bt.mu
    return (2.0 / mu) * np.sum(np.log((mu**2 * rt + r) / (mu**2 * rt)))


def generating_function_check(bt):
    """Verify that F generates the map, with complex-step gradients.

    A step i*h (h = 1e-30) in one argument slot of `_site_terms`, for all
    sites at once, gives that slot's partials as Im f / h: exact to
    roundoff, with no step to tune.  Five O(N) evaluations assemble

        dF/dr~_k = df_k/dx + df_{k+1}/dy,   dF/dr_k = df_k/db + df_{k-1}/da,
        dF/dmu = sum_k df_k/dmu,

    compared with ln(1 - q~_k r~_k)/r~_k, -ln(1 - q_k r_k)/r_k and the
    explicit flow variable Phi.
    """
    q, r, qt, rt, mu = _require_real_positive(bt)
    slots = [np.roll(r, -1), r, rt, np.roll(rt, 1), mu]
    h = 1e-30

    def partial(i):
        stepped = list(slots)
        stepped[i] = stepped[i] + 1j * h
        return _site_terms(*stepped).imag / h

    da, db, dx, dy, dmu = (partial(i) for i in range(5))
    res_rt = np.abs(dx + np.roll(dy, -1) - np.log(1.0 - qt * rt) / rt)
    res_r = np.abs(db + np.roll(da, 1) + np.log(1.0 - q * r) / r)
    res_phi = abs(np.sum(dmu) - conjugate_flow_variable(bt).real)
    return {"grad_residual_rtilde": float(np.max(res_rt, initial=0.0)),
            "grad_residual_r": float(np.max(res_r, initial=0.0)),
            "phi_residual": float(res_phi)}


def classical_baxter_check(bt):
    """Residual of Tr L(mu) = mu^N e^(mu Phi/2) + det L(mu) mu^(-N) e^(-mu Phi/2),

    with Phi evaluated through the eigenvalue product as
    (2/mu) ln(det L(mu) / (mu^N gamma)); the log branch drops out of the
    exponentials, making this an algebraic rearrangement of the trace
    formula.  mu^N gamma underflows at large N, so the logarithm is taken
    as ln det - N ln mu - ln gamma (`_log_det_gamma`) and each term as one
    exponential.
    """
    mu = bt.mu
    M = monodromy_matrix(bt.source, mu)
    tr = M[0, 0] + M[1, 1]
    log_det, log_gamma = _log_det_gamma(bt)
    log_mu_n = bt.source.N * np.log(mu)
    phi = (2.0 / mu) * (log_det - log_mu_n - log_gamma)
    lhs = (np.exp(log_mu_n + 0.5 * mu * phi)
           + np.exp(log_det - log_mu_n - 0.5 * mu * phi))
    return float(abs(tr - lhs))


def map_jacobian(bt):
    """Exact Jacobian of the converged map (q, r) -> (q~, r~).

    Returns (A, B, C, D) = (dq~/dq, dq~/dr, dr~/dq, dr~/dr), each N x N,
    by the implicit function theorem on the denominator-cleared first
    line P_k = mu^2 r~_k (1 - q_k r~_{k-1}) - r~_{k-1} + r_k = 0.  With
    J = dP/dr~ (the matrix Newton solves with), dP/dr = I and
    dP_k/dq_k = -mu^2 r~_k r~_{k-1}:

        D = -J^{-1},    C = D diag(-mu^2 r~_k r~_{k-1}).

    q~ = (1 - rhs)/r~ from the second line reads r~_{k-1}, r~_k, r~_{k+1}
    and r_k, r_{k+1}, so A = G C and B = G D + E with G = dq~/dr~ and
    E = dq~/dr|_r~ banded; G is applied by row shifts, and at N <= 2 the
    coinciding neighbours add up.
    """
    q, r = bt.source.q, bt.source.r
    rt, mu = bt.target.r, bt.mu
    try:
        D = -np.linalg.inv(_poly_jacobian(q, rt, mu))
    except np.linalg.LinAlgError as exc:
        raise BTError("singular Jacobian in the Backlund map") from exc
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
    np.add.at(B, (idx, idx), -a / (den * rt))
    np.add.at(B, (idx, (idx + 1) % len(q)), b / (den * rt))
    return A, B, C, D


def _bracket_deviation(jac, w, wt):
    """Max deviation of the transformed brackets from the canonical ones.

    jac = (A, B, C, D) as from map_jacobian; w = 1 - q r is the source
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


def canonicity_check(state, mu, opts=None):
    """Check that the map preserves the bracket, with the exact Jacobian.

    Solves the map once, takes (A, B, C, D) from map_jacobian, and
    requires the transformed brackets under the source bracket
    {q_k, r_j} = (1 - q_k r_k) delta_kj to satisfy {q~_k, r~_j} =
    (1 - q~_k r~_k) delta_kj and {q~, q~} = {r~, r~} = 0.  Returns the max
    deviation over the three blocks.  No finite-difference truncation
    enters: the deviation is limited by how closely the solved r~ meets
    the first line, as amplified through the second.
    """
    base = bt_apply(state, mu, opts)
    return _bracket_deviation(map_jacobian(base), 1.0 - state.q * state.r,
                              1.0 - base.target.q * base.target.r)
