"""Classical Backlund transformation of the Ablowitz-Ladik chain.

The one-parameter map (q, r) -> (q~, r~) is defined by the pair of
relations (periodic in k):

    1 - q_k r_k   = (r~_{k-1} - r_k)(mu^2 r~_k + r_k) / (mu^2 r~_k r~_{k-1})
    1 - q~_k r~_k = (r~_k - r_{k+1})(mu^2 r~_k + r_k) / (mu^2 r~_{k+1} r~_{k-1})

The first line is solved for r~ backward around the ring, from the
attracting fixed point of a product of Moebius maps (the shift guess
r~_k = r_{k+1} at mu -> 0), and polished by one Newton step; there is no
continuation in |mu| and no warm start.  The step's matrix J = dP/dr~ of
the denominator-cleared first line P is cyclic lower-bidiagonal, so the
step is a two-term recurrence around the ring, solved backward in O(N)
(`_polish_step`).  Backward is the stable direction for the same reason
the start is: its multipliers are the derivatives dr~_{k-1}/dr~_k of the
Moebius maps, whose product at the attracting fixed point has modulus
below 1.  q~ is then read off the second line.  The map is generated by
the intertwining relation L~_k D_k = D_{k+1} L_k with the dressing matrix

    D_k(lam) = [[lam^2 - mu^2 (1 - b_k c_k), lam b_k], [lam c_k, 1]],

b_k = q_k, c_k = r~_{k-1}, which is singular at lam = mu with kernel
(1, -mu r~_{k-1})^T.  That spectrality gives L_k(mu)|w_k> = gamma_k
|w_{k+1}> and the trace formula Tr L(mu) = det L(mu)/gamma + gamma.

The Jacobian of the map comes from the implicit function theorem on the
denominator-cleared first line P(q, r, r~) = 0.  With J = dP/dr~, the
matrix of the polish step, D = dr~/dr = -J^{-1} and C = dr~/dq = D Lam,
Lam = diag(-mu^2 r~_k r~_{k-1}); the q~ blocks are A = G C and
B = G D + E, with G = dq~/dr~ tridiagonal and E = dq~/dr|_r~ two bands,
by the chain rule through the second line.  Every bracket of the dense
blocks reduces, in exact algebra, to identities between bands, so
canonicity is checked in O(N) with no inverse of J (`canonicity_check`),
after one solve of the map: `bt_apply` keeps its last solved maps, so a
sweep point's checks share its solve, and they read the neighbour arrays
that its read-off of q~ formed (`_site_table`) instead of forming them.
"""

import cmath
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classical_chain import ChainState, _roll, monodromy_matrix

LOG_BRANCH_NOTE = "generating-function checks need real data with principal logs"


class BTError(RuntimeError):
    """Residual above tolerance, singular Jacobian, or vanishing denominator."""


# Solved maps kept by `bt_apply`, least recent first: the bt suite's
# canonicity check reuses its map after three more solves.
BT_CACHE_SIZE = 4
_solved = OrderedDict()


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12


# A map's site table (`_site_table`): its neighbour arrays, read-only, and
# the mu^2 they were formed at.  u = r~_{k-1}, m2rt = mu^2 r~_k,
# b = m2rt + r_k, a = r~_k - r_{k+1}, den = mu^2 r~_{k+1} r~_{k-1}, rhs =
# a b / den (the second line's right side), w = 1 - q r and wt = 1 - q~ r~
_Sites = namedtuple("_Sites", "m2 u m2rt b a den rhs w wt")


def _site_table(q, r, rt, mu, qt=None):
    """(q~, the map's `_Sites`), q~ read off the second line unless given;
    mu enters in the caller's type."""
    u, m2 = _roll(rt, 1), mu**2
    m2rt = m2 * rt
    b, a, den = m2rt + r, rt - _roll(r, -1), m2 * _roll(rt, -1) * u
    rhs = a * b / den
    qt = (1.0 - rhs) / rt if qt is None else qt
    sites = _Sites(m2, u, m2rt, b, a, den, rhs, 1.0 - q * r, 1.0 - qt * rt)
    for arr in sites[1:]:
        arr.setflags(write=False)
    return qt, sites


@dataclass(frozen=True)
class BTResult:
    mu: complex
    source: ChainState
    target: ChainState
    gamma_site: np.ndarray
    collinearity: np.ndarray
    newton_iters: int  # always 1, the polish step
    residual: float
    # |prod_k (-d_k/e_k)| of the polish step, below 1 at an attracting start
    ring_multiplier: float = math.nan

    @property
    def gamma(self):
        return complex(np.prod(self.gamma_site))

    @cached_property
    def _sites(self):  # set by `bt_apply`; formed here for other results
        s, t = self.source, self.target
        return _site_table(s.q, s.r, t.r, self.mu, t.q)[1]


def _poly_residual(q, r, rt, mu):
    # first line cleared of denominators: mu^2 r~_k (1 - q_k r~_{k-1})
    # - r~_{k-1} + r_k = 0; no 1/mu^2 amplification at small mu
    u = _roll(rt, 1)
    return mu**2 * rt * (1.0 - q * u) - u + r


def _jacobian_bands(q, rt, mu):
    """The two bands of J = dP/dr~ of the denominator-cleared first line P,
    which is cyclic lower-bidiagonal: d_k = J_kk = mu^2 (1 - q_k r~_{k-1})
    and e_k = J_{k,k-1} = -(mu^2 r~_k q_k + 1); at N = 1 both sit on J_00.
    """
    m2 = mu**2
    return m2 * (1.0 - q * _roll(rt, 1)), -(m2 * rt * q + 1.0)


def _backward_start(q, r, mu):
    """The first line solved backward around the ring, for `_polish`.

    Solved for r~_{k-1}, the first line is the Moebius map
    r~_{k-1} = (mu^2 r~_k + r_k) / (mu^2 q_k r~_k + 1), with matrix
    B_k = [[mu^2, r_k], [mu^2 q_k, 1]], so r~_{N-1} is a fixed point of
    B_0 B_1 ... B_{N-1}.  Its two fixed points are the two branches of
    the map.  The start is the attracting one (the larger eigenvalue),
    along which the backward recursion is stable, carried back site by
    site.  At mu -> 0 the product is [[0, r_0], [0, 1]], and the start is
    the shift guess r~_k = r_{k+1}.
    """
    m2 = mu**2
    qs, rs = q.tolist(), r.tolist()
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    try:
        for qk, rk in zip(qs, rs):  # Moebius maps ignore scale: normalise
            a, b, c, d = (a * m2 + b * m2 * qk, a * rk + b,
                          c * m2 + d * m2 * qk, c * rk + d)
            s = max(abs(a), abs(b), abs(c), abs(d))
            a, b, c, d = a / s, b / s, c / s, d / s
        disc = cmath.sqrt((a - d) ** 2 + 4.0 * b * c)
        lam = max(0.5 * (a + d + disc), 0.5 * (a + d - disc), key=abs)
        x = b / (lam - a) if abs(lam - a) >= abs(c) else (lam - d) / c
        rt = [x]
        for k in range(len(rs) - 1, 0, -1):
            x = (m2 * x + rs[k]) / (m2 * qs[k] * x + 1.0)
            rt.append(x)
    except ZeroDivisionError as exc:
        raise BTError("vanishing denominator in the backward start") from exc
    return np.array(rt[::-1], dtype=complex)


def _polish_step(q, rt, mu, F):
    """The Newton step J^{-1} F, with J = dP/dr~, in O(N) by the ring's
    two-term recurrence.

    Row k of J delta = F reads d_k delta_k + e_k delta_{k-1} = F_k, with
    the bands d_k and e_k of `_jacobian_bands`.  Taken backward from
    k = N - 1, each delta_k = a_k + b_k delta_{N-1} is affine in the one
    unknown delta_{N-1}, and row 0 closes the ring:
    (d_0 b_0 + e_0) delta_{N-1} = F_0 - d_0 a_0.  At N = 1 that pivot is
    d_0 + e_0, both terms folded.  Backward is the stable direction: the
    multiplier -d_k/e_k is dr~_{k-1}/dr~_k of the Moebius map of
    `_backward_start`, whose start is the attracting fixed point, so
    pi = prod_k (-d_k/e_k) has |pi| < 1 and the closing pivot
    e_0 (1 - pi) stays clear of zero.  The recurrence is sequential, so it
    runs on Python complex scalars, as `_backward_start` does.  Returns the
    step and |pi|, the ring multiplier.
    """
    d, e = (band.tolist() for band in _jacobian_bands(q, rt, mu))
    f = F.tolist()
    ak, bk = 0.0, 1.0  # delta_{N-1} = 0 + 1 delta_{N-1}
    a, b = [ak], [bk]
    try:
        for k in range(len(f) - 1, 0, -1):
            ak, bk = (f[k] - d[k] * ak) / e[k], -d[k] * bk / e[k]
            a.append(ak)
            b.append(bk)
        x = (f[0] - d[0] * ak) / (d[0] * bk + e[0])
    except ZeroDivisionError as exc:
        raise BTError("singular Jacobian in Backlund Newton") from exc
    ring = abs(d[0] * bk / e[0]) if e[0] else math.inf
    return np.array(a[::-1], dtype=complex) + np.array(b[::-1]) * x, ring


def _polish(q, r, rt, mu):
    """One Newton step (`_polish_step`) on the denominator-cleared first
    line from the backward start, kept if it lowers max |P|; returns it
    with the step's ring multiplier.

    The start already meets P near its roundoff floor; q~ is read off r~
    with an amplification of ~100 at mu = 0.3, so what r~ keeps of the
    floor shows in the as-printed residuals and in canonicity.
    """
    with np.errstate(all="ignore"):
        F = _poly_residual(q, r, rt, mu)
        err = np.abs(F).max()
        if not math.isfinite(err):
            raise BTError("non-finite residual at Newton start")
        if (np.abs(rt) < 1e-12).any():
            raise BTError("vanishing r~ denominator during Newton")
        step, ring = _polish_step(q, rt, mu, F)
        cand = rt - step
        errc = np.abs(_poly_residual(q, r, cand, mu)).max()
    return (cand if errc < err else rt), ring


def bt_apply(state, mu, opts=None):
    """Apply the Backlund map at parameter mu.

    The first line is solved at mu by `_backward_start` and polished by one
    Newton step (`_polish`), whose ring recurrence is solved backward, the
    direction in which the start attracts; the whole map is O(N).  q~ (off
    the second line), both lines' as-printed residuals and gamma_k with
    its collinearity defect (`_gamma_least_squares`) are read from the
    neighbour arrays of `_site_table`, formed once with mu in the caller's
    type.  The result keeps gamma_k, the defect, the step's ring
    multiplier and the site table (r~_{k-1}, mu^2 r~_k, mu^2 r~_k + r_k,
    r~_k - r_{k+1}, the second line's denominator and right side, 1 - q r
    and 1 - q~ r~), read-only, for the checks; a result built by hand or by
    `dataclasses.replace` forms its own table from its own fields on first
    use.  With no warm start and no
    continuation in |mu|, the map is a function of (state, mu, opts.tol)
    alone, so the last BT_CACHE_SIZE results, whose arrays are read-only,
    are returned again for the same bits of q and r, type and bits of mu
    (0.3 and 0.3+0j stay apart) and tol.  BTError is raised, on every
    call, when the as-printed residual of either line is not below
    opts.tol.
    """
    if mu == 0:
        raise BTError("Backlund parameter mu must be nonzero")
    opts = opts or SolverOptions()
    key = (state.q.tobytes(), state.r.tobytes(), type(mu),
           np.asarray(mu).tobytes(), opts.tol)
    if key in _solved:
        _solved.move_to_end(key)
        return _solved[key]
    q, r = state.q, state.r
    if (np.abs(r) < 1e-12).any():
        raise BTError("state has r_k ~ 0; Backlund denominators vanish")

    rt, ring = _polish(q, r, _backward_start(q, r, mu), mu)
    qt, s = _site_table(q, r, rt, mu)
    res1 = float(np.abs(s.w - (s.u - r) * s.b / (s.m2rt * s.u)).max())
    res2 = float(np.abs(s.wt - s.rhs).max())
    if max(res1, res2) >= opts.tol:
        raise BTError(f"transformation residual {max(res1, res2):.3e} "
                      f"above tolerance {opts.tol:.1e} at mu={mu}")
    target = ChainState(qt, rt)
    gam, coll = _gamma_least_squares(q, r, rt, s.u, mu)
    if (gam == 0).any():  # each factor: their product underflows at large N
        raise BTError("vanishing spectrality factor gamma")
    for arr in (gam, coll):
        arr.setflags(write=False)
    bt = _solved[key] = BTResult(
        mu=complex(mu), source=state, target=target, gamma_site=gam,
        collinearity=coll, newton_iters=1, residual=max(res1, res2),
        ring_multiplier=ring)
    vars(bt)["_sites"] = s  # the cached_property's slot: no second table
    if len(_solved) > BT_CACHE_SIZE:
        _solved.popitem(last=False)
    return bt


def intertwining_residual(bt, lam):
    """Max-entry residual over the sites k of
    L~_k(lam) D_k(lam) - D_{k+1}(lam) L_k(lam).

    lam is one point, giving a float, or an array of points, giving an
    array of residuals of its shape.  Every site at every point is one
    2x2 product in a stacked (N, points) batch, r~_{k-1} from the site
    table.  A NaN is returned, not skipped.
    """
    lam = np.asarray(lam, dtype=complex)
    if (lam == 0).any():
        raise ValueError("lambda must be nonzero")
    # sites down axis 0, points across axis 1
    q, r = bt.source.q[:, None], bt.source.r[:, None]
    qt, rt = bt.target.q[:, None], bt.target.r[:, None]
    x = lam.reshape(1, -1)
    inv = 1.0 / x
    c = bt._sites.u[:, None]  # r~_{k-1}
    L, Lt, D = np.empty((3, bt.source.N, x.size, 2, 2), dtype=complex)
    L[..., 0, 0], L[..., 0, 1], L[..., 1, 0], L[..., 1, 1] = x, q, r, inv
    Lt[..., 0, 0], Lt[..., 0, 1], Lt[..., 1, 0], Lt[..., 1, 1] = x, qt, rt, inv
    D[..., 0, 0] = x**2 - bt.mu**2 * (1.0 - q * c)
    D[..., 0, 1], D[..., 1, 0], D[..., 1, 1] = x * q, x * c, 1.0
    res = np.abs(Lt @ D - _roll(D, -1) @ L).max(axis=(0, 2, 3))
    return float(res[0]) if lam.ndim == 0 else res.reshape(lam.shape)


def _gamma_least_squares(q, r, rt, u, mu):
    """Least-squares gamma_k from L_k(mu)|w_k> = gamma_k |w_{k+1}>,
    with the per-site collinearity defect.

    With |w_k> = (1, w0_k) and |w_{k+1}> = (1, w1_k) the projection has the
    closed form gamma_k = (v0 + conj(w1) v1) / (1 + |w1|^2), where
    (v0, v1) = L_k(mu)|w_k>.
    """
    w0 = -mu * u  # -mu r~_{k-1}
    w1 = -mu * rt
    v0 = mu + q * w0
    v1 = r + (1.0 / mu) * w0
    nv = np.hypot(np.abs(v0), np.abs(v1))
    if (nv < 1e-300).any():
        raise BTError("degenerate kernel vector in spectrality")
    gam = (v0 + np.conj(w1) * v1) / (1.0 + np.abs(w1) ** 2)
    coll = np.hypot(np.abs(v0 - gam), np.abs(v1 - gam * w1)) / nv
    return gam, coll


def _log_det_gamma(bt):
    """(ln det L, ln gamma) as the sums over sites of ln(1 - q_k r_k) and
    ln gamma_k.  The products underflow at large N (prod_k gamma_k is
    10^-397.6 on a random N = 512 state at mu = 0.17); their logs do not, and
    every caller only exponentiates them, so the branch drops out."""
    return (complex(np.log(bt._sites.w).sum()),
            complex(np.log(bt.gamma_site).sum()))


@dataclass(frozen=True)
class SpectralityReport:
    collinearity: np.ndarray
    gamma: complex
    det_over_gamma: complex
    trace_residual: float


def spectrality(bt):
    """The collinearity defect of gamma_k and the trace formula residual.

    gamma_k, by least squares over the two components of L_k(mu)|w_k>
    against |w_{k+1}>, and its collinearity defect come with the map from
    `bt_apply`; |Tr L(mu) - (det L(mu)/gamma + gamma)| closes the loop,
    with det L(mu)/gamma from the logs of `_log_det_gamma` (on the site
    table).  Past overflow (large N) both read inf or NaN, with no warning.
    """
    log_det, log_gamma = _log_det_gamma(bt)
    with np.errstate(over="ignore"):
        det_over_gamma = complex(np.exp(log_det - log_gamma))
    M = monodromy_matrix(bt.source, bt.mu)
    tr = M[0, 0] + M[1, 1]
    gamma = bt.gamma
    trace_residual = float(abs(tr - (det_over_gamma + gamma)))
    return SpectralityReport(collinearity=bt.collinearity, gamma=gamma,
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
          and np.all(_roll(rt, 1) - r > 0)
          and np.all(mu.real**2 * rt + r > 0))
    if not ok:
        raise ValueError("logarithm arguments would cross the negative axis")
    return q, r, qt, rt, mu.real


# B_2k / (2k+1)!, k = 1..10, from the Bernoulli numbers B_2k = n/d: the
# quotient of Python ints is rounded once, so each coefficient is exact to
# half an ulp
_LI2_SERIES = tuple(n / (d * math.factorial(2 * k + 1))
                    for k, (n, d) in enumerate(
                        [(1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
                         (-691, 2730), (7, 6), (-3617, 510), (43867, 798),
                         (-174611, 330)], start=1))


def _li2(x):
    """Dilogarithm Li2(x) for real x < 1, or within a complex step of it.

    Three analytic pieces, so that a complex step through them reads the
    derivative -ln(1 - x)/x:

    - x < 0 goes to z = x/(x - 1) in (0, 1) by the Landen form
      Li2(x) = -Li2(z) - ln^2(1 - x)/2, with ln(1 - z) = -ln(1 - x) taken
      from log1p(-x), never from 1 - z;
    - z > 1/2 goes to 1 - z by the reflection
      Li2(z) = pi^2/6 - ln z ln(1 - z) - Li2(1 - z);
    - what is left, y in [0, 1/2], is the Bernoulli series
      Li2(y) = u - u^2/4 + sum_k B_2k u^(2k+1)/(2k+1)!, u = -ln(1 - y)
      ('t Hooft & Veltman, Nucl. Phys. B 153 (1979) 365), whose |u| <= ln 2
      makes ten terms exact to well below one ulp.

    Domain: real x < 1, x = 1 excluded.  Error model: ln z is taken only
    on (1/2, 1) and ln(1 - z) only through log1p(-x), so no logarithm sees
    a difference that has cancelled, and the series is truncated far below
    one ulp; what is left is a few roundings in each term summed.  Against
    40-digit mpmath on 3,000 points of [-1e3, 1 - 1e-12] the value is
    within 4.4e-16 relative, down to x = 1e-300, and the complex-step
    derivative within 6.4e-16 relative.  Real input returns a real array.
    """
    neg = np.real(x) < 0
    z = np.where(neg, x / (x - 1.0), x)
    lw = np.where(neg, -1.0, 1.0) * np.log1p(-x)  # ln(1 - z)
    refl = np.real(z) > 0.5
    lz = np.log(np.where(refl, z, 1.0))
    u = np.where(refl, -lz, -lw)
    v = u * u
    s = v * _LI2_SERIES[-1]  # sum_k c_k v^k by Horner, in place
    for c in _LI2_SERIES[-2::-1]:
        s += c
        s *= v
    li = u - 0.25 * v + u * s
    li = np.where(refl, np.pi**2 / 6 - lz * lw - li, li)
    return np.where(neg, -li - 0.5 * lw * lw, li)


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
    # one _li2 call on the four arguments stacked: its cost is per call
    la, la1, lb, lb0 = _li2(np.stack(np.broadcast_arrays(
        a / x, a / (1.0 + a), -b / (m2 * x), -b)))
    i1 = 0.5 * lx**2 + la - 0.5 * np.log(1.0 + a) ** 2 - la1
    i2 = 0.5 * lmx**2 + lb - lb0
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
    return float(np.sum(_site_terms(_roll(r, -1), r, rt, _roll(rt, 1),
                                    mu)))


def conjugate_flow_variable(bt):
    """Phi = dF/dmu at fixed (r, r~): (2/mu) sum_k ln((mu^2 r~_k + r_k)/(mu^2 r~_k))."""
    r, rt, mu = bt.source.r, bt.target.r, bt.mu
    return (2.0 / mu) * np.sum(np.log((mu**2 * rt + r) / (mu**2 * rt)))


def _site_partials(a, b, x, y, mu):
    """Partials of `_site_terms` in its five slots (a, b, x, y, mu), one
    (N,) array each, by the complex step in one stacked call.

    Row j of a (5, N) stack carries the imaginary step 1j*h (h = 1e-30) in
    slot j alone, mu becomes a (5, 1) column, and Im f / h of row j is the
    partial in slot j: exact to roundoff, with no step to tune.  Every
    slot is complex, stepped or not.
    """
    h = 1e-30
    step = 1j * h * np.eye(5)
    stacked = np.array([a, b, x, y])[:, None, :] + step[:4, :, None]
    return _site_terms(*stacked, mu + step[4][:, None]).imag / h


def generating_function_check(bt):
    """Verify that F generates the map, with complex-step gradients.

    The partials of the site terms f_k in all five slots come from one
    O(N) evaluation (`_site_partials`), which assembles

        dF/dr~_k = df_k/dx + df_{k+1}/dy,   dF/dr_k = df_k/db + df_{k-1}/da,
        dF/dmu = sum_k df_k/dmu,

    compared with ln(1 - q~_k r~_k)/r~_k, -ln(1 - q_k r_k)/r_k and the
    explicit flow variable Phi.
    """
    q, r, qt, rt, mu = _require_real_positive(bt)
    da, db, dx, dy, dmu = _site_partials(_roll(r, -1), r, rt, _roll(rt, 1),
                                         mu)
    res_rt = np.abs(dx + _roll(dy, -1) - np.log(1.0 - qt * rt) / rt)
    res_r = np.abs(db + _roll(da, 1) + np.log(1.0 - q * r) / r)
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
    exponential; one that overflows leaves an inf or NaN residual, with no
    warning.
    """
    mu = bt.mu
    M = monodromy_matrix(bt.source, mu)
    tr = M[0, 0] + M[1, 1]
    log_det, log_gamma = _log_det_gamma(bt)
    log_mu_n = bt.source.N * np.log(mu)
    phi = (2.0 / mu) * (log_det - log_mu_n - log_gamma)
    with np.errstate(over="ignore"):
        lhs = (np.exp(log_mu_n + 0.5 * mu * phi)
               + np.exp(log_det - log_mu_n - 0.5 * mu * phi))
    return float(abs(tr - lhs))


def _relative_gap(x, y):
    """max |x - y| over max(max |x|, max |y|); a NaN is returned."""
    return np.abs(x - y).max() / max(np.abs(x).max(), np.abs(y).max())


def _bracket_bands(bt):
    """Worst relative residual of the three band identities that the
    brackets of the map reduce to, on its site table; see
    `canonicity_check`."""
    q, rt, s = bt.source.q, bt.target.r, bt._sites
    d = s.m2 * (1.0 - q * s.u)  # the bands of J, as `_jacobian_bands`
    e = -(s.m2rt * q + 1.0)
    wlam = s.w * -(s.m2rt * s.u)  # W Lam
    # E_kk = -a/(den r~), E_{k,k+1} = b/(den r~); gm_k = rhs_k/ru_k and
    # gp_{k-1} = rhs_{k-1}/ru_k, with ru_k = r~_k r~_{k-1}
    drt, ru = s.den * rt, rt * s.u
    gaps = (_relative_gap(-s.a / drt * wlam, s.wt * d),
            _relative_gap(s.b / drt * _roll(wlam, -1), s.wt * _roll(e, -1)),
            _relative_gap(s.rhs / ru * _roll(s.wt, 1),
                          _roll(s.rhs, 1) / ru * s.wt))
    return math.nan if math.isnan(sum(gaps)) else float(max(gaps))


def canonicity_check(state, mu, opts=None):
    """Check that the map preserves the bracket, in O(N) on the bands of its
    exact Jacobian.

    Takes the map from `bt_apply` (the kept one, after a call at the same
    arguments) and reads its site table.  Under the source bracket
    {q_k, r_j} = w_k delta_kj, W = diag(1 - q r), the map is canonical when
    {q~_k, r~_j} = w~_k delta_kj, W~ = diag(1 - q~ r~), and
    {q~, q~} = {r~, r~} = 0.  On the
    blocks of the module docstring these reduce, in exact algebra, to:

      {r~, r~} = C W D^T - D W C^T = D (Lam W - W Lam) D^T, zero for every
        D, so the block measures only roundoff and is not checked;
      {q~, r~} - W~ = A W D^T - B W C^T - W~ = (E W Lam - W~ J^T) J^{-T},
        whose first factor has two bands: E_kk w_k Lam_k = w~_k d_k and
        E_{k,k+1} w_{k+1} Lam_{k+1} = w~_k e_{k+1}, true where P = 0;
      {q~, q~} = A W B^T - B W A^T = QR G^T - G QR^T + (W~ G^T - G W~),
        with QR the {q~, r~} residual, so its own content is the band
        gm_k w~_{k-1} = gp_{k-1} w~_k, true where the second line holds.

    Each identity holds entry by entry, so also at N <= 2, where the dense
    blocks add coinciding bands.  Returns the worst of the three band
    residuals, each max |x - y| over max(max |x|, max |y|) of its band; a
    NaN is returned, never skipped.  No inverse of J is formed, so no
    ||J^{-1}|| multiplies the roundoff of the solved map.
    """
    return _bracket_bands(bt_apply(state, mu, opts))
