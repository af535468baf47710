"""Numerical solution of the Bethe equations and the q-difference transfer
identity at the eigenvalue level.

The roots lam_1..lam_m satisfy

    prod_{j != k} (lam_j^2 (1+eta) - lam_k^2) / (lam_j^2 - (1+eta) lam_k^2)
        = lam_k^{2N},   k = 1..m,

solved in logarithmic form by Newton with homotopy from eta = 0, where the
left product degenerates to 1 and the roots are 2N-th roots of unity.  The
associated transfer eigenvalue is

    t(nu) = nu^N/(1+eta)^m prod_j (1 - eta nu^2/(lam_j^2 - nu^2))
          + nu^-N/(1+eta)^m prod_j (1 + eta lam_j^2/(lam_j^2 - nu^2)),

which on shell is a Laurent polynomial with exponents N, N-2, ..., -N.  In
x = nu^2 the three-term identity t(nu) psi(nu) = delta nu^N psi(nu/sa) +
nu^-N psi(nu sa) (sa = sqrt(alpha), delta = alpha^m, psi = prod_j (nu^2 -
lam_j^2)) reads

    P(x) Psi(x) = x^N Psi_-(x) + alpha^m Psi_+(x),

with Psi_-+(x) = prod_j (x - alpha^{+-1} lam_j^2), so the polynomial part
P of t is obtained by long division; the division remainder vanishes
precisely on shell, which is what gives the off-shell negative control its
teeth (evaluating the product formula for t against the identity is an
algebraic tautology for any root set).
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .qcalc import QParam


class BetheConvergenceError(RuntimeError):
    """Newton divergence, root collision, or singular-denominator approach."""


@dataclass(frozen=True)
class BetheConfig:
    N: int
    m: int
    qp: QParam
    roots: np.ndarray
    residual: float
    homotopy_path: tuple = ()


def default_seed_selection(N, m):
    """First m of the 2N unit-circle seeds; squares pairwise distinct."""
    if m > N:
        raise ValueError("need m <= N for pairwise-distinct seed squares")
    return tuple(range(m))


def _seed_roots(N, selection):
    sel = tuple(int(s) for s in selection)
    if len(set(sel)) != len(sel) or not all(0 <= s < 2 * N for s in sel):
        raise ValueError("seed_selection must pick distinct indices in [0, 2N)")
    if len(set(s % N for s in sel)) != len(sel):
        raise ValueError("seed squares collide (indices equal mod N)")
    return np.exp(1j * np.pi * np.array(sel) / N)


def _log_residual(roots, N, one_plus_eta, branch):
    m = roots.size
    F = np.zeros(m, dtype=complex)
    lam2 = roots**2
    for k in range(m):
        acc = 0.0 + 0.0j
        for j in range(m):
            if j == k:
                continue
            num = lam2[j] * one_plus_eta - lam2[k]
            den = lam2[j] - one_plus_eta * lam2[k]
            if min(abs(num), abs(den)) < 1e-12:
                raise BetheConvergenceError("singular denominator approach")
            acc += np.log(num) - np.log(den)
        F[k] = acc - 2 * N * np.log(roots[k]) - 2j * np.pi * branch[k]
    return F


def _log_jacobian(roots, N, one_plus_eta):
    m = roots.size
    J = np.zeros((m, m), dtype=complex)
    lam2 = roots**2
    for k in range(m):
        diag = -2.0 * N / roots[k]
        for j in range(m):
            if j == k:
                continue
            num = lam2[j] * one_plus_eta - lam2[k]
            den = lam2[j] - one_plus_eta * lam2[k]
            diag += -2.0 * roots[k] / num + 2.0 * one_plus_eta * roots[k] / den
            J[k, j] = 2.0 * roots[j] * one_plus_eta / num - 2.0 * roots[j] / den
        J[k, k] = diag
    return J


def _newton_polish(roots, N, one_plus_eta, branch, tol, max_iter=100):
    F = _log_residual(roots, N, one_plus_eta, branch)
    err = np.abs(F).max()
    for it in range(max_iter):
        if err < tol:
            return roots, it
        J = _log_jacobian(roots, N, one_plus_eta)
        try:
            delta = np.linalg.solve(J, F)
        except np.linalg.LinAlgError as exc:
            raise BetheConvergenceError("singular Bethe Jacobian") from exc
        step = 1.0
        for _ in range(30):
            cand = roots - step * delta
            if np.abs(cand).min() > 1e-12:
                try:
                    Fc = _log_residual(cand, N, one_plus_eta, branch)
                except BetheConvergenceError:
                    Fc = None
                if Fc is not None:
                    errc = np.abs(Fc).max()
                    if errc < err or errc < tol:
                        roots, F, err = cand, Fc, errc
                        break
            step *= 0.5
        else:
            raise BetheConvergenceError("Bethe Newton damping stalled")
    if err < tol:
        return roots, max_iter
    raise BetheConvergenceError(f"Bethe Newton stalled at residual {err:.3e}")


def solve_bethe(N, m, qp, seed_selection=None, tol=1e-13):
    """Solve the Bethe system by eta-homotopy from the free point.

    Branch integers of the unwrapped logarithmic form are fixed by the
    eta = 0 seed (m distinct 2N-th roots of unity with distinct squares)
    and held constant along the path; the step starts at eta/10 and halves
    on divergence, aborting below a 1e-6 relative floor.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not isinstance(qp, QParam):
        qp = QParam(qp)
    sel = default_seed_selection(N, m) if seed_selection is None else seed_selection
    roots = _seed_roots(N, sel)
    branch = np.array([round(-N * np.angle(z) / np.pi) for z in roots])

    eta_target = qp.eta
    path = []
    roots, it0 = _newton_polish(roots, N, 1.0, branch, tol)
    path.append((0.0, it0))
    s, step = 0.0, 0.1  # path fraction along eta = s * eta_target
    guard = 0
    while s < 1.0:
        guard += 1
        if guard > 10_000:
            raise BetheConvergenceError("homotopy failed to make progress")
        s_next = min(s + step, 1.0)
        eta = s_next * eta_target
        try:
            cand, iters = _newton_polish(roots, N, 1.0 + eta, branch, tol)
            lam2 = cand**2
            for j in range(m):
                for k in range(m):
                    if j != k and (abs(lam2[j] - lam2[k]) < 1e-9
                                   or abs(lam2[j] - (1 + eta) * lam2[k]) < 1e-9):
                        raise BetheConvergenceError("root collision on path")
        except BetheConvergenceError:
            step *= 0.5
            if step < 1e-6:
                raise
            continue
        roots, s = cand, s_next
        path.append((float(s), iters))

    residual = float(np.abs(_log_residual(roots, N, qp.one_plus_eta,
                                          branch)).max())
    return BetheConfig(N=N, m=m, qp=qp, roots=roots, residual=residual,
                       homotopy_path=tuple(path))


def bethe_residuals_roots(roots, N, qp):
    """Per-root |LHS - RHS| of the Bethe equations in product form."""
    roots = np.asarray(roots, dtype=complex)
    ope = qp.one_plus_eta
    lam2 = roots**2
    out = np.zeros(roots.size)
    for k in range(roots.size):
        P = 1.0 + 0.0j
        for j in range(roots.size):
            if j != k:
                P *= (lam2[j] * ope - lam2[k]) / (lam2[j] - ope * lam2[k])
        out[k] = abs(P - roots[k] ** (2 * N))
    return out


def bethe_residuals(cfg):
    return bethe_residuals_roots(cfg.roots, cfg.N, cfg.qp)


def transfer_eigenvalue_roots(roots, N, qp, nu):
    """Transfer eigenvalue t(nu) from the product formula."""
    roots = np.asarray(roots, dtype=complex)
    eta = qp.eta
    lam2 = roots**2
    d = lam2 - nu**2
    if nu == 0 or np.any(np.abs(d) < 1e-12):
        raise ZeroDivisionError("t(nu) pole: nu^2 collides with a root")
    m = roots.size
    pref = (1.0 + eta) ** (-m)
    return (nu**N * pref * np.prod(1.0 - eta * nu**2 / d)
            + nu ** (-N) * pref * np.prod(1.0 + eta * lam2 / d))


def transfer_eigenvalue(cfg, nu):
    return transfer_eigenvalue_roots(cfg.roots, cfg.N, cfg.qp, nu)


def psi_poly(cfg):
    """Monic polynomial psi in x = nu^2: coefficients (ascending) of
    prod_j (x - lam_j^2)."""
    if cfg.m == 0 or len(cfg.roots) == 0:
        return np.array([1.0 + 0.0j])
    return npoly.polyfromroots(np.asarray(cfg.roots, dtype=complex) ** 2)


def transfer_poly_roots(roots, N, qp):
    """Polynomial part P(x) of t(nu) nu^N in x = nu^2, by long division.

    Returns (coefficients of P ascending, max |remainder coefficient|).
    The remainder vanishes exactly when the roots are on shell.
    """
    roots = np.asarray(roots, dtype=complex)
    a = qp.alpha
    m = roots.size
    lam2 = roots**2
    psi = npoly.polyfromroots(lam2) if m else np.array([1.0 + 0.0j])
    psi_minus = npoly.polyfromroots(a * lam2) if m else np.array([1.0 + 0.0j])
    psi_plus = npoly.polyfromroots(lam2 / a) if m else np.array([1.0 + 0.0j])
    rhs = np.zeros(N + m + 1, dtype=complex)
    rhs[N:N + m + 1] += psi_minus
    rhs[:m + 1] += a**m * psi_plus
    quo, rem = npoly.polydiv(rhs, psi)
    rem_mag = float(np.abs(rem).max()) if rem.size else 0.0
    return quo, rem_mag


def baxter_qdiff_residual(cfg, nu_samples):
    """Max residual of the q-difference transfer identity at sample points.

    t is taken as the Laurent polynomial induced by the root set (division
    quotient), then

        |t(nu) psi(nu) - delta nu^N psi(nu/sa) - nu^-N psi(nu sa)|

    and the rescaled normalization with psi_hat = psi nu^(-2m),

        |t(nu) psi_hat(nu) - nu^N psi_hat(nu/sa) - delta nu^-N psi_hat(nu sa)|,

    are evaluated with delta = alpha^m.  On-shell roots drive both to zero;
    off-shell root sets leave an O(1) division remainder behind.
    """
    qp = cfg.qp
    sa = qp.sqrt_alpha
    delta = qp.alpha ** cfg.m
    N, m = cfg.N, cfg.m
    quo, _ = transfer_poly_roots(cfg.roots, N, qp)
    psi_c = psi_poly(cfg)

    def psi(nu):
        return npoly.polyval(nu**2, psi_c)

    res = []
    for nu in np.atleast_1d(nu_samples):
        if nu == 0:
            raise ValueError("nu samples must be nonzero")
        t = npoly.polyval(nu**2, quo) / nu**N
        r18 = abs(t * psi(nu) - delta * nu**N * psi(nu / sa)
                  - nu ** (-N) * psi(nu * sa))
        ph = lambda z: psi(z) * z ** (-2 * m)
        r19 = abs(t * ph(nu) - nu**N * ph(nu / sa)
                  - delta * nu ** (-N) * ph(nu * sa))
        res += [r18, r19]
    return float(np.max(res, initial=0.0))  # a NaN is returned, not skipped
