"""Numerical solution of the Bethe equations and the q-difference transfer
identity at the eigenvalue level.

The roots lam_1..lam_m satisfy

    prod_{j != k} (lam_j^2 (1+eta) - lam_k^2) / (lam_j^2 - (1+eta) lam_k^2)
        = lam_k^{2N},   k = 1..m,

which the solver takes in polynomial form in x_k = lam_k^2, free of
branch cuts,

    F_k(x) = a_k - x_k^N b_k,   a_k = prod_{j != k} (x_j (1+eta) - x_k),
                                b_k = prod_{j != k} (x_j - (1+eta) x_k),

continued in eta from eta = 0, where F_k = a_k (1 - x_k^N) and the roots
are 2N-th roots of unity.  The associated transfer eigenvalue is

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

# Newton stopping residual max_k |a_k - x_k^N b_k| / (|a_k| + |x_k^N b_k|)
TOL = 1e-13
MAX_ITER = 100  # Newton iterations per homotopy step


class BetheConvergenceError(RuntimeError):
    """Newton divergence or root collision along the eta-homotopy."""


@dataclass(frozen=True)
class BetheConfig:
    N: int
    m: int
    qp: QParam
    roots: np.ndarray
    residual: float
    homotopy_path: tuple = ()


def _pairs(x, ope):
    """D[k, j] = x_j - (1+eta) x_k off the diagonal and 1 on it.  Its row
    products are b_k, and since x_j (1+eta) - x_k = -D[j, k], its column
    products are (-1)^(m-1) a_k."""
    D = x - ope * x[:, None]
    D.flat[::x.size + 1] = 1.0
    return D


def _residual(x, N, ope):
    """F = a - x^N b, its size relative to the terms, max_k
    |F_k| / (|a_k| + |x_k^N b_k|), and the pair array."""
    D = _pairs(x, ope)
    a = (-1) ** (x.size - 1) * D.prod(axis=0)
    xb = x**N * D.prod(axis=1)
    F = a - xb
    return F, float((np.abs(F) / (np.abs(a) + np.abs(xb))).max()), D


def _jacobian(x, N, ope, D):
    """dF/dx from the row cofactors prod_{l != j} of D.T and D, which are
    the derivatives of a_k and b_k in their j-th factor (no division)."""
    m = x.size
    off = ~np.eye(m, dtype=bool)
    C = np.where(off, np.array([D.T, D])[:, :, None, :], 1.0).prod(axis=3)
    Ca, Cb = C * off
    sign = (-1) ** (m - 1)
    xN = x**N
    J = -ope * sign * Ca - xN[:, None] * Cb
    J.flat[::m + 1] = (sign * Ca.sum(axis=1) + ope * xN * Cb.sum(axis=1)
                       - N * x ** (N - 1) * D.prod(axis=1))
    return J


def _newton(x, N, ope):
    """Damped Newton on F at fixed 1+eta, stopped below a relative residual
    of TOL; returns the solution and the iteration count.  A solution with
    x_j, x_k or x_j, (1+eta) x_k within 1e-9 (j != k) is refused as a
    collision."""
    F, rel, D = _residual(x, N, ope)
    it = 0
    while not rel < TOL:  # a NaN residual never counts as converged
        if it == MAX_ITER:
            raise BetheConvergenceError(
                f"Newton stalled at relative residual {rel:.3e}")
        it += 1
        try:
            delta = np.linalg.solve(_jacobian(x, N, ope, D), F)
        except np.linalg.LinAlgError as exc:
            raise BetheConvergenceError(
                f"singular Jacobian at relative residual {rel:.3e}") from exc
        step = 1.0
        for _ in range(30):
            cand = x - step * delta
            Fc, relc, Dc = _residual(cand, N, ope)
            if relc < rel:
                x, F, rel, D = cand, Fc, relc, Dc
                break
            step *= 0.5
        else:
            raise BetheConvergenceError(
                f"Newton damping stalled at relative residual {rel:.3e}")
    gap = np.abs(x - x[:, None])
    gap.flat[::x.size + 1] = 1.0
    if np.minimum(gap, np.abs(D)).min() < 1e-9:
        raise BetheConvergenceError(
            f"root collision at relative residual {rel:.3e}")
    return x, it


def solve_bethe(N, m, qp):
    """Solve the Bethe system at the deformation qp (a QParam) by
    eta-homotopy on F (module docstring) from lam_j = exp(i pi j/N), j < m:
    2N-th roots of unity whose squares are distinct for m <= N.

    Each step is a damped Newton solve from the last point.  The step in
    eta starts at eta/10 and halves whenever Newton fails or roots
    collide, aborting below a 1e-6 relative floor.  Each
    lam_k = +-sqrt(x_k) takes the sign nearer its value at the previous
    step, so roots keep the order and sign of their seeds.  The residual
    is the final relative residual of F.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > N:
        raise ValueError("need m <= N for pairwise-distinct seed squares")
    roots = np.exp(1j * np.pi * np.arange(m) / N)
    x = roots**2

    eta_target = qp.eta
    path = [(0.0, 0)]
    s, step = 0.0, 0.1  # path fraction along eta = s * eta_target
    while s < 1.0:
        if len(path) > 10_000:
            raise BetheConvergenceError(f"homotopy exceeded 10,000 steps at "
                                        f"N={N}, m={m}, eta fraction {s:.6g}")
        s_next = min(s + step, 1.0)
        try:
            x_next, iters = _newton(x, N, 1.0 + s_next * eta_target)
        except BetheConvergenceError as exc:
            step *= 0.5
            if step < 1e-6:
                raise BetheConvergenceError(
                    f"Bethe homotopy failed at N={N}, m={m}: eta fraction "
                    f"{s:.6g} reached, last step: {exc}") from exc
            continue
        lam = np.sqrt(x_next)
        roots = np.where((lam * roots.conj()).real < 0, -lam, lam)
        x, s = x_next, s_next
        path.append((float(s), iters))

    residual = _residual(x, N, qp.one_plus_eta)[1]
    return BetheConfig(N=N, m=m, qp=qp, roots=roots, residual=residual,
                       homotopy_path=tuple(path))


def bethe_residuals_roots(roots, N, qp):
    """Per-root |a_k / b_k - lam_k^{2N}|: the Bethe equations in ratio form."""
    roots = np.asarray(roots, dtype=complex)
    D = _pairs(roots**2, qp.one_plus_eta)
    return np.abs((-1) ** (roots.size - 1) * D.prod(axis=0) / D.prod(axis=1)
                  - roots ** (2 * N))


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


def transfer_poly_roots(roots, N, qp):
    """Polynomial part P(x) of t(nu) nu^N in x = nu^2, by long division
    by the monic psi(x) = prod_j (x - lam_j^2); returns the ascending
    coefficients of P and of psi.  The remainder, dropped here, vanishes
    exactly when the roots are on shell.
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
    quo, _ = npoly.polydiv(rhs, psi)
    return quo, psi


def baxter_qdiff_residual(cfg, nu_samples):
    """Max relative residual of the q-difference transfer identity at
    sample points.

    t is taken as the Laurent polynomial induced by the root set (division
    quotient), then the identity

        t(nu) psi(nu) = delta nu^N psi(nu/sa) + nu^-N psi(nu sa)

    and its rescaled normalization with psi_hat = psi nu^(-2m),

        t(nu) psi_hat(nu) = nu^N psi_hat(nu/sa) + delta nu^-N psi_hat(nu sa),

    are evaluated with delta = alpha^m; each residual is |LHS - RHS| over
    the largest of its three terms.  On-shell roots drive both to zero;
    off-shell root sets leave the division remainder behind, O(1) of the
    terms near |nu| = 1 and shrinking like |nu|^-N away from it.
    """
    qp = cfg.qp
    sa = qp.sqrt_alpha
    delta = qp.alpha ** cfg.m
    N, m = cfg.N, cfg.m
    quo, psi_c = transfer_poly_roots(cfg.roots, N, qp)
    nu = np.atleast_1d(np.asarray(nu_samples, dtype=complex))
    if np.any(nu == 0):
        raise ValueError("nu samples must be nonzero")

    def relative(*terms):  # a NaN in any term is returned
        return np.abs(terms[0] - terms[1] - terms[2]) \
            / np.max(np.abs(terms), axis=0)

    # psi and psi_hat at nu, nu / sa, nu sa, all samples as arrays
    z = np.stack([nu, nu / sa, nu * sa])
    psi = npoly.polyval(z**2, psi_c)
    ph = psi * z ** (-2 * m)
    t = npoly.polyval(nu**2, quo) / nu**N
    res = [relative(t * psi[0], delta * nu**N * psi[1], nu ** (-N) * psi[2]),
           relative(t * ph[0], nu**N * ph[1], delta * nu ** (-N) * ph[2])]
    return float(np.max(res, initial=0.0))  # a NaN is returned, not skipped
