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
are 2N-th roots of unity: each step predicts along the tangent
dx/d(1+eta) and corrects by damped Newton, under step control (Allgower
& Georg, Numerical Continuation Methods, 1990).  On shell the transfer
eigenvalue t(nu) is a Laurent polynomial with exponents N, N-2, ..., -N,
and the q-difference Baxter equation t(nu) psi(nu) = delta nu^N
psi(nu/sa) + nu^-N psi(nu sa) (sa = sqrt(alpha), delta = alpha^m,
psi = prod_j (nu^2 - lam_j^2)) reads, in x = nu^2 with t(nu) = P(x)/nu^N,

    P(x) Psi(x) = x^N Psi_-(x) + alpha^m Psi_+(x),

with Psi_-+(x) = prod_j (x - alpha^{+-1} lam_j^2).  P is the quotient of
the right-hand side by Psi, and the division remainder vanishes exactly
when the roots are on shell: this polynomial identity is the whole check,
with no sampling in nu, and the same remainder on perturbed roots is its
negative control.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .qcalc import QParam

# Newton stopping residual max_k |a_k - x_k^N b_k| / (|a_k| + |x_k^N b_k|)
TOL = 1e-13
MAX_ITER = 100  # Newton iterations per homotopy step
# eta step control, measured on alpha in {0.05, 0.2, 0.5, 0.9} x N <= 12
# x m <= min(N, 6) and x N in {13, 16, 20, 24, 32} x m in {2, 3, 4, 6}: a
# first Newton correction above STEP_CAP * max|x| refuses the step, and a
# step done in at most FAST_ITERS iterations doubles the next
STEP_CAP, FAST_ITERS = 0.05, 3


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
    """dF/dx and dF/d(1+eta) from the row cofactors prod_{l != j} of D.T
    and D, which are the derivatives of a_k and b_k in their j-th factor
    (no division)."""
    m = x.size
    off = ~np.eye(m, dtype=bool)
    C = np.where(off, np.array([D.T, D])[:, :, None, :], 1.0).prod(axis=3)
    Ca, Cb = C * off
    sign = (-1) ** (m - 1)
    xN = x**N
    sb = Cb.sum(axis=1)
    J = -ope * sign * Ca - xN[:, None] * Cb
    J.flat[::m + 1] = (sign * Ca.sum(axis=1) + ope * xN * sb
                       - N * x ** (N - 1) * D.prod(axis=1))
    return J, -sign * (Ca @ x) + xN * x * sb


def _newton(x, N, ope):
    """Damped Newton on F at fixed 1+eta, stopped below a relative residual
    of TOL; returns the solution, the iteration count and its pair array.
    It refuses a start whose first correction exceeds STEP_CAP * max|x|,
    and x_j, x_k or x_j, (1+eta) x_k within 1e-9 (j != k) as a collision."""
    F, rel, D = _residual(x, N, ope)
    it = 0
    while not rel < TOL:  # a NaN residual never counts as converged
        if it == MAX_ITER:
            raise BetheConvergenceError(
                f"Newton stalled at relative residual {rel:.3e}")
        it += 1
        try:
            delta = np.linalg.solve(_jacobian(x, N, ope, D)[0], F)
        except np.linalg.LinAlgError as exc:
            raise BetheConvergenceError(
                f"singular Jacobian at relative residual {rel:.3e}") from exc
        if it == 1 and np.abs(delta).max() > STEP_CAP * np.abs(x).max():
            raise BetheConvergenceError(
                f"first correction too large at relative residual {rel:.3e}")
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
    return x, it, D


def solve_bethe(N, m, qp):
    """Solve the Bethe system at the deformation qp (a QParam) by
    eta-homotopy on F (module docstring) from lam_j = exp(i pi j/N), j < m:
    2N-th roots of unity whose squares are distinct for m <= N.

    Seeds on shell at the target (always at m = 1, F = 1 - x^N) take no
    step.  The step in the eta fraction starts at 0.1, doubles after at
    most FAST_ITERS Newton iterations and halves whenever Newton fails,
    its first correction exceeds STEP_CAP or roots collide, aborting below
    a 1e-6 floor; the last step ends at the fraction 1.0 exactly.  Each
    lam_k = +-sqrt(x_k) takes the sign nearer its previous value, so roots
    keep the order and sign of their seeds.  The residual is the final
    relative residual of F.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > N:
        raise ValueError("need m <= N for pairwise-distinct seed squares")
    roots = np.exp(1j * np.pi * np.arange(m) / N)
    x = roots**2
    path = [(0.0, 0)]
    s, step, ope, D, tangent = 0.0, 0.1, 1.0, _pairs(x, 1.0), None
    if _residual(x, N, qp.one_plus_eta)[1] < TOL:  # seeds on shell
        s, path = 1.0, [(0.0, 0), (1.0, 0)]
    while s < 1.0:
        if len(path) > 10_000:
            raise BetheConvergenceError(f"homotopy exceeded 10,000 steps at "
                                        f"N={N}, m={m}, eta fraction {s:.6g}")
        s_next = s + step if s + step < 1.0 - 1e-12 else 1.0
        ope_next = 1.0 + s_next * qp.eta if s_next < 1.0 else qp.one_plus_eta
        try:
            if tangent is None:  # dx/d(1+eta) = -J^-1 dF/d(1+eta)
                J, dF = _jacobian(x, N, ope, D)
                tangent = -np.linalg.solve(J, dF)
            x_next, iters, D_next = _newton(
                x + (ope_next - ope) * tangent, N, ope_next)
        except (BetheConvergenceError, np.linalg.LinAlgError) as exc:
            step *= 0.5
            if step < 1e-6:
                raise BetheConvergenceError(
                    f"Bethe homotopy failed at N={N}, m={m}: eta fraction "
                    f"{s:.6g} reached, last step: {exc}") from exc
            continue
        lam = np.sqrt(x_next)
        roots = np.where((lam * roots.conj()).real < 0, -lam, lam)
        x, s, ope, D, tangent = x_next, s_next, ope_next, D_next, None
        path.append((float(s), iters))
        step *= 2.0 if iters <= FAST_ITERS else 1.0

    return BetheConfig(N=N, m=m, qp=qp, roots=roots,
                       residual=_residual(x, N, qp.one_plus_eta)[1],
                       homotopy_path=tuple(path))


def bethe_residuals_roots(roots, N, qp):
    """Per-root |a_k / b_k - lam_k^{2N}|: the Bethe equations in ratio form."""
    roots = np.asarray(roots, dtype=complex)
    D = _pairs(roots**2, qp.one_plus_eta)
    return np.abs((-1) ** (roots.size - 1) * D.prod(axis=0) / D.prod(axis=1)
                  - roots ** (2 * N))


def transfer_poly_roots(roots, N, qp):
    """Polynomial part P(x) of t(nu) nu^N in x = nu^2, and the relative
    TQ remainder.

    P is the quotient of x^N Psi_-(x) + alpha^m Psi_+(x) by the monic
    Psi(x) = prod_j (x - lam_j^2).  The remainder of that division is
    divided by the size of the terms that cancel in it, the largest
    coefficient of the dividend and of |P| * |Psi| (coefficient
    convolution), so it sits at roundoff on shell and is O(1) off shell;
    a NaN root reads NaN.  Returns the ascending coefficients of P and
    that relative remainder.
    """
    roots = np.asarray(roots, dtype=complex)
    a, m = qp.alpha, roots.size
    lam2 = roots**2
    psi, psi_minus, psi_plus = (npoly.polyfromroots(z)
                                for z in (lam2, a * lam2, lam2 / a))
    rhs = np.zeros(N + m + 1, dtype=complex)
    rhs[N:] += psi_minus
    rhs[:m + 1] += a**m * psi_plus
    quo, rem = npoly.polydiv(rhs, psi)
    scale = max(np.abs(rhs).max(),
                npoly.polymul(np.abs(quo), np.abs(psi)).max())
    return quo, float(np.abs(rem).max() / scale)
