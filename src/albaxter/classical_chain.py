"""Classical Ablowitz-Ladik phase space.

Site variables (q_k, r_k) live on a periodic lattice.  The local Lax matrix
is

    L_k(lam) = [[lam, q_k], [r_k, 1/lam]]

and the monodromy is the ordered product L(lam) = L_N L_{N-1} ... L_1.  Its
trace expands as sum_i H_i lam^(N-2i) with H_0 = H_N = 1, giving the
conserved quantities; det L(lam) = prod_k (1 - q_k r_k) is conserved too.
The Poisson structure is ultralocal:

    {q_k, r_j} = (1 - q_k r_k) delta_kj,   {q, q} = {r, r} = 0,

equivalent to the linear r-matrix relation {L (x) L} = [r, L (x) L].

The checks run on one dense transfer kernel.  The monodromy is a
(2, 2, 2N+1) complex array of Laurent coefficients (index e + N holds the
coefficient of lam^e), built in N steps L_k M where multiplying by
lam^(+-1) is an index shift.  Its coefficients are not pruned: they are
sums of monomials with no cancellation, and their spread outgrows the
1e-15 relative pruning of :class:`~albaxter.algebra.LaurentPoly` near
N = 512, where that rule would zero H_0 and H_1.  The Laurent determinant
does cancel down to one constant, so its products are pruned by that rule.
Exact bracket gradients come from prefix and suffix products,

    dL/dq_k = P_{>k} E12 P_{<k},   dL/dr_k = P_{>k} E21 P_{<k},

with P_{<k} = L_{k-1} ... L_1 and P_{>k} = L_N ... L_{k+1}: numeric 2x2
products at a spectral point for the r-matrix and trace-involution checks,
dense Laurent arrays for brackets of the H_i.  Every bracket is the one
weighted sum `_bracket` over such gradients.  The tests check the kernel
against the same objects built over generic LaurentPoly/MultiDual
arithmetic (`tests/oracles.py`).
"""

from dataclasses import dataclass

import numpy as np

DEGENERACY_TOL = 1e-10


class DegenerateStateError(ValueError):
    """Raised when some |1 - q_k r_k| falls below the bracket-weight floor."""


class ChainState:
    """Periodic array of complex phase-space values (q_k, r_k), k = 1..N.

    Construction rejects states with |1 - q_k r_k| < 1e-10: the Poisson
    bracket weight degenerates there and Backlund denominators blow up.
    """

    __slots__ = ("N", "q", "r")

    def __init__(self, q, r):
        q = np.asarray(q, dtype=complex)
        r = np.asarray(r, dtype=complex)
        if q.ndim != 1 or q.shape != r.shape or q.size < 1:
            raise ValueError("q and r must be equal-length 1-d arrays")
        w = 1.0 - q * r
        if np.abs(w).min() < DEGENERACY_TOL:
            raise DegenerateStateError("state has 1 - q_k r_k ~ 0")
        self.N = q.size
        self.q = q
        self.q.setflags(write=False)
        self.r = r
        self.r.setflags(write=False)

    @classmethod
    def zeros(cls, N):
        return cls(np.zeros(N), np.zeros(N))

    @classmethod
    def random(cls, N, rng):
        """Moderate-amplitude complex state, safely nondegenerate, with all
        |r_k| bounded away from zero (Backlund denominators)."""
        scale = 0.35
        q = scale * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
        r = scale * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
        small = np.abs(r) < 0.3 * scale
        while np.any(small):
            r[small] = scale * (rng.standard_normal(small.sum())
                                + 1j * rng.standard_normal(small.sum()))
            small = np.abs(r) < 0.3 * scale
        return cls(q, r)

    @classmethod
    def random_real_positive(cls, N, rng):
        """Real data with r_k > 0 and 1 - q_k r_k > 0 (log-branch safe)."""
        q = rng.uniform(0.05, 0.45, N)
        r = rng.uniform(0.25, 0.85, N)
        return cls(q, r)

    def to_json_dict(self):
        pair = lambda z: [float(z.real), float(z.imag)]
        return {"N": int(self.N),
                "q": [pair(z) for z in self.q],
                "r": [pair(z) for z in self.r]}

    @classmethod
    def from_json_dict(cls, d):
        q = np.array([complex(re, im) for re, im in d["q"]])
        r = np.array([complex(re, im) for re, im in d["r"]])
        if len(q) != d["N"] or len(r) != d["N"]:
            raise ValueError("N does not match q/r lengths")
        return cls(q, r)

    def __repr__(self):
        return f"ChainState(N={self.N})"


@dataclass(frozen=True)
class ConservedSet:
    """Trace coefficients H_0..H_N and the determinant product."""
    H: np.ndarray
    det: complex

    def max_relative_drift(self, other):
        scale = np.maximum(np.abs(self.H), 1.0)
        dh = float((np.abs(self.H - other.H) / scale).max())
        dd = abs(self.det - other.det) / max(abs(self.det), 1.0)
        return max(dh, dd)


def monodromy_matrix(state, lam):
    """Numeric 2x2 monodromy L_N(lam) ... L_1(lam) as a numpy array."""
    qs, rs = state.q, state.r
    inv = 1.0 / lam
    m11, m12, m21, m22 = lam, qs[0], rs[0], inv
    for k in range(1, len(qs)):
        a11, a12, a21, a22 = lam, qs[k], rs[k], inv
        m11, m12, m21, m22 = (a11 * m11 + a12 * m21, a11 * m12 + a12 * m22,
                              a21 * m11 + a22 * m21, a21 * m12 + a22 * m22)
    return np.array([[m11, m12], [m21, m22]], dtype=complex)


def _prune(a):
    """Zero, in place, the coefficients (last axis) below 1e-15 times the
    largest of their polynomial, or below 1e-300: LaurentPoly's rule."""
    mag = np.abs(a)
    top = mag.max(axis=-1, keepdims=True)
    a[(mag < 1e-15 * top) | (mag <= 1e-300)] = 0.0
    return a


def _lax_left(M, qk, rk):
    """L_k M for a dense (2, 2, 2N+1) monodromy factor; the lam and 1/lam
    diagonal of L_k shift row 0 up and row 1 down one power."""
    out = np.zeros_like(M)
    out[0, :, 1:] = M[0, :, :-1]
    out[1, :, :-1] = M[1, :, 1:]
    out[0] += qk * M[1]
    out[1] += rk * M[0]
    return out


def _lax_right(M, qk, rk):
    """M L_k for a dense (2, 2, 2N+1) monodromy factor; the diagonal of
    L_k shifts column 0 up and column 1 down one power."""
    out = np.zeros_like(M)
    out[:, 0, 1:] = M[:, 0, :-1]
    out[:, 1, :-1] = M[:, 1, 1:]
    out[:, 0] += rk * M[:, 1]
    out[:, 1] += qk * M[:, 0]
    return out


def _dense_identity(N):
    M = np.zeros((2, 2, 2 * N + 1), dtype=complex)
    M[0, 0, N] = M[1, 1, N] = 1.0
    return M


def dense_monodromy(state):
    """Monodromy L_N ... L_1 as a (2, 2, 2N+1) complex array of Laurent
    coefficients; index e + N holds the coefficient of lam^e."""
    M = _dense_identity(state.N)
    for qk, rk in zip(state.q, state.r):
        M = _lax_left(M, qk, rk)
    return M


def lax_det(state):
    """det L(lam) = prod_k (1 - q_k r_k), the same at every lam.  Taking it
    from the monodromy entries as M11 M22 - M12 M21 cancels
    catastrophically once |L| is large."""
    return complex(np.prod(1.0 - state.q * state.r))


def conserved_quantities(state):
    """H_0..H_N, the coefficients of lam^(N-2i) in the trace of the dense
    monodromy, and det L = prod_k (1 - q_k r_k)."""
    N = state.N
    M = dense_monodromy(state)
    tr = M[0, 0] + M[1, 1]
    return ConservedSet(H=tr[2 * N::-2], det=lax_det(state))


def monodromy_det_eval(state, lam):
    """Laurent determinant of the dense monodromy, evaluated at lam.

    Exactly, the result is prod_k (1 - q_k r_k): every other coefficient
    cancels.  The products M11 M22 and M12 M21 and their difference are
    pruned like LaurentPoly arithmetic, which removes most of that
    cancellation's roundoff before the powers of lam amplify it.
    """
    N = state.N
    M = dense_monodromy(state)
    det = _prune(_prune(np.convolve(M[0, 0], M[1, 1]))
                 - _prune(np.convolve(M[0, 1], M[1, 0])))
    return complex(np.sum(det * lam ** np.arange(-2 * N, 2 * N + 1,
                                                 dtype=float)))


def _bracket(fq, fr, gq, gr, w):
    """sum_k (df/dq_k dg/dr_k - df/dr_k dg/dq_k)(1 - q_k r_k), last axis."""
    return np.sum((fq * gr - fr * gq) * w, axis=-1)


def _entry_gradients(state, lams):
    """Exact gradients dL/dq, dL/dr of the monodromy entries at each point
    of lams, shape (n, 2, 2, N), from dL/dq_k = P_{>k} E12 P_{<k} and
    dL/dr_k = P_{>k} E21 P_{<k}.
    """
    q, r = state.q, state.r
    N = state.N
    lams = np.asarray(lams, dtype=complex)
    L = np.empty((N, lams.size, 2, 2), dtype=complex)
    L[..., 0, 0] = lams
    L[..., 0, 1] = q[:, None]
    L[..., 1, 0] = r[:, None]
    L[..., 1, 1] = 1.0 / lams
    pre = np.empty((N + 1, lams.size, 2, 2), dtype=complex)
    suf = np.empty_like(pre)
    pre[0] = suf[N] = np.eye(2)
    for k in range(N):  # pre[k] = L_k ... L_1, suf[k] = L_N ... L_{k+1}
        pre[k + 1] = L[k] @ pre[k]
        suf[N - 1 - k] = suf[N - k] @ L[N - 1 - k]
    S, P = suf[1:], pre[:-1]  # P_{>k}, P_{<k} for sites k = 1..N
    # (S E12 P)_ab = S_a0 P_1b and (S E21 P)_ab = S_a1 P_0b
    dq = np.einsum("kna,knb->nabk", S[..., :, 0], P[..., 1, :])
    dr = np.einsum("kna,knb->nabk", S[..., :, 1], P[..., 0, :])
    return dq, dr


def trace_bracket(state, lam, nu):
    """{Tr L(lam), Tr L(nu)} from exact prefix/suffix gradients."""
    dq, dr = _entry_gradients(state, (lam, nu))
    tq = dq[:, 0, 0] + dq[:, 1, 1]
    tr = dr[:, 0, 0] + dr[:, 1, 1]
    w = 1.0 - state.q * state.r
    return complex(_bracket(tq[0], tr[0], tq[1], tr[1], w))


def _coeff_of_product(A, B, e):
    """Coefficient of lam^e in A(lam) B(lam) for dense Laurent arrays of
    length 2N+1 (last axis), batched over the leading axes."""
    n2 = A.shape[-1] - 1
    lo, hi = max(e, 0), min(e, 0) + n2 + 1
    return np.sum(A[..., lo:hi] * B[..., lo:hi][..., ::-1], axis=-1)


def conserved_gradients(state, i):
    """Exact (dH_i/dq, dH_i/dr) from dense prefix/suffix products: the
    coefficient of lam^(N-2i) in Tr(P_{>k} E12 P_{<k}) and with E21."""
    if not 0 <= i <= state.N:
        raise IndexError(f"H_{i} out of range 0..{state.N}")
    q, r = state.q, state.r
    N = state.N
    pre = np.empty((N + 1, 2, 2, 2 * N + 1), dtype=complex)
    suf = np.empty_like(pre)
    pre[0] = suf[N] = _dense_identity(N)
    for k in range(N):
        pre[k + 1] = _lax_left(pre[k], q[k], r[k])
        suf[N - 1 - k] = _lax_right(suf[N - k], q[N - 1 - k], r[N - 1 - k])
    S, P = suf[1:], pre[:-1]
    e = N - 2 * i
    # Tr(S E12 P) = sum_a S_a0 P_1a and Tr(S E21 P) = sum_a S_a1 P_0a
    dq = sum(_coeff_of_product(S[:, a, 0], P[:, 1, a], e) for a in (0, 1))
    dr = sum(_coeff_of_product(S[:, a, 1], P[:, 0, a], e) for a in (0, 1))
    return dq, dr


def conserved_det_bracket(state, i):
    """{H_i, det L} with exact gradients; d det/dq_k = -r_k prod_{j!=k} w_j
    and d det/dr_k = -q_k prod_{j!=k} w_j, where w_j = 1 - q_j r_j."""
    hq, hr = conserved_gradients(state, i)
    w = 1.0 - state.q * state.r
    # prod_{j != k} w_j as exclusive prefix times exclusive suffix products
    before = np.concatenate(([1.0], np.cumprod(w[:-1])))
    after = np.concatenate((np.cumprod(w[:0:-1])[::-1], [1.0]))
    excl = before * after
    return complex(_bracket(hq, hr, -state.r * excl, -state.q * excl, w))


def eom_rhs(state):
    """Right-hand side of the equations of motion.

    dq_k/dt = q_{k+1} + q_{k-1} - 2 q_k - q_k r_k (q_{k+1} + q_{k-1})
    dr_k/dt = -r_{k+1} - r_{k-1} + 2 r_k + q_k r_k (r_{k+1} + r_{k-1})
    """
    q, r = state.q, state.r
    qp, qm = np.roll(q, -1), np.roll(q, 1)
    rp, rm = np.roll(r, -1), np.roll(r, 1)
    dq = qp + qm - 2.0 * q - q * r * (qp + qm)
    dr = -rp - rm + 2.0 * r + q * r * (rp + rm)
    return dq, dr


def rk4_step(state, dt):
    """One classical Runge-Kutta 4 step; local error O(dt^5)."""
    if dt <= 0:
        raise ValueError("dt must be positive")

    def rhs(q, r):
        return eom_rhs(ChainState(q, r))

    q, r = state.q, state.r
    k1q, k1r = rhs(q, r)
    k2q, k2r = rhs(q + 0.5 * dt * k1q, r + 0.5 * dt * k1r)
    k3q, k3r = rhs(q + 0.5 * dt * k2q, r + 0.5 * dt * k2r)
    k4q, k4r = rhs(q + dt * k3q, r + dt * k3r)
    qn = q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
    rn = r + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
    return ChainState(qn, rn)


def classical_rmatrix(lam, nu):
    """The 4x4 classical r-matrix; singular at lam^2 = nu^2."""
    d = nu**2 - lam**2
    if abs(d) == 0:
        raise ZeroDivisionError("r-matrix singular at coincident parameters")
    s = 0.5 * (nu**2 + lam**2) / d
    b = lam * nu / d
    return np.array([
        [s, 0, 0, 0],
        [0, -0.5, b, 0],
        [0, b, 0.5, 0],
        [0, 0, 0, s],
    ], dtype=complex)


def entry_brackets(state, lam, nu):
    """The 4x4 {L(lam) (x) L(nu)} of Poisson brackets between monodromy
    entries, from exact prefix/suffix gradients; Kronecker indexing follows
    T_{ab,gd} = {L(lam)_ab, L(nu)_gd}.
    """
    dq, dr = _entry_gradients(state, (lam, nu))
    w = 1.0 - state.q * state.r
    # br[a, b, g, d] = {L(lam)_ab, L(nu)_gd}
    br = _bracket(dq[0][:, :, None, None], dr[0][:, :, None, None],
                  dq[1][None, None], dr[1][None, None], w)
    return br.transpose(0, 2, 1, 3).reshape(4, 4)


def rmatrix_relation_residual(state, lam, nu):
    """Max-entry residual of {L(lam) (x) L(nu)} = [r, L(lam) (x) L(nu)],
    with the left side from :func:`entry_brackets`."""
    if lam == 0 or nu == 0 or abs(lam**2 - nu**2) == 0:
        raise ZeroDivisionError("singular spectral parameters")
    lhs = entry_brackets(state, lam, nu)
    K = np.kron(monodromy_matrix(state, lam), monodromy_matrix(state, nu))
    rmat = classical_rmatrix(lam, nu)
    rhs = rmat @ K - K @ rmat
    return float(np.abs(lhs - rhs).max())
