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

The checks run on numeric 2x2 products at spectral points.  Exact bracket
gradients come from prefix and suffix products,

    dL/dq_k = P_{>k} E12 P_{<k},   dL/dr_k = P_{>k} E21 P_{<k},

with P_{<k} = L_{k-1} ... L_1 and P_{>k} = L_N ... L_{k+1}, and the last
prefix product is the monodromy itself.  All prefix and suffix products of
a whole stack of states, each at its own points, come from one doubling
(Hillis-Steele) scan in an entries-first layout (2, 2, N, B, n): step d
multiplies every partial product by the one d sites below it, as a single
broadcast 2x2 product over all sites, states and points at once.  So a
check takes all its draws through ceil(log2 N) numpy passes, in
O(N log N) work and O(N) memory.  The products are elementwise, so each
matrix gets the same bits at any stack size, and a state's gradients do
not depend on the batch it came in.

Every bracket is the one weighted sum `_bracket` over such gradients, which
also returns the bracket's condition scale: the sum of the absolute values
of the terms it adds up.  An identity between brackets is judged against
that scale and against the size of its other side, so a residual reads at
the roundoff floor at any N until the products overflow, and NaN from
there, never 0.

Identities between Laurent polynomials in lam are checked at points, not
coefficient by coefficient: two Laurent polynomials of degree N that agree
at a random point agree everywhere with probability one (Schwartz-Zippel).
Since Tr L(lam) = sum_i H_i lam^(N-2i), one point of {Tr L(lam), det L}
tests {H_i, det L} = 0 for every i at once, and one point of the trace of a
cyclically shifted state tests every H_i.  The points lie on |lam| = 1,
where the monodromy grows least with N.

The conserved quantities are held the same way, as point values:
`conserved_quantities` returns Tr L at each of its points (by default the
three fixed points TRACE_POINTS), the largest diagonal entry of the
monodromy there, on which a change of the trace is judged, and det L.  The
coefficients H_i themselves are never formed: beyond N ~ 100 they span
hundreds of orders of magnitude, and a drift of the small ones drowns in
the roundoff of the large.  (`conserved_quantities` is public: the
benchmark's sweep task calls it.)  The tests check the point values against
the trace of the LaurentPoly monodromy and the scan against a sequential
loop of stacked 2x2 products (`tests/oracles.py`).
"""

import math
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


# three golden-angle points of |lam| = 1, none a root of unity of low order
TRACE_POINTS = np.exp(2j * np.pi * (np.arange(1, 4) * (np.sqrt(5) - 1) / 2
                                    % 1.0))
TRACE_POINTS.setflags(write=False)


@dataclass(frozen=True)
class ConservedSet:
    """Tr L at the points, the largest |M_aa| of the monodromy at each,
    and det L = prod_k (1 - q_k r_k)."""
    points: np.ndarray
    trace: np.ndarray
    scale: np.ndarray
    det: complex

    def trace_drift(self, other):
        """|Tr_a - Tr_b| at each point, relative to the larger of the two
        sets' scales there; NaN where a trace or scale is not finite."""
        if not np.array_equal(self.points, other.points):
            raise ValueError("conserved sets taken at different points")
        return _relative(np.abs(self.trace - other.trace),
                         np.maximum(self.scale, other.scale))

    def max_relative_drift(self, other):
        """Largest trace drift or relative change of det L; NaN if any is.
        The det term is `_relative` on Python floats."""
        diff = abs(self.det - other.det)
        scale = max(abs(self.det), abs(other.det))
        det = (diff / scale if scale else 0.0) if math.isfinite(diff) else \
            math.nan
        return float(self.trace_drift(other).max(initial=det))


def monodromy_matrix(state, lam):
    """Numeric 2x2 monodromy L_N(lam) ... L_1(lam) as a numpy array.

    The loop runs on Python complex numbers: their products and sums round
    as numpy's complex scalars do, at a fraction of the cost per step.
    1/lam is taken in lam's own type, since the two divide differently.
    """
    inv = complex(1.0 / lam)
    lam = complex(lam)
    qs, rs = state.q.tolist(), state.r.tolist()
    m11, m12, m21, m22 = lam, qs[0], rs[0], inv
    for qk, rk in zip(qs[1:], rs[1:]):
        m11, m12, m21, m22 = (lam * m11 + qk * m21, lam * m12 + qk * m22,
                              rk * m11 + inv * m21, rk * m12 + inv * m22)
    return np.array([[m11, m12], [m21, m22]], dtype=complex)


def _roll(a, k):
    """np.roll(a, k, axis=0) for k = +-1, as one concatenation of slices:
    _roll(a, 1)[j] = a[j - 1] and _roll(a, -1)[j] = a[j + 1], cyclic."""
    return np.concatenate((a[-k:], a[:-k]))


def lax_det(state):
    """det L(lam) = prod_k (1 - q_k r_k), the same at every lam.  Taking it
    from the monodromy entries as M11 M22 - M12 M21 cancels
    catastrophically once |L| is large."""
    return complex(np.prod(1.0 - state.q * state.r))


def conserved_quantities(state, lams=TRACE_POINTS):
    """Tr L(lam) at each point of lams, the largest diagonal entry of the
    monodromy there and det L, from one `_monodromies` call."""
    lams = np.asarray(lams, dtype=complex)
    M = _monodromies(state.q[None], state.r[None], lams[None])[0]
    a, d = M[:, 0, 0], M[:, 1, 1]
    return ConservedSet(points=lams, trace=a + d,
                        scale=np.maximum(np.abs(a), np.abs(d)),
                        det=lax_det(state))


def _bracket(fq, fr, gq, gr, w):
    """sum_k (df/dq_k dg/dr_k - df/dr_k dg/dq_k)(1 - q_k r_k) over the last
    axis, and its condition scale sum_k (|f_q g_r| + |f_r g_q|) |w_k|, the
    size of the terms the sum cancels.  The bracket is summed, and its
    products dropped, before |f_r g_q| is taken, so that where f and g
    broadcast, at most two and a half arrays of the full shape are alive."""
    a = np.multiply(fq, gr, dtype=np.result_type(fq, fr, gq, gr, w))
    scale = np.abs(a)
    b = fr * gq
    a -= b
    a *= w
    bracket = np.sum(a, axis=-1)
    del a
    scale += np.abs(b)
    del b
    scale *= np.abs(w)
    return bracket, np.sum(scale, axis=-1)


def _relative(diff, scale):
    """diff / scale elementwise; 0 where the scale is 0 (a sum with no
    terms), and NaN wherever diff or scale is not finite, so an overflow
    reads as a FAIL and never as 0."""
    diff, scale = np.asarray(diff, dtype=float), np.asarray(scale, dtype=float)
    finite = np.isfinite(diff) & np.isfinite(scale)
    rel = np.divide(diff, scale, out=np.zeros_like(diff),
                    where=finite & (scale > 0))
    return np.where(finite, rel, np.nan)


def _lax_stack(q, r, lams):
    """The local Lax matrices of a stack of B states, q and r of shape
    (B, N), each at its own n points, lams of shape (B, n): an array of
    shape (2, 2, N, B, n), entries first, whose [:, :, k] holds L_{k+1}."""
    lams = np.asarray(lams, dtype=complex)
    L = np.empty((2, 2, q.shape[1]) + lams.shape, dtype=complex)
    L[0, 0] = lams
    L[0, 1] = q.T[:, :, None]
    L[1, 0] = r.T[:, :, None]
    L[1, 1] = 1.0 / lams
    return L


def _ordered_products(q, r, lams, suffixes=True):
    """Prefix products P_{<k} = L_{k-1} ... L_1 of the Lax stack
    `_lax_stack(q, r, lams)`, and with suffixes the suffix products
    P_{>k} = L_N ... L_{k+1}.  Returns shape (2, 2, 2, N + 1, B, n) (with
    suffixes) or (2, 2, 1, N + 1, B, n): [:, :, 0, k] holds P_{<k+1}, so
    [:, :, 0, N] is the monodromy, and [:, :, 1, k] holds P_{>k}.  The
    stack is copied into the result and dropped before the first step.

    Both run as one Hillis-Steele doubling scan.  After the step of offset
    d every inclusive prefix L_j ... L_{j-2d+1} is the product of the
    prefixes at j and j - d, and every inclusive suffix likewise of those
    at j + d and j: for both ways the one broadcast product
    A[:, 0, None] B[None, 0] + A[:, 1, None] B[None, 1] of the stack A from
    offset d with the stack B up to offset -d.  So ceil(log2 N) steps do
    all N sites, each element on the same bits whatever the stack around
    it."""
    N, rest = q.shape[1], np.shape(lams)
    ways = 2 if suffixes else 1
    out = np.empty((2, 2, ways, N + 1) + rest, dtype=complex)
    eye = np.eye(2).reshape((2, 2) + (1,) * len(rest))
    out[:, :, 0, 0] = eye
    if suffixes:
        out[:, :, 1, N] = eye
    # prefixes from the first slot, suffixes up to the last: one view, in
    # which [:, :, w, j] holds the inclusive product of way w at site j + 1
    flat = out.reshape((2, 2, ways * (N + 1)) + rest)
    scan = flat[:, :, 1:ways * N + 1].reshape((2, 2, ways, N) + rest)
    scan[...] = _lax_stack(q, r, lams)[:, :, None]
    d = 1
    while d < N:
        A, B = scan[:, :, :, d:], scan[:, :, :, :-d]
        prod = A[:, 0, None] * B[None, 0]
        prod += A[:, 1, None] * B[None, 1]
        scan[:, :, 0, d:] = prod[:, :, 0]
        if suffixes:
            scan[:, :, 1, :-d] = prod[:, :, 1]
        d *= 2
    return out


def _monodromies(q, r, lams):
    """Numeric monodromies L_N ... L_1 of a stack of B states, q and r of
    shape (B, N), each at its own n points, lams of shape (B, n): shape
    (B, n, 2, 2), the last prefix product of `_ordered_products`, so the
    bits of the monodromies `_entry_gradients` returns."""
    P = _ordered_products(q, r, lams, suffixes=False)
    return P[:, :, 0, -1].transpose(2, 3, 0, 1).copy()


def _entry_gradients(q, r, lams):
    """Exact gradients dL/dq, dL/dr of the monodromy entries for a stack of
    B states, q and r of shape (B, N), each at its own n points, lams of
    shape (B, n).  Returns two arrays of shape (B, n, 2, 2, N), from
    dL/dq_k = P_{>k} E12 P_{<k} and dL/dr_k = P_{>k} E21 P_{<k}, and the
    monodromies (B, n, 2, 2), the last prefix product; the prefix and
    suffix products come from one doubling scan over all sites and all
    B n pairs (`_ordered_products`).
    """
    N = q.shape[1]
    prods = _ordered_products(q, r, lams)
    P, S = prods[:, :, 0, :N], prods[:, :, 1, 1:]  # sites k = 1..N
    # (S E12 P)_ab = S_a0 P_1b and (S E21 P)_ab = S_a1 P_0b, each written
    # through an entries-first view of its (B, n, 2, 2, N) result
    grads = np.empty((2,) + P.shape[3:] + (2, 2, N), dtype=complex)
    view = grads.transpose(0, 3, 4, 5, 1, 2)
    np.multiply(S[:, 0, None], P[None, 1], out=view[0])
    np.multiply(S[:, 1, None], P[None, 0], out=view[1])
    M = prods[:, :, 0, N].transpose(2, 3, 0, 1).copy()
    return grads[0], grads[1], M


def _trace_gradients(state, lams):
    """d Tr L(lam)/dq and d Tr L(lam)/dr of one state at each of its n
    points lams, each of shape (n, N)."""
    dq, dr, _ = _entry_gradients(state.q[None], state.r[None],
                                 np.asarray(lams)[None])
    return dq[0, :, 0, 0] + dq[0, :, 1, 1], dr[0, :, 0, 0] + dr[0, :, 1, 1]


def trace_bracket(state, lam, nu):
    """{Tr L(lam), Tr L(nu)} from exact prefix/suffix gradients, and its
    condition scale (see `_bracket`)."""
    tq, tr = _trace_gradients(state, [lam, nu])
    w = 1.0 - state.q * state.r
    bracket, scale = _bracket(tq[0], tr[0], tq[1], tr[1], w)
    return complex(bracket), float(scale)


def trace_det_bracket(state, lams):
    """{Tr L(lam), det L} at each point of lams, and the bracket's condition
    scale sum_k (|f_q g_r| + |f_r g_q|) |w_k|, the size of the terms its sum
    cancels.  Both of shape (n,).  Exactly, the bracket is
    sum_i lam^(N-2i) {H_i, det L} = 0.  The gradients of det L are
    d det/dq_k = -r_k prod_{j!=k} w_j and d det/dr_k = -q_k prod_{j!=k} w_j,
    where w_j = 1 - q_j r_j."""
    fq, fr = _trace_gradients(state, lams)
    w = 1.0 - state.q * state.r
    # prod_{j != k} w_j as exclusive prefix times exclusive suffix products
    before = np.concatenate(([1.0], np.cumprod(w[:-1])))
    after = np.concatenate((np.cumprod(w[:0:-1])[::-1], [1.0]))
    excl = before * after
    return _bracket(fq, fr, -state.r * excl, -state.q * excl, w)


def monodromy_det_residuals(state, lams):
    """|M11 M22 - M12 M21 - det L| of the monodromy at each point of lams,
    relative to max(|M11 M22|, |M12 M21|), the terms the difference
    cancels; det L is `lax_det`.  Shape (n,)."""
    M = _monodromies(state.q[None], state.r[None], np.asarray(lams)[None])[0]
    d, o = M[:, 0, 0] * M[:, 1, 1], M[:, 0, 1] * M[:, 1, 0]
    return np.abs(d - o - lax_det(state)) / np.maximum(np.abs(d), np.abs(o))


def eom_rhs(state):
    """Right-hand side of the equations of motion.

    dq_k/dt = q_{k+1} + q_{k-1} - 2 q_k - q_k r_k (q_{k+1} + q_{k-1})
    dr_k/dt = -r_{k+1} - r_{k-1} + 2 r_k + q_k r_k (r_{k+1} + r_{k-1})
    """
    q, r = state.q, state.r
    qp, qm = _roll(q, -1), _roll(q, 1)
    rp, rm = _roll(r, -1), _roll(r, 1)
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
    """The 4x4 classical r-matrix; singular at lam^2 = nu^2.  Array
    arguments broadcast and give a stack of shape (..., 4, 4)."""
    d = nu**2 - lam**2
    if np.any(d == 0):
        raise ZeroDivisionError("r-matrix singular at coincident parameters")
    s = 0.5 * (nu**2 + lam**2) / d
    b = lam * nu / d
    r = np.zeros(np.shape(d) + (4, 4), dtype=complex)
    r[..., 0, 0] = r[..., 3, 3] = s
    r[..., 1, 1], r[..., 2, 2] = -0.5, 0.5
    r[..., 1, 2] = r[..., 2, 1] = b
    return r


def _brackets_of(dq, dr, w):
    """The 4x4 {L(lam) (x) L(nu)} per state of a stack, from its gradients
    at (lam, nu), dq and dr of shape (..., 2, 2, 2, N), and its weights w
    of shape (..., N); and the 4x4 condition scales of its entries."""
    # br[..., a, b, g, d] = {L(lam)_ab, L(nu)_gd}
    at_lam = lambda g: g[..., 0, :, :, None, None, :]
    at_nu = lambda g: g[..., 1, None, None, :, :, :]
    as4x4 = lambda t: t.swapaxes(-3, -2).reshape(t.shape[:-4] + (4, 4))
    br, scale = _bracket(at_lam(dq), at_lam(dr), at_nu(dq), at_nu(dr),
                         w[..., None, None, None, None, :])
    return as4x4(br), as4x4(scale)


def rmatrix_relation_residuals(states, lams, nus):
    """Residuals of {L(lam) (x) L(nu)} = [r, L(lam) (x) L(nu)], one per draw
    (states[i], lams[i], nus[i]); the states share one N.  A draw's largest
    entry difference is taken relative to the larger of the sizes of the
    two sides: the largest condition scale of a bracket entry (see
    `_bracket`) and the largest entry of |r| |K| + |K| |r|.  NaN where
    either is not finite.  The left sides of all draws and the monodromies
    in K come from one `_entry_gradients` call."""
    for lam, nu in zip(lams, nus):
        if lam == 0 or nu == 0 or abs(lam**2 - nu**2) == 0:
            raise ZeroDivisionError("singular spectral parameters")
    dq, dr, M = _entry_gradients(np.stack([s.q for s in states]),
                                 np.stack([s.r for s in states]),
                                 np.column_stack((lams, nus)))
    lhs, lhs_scale = _brackets_of(
        dq, dr, 1.0 - np.stack([s.q * s.r for s in states]))
    # K = L(lam) (x) L(nu) per draw: K[(a, g), (b, d)] = L(lam)_ab L(nu)_gd
    Ml, Mn = M[:, 0], M[:, 1]
    K = (Ml[:, :, None, :, None] * Mn[:, None, :, None, :]).reshape(-1, 4, 4)
    rmat = classical_rmatrix(np.asarray(lams), np.asarray(nus))
    per_draw = lambda a: a.reshape(len(states), -1).max(axis=1)
    ra, ka = np.abs(rmat), np.abs(K)
    scale = np.maximum(per_draw(lhs_scale), per_draw(ra @ ka + ka @ ra))
    return _relative(per_draw(np.abs(lhs - (rmat @ K - K @ rmat))), scale)
