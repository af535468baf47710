"""Graded q-boson Fock representation of the quantum chain, applied
matrix-free.

The basis is the occupation vectors |n_1 ... n_N> with total occupation
n_1 + ... + n_N <= n_max, ordered by total occupation; it has
C(N + n_max, N) states.  Site operators:

    r_k |.. n_k ..> = |.. n_k+1 ..>          (zero on the top sector)
    q_k |.. n_k ..> = (1 - alpha^{n_k}) |.. n_k-1 ..>

Below the top sector this realizes the algebra
[q_j, r_k] = eta (1 - q_j r_j) delta_jk exactly (the coefficients solve the
recursion c_{n+1} = alpha (eta + c_n), c_0 = 0).

Index maps.  No operator is stored: FockRep keeps raised[t, k], the state
t with n_k raised by one (t below the top sector), and the coefficients
1 - alpha^(n_k + 1) that q_k carries back from there.  On a block X with
the basis along its first axis, q_k X is a row gather of X at raised[:, k]
times those coefficients and r_k X a row scatter to raised[:, k].  With
L_k(lam) = diag(lam, 1/lam) (x) I + [[0, q_k], [r_k, 0]] on C^2 (x) H, the
monodromy T(lam) = L_N ... L_1 = [[A, B], [C, D]] acts on a pair (U, V)
as the sweep U, V <- lam U + q_k V, r_k U + V/lam over the sites.

Headroom.  L_k conserves the occupation minus the number of auxiliary
spaces in their second state, so T(lam) raises the occupation by at most
one per auxiliary space, and an identity that carries h = HEADROOM[check]
raisings is exact on the first exact_dim(h) = C(N + n_max - h, N) states.

Probe blocks and residuals.  Each identity is applied to PROBES vectors,
random on those exact_dim(h) states and zero above, from a generator of
fixed seed (a check never consumes its caller's draws).  Its residual is
max |LHS - RHS| over the block divided by the largest entry of any single
term, so it sits at the unit roundoff wherever the identity holds,
whatever N and the size of the terms.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

DIM_CAP = 200_000

# Raisings each identity carries.  One step lower every identity but the
# trace commutator is off by O(1) (tests/test_fock.py holds the controls);
# the grading holds on the truncated blocks themselves.
HEADROOM = dict(rll=2, qdet=1, trace_commutator=1, qboson=1, bethe_state=1,
                grading=0)

PROBES = 2          # vectors per probe block
PROBE_SEED = 1508   # the probes' own generator


def _relative(diffs, terms):
    """Largest |entry| of the differences over that of any single term; a
    NaN anywhere is returned, never skipped."""
    return float(np.max([np.abs(d).max() for d in diffs])
                 / np.max([np.abs(t).max() for t in terms]))


class FockRep:
    """Multi-site q-boson representation truncated at total occupation
    n_max, at the deformation qp (a QParam); immutable."""

    def __init__(self, N, n_max, qp):
        if N < 1 or n_max < 1:
            raise ValueError("need N >= 1 and n_max >= 1")
        dim = comb(N + n_max, N)
        if dim > DIM_CAP:
            raise ValueError(f"basis size {dim} exceeds cap {DIM_CAP}")
        self.N = N
        self.n_max = n_max
        self.qp = qp
        self.dim = dim

        # |n> has index sum_i C(i + S_i - 1, i), S_i = n_1 + ... + n_i: the
        # combinatorial number system, sorted by the total S_N; unrank greedily
        sites = np.arange(N)
        terms = np.array([[comb(i + s, i + 1) for s in range(n_max + 2)]
                          for i in sites])
        S = np.empty((dim, N), dtype=np.int64)
        rem = np.arange(dim)
        for i in reversed(sites):
            S[:, i] = np.searchsorted(terms[i], rem, side="right") - 1
            rem = rem - terms[i, S[:, i]]
        self.occupations = np.diff(S, axis=1, prepend=0)

        # raising n_k adds one to S_i for i >= k; r_k is zero on the top
        # sector, so only the first exact_dim(1) states are raised
        below = np.arange(self.exact_dim(1))
        step = terms[sites, S[below] + 1] - terms[sites, S[below]]
        raised = below[:, None] + np.cumsum(step[:, ::-1], axis=1)[:, ::-1]
        self.occupations.setflags(write=False)
        # per site k, contiguous: raised[:, k] and 1 - alpha^(n_k + 1) below
        self._up = list(np.ascontiguousarray(raised.T))
        self._coef = list(1.0 - qp.alpha ** (self.occupations[below].T + 1))

    def exact_dim(self, headroom):
        """Number of basis states with total occupation <= n_max - headroom."""
        return comb(self.N + self.n_max - headroom, self.N)

    def q(self, k, X):
        """q_k X (sites counted from 0) for a vector or block X with the
        basis along its first axis: a row gather times the coefficients."""
        out = np.zeros(X.shape, dtype=complex)
        c = self._coef[k].reshape((-1,) + (1,) * (X.ndim - 1))
        out[:c.size] = c * X[self._up[k]]
        return out

    def r(self, k, X):
        """r_k X for X as in q: a row scatter of X off the top sector."""
        out = np.zeros(X.shape, dtype=complex)
        up = self._up[k]
        out[up] = X[:up.size]
        return out

    def _sweep(self, lam, U, V):
        """T(lam) on the pair (U, V) of blocks of equal shape."""
        if lam == 0:
            raise ValueError("lam must be nonzero")
        for k in range(self.N):
            U, V = lam * U + self.q(k, V), self.r(k, U) + V / lam
        return U, V

    def transfer(self, lam, X):
        """L_N(lam) ... L_1(lam) X for a stacked vector or column block X
        of height 2 dim."""
        X = np.asarray(X, dtype=complex)
        return np.concatenate(self._sweep(lam, X[:self.dim], X[self.dim:]))

    def blocks(self, lam, X):
        """(A X, B X, C X, D X) of T(lam) = [[A, B], [C, D]] for X with the
        basis along its first axis, from one sweep of [X, 0; 0, X]."""
        Z = np.zeros_like(X, dtype=complex)
        U, V = self._sweep(lam, np.stack([X, Z], 1), np.stack([Z, X], 1))
        return U[:, 0], U[:, 1], V[:, 0], V[:, 1]

    def probes(self, check, *copies):
        """Probe block of shape (dim, *copies, PROBES): random on the first
        exact_dim(HEADROOM[check]) basis states, zero above."""
        X = np.zeros((self.dim, *copies, PROBES), dtype=complex)
        rng = np.random.default_rng(PROBE_SEED)
        n = self.exact_dim(HEADROOM[check])
        X[:n] = rng.standard_normal(X[:n].shape) \
            + 1j * rng.standard_normal(X[:n].shape)
        return X


def qboson_residual(rep):
    """Worst relative residual over all (j, k) of
    [q_j, r_k] = eta (1 - q_j r_j) delta_jk; one raising: headroom 1.

    The sites k go in chunks of four, so that the blocks stay at
    (4, dim, PROBES) whatever N is.  Per chunk and j, all its k at once:
    q_j of the r_k V, and the r_k q_j V by one gather.  Each (j, k) is
    reduced as `_relative` reduces its terms, on the same products and sums
    as a loop over pairs."""
    V = rep.probes("qboson")
    eta, N, n = rep.qp.eta, rep.N, len(rep._up[0])
    diag = -eta * V
    res = []
    for k0 in range(0, N, 4):
        ks = range(k0, min(k0 + 4, N))
        # down[i, t]: the state t with n_k lowered, k = ks[i]; n, a zero
        # row, where n_k = 0
        down = np.full((len(ks), rep.dim), n)
        down[np.arange(len(ks))[:, None], rep._up[k0:ks.stop]] = np.arange(n)
        r_ks = lambda X: np.take(
            np.concatenate([X[:n], np.zeros_like(X[:1])]), down.ravel(),
            axis=0).reshape((len(ks),) + X.shape)
        per_site = lambda X: np.abs(X).reshape(len(ks), -1).max(axis=1)
        RV = r_ks(V)
        for j in range(N):
            qv = rep.q(j, V)
            qr = rep._coef[j][:, None] * np.take(RV, rep._up[j], axis=1)
            comm = -r_ks(qv)
            comm[:, :n] += qr  # q_j r_k V is zero from row n on
            # each r_k moves the same entries qv[:n]
            scale = np.maximum(per_site(qr), np.abs(qv[:n]).max())
            if j in ks:
                i = j - k0
                t4 = eta * qr[i]
                comm[i] += diag
                comm[i, :n] += t4
                scale[i] = np.max([scale[i], np.abs(diag).max(),
                                   np.abs(t4).max()])
            res.append(per_site(comm) / scale)
    return float(np.max(np.concatenate(res)))


def grading_violations(rep, lam):
    """Occupation shifts that A, B, C, D of T(lam) should not carry (0, -1,
    +1, 0), counted per block over the sector parts of a probe (column s
    keeps sector s); entries below 1e-14 of the largest count as zero."""
    tot = rep.occupations.sum(axis=1)
    X = rep.probes("grading")[:, :1] * (tot[:, None] == range(rep.n_max + 1))
    blocks = rep.blocks(lam, X)
    floor = 1e-14 * np.max([np.abs(Y).max() for Y in blocks])
    bad = 0
    for Y, shift in zip(blocks, (0, -1, 1, 0)):
        rows, cols = np.nonzero(np.abs(Y) > floor)
        bad += len(set((tot[rows] - cols).tolist()) - {shift})
    return bad


# ---------------------------------------------------------------------------
# R-matrix and exchange relations


def quantum_rmatrix(lam, nu, eta):
    """Quantum R-matrix with c = lam^2/(lam^2-nu^2), b = lam nu/(lam^2-nu^2).

    Related to the classical r-matrix by R = (1 + eta/2) Id - eta r and
    depending on its arguments only through lam/nu.  Array arguments
    broadcast and give a stack of shape (..., 4, 4).
    """
    d = lam**2 - nu**2
    if np.any(d == 0):
        raise ZeroDivisionError("R-matrix singular at lam^2 = nu^2")
    c = lam**2 / d
    b = lam * nu / d
    R = np.zeros(np.broadcast_shapes(np.shape(d), np.shape(eta)) + (4, 4),
                 dtype=complex)
    R[..., 0, 0] = R[..., 3, 3] = 1 + eta * c
    R[..., 1, 1] = 1 + eta
    R[..., 1, 2] = R[..., 2, 1] = eta * b
    R[..., 2, 2] = 1
    return R


def ybe_residual(lam, nu, eta):
    """Max residual of the index-contracted Yang-Baxter equation

        R_{ic,ja}(lam/nu) R_{cm,kb}(lam) R_{an,br}(nu)
            = R_{ja,kb}(nu) R_{ic,br}(lam) R_{cm,an}(lam/nu)

    over the six free indices, with sums over repeated ones; with
    R_{ab,gd} the entry at row (a, g), column (b, d), this is entry
    ((i, j, k), (m, n, r)) of R_12(lam/nu) R_13(lam) R_23(nu)
    = R_23(nu) R_13(lam) R_12(lam/nu) on C^2 (x) C^2 (x) C^2.  Arrays of
    (lam, nu, eta) give one residual per draw, from stacked 8 x 8 products
    taken pairwise.
    """
    R = quantum_rmatrix(np.stack(np.broadcast_arrays(
        np.divide(lam, nu), lam, nu)), 1.0, eta)
    R12, R23 = np.kron(R, np.eye(2)), np.kron(np.eye(2), R)
    swap = [0, 2, 1, 3, 4, 6, 5, 7]  # (i, j, k) -> (i, k, j)
    R13 = R12[..., swap, :][..., swap]
    diff = np.abs(R12[0] @ R13[1] @ R23[2] - R23[2] @ R13[1] @ R12[0])
    return diff.reshape(diff.shape[:-2] + (-1,)).max(axis=-1)


def rll_residual(rep, lam, nu):
    """Relative residual of R(lam/nu) L1(lam) L2(nu) = L2(nu) L1(lam)
    R(lam/nu) on C^2 (x) C^2 (x) H, against the larger side.

    Probes carry the two auxiliary indices (a, b) after the basis index;
    L1(lam) is T(lam) on a, L2(nu) is T(nu) on b and R acts on (a, b).
    Each auxiliary space raises once: headroom 2.
    """
    R = quantum_rmatrix(lam, nu, rep.qp.eta).reshape(2, 2, 2, 2)
    L1 = lambda X: np.stack(rep._sweep(lam, X[:, 0], X[:, 1]), 1)
    L2 = lambda X: np.stack(rep._sweep(nu, X[:, :, 0], X[:, :, 1]), 2)
    Rm = lambda X: np.einsum("ABab,habp->hABp", R, X)
    X = rep.probes("rll", 2, 2)
    lhs, rhs = Rm(L1(L2(X))), L2(L1(Rm(X)))
    return _relative([lhs - rhs], [lhs, rhs])


def trace_commutator_residual(rep, lam, nu):
    """Relative residual of [Tr L(lam), Tr L(nu)]; each trace raises once
    inside its own product: headroom 1.  It has no negative control: the
    truncation errors of the two orders cancel, and the residual stays at
    roundoff even on the top sector (headroom 0)."""
    def t(z, X):
        A, _, _, D = rep.blocks(z, X)
        return A + D

    X = rep.probes("trace_commutator")
    one, two = t(lam, t(nu, X)), t(nu, t(lam, X))
    return _relative([one - two], [one, two])


# ---------------------------------------------------------------------------
# Quantum determinant


@dataclass(frozen=True)
class QDetReport:
    pairwise_residual: float
    product_residual: float


def quantum_determinant(rep, lam):
    """The four expressions for the quantum determinant at lam,

        (sqrt(a))^(N-1) Delta = A(l)D(l sa)/sa - B(l)C(l sa)/a
                              = D(l)A(l sa)/sa - C(l)B(l sa)
                              = A(l sa)D(l)/sa - C(l sa)B(l)
                              = D(l sa)A(l)/sa - B(l sa)C(l)/a,

    compared pairwise and against the product form prod_k (1 - r_k q_k) on
    a probe block, relative to the largest of the eight scaled products and
    the product form.  In each product one factor raises once: headroom 1.
    """
    a, sa = rep.qp.alpha, rep.qp.sqrt_alpha
    V = rep.probes("qdet")
    A1, B1, C1, D1 = rep.blocks(lam, V)
    A2, B2, C2, D2 = rep.blocks(lam * sa, V)
    # second factors: column 0 through A, 1 through B, 2 through C, 3 through D
    out1 = rep.blocks(lam, np.stack([D2, C2, B2, A2], 1))
    out2 = rep.blocks(lam * sa, np.stack([D1, C1, B1, A1], 1))
    (a1d2, b1c2, c1b2, d1a2), (a2d1, b2c1, c2b1, d2a1) = (
        [Y[:, i] for i, Y in enumerate(out)] for out in (out1, out2))
    s = sa ** (1 - rep.N)
    terms = [s / sa * a1d2, s / a * b1c2, s / sa * d1a2, s * c1b2,
             s / sa * a2d1, s * c2b1, s / sa * d2a1, s / a * b2c1]
    forms = [terms[i] - terms[i + 1] for i in range(0, 8, 2)]
    product = delta_product(rep, V)
    scale = terms + [product]
    pairwise = _relative([forms[i] - forms[j]
                          for i in range(4) for j in range(i + 1, 4)], scale)
    prod_res = _relative([f - product for f in forms], scale)
    return QDetReport(pairwise_residual=pairwise, product_residual=prod_res)


def delta_product(rep, X):
    """prod_k (1 - r_k q_k) X, the quantum determinant in product form
    applied to a vector or block; exact on the whole graded space (each
    factor lowers before raising)."""
    for k in range(rep.N):
        X = X - rep.r(k, rep.q(k, X))
    return X


# ---------------------------------------------------------------------------
# Bethe states.  The eigenvalue t(nu) is an input here: the bethe suite
# takes it from the TQ quotient, t(nu) = P(nu^2)/nu^N
# (bethe.transfer_poly_roots), so this layer holds no Bethe formula.


def bethe_state(rep, roots):
    """State prod_k C(lam_k)|0>, each C(lam_k) phi read off the lower half
    of a sweep T(lam_k) [phi; 0].  The state has total occupation m and a sweep
    of it raises once, so exactness needs m <= n_max - 1 (headroom 1)."""
    roots = np.asarray(getattr(roots, "roots", roots), dtype=complex)
    m = roots.size
    if m > rep.n_max - HEADROOM["bethe_state"]:
        raise ValueError(f"need n_max >= m + {HEADROOM['bethe_state']}")
    phi = np.eye(1, rep.dim, dtype=complex)[0]  # the vacuum
    for lam in roots:
        phi = rep.transfer(lam, np.concatenate([phi, 0 * phi]))[rep.dim:]
    if np.linalg.norm(phi) < 1e-300:
        raise ValueError("Bethe state collapsed to the zero vector")
    return phi


def eigen_residual(rep, state, t, nu):
    """Relative residual of Tr L(nu) phi = t phi for the eigenvalue t at
    nu, || (A + D) phi - t phi || / max(|| (A + D) phi ||, |t| || phi ||):
    at roundoff for a Bethe state and its eigenvalue, whatever the size of
    t(nu) ~ |nu|^N."""
    A, _, _, D = rep.blocks(nu, state)
    lhs = A + D
    return float(np.linalg.norm(lhs - t * state)
                 / max(np.linalg.norm(lhs), abs(t) * np.linalg.norm(state)))


def delta_eigen_residual(rep, state, m):
    """Relative residual of Delta phi = alpha^m phi in product form."""
    return float(np.linalg.norm(delta_product(rep, state)
                                - rep.qp.alpha**m * state)
                 / np.linalg.norm(state))
