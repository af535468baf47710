"""Graded q-boson Fock representation of the quantum chain.

The basis is the occupation vectors |n_1 ... n_N> with total occupation
n_1 + ... + n_N <= n_max, ordered by total occupation; it has
C(N + n_max, N) states.  Site operators:

    r_k |.. n_k ..> = |.. n_k+1 ..>          (zero on the top sector)
    q_k |.. n_k ..> = (1 - alpha^{n_k}) |.. n_k-1 ..>

Below the top sector this realizes the algebra
[q_j, r_k] = eta (1 - q_j r_j) delta_jk exactly (the coefficients solve the
recursion c_{n+1} = alpha (eta + c_n), c_0 = 0).  The Lax operator of site k
acts on C^2 (x) H as L_k(lam) = diag(lam, 1/lam) (x) I + Q_k with
Q_k = [[0, q_k], [r_k, 0]], and every check reads the monodromy
T(lam) = L_N(lam) ... L_1(lam) = [[A, B], [C, D]] at numeric points only:
as a sweep diag * X + Q_k @ X over the sites on a stacked vector or column
block X (C(lam) phi is the lower half of T(lam) [phi; 0]), or as the
product of the N sparse L_k(lam) where operator products are needed.

L_k conserves the occupation minus the number of auxiliary spaces in their
second state, so T(lam) raises the occupation by at most one per auxiliary
space.  An identity that carries h raisings is therefore exact on the first
exact_dim(h) = C(N + n_max - h, N) basis states, and its residual is the
largest entry of the identity applied to that prefix of the input columns,
X (Y P) rather than (X Y) P, with h = HEADROOM[check].
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .bethe import transfer_eigenvalue_roots

DIM_CAP = 200_000

# Raisings each identity carries.  One step lower every identity but the
# trace commutator is off by O(1) (tests/test_fock.py holds the controls).
HEADROOM = dict(rll=2, qdet=1, trace_commutator=1, qboson=1, bethe_state=1)


class FockRep:
    """Multi-site q-boson representation truncated at total occupation
    n_max, at the deformation qp (a QParam); immutable."""

    def __init__(self, N, n_max, qp):
        # deferred: a module-level scipy.sparse import adds ~0.3 s to
        # `import albaxter`
        from scipy import sparse
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
        self.occupations.setflags(write=False)

        # raising n_k adds one to S_i for i >= k; r_k is zero on the top
        # sector, so only the first exact_dim(1) states are raised
        below = np.arange(self.exact_dim(1))
        step = terms[sites, S[below] + 1] - terms[sites, S[below]]
        raised = below[:, None] + np.cumsum(step[:, ::-1], axis=1)[:, ::-1]
        # Every csr array is written directly from these maps: row t of q_k
        # holds 1 - alpha^(n_k+1) at column up[t], row up[t] of r_k holds 1
        # at column t.  Q_k is stored on the sparsity pattern of L_k, with
        # explicit zeros in the diagonal slots, so L_k(lam) is Q_k with
        # diag(lam, 1/lam) written into those slots: one csr build per site
        # and point.  Top row t of L_k holds its diagonal slot, then q_k if
        # t is raised; bottom row dim + j holds r_k if j is a raised state,
        # then its diagonal slot.
        nb = below.size
        q_ptr = np.minimum(np.arange(dim + 1), nb)
        top = np.where(np.arange(dim) < nb, 2, 1)
        self.r_ops, self.q_ops, self.lax_offdiag, self._diag_slots = \
            [], [], [], []
        for up, n_k in zip(raised.T, self.occupations[below].T):
            q_data = (1.0 - qp.alpha ** (n_k + 1)).astype(complex)
            self.q_ops.append(sparse.csr_matrix((q_data, up, q_ptr),
                                                shape=(dim, dim)))
            has_r = np.zeros(dim, dtype=np.int64)
            has_r[up] = 1
            self.r_ops.append(sparse.csr_matrix(
                (np.ones(nb, dtype=complex), np.argsort(up),
                 np.concatenate([[0], np.cumsum(has_r)])), shape=(dim, dim)))

            counts = np.concatenate([top, 1 + has_r])
            indptr = np.concatenate([[0], np.cumsum(counts)])
            slots = np.concatenate([indptr[:dim], indptr[dim + 1:] - 1])
            indices = np.empty(indptr[-1], dtype=np.int64)
            data = np.zeros(indptr[-1], dtype=complex)
            indices[slots] = np.arange(2 * dim)
            indices[indptr[:nb] + 1] = dim + up
            data[indptr[:nb] + 1] = q_data
            indices[indptr[dim + up]] = below
            data[indptr[dim + up]] = 1.0
            self.lax_offdiag.append(sparse.csr_matrix(
                (data, indices, indptr), shape=(2 * dim, 2 * dim)))
            self._diag_slots.append(slots)
        self.identity = sparse.identity(dim, dtype=complex, format="csr")

    def exact_dim(self, headroom):
        """Number of basis states with total occupation <= n_max - headroom."""
        return comb(self.N + self.n_max - headroom, self.N)

    def transfer(self, lam, X=None):
        """L_N(lam) ... L_1(lam) X on C^2 (x) H.

        X is a dense stacked vector or column block of height 2 dim, swept
        site by site as diag * X + Q_k @ X; with X=None the monodromy
        operator itself is returned as a (2 dim) x (2 dim) csr matrix.
        """
        if lam == 0:
            raise ValueError("lam must be nonzero")
        d = np.repeat(np.array([lam, 1.0 / lam], dtype=complex), self.dim)
        if X is None:
            T = None
            for Q, slots in zip(self.lax_offdiag, self._diag_slots):
                L = Q.copy()
                L.data[slots] = d
                T = L if T is None else L @ T
            return T
        X = np.asarray(X, dtype=complex)
        if X.ndim == 2:
            d = d[:, None]
        for Q in self.lax_offdiag:
            X = d * X + Q @ X
        return X

    def monodromy_at(self, lam):
        """The dim x dim csr blocks (A, B, C, D) of T(lam) = [[A, B], [C, D]].
        A and D preserve total occupation, B lowers it by one, C raises it
        by one."""
        T = self.transfer(lam)
        n = self.dim
        return T[:n, :n], T[:n, n:], T[n:, :n], T[n:, n:]


def grading_offsets(rep, M):
    """Total-occupation changes carried by the entries of M above 1e-14."""
    coo = M.tocoo()
    keep = np.abs(coo.data) > 1e-14
    tot = rep.occupations.sum(axis=1)
    return sorted(set((tot[coo.row[keep]] - tot[coo.col[keep]]).tolist()))


# ---------------------------------------------------------------------------
# R-matrix and exchange relations


def quantum_rmatrix(lam, nu, eta):
    """Quantum R-matrix with c = lam^2/(lam^2-nu^2), b = lam nu/(lam^2-nu^2).

    Related to the classical r-matrix by R = (1 + eta/2) Id - eta r and
    depending on its arguments only through lam/nu.
    """
    d = lam**2 - nu**2
    if abs(d) == 0:
        raise ZeroDivisionError("R-matrix singular at lam^2 = nu^2")
    c = lam**2 / d
    b = lam * nu / d
    return np.array([
        [1 + eta * c, 0, 0, 0],
        [0, 1 + eta, eta * b, 0],
        [0, eta * b, 1, 0],
        [0, 0, 0, 1 + eta * c],
    ], dtype=complex)


def _as4(R):
    # T[a, b, g, d] with the Kronecker labelling T_{ab,gd} = A_ab B_gd
    return R.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)


def ybe_residual(lam, nu, eta):
    """Max residual of the index-contracted Yang-Baxter equation

        R_{ic,ja}(lam/nu) R_{cm,kb}(lam) R_{an,br}(nu)
            = R_{ja,kb}(nu) R_{ic,br}(lam) R_{cm,an}(lam/nu)

    over the six free indices, with sums over repeated ones.
    """
    R1 = _as4(quantum_rmatrix(lam / nu, 1.0, eta))
    R2 = _as4(quantum_rmatrix(lam, 1.0, eta))
    R3 = _as4(quantum_rmatrix(nu, 1.0, eta))
    lhs = np.einsum("icja,cmkb,anbr->ijkmnr", R1, R2, R3)
    rhs = np.einsum("jakb,icbr,cman->ijkmnr", R3, R2, R1)
    return float(np.abs(lhs - rhs).max())


_SWAP = np.eye(4)[[0, 2, 1, 3]]  # swap of the factors of C^2 (x) C^2


def _selector(rep, check, copies=1):
    """Columns of the identity on C^(copies) (x) H keeping, in each copy,
    the basis states on which `check` is exact (its HEADROOM prefix)."""
    from scipy import sparse  # deferred, as in FockRep.__init__
    n = rep.exact_dim(HEADROOM[check])
    rows = (rep.dim * np.arange(copies)[:, None] + np.arange(n)).ravel()
    return sparse.csr_matrix((np.ones(rows.size), (rows, np.arange(rows.size))),
                             shape=(copies * rep.dim, rows.size), dtype=complex)


def _max_entry(M):
    return float(np.abs(M.data).max()) if M.nnz else 0.0


def rll_residual(rep, lam, nu):
    """Residual of R(lam/nu) L1(lam) L2(nu) = L2(nu) L1(lam) R(lam/nu).

    On C^2 (x) C^2 (x) H, L2(nu) = T(nu) on the second auxiliary factor and
    L1(lam) = S (I (x) T(lam)) S with S the swap of the two factors.  Each
    auxiliary space raises once: headroom 2.
    """
    from scipy import sparse  # deferred, as in FockRep.__init__
    Tl = rep.transfer(lam)
    Tn = rep.transfer(nu)
    S = sparse.kron(_SWAP, rep.identity, format="csr")
    L1 = S @ sparse.block_diag((Tl, Tl), format="csr") @ S
    L2 = sparse.block_diag((Tn, Tn), format="csr")
    R = sparse.kron(quantum_rmatrix(lam, nu, rep.qp.eta), rep.identity,
                    format="csr")
    P = _selector(rep, "rll", copies=4)
    return _max_entry(R @ (L1 @ (L2 @ P)) - L2 @ (L1 @ (R @ P)))


def trace_commutator_residual(rep, lam, nu):
    """Residual of [Tr L(lam), Tr L(nu)]; each trace raises once inside its
    own product: headroom 1.  It has no negative control: the truncation
    errors of the two orders cancel, and the residual stays at roundoff
    even on the top sector (headroom 0)."""
    n = rep.dim
    t1, t2 = (T[:n, :n] + T[n:, n:] for T in map(rep.transfer, (lam, nu)))
    P = _selector(rep, "trace_commutator")
    return _max_entry(t1 @ (t2 @ P) - t2 @ (t1 @ P))


# ---------------------------------------------------------------------------
# Quantum determinant


@dataclass(frozen=True)
class QDetReport:
    pairwise_residual: float
    product_residual: float


def quantum_determinant(rep, lam):
    """The four entrywise expressions for the quantum determinant at lam,

        (sqrt(a))^(N-1) Delta = A(l)D(l sa)/sa - B(l)C(l sa)/a
                              = D(l)A(l sa)/sa - C(l)B(l sa)
                              = A(l sa)D(l)/sa - C(l sa)B(l)
                              = D(l sa)A(l)/sa - B(l sa)C(l)/a,

    compared pairwise and against the explicit product form
    prod_k (1 - r_k q_k).  Residuals are max matrix elements over the
    headroom-1 input columns: in each product one factor raises once.
    """
    a = rep.qp.alpha
    sa = rep.qp.sqrt_alpha
    A1, B1, C1, D1 = rep.monodromy_at(lam)
    A2, B2, C2, D2 = rep.monodromy_at(lam * sa)
    # the scalar factors of each term are folded into its column selector
    P = _selector(rep, "qdet")
    P1 = P / sa ** (rep.N - 1)
    Ps = P1 / sa
    Pa = P1 / a
    forms = (
        A1 @ (D2 @ Ps) - B1 @ (C2 @ Pa),
        D1 @ (A2 @ Ps) - C1 @ (B2 @ P1),
        A2 @ (D1 @ Ps) - C2 @ (B1 @ P1),
        D2 @ (A1 @ Ps) - B2 @ (C1 @ Pa),
    )
    product = delta_product(rep, P)
    pairwise = np.max([_max_entry(forms[i] - forms[j])
                       for i in range(4) for j in range(i + 1, 4)])
    prod_res = np.max([_max_entry(f - product) for f in forms])
    return QDetReport(pairwise_residual=float(pairwise),
                      product_residual=float(prod_res))


def delta_product(rep, X):
    """prod_k (1 - r_k q_k) X, the quantum determinant in product form
    applied to a vector or column block; exact on the whole graded space
    (each factor lowers before raising)."""
    for q, r in zip(rep.q_ops, rep.r_ops):
        X = X - r @ (q @ X)
    return X


# ---------------------------------------------------------------------------
# Bethe states


def bethe_state(rep, roots):
    """State prod_k C(lam_k)|0>, each C(lam_k) read off the lower half of a
    sweep T(lam_k) [phi; 0].  The state has total occupation m and a sweep
    of it raises once, so exactness needs m <= n_max - 1 (headroom 1)."""
    roots = np.asarray(getattr(roots, "roots", roots), dtype=complex)
    m = roots.size
    if m > rep.n_max - HEADROOM["bethe_state"]:
        raise ValueError(f"need n_max >= m + {HEADROOM['bethe_state']}")
    n = rep.dim
    phi = np.eye(1, n, dtype=complex)[0]  # the vacuum
    for lam in roots:
        phi = rep.transfer(lam, np.concatenate([phi, np.zeros(n)]))[n:]
    if np.linalg.norm(phi) < 1e-300:
        raise ValueError("Bethe state collapsed to the zero vector")
    return phi


def eigen_residual(rep, state, roots, nu):
    """Relative residual || Tr L(nu) phi - t(nu) phi || / || phi ||, with the
    eigenvalue t(nu) from the transfer-eigenvalue product formula."""
    roots = np.asarray(getattr(roots, "roots", roots), dtype=complex)
    if nu == 0 or np.any(np.abs(roots**2 - nu**2) < 1e-9):
        raise ValueError("nu collides with a Bethe root or zero")
    t = transfer_eigenvalue_roots(roots, rep.N, rep.qp, nu)
    n = rep.dim
    # sweep the columns [phi; 0] and [0; phi]: A phi on top, D phi below
    Y = rep.transfer(nu, np.kron(np.eye(2), np.reshape(state, (n, 1))))
    return float(np.linalg.norm(Y[:n, 0] + Y[n:, 1] - t * state)
                 / np.linalg.norm(state))


def delta_eigen_residual(rep, state, m):
    """Relative residual of Delta phi = alpha^m phi in product form."""
    return float(np.linalg.norm(delta_product(rep, state)
                                - rep.qp.alpha**m * state)
                 / np.linalg.norm(state))
