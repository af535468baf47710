"""Truncated q-boson Fock representation of the quantum chain.

Site operators on the occupation basis |n_1 ... n_N>, 0 <= n_k <= n_max:

    r_k |.. n_k ..> = |.. n_k+1 ..>          (zero at the cutoff edge)
    q_k |.. n_k ..> = (1 - alpha^{n_k}) |.. n_k-1 ..>

On states with headroom below the cutoff this realizes the algebra
[q_j, r_k] = eta (1 - q_j r_j) delta_jk exactly (the coefficients solve the
recursion c_{n+1} = alpha (eta + c_n), c_0 = 0).  The Lax operator of site k
acts on C^2 (x) H as L_k(lam) = diag(lam, 1/lam) (x) I + Q_k with
Q_k = [[0, q_k], [r_k, 0]], and every check reads the monodromy
T(lam) = L_N(lam) ... L_1(lam) = [[A, B], [C, D]] at numeric points only:
as a sweep diag * X + Q_k @ X over the sites on a stacked vector or column
block X (C(lam) phi is the lower half of T(lam) [phi; 0]), or as the
product of the N sparse L_k(lam) where operator products are needed.

The truncation edge breaks the algebra, so every operator-identity residual
is the largest entry of the identity applied to a selector of the input
columns whose occupations leave headroom for the raisings it performs,
X (Y P) rather than (X Y) P; each check documents its headroom.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .bethe import transfer_eigenvalue_roots
from .qcalc import QParam

DIM_CAP = 200_000


class FockRep:
    """Multi-site truncated q-boson representation; immutable."""

    def __init__(self, N, n_max, qp):
        if N < 1 or n_max < 1:
            raise ValueError("need N >= 1 and n_max >= 1")
        if not isinstance(qp, QParam):
            qp = QParam(qp)
        dim = (n_max + 1) ** N
        if dim > DIM_CAP:
            raise ValueError(f"basis size {dim} exceeds cap {DIM_CAP}")
        self.N = N
        self.n_max = n_max
        self.qp = qp
        self.dim = dim

        occ = np.zeros((dim, N), dtype=np.int64)
        tmp = np.arange(dim)
        for k in range(N):
            occ[:, k] = tmp % (n_max + 1)
            tmp //= (n_max + 1)
        self.occupations = occ
        self.occupations.setflags(write=False)

        alpha = qp.alpha
        self.r_ops = []
        self.q_ops = []
        for k in range(N):
            stride = (n_max + 1) ** k
            up = np.nonzero(occ[:, k] < n_max)[0]
            self.r_ops.append(sparse.csr_matrix(
                (np.ones(up.size), (up + stride, up)),
                shape=(dim, dim), dtype=complex))
            dn = np.nonzero(occ[:, k] > 0)[0]
            data = 1.0 - np.power(alpha, occ[dn, k]).astype(complex)
            self.q_ops.append(sparse.csr_matrix(
                (data, (dn - stride, dn)), shape=(dim, dim), dtype=complex))
        self.identity = sparse.identity(dim, dtype=complex, format="csr")

        # Q_k is stored on the sparsity pattern of L_k, with explicit zeros
        # in the diagonal slots, so L_k(lam) is Q_k with diag(lam, 1/lam)
        # written into those slots: one csr build per site and point.
        self.lax_offdiag = []
        self._diag_slots = []
        eye2 = sparse.identity(2 * dim, dtype=complex, format="csr")
        rows = np.arange(2 * dim)
        for q, r in zip(self.q_ops, self.r_ops):
            Q = (eye2 + sparse.bmat([[None, q], [r, None]])).tocsr()
            Q.sort_indices()
            slots = np.flatnonzero(Q.indices == np.repeat(rows, np.diff(Q.indptr)))
            Q.data[slots] = 0.0
            self.lax_offdiag.append(Q)
            self._diag_slots.append(slots)

    def vacuum(self):
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def total_occupation(self):
        return self.occupations.sum(axis=1)

    def safe_columns(self, headroom):
        """Mask of basis states with n_k <= n_max - headroom at every site."""
        return (self.occupations <= self.n_max - headroom).all(axis=1)

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


def restricted_max(M, col_mask):
    """Max matrix-element magnitude over the allowed input columns."""
    sub = M.tocsc()[:, np.nonzero(col_mask)[0]]
    return float(np.abs(sub.data).max()) if sub.nnz else 0.0


def grading_offsets(rep, M, tol=1e-14):
    """Total-occupation changes present in the sparsity pattern of M."""
    coo = M.tocoo()
    keep = np.abs(coo.data) > tol
    tot = rep.total_occupation()
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


_SWAP = sparse.csr_matrix(np.eye(4)[[0, 2, 1, 3]])


def _selector(rep, headroom, copies=1):
    """Columns of the identity on C^(copies) (x) H kept by safe_columns."""
    cols = np.flatnonzero(np.tile(rep.safe_columns(headroom), copies))
    n = cols.size
    return sparse.csr_matrix((np.ones(n), (cols, np.arange(n))),
                             shape=(copies * rep.dim, n), dtype=complex)


def _max_entry(M):
    return float(np.abs(M.data).max()) if M.nnz else 0.0


def rll_residual(rep, lam, nu):
    """Safe-subspace residual of R(lam/nu) L1(lam) L2(nu) = L2(nu) L1(lam) R(lam/nu).

    On C^2 (x) C^2 (x) H, L2(nu) = T(nu) on the second auxiliary factor and
    L1(lam) = S (I (x) T(lam)) S with S the swap of the two factors.
    Columns are restricted to occupations n_k <= n_max - 2 (two raisings
    per site can occur in the quadratic products).
    """
    Tl = rep.transfer(lam)
    Tn = rep.transfer(nu)
    S = sparse.kron(_SWAP, rep.identity, format="csr")
    L1 = S @ sparse.block_diag((Tl, Tl), format="csr") @ S
    L2 = sparse.block_diag((Tn, Tn), format="csr")
    R = sparse.kron(quantum_rmatrix(lam, nu, rep.qp.eta), rep.identity,
                    format="csr")
    P = _selector(rep, 2, copies=4)
    return _max_entry(R @ (L1 @ (L2 @ P)) - L2 @ (L1 @ (R @ P)))


def _trace(rep, lam):
    T = rep.transfer(lam)
    n = rep.dim
    return T[:n, :n] + T[n:, n:]


def trace_commutator_residual(rep, lam, nu):
    """Safe-subspace residual of [Tr L(lam), Tr L(nu)] (headroom 2)."""
    t1, t2, P = _trace(rep, lam), _trace(rep, nu), _selector(rep, 2)
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
    prod_k (1 - r_k q_k).  Residuals are max matrix elements over
    headroom-2 input columns.
    """
    a = rep.qp.alpha
    sa = rep.qp.sqrt_alpha
    A1, B1, C1, D1 = rep.monodromy_at(lam)
    A2, B2, C2, D2 = rep.monodromy_at(lam * sa)
    # the scalar factors of each term are folded into its column selector
    P = _selector(rep, 2)
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
    applied to a vector or column block; exact on the whole truncated space
    (each factor lowers before raising)."""
    for q, r in zip(rep.q_ops, rep.r_ops):
        X = X - r @ (q @ X)
    return X


# ---------------------------------------------------------------------------
# Bethe states


def bethe_state(rep, roots):
    """State prod_k C(lam_k)|0>, each C(lam_k) read off the lower half of a
    sweep T(lam_k) [phi; 0]; requires m <= n_max - 2 so later operator
    applications stay inside the exact regime."""
    roots = np.asarray(getattr(roots, "roots", roots), dtype=complex)
    m = roots.size
    if m > rep.n_max - 2:
        raise ValueError("need m <= n_max - 2 headroom for Bethe states")
    n = rep.dim
    phi = rep.vacuum()
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
