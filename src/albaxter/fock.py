"""Truncated q-boson Fock representation of the quantum chain.

Site operators on the occupation basis |n_1 ... n_N>, 0 <= n_k <= n_max:

    r_k |.. n_k ..> = |.. n_k+1 ..>          (zero at the cutoff edge)
    q_k |.. n_k ..> = (1 - alpha^{n_k}) |.. n_k-1 ..>

On states with headroom below the cutoff this realizes the algebra
[q_j, r_k] = eta (1 - q_j r_j) delta_jk exactly (the coefficients solve the
recursion c_{n+1} = alpha (eta + c_n), c_0 = 0).  The truncation edge breaks
the algebra, so every operator-identity residual here is restricted to input
columns whose occupations leave enough headroom for the raisings the
identity performs; each check documents its headroom.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .algebra import LaurentPoly, Mat2
from .bethe import transfer_eigenvalue_roots
from .qcalc import QParam

DIM_CAP = 200_000


class FockRep:
    """Multi-site truncated q-boson representation; immutable."""

    def __init__(self, N, n_max, qp, dim_cap=DIM_CAP):
        if N < 1 or n_max < 1:
            raise ValueError("need N >= 1 and n_max >= 1")
        if not isinstance(qp, QParam):
            qp = QParam(qp)
        dim = (n_max + 1) ** N
        if dim > dim_cap:
            raise ValueError(f"basis size {dim} exceeds cap {dim_cap}")
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
        self._monodromy = None

    def vacuum(self):
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def total_occupation(self):
        return self.occupations.sum(axis=1)

    def safe_columns(self, headroom):
        """Mask of basis states with n_k <= n_max - headroom at every site."""
        return (self.occupations <= self.n_max - headroom).all(axis=1)

    def local_lax(self, k):
        """L_k with operator entries, as a Laurent polynomial 2x2."""
        return Mat2(LaurentPoly({1: self.identity}),
                    LaurentPoly({0: self.q_ops[k - 1]}),
                    LaurentPoly({0: self.r_ops[k - 1]}),
                    LaurentPoly({-1: self.identity}))

    def monodromy(self):
        if self._monodromy is None:
            M = None
            for k in range(1, self.N + 1):
                Lk = self.local_lax(k)
                M = Lk if M is None else Lk @ M
            self._monodromy = OperatorMonodromy(rep=self, A=M.a11, B=M.a12,
                                                C=M.a21, D=M.a22)
        return self._monodromy


@dataclass(frozen=True)
class OperatorMonodromy:
    """Entries of L(lam) = [[A, B], [C, D]] as Laurent polynomials whose
    coefficients are sparse operators.  A and D preserve total occupation,
    B lowers it by one, C raises it by one."""

    rep: FockRep
    A: LaurentPoly
    B: LaurentPoly
    C: LaurentPoly
    D: LaurentPoly

    def entry(self, name):
        return getattr(self, name)

    def entry_at(self, name, lam):
        val = self.entry(name).eval(lam)
        if not sparse.issparse(val):  # entry degenerated to a scalar zero
            val = val * self.rep.identity
        return val

    def trace_at(self, lam):
        return self.entry_at("A", lam) + self.entry_at("D", lam)

    def at(self, lam):
        return {n: self.entry_at(n, lam) for n in "ABCD"}


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


def _aux_embed(entries, which):
    """Embed a 2x2 of operators into aux space C^2 (x) C^2 as a 4x4 block
    matrix; which=1 acts on the first factor, which=2 on the second."""
    blocks = [[None] * 4 for _ in range(4)]
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    if which == 1 and k == l:
                        blocks[2 * i + k][2 * j + l] = entries[i][j]
                    elif which == 2 and i == j:
                        blocks[2 * i + k][2 * j + l] = entries[k][l]
    return sparse.bmat(blocks, format="csr")


def rll_residual(rep, lam, nu):
    """Safe-subspace residual of R(lam/nu) L1(lam) L2(nu) = L2(nu) L1(lam) R(lam/nu).

    Columns are restricted to occupations n_k <= n_max - 2 (two raisings
    per site can occur in the quadratic products).
    """
    mono = rep.monodromy()
    Ml = mono.at(lam)
    Mn = mono.at(nu)
    El = [[Ml["A"], Ml["B"]], [Ml["C"], Ml["D"]]]
    En = [[Mn["A"], Mn["B"]], [Mn["C"], Mn["D"]]]
    L1 = _aux_embed(El, 1)
    L2 = _aux_embed(En, 2)
    R = sparse.kron(sparse.csr_matrix(quantum_rmatrix(lam, nu, rep.qp.eta)),
                    rep.identity, format="csr")
    res = R @ L1 @ L2 - L2 @ L1 @ R
    mask = np.tile(rep.safe_columns(2), 4)
    return restricted_max(res, mask)


def trace_commutator_residual(rep, lam, nu):
    """Safe-subspace residual of [Tr L(lam), Tr L(nu)] (headroom 2)."""
    mono = rep.monodromy()
    t1 = mono.trace_at(lam)
    t2 = mono.trace_at(nu)
    comm = t1 @ t2 - t2 @ t1
    return restricted_max(comm, rep.safe_columns(2))


# ---------------------------------------------------------------------------
# Quantum determinant


@dataclass(frozen=True)
class QDetReport:
    forms: tuple
    product_form: object
    pairwise_residual: float
    product_residual: float


def quantum_determinant(rep, lam):
    """The four entrywise expressions for the quantum determinant at lam,

        (sqrt(a))^(N-1) Delta = A(l)D(l sa)/sa - B(l)C(l sa)/a
                              = D(l)A(l sa)/sa - C(l)B(l sa)
                              = A(l sa)D(l)/sa - C(l sa)B(l)
                              = D(l sa)A(l)/sa - B(l sa)C(l)/a,

    together with the explicit product form prod_k (1 - r_k q_k).  Residuals
    are max matrix elements over headroom-2 input columns.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    a = rep.qp.alpha
    sa = rep.qp.sqrt_alpha
    mono = rep.monodromy()
    M1 = mono.at(lam)
    M2 = mono.at(lam * sa)
    scale = sa ** (rep.N - 1)
    forms = (
        (M1["A"] @ M2["D"] / sa - M1["B"] @ M2["C"] / a) / scale,
        (M1["D"] @ M2["A"] / sa - M1["C"] @ M2["B"]) / scale,
        (M2["A"] @ M1["D"] / sa - M2["C"] @ M1["B"]) / scale,
        (M2["D"] @ M1["A"] / sa - M2["B"] @ M1["C"] / a) / scale,
    )
    product = delta_product(rep)
    mask = rep.safe_columns(2)
    pairwise = max(restricted_max(forms[i] - forms[j], mask)
                   for i in range(4) for j in range(i + 1, 4))
    prod_res = max(restricted_max(f - product, mask) for f in forms)
    return QDetReport(forms=forms, product_form=product,
                      pairwise_residual=pairwise, product_residual=prod_res)


def delta_product(rep):
    """Quantum determinant in product form prod_k (1 - r_k q_k); exact on the
    whole truncated space (each factor lowers before raising)."""
    acc = rep.identity
    for k in range(rep.N):
        acc = acc @ (rep.identity - rep.r_ops[k] @ rep.q_ops[k])
    return acc


# ---------------------------------------------------------------------------
# Bethe states


def bethe_state(rep, roots):
    """State prod_k C(lam_k)|0>; requires m <= n_max - 2 so later operator
    applications stay inside the exact regime."""
    roots = np.asarray(getattr(roots, "roots", roots), dtype=complex)
    m = roots.size
    if m > rep.n_max - 2:
        raise ValueError("need m <= n_max - 2 headroom for Bethe states")
    mono = rep.monodromy()
    phi = rep.vacuum()
    for lam in roots:
        phi = mono.entry_at("C", lam) @ phi
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
    T = rep.monodromy().trace_at(nu)
    return float(np.linalg.norm(T @ state - t * state)
                 / np.linalg.norm(state))


def delta_eigen_residual(rep, state, m):
    """Relative residual of Delta phi = alpha^m phi in product form."""
    D = delta_product(rep)
    return float(np.linalg.norm(D @ state - rep.qp.alpha**m * state)
                 / np.linalg.norm(state))
