import numpy as np
import pytest

from albaxter import fock
from albaxter.bethe import BetheConfig, solve_bethe
from albaxter.qcalc import QParam

QP = QParam(0.5)
LAM, NU = 1.37 * np.exp(0.6j), 1.21 * np.exp(2.3j)


def _site_ops(n_max, alpha):
    """Single-site truncated r (raise) and q (lower, 1 - alpha^n) as dense."""
    n = np.arange(n_max + 1)
    r = np.diag(np.ones(n_max), -1).astype(complex)
    q = np.diag(1.0 - alpha ** n[1:], 1).astype(complex)
    return q, r


def _oracle_ops(N, n_max, alpha):
    """Dense q_k, r_k on the N-site space; site 1 is the fastest index."""
    q1, r1 = _site_ops(n_max, alpha)
    eye = np.eye(n_max + 1)

    def embed(op, k):
        out = np.eye(1)
        for site in range(N, 0, -1):
            out = np.kron(out, op if site == k else eye)
        return out

    return ([embed(q1, k) for k in range(1, N + 1)],
            [embed(r1, k) for k in range(1, N + 1)])


def _oracle_monodromy(N, n_max, alpha, lam):
    """Blocks (A, B, C, D) of L_N ... L_1 by explicit 2x2 block products."""
    qs, rs = _oracle_ops(N, n_max, alpha)
    eye = np.eye(qs[0].shape[0])
    A, B, C, D = eye, 0 * eye, 0 * eye, eye
    for q, r in zip(qs, rs):
        a, b, c, d = lam * eye, q, r, eye / lam
        A, B, C, D = (a @ A + b @ C, a @ B + b @ D,
                      c @ A + d @ C, c @ B + d @ D)
    return A, B, C, D


def _oracle_delta(N, n_max, alpha):
    """prod_k (1 - r_k q_k) as a dense matrix."""
    qs, rs = _oracle_ops(N, n_max, alpha)
    eye = np.eye(qs[0].shape[0])
    delta = eye
    for q, r in zip(qs, rs):
        delta = delta @ (eye - r @ q)
    return delta


class TestMonodromy:
    @pytest.mark.parametrize("N, n_max", [(1, 3), (2, 3), (3, 3), (2, 5)])
    def test_blocks_match_dense_oracle(self, N, n_max):
        rep = fock.FockRep(N, n_max, QP)
        for lam in (LAM, NU, 0.8):
            got = rep.monodromy_at(lam)
            want = _oracle_monodromy(N, n_max, QP.alpha, lam)
            for g, w in zip(got, want):
                assert g.shape == (rep.dim, rep.dim)
                assert np.abs(g.toarray() - w).max() <= 1e-13

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_sweep_equals_operator(self, N):
        rep = fock.FockRep(N, 4, QP)
        rng = np.random.default_rng(N)
        T = rep.transfer(LAM)
        n2 = 2 * rep.dim
        v = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
        X = rng.standard_normal((n2, 3))
        assert np.abs(rep.transfer(LAM, v) - T @ v).max() <= 1e-13
        assert np.abs(rep.transfer(LAM, X) - T @ X).max() <= 1e-13

    def test_zero_spectral_parameter_rejected(self):
        rep = fock.FockRep(2, 3, QP)
        with pytest.raises(ValueError):
            rep.transfer(0.0)

    def test_grading(self):
        rep = fock.FockRep(2, 5, QP)
        offsets = [set(fock.grading_offsets(rep, M))
                   for M in rep.monodromy_at(1.23)]
        assert offsets == [{0}, {-1}, {1}, {0}]

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            fock.FockRep(8, 5, QP)


class TestOperatorIdentities:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_residuals_at_floor(self, N):
        rep = fock.FockRep(N, 4, QP)
        assert fock.rll_residual(rep, LAM, NU) < 1e-12
        assert fock.trace_commutator_residual(rep, LAM, NU) < 1e-12
        qd = fock.quantum_determinant(rep, 1.1 + 0.3j)
        assert qd.pairwise_residual < 1e-12
        assert qd.product_residual < 1e-12

    def test_delta_product_matches_oracle(self):
        rep = fock.FockRep(2, 3, QP)
        X = np.random.default_rng(5).standard_normal((rep.dim, 4))
        want = _oracle_delta(2, 3, QP.alpha) @ X
        assert np.abs(fock.delta_product(rep, X) - want).max() <= 1e-14

    def test_headroom_restriction_does_the_work(self):
        # Control: the oracle's first qdet form misses the product form by
        # O(1) on columns at the cutoff, and matches it on headroom-2 ones.
        N, n_max, lam = 2, 4, 1.1 + 0.3j
        rep = fock.FockRep(N, n_max, QP)
        sa, a = QP.sqrt_alpha, QP.alpha
        A1, B1, _, _ = _oracle_monodromy(N, n_max, a, lam)
        _, _, C2, D2 = _oracle_monodromy(N, n_max, a, lam * sa)
        form = (A1 @ D2 / sa - B1 @ C2 / a) / sa ** (N - 1)
        diff = np.abs(form - _oracle_delta(N, n_max, a))
        assert diff.max() > 0.1
        assert diff[:, rep.safe_columns(2)].max() < 1e-12


class TestBetheStates:
    @pytest.mark.parametrize("N, m", [(3, 1), (4, 2)])
    def test_eigen_residual(self, N, m):
        cfg = solve_bethe(N, m, QP)
        rep = fock.FockRep(N, m + 3, QP)
        phi = fock.bethe_state(rep, cfg)
        for nu in (1.3 * np.exp(0.4j), 1.5 * np.exp(2.2j), 1.2j + 0.5):
            assert fock.eigen_residual(rep, phi, cfg, nu) < 1e-12
        assert fock.delta_eigen_residual(rep, phi, m) < 1e-12

    def test_state_matches_oracle(self):
        N, n_max = 3, 4
        cfg = solve_bethe(N, 2, QP)
        rep = fock.FockRep(N, n_max, QP)
        want = np.zeros(rep.dim, dtype=complex)
        want[0] = 1.0
        for lam in cfg.roots:
            want = _oracle_monodromy(N, n_max, QP.alpha, lam)[2] @ want
        assert np.abs(fock.bethe_state(rep, cfg) - want).max() <= 1e-13

    def test_off_shell_state_is_not_an_eigenvector(self):
        N, m = 3, 1
        cfg = solve_bethe(N, m, QP)
        bad = BetheConfig(N=N, m=m, qp=QP, roots=cfg.roots * 1.1 + 0.03,
                          residual=np.inf)
        rep = fock.FockRep(N, m + 3, QP)
        phi = fock.bethe_state(rep, bad)
        assert fock.eigen_residual(rep, phi, bad, 1.3 * np.exp(0.4j)) > 1e-3

    def test_headroom_required(self):
        rep = fock.FockRep(2, 3, QP)
        with pytest.raises(ValueError):
            fock.bethe_state(rep, [1.0, 1j])
