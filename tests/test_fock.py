import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from albaxter import fock, suites
from albaxter.bethe import solve_bethe, transfer_poly_roots
from albaxter.qcalc import QParam
from albaxter.report import RunConfig
from oracles import qboson_residual_loop, ybe_residual_loop

QP = QParam(0.5)
LAM, NU = 1.37 * np.exp(0.6j), 1.21 * np.exp(2.3j)


def _site_ops(n_max, alpha):
    """Single-site truncated r (raise) and q (lower, 1 - alpha^n) as dense."""
    n = np.arange(n_max + 1)
    r = np.diag(np.ones(n_max), -1)
    q = np.diag(1.0 - alpha ** n[1:], 1)
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


def _oracle_sweep(N, n_max, alpha, lam, X):
    """(A X, B X, C X, D X) by sweeping the columns [X; 0] and [0; X]
    through the explicit 2x2 block Lax operators."""
    qs, rs = _oracle_ops(N, n_max, alpha)
    out = []
    for u, v in ((X, 0 * X), (0 * X, X)):
        for q, r in zip(qs, rs):
            u, v = lam * u + q @ v, r @ u + v / lam
        out.append((u, v))
    (AX, CX), (BX, DX) = out
    return AX, BX, CX, DX


def _embedding(rep):
    """Hypercube-by-graded 0/1 matrix placing each graded basis state at
    its oracle index (site 1 fastest)."""
    base = rep.n_max + 1
    E = np.zeros((base ** rep.N, rep.dim))
    E[rep.occupations @ base ** np.arange(rep.N), np.arange(rep.dim)] = 1.0
    return E


def _oracle_delta(N, n_max, alpha):
    """prod_k (1 - r_k q_k) as a dense matrix."""
    qs, rs = _oracle_ops(N, n_max, alpha)
    eye = np.eye(qs[0].shape[0])
    delta = eye
    for q, r in zip(qs, rs):
        delta = delta @ (eye - r @ q)
    return delta


def _graded_ops(rep):
    """Dense q_k, r_k truncated to the graded space, from their action on
    occupation vectors: the raised state is found by looking up its
    occupation vector, not through FockRep's index maps."""
    index = {tuple(n): i for i, n in enumerate(rep.occupations)}
    unit = np.eye(rep.N, dtype=int)
    qs, rs = [], []
    for k in range(rep.N):
        q, r = np.zeros((2, rep.dim, rep.dim))
        for t, n in enumerate(rep.occupations):
            up = index.get(tuple(n + unit[k]))
            if up is not None:
                r[up, t] = 1.0
                q[t, up] = 1.0 - rep.qp.alpha ** (n[k] + 1)
        qs.append(q)
        rs.append(r)
    return qs, rs


def _graded_monodromy(rep, lam):
    """The truncated T(lam) on the stacked space, as the dense product of
    the graded L_k(lam)."""
    eye = np.eye(rep.dim)
    T = np.eye(2 * rep.dim)
    for q, r in zip(*_graded_ops(rep)):
        T = np.block([[lam * eye, q], [r, eye / lam]]) @ T
    return T


class TestMonodromy:
    @pytest.mark.parametrize("N, n_max", [(1, 3), (2, 3), (3, 3), (2, 5)])
    def test_blocks_match_dense_oracle(self, N, n_max):
        # on the headroom-1 columns the oracle's columns lie inside the
        # graded space and equal the graded blocks' columns there
        rep = fock.FockRep(N, n_max, QP)
        E = _embedding(rep)
        n = rep.exact_dim(1)
        for lam in (LAM, NU, 0.8):
            got = rep.blocks(lam, np.eye(rep.dim)[:, :n])
            want = _oracle_monodromy(N, n_max, QP.alpha, lam)
            for g, w in zip(got, want):
                assert g.shape == (rep.dim, n)
                assert np.abs(E @ g - w @ E[:, :n]).max() <= 1e-13

    @settings(max_examples=30)
    @given(N=st.integers(1, 4), n_max=st.integers(1, 5),
           modulus=st.floats(0.5, 2.0), phase=st.floats(0.0, 2 * np.pi))
    def test_graded_blocks_equal_oracle_on_exact_columns(self, N, n_max,
                                                         modulus, phase):
        rep = fock.FockRep(N, n_max, QP)
        lam = modulus * np.exp(1j * phase)
        E = _embedding(rep)
        cols = E[:, :rep.exact_dim(1)]
        got = rep.blocks(lam, np.eye(rep.dim)[:, :cols.shape[1]])
        want = _oracle_sweep(N, n_max, QP.alpha, lam, cols)
        for g, w in zip(got, want):
            assert np.abs(E @ g - w).max() \
                <= 1e-13 * max(1.0, modulus, 1 / modulus) ** N

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_sweep_equals_operator(self, N):
        # the sweep against the product of the dense truncated L_k, on the
        # whole stacked space (top sector included), for a vector and a
        # column block; the truncated q_k, r_k are the oracle's, restricted
        rep = fock.FockRep(N, 4, QP)
        E = _embedding(rep)
        for graded, full in zip(_graded_ops(rep),
                                _oracle_ops(N, 4, QP.alpha)):
            for g, f in zip(graded, full, strict=True):
                assert np.array_equal(g, E.T @ f @ E)
        rng = np.random.default_rng(N)
        T = _graded_monodromy(rep, LAM)
        n2 = 2 * rep.dim
        v = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
        X = rng.standard_normal((n2, 3))
        assert np.abs(rep.transfer(LAM, v) - T @ v).max() <= 1e-13
        assert np.abs(rep.transfer(LAM, X) - T @ X).max() <= 1e-13

    def test_zero_spectral_parameter_rejected(self):
        rep = fock.FockRep(2, 3, QP)
        with pytest.raises(ValueError):
            rep.transfer(0.0, np.ones(2 * rep.dim))

    def test_grading(self):
        # each block of T, applied to a state of one sector, lands in the
        # sector its shift names and nowhere else
        rep = fock.FockRep(2, 5, QP)
        assert fock.grading_violations(rep, 1.23) == 0
        tot = rep.occupations.sum(axis=1)
        for s in range(rep.n_max + 1):
            X = (tot == s).astype(complex)
            for Y, shift in zip(rep.blocks(1.23, X), (0, -1, 1, 0)):
                assert np.abs(Y[tot != s + shift]).max(initial=0.0) == 0.0

    def test_graded_dimension(self):
        rep = fock.FockRep(3, 4, QP)
        tot = rep.occupations.sum(axis=1)
        assert rep.dim == 35 and np.all(np.diff(tot) >= 0) and tot[-1] == 4
        assert len({tuple(n) for n in rep.occupations}) == rep.dim
        assert rep.exact_dim(1) == np.count_nonzero(tot <= 3) == 20
        assert fock.FockRep(8, 5, QP).dim == 1287

    @pytest.mark.parametrize("N, n_max",
                             [(1, 1), (2, 5), (3, 4), (5, 5), (6, 5)])
    def test_gather_scatter_is_bit_identical_to_oracle(self, N, n_max):
        # q_k X and r_k X by row gather and scatter against the dense
        # truncated operators, on a vector and on a block
        rep = fock.FockRep(N, n_max, QParam(0.37))
        rng = np.random.default_rng(N)
        X = rng.standard_normal((rep.dim, 3)) \
            + 1j * rng.standard_normal((rep.dim, 3))
        qs, rs = _graded_ops(rep)
        for k, (q, r) in enumerate(zip(qs, rs, strict=True)):
            for Y in (X, X[:, 0]):
                assert np.array_equal(rep.q(k, Y), q @ Y)
                assert np.array_equal(rep.r(k, Y), r @ Y)

    def test_dim_cap(self):
        # C(45, 5) = 1,221,759 graded states
        with pytest.raises(ValueError):
            fock.FockRep(40, 5, QP)


def _headroom_control(check, rep):
    return {
        "rll": lambda: fock.rll_residual(rep, LAM, NU),
        "qdet": lambda: fock.quantum_determinant(
            rep, 1.1 + 0.3j).product_residual,
        "qboson": lambda: fock.qboson_residual(rep),
    }[check]()


class TestOperatorIdentities:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_residuals_at_floor(self, N):
        rep = fock.FockRep(N, 4, QP)
        assert fock.rll_residual(rep, LAM, NU) < 1e-14
        assert fock.trace_commutator_residual(rep, LAM, NU) < 1e-14
        qd = fock.quantum_determinant(rep, 1.1 + 0.3j)
        assert qd.pairwise_residual < 1e-14
        assert qd.product_residual < 1e-14
        assert fock.qboson_residual(rep) < 1e-14
        assert fock.grading_violations(rep, 1.23) == 0

    @pytest.mark.parametrize("N, n_max, alpha", [
        (1, 1, 0.5), (1, 5, 0.5), (2, 5, 0.5), (3, 4, 0.3), (5, 5, 0.7),
        (8, 3, 0.9), (12, 2, 0.5)])
    def test_qboson_stacked_equals_pair_loop(self, N, n_max, alpha):
        rep = fock.FockRep(N, n_max, QParam(alpha))
        assert fock.qboson_residual(rep) == qboson_residual_loop(rep)

    def test_delta_product_matches_oracle(self):
        # each factor lowers before it raises: exact on every column
        rep = fock.FockRep(2, 3, QP)
        E = _embedding(rep)
        X = np.random.default_rng(5).standard_normal((rep.dim, 4))
        want = _oracle_delta(2, 3, QP.alpha) @ E @ X
        assert np.abs(E @ fock.delta_product(rep, X) - want).max() <= 1e-14

    def test_headroom_restriction_does_the_work(self):
        # Control: the first qdet form misses the product form by O(1) on
        # the top sector, and matches it on the headroom-1 prefix.
        N, n_max, lam = 2, 4, 1.1 + 0.3j
        rep = fock.FockRep(N, n_max, QP)
        sa, a = QP.sqrt_alpha, QP.alpha
        _, _, C2, D2 = rep.blocks(lam * sa, np.eye(rep.dim))
        A1D2 = rep.blocks(lam, D2)[0]
        B1C2 = rep.blocks(lam, C2)[1]
        form = (A1D2 / sa - B1C2 / a) / sa ** (N - 1)
        diff = np.abs(form - fock.delta_product(rep, np.eye(rep.dim)))
        assert diff.max() > 0.1
        assert diff[:, :rep.exact_dim(1)].max() < 1e-12

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("check", ["rll", "qdet"])
    def test_headroom_is_tight(self, N, check, monkeypatch):
        # negative control: one raising fewer than HEADROOM lets the top
        # sector's truncation into the probes.  The residuals are relative
        # to the largest term; rll's control reads 0.22-0.55 of it here.
        rep = fock.FockRep(N, 4, QP)
        assert _headroom_control(check, rep) < 1e-14
        monkeypatch.setitem(fock.HEADROOM, check, fock.HEADROOM[check] - 1)
        assert _headroom_control(check, rep) > {"rll": 0.1, "qdet": 0.5}[check]

    def test_qboson_headroom_is_tight(self, monkeypatch):
        # the same control for the suite's q-boson commutator (N=2, n_max=5)
        def residual():
            records = suites.suite_quantum(RunConfig(seed=0),
                                           np.random.default_rng(0))
            return next(r.residual for r in records
                        if r.check_id == "quantum.qboson_algebra")

        assert residual() < 1e-13
        monkeypatch.setitem(fock.HEADROOM, "qboson", 0)
        assert residual() > 0.5

    def test_trace_commutator_has_no_control(self, monkeypatch):
        rep = fock.FockRep(3, 4, QP)
        monkeypatch.setitem(fock.HEADROOM, "trace_commutator", 0)
        assert fock.trace_commutator_residual(rep, LAM, NU) < 1e-12

    def test_probes_leave_the_caller_rng_alone(self):
        # the quantum suite's later draws do not depend on N: the probes
        # come from fock's own generator
        rngs = [np.random.default_rng(3) for _ in range(2)]
        for N, rng in zip((2, 5), rngs):
            suites.suite_quantum(RunConfig(N=N), rng)
        assert rngs[0].random() == rngs[1].random()


class TestMutations:
    """Each check must fail on a representation that is wrong."""

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_rll_fails_at_perturbed_eta(self, N, monkeypatch):
        rep = fock.FockRep(N, 5, QP)
        R = fock.quantum_rmatrix
        monkeypatch.setattr(fock, "quantum_rmatrix",
                            lambda lam, nu, eta: R(lam, nu, 1.001 * eta))
        assert fock.rll_residual(rep, LAM, NU) > 1e-5

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_swapped_q_and_r_fail(self, N, monkeypatch):
        rep = fock.FockRep(N, 5, QP)
        q, r = fock.FockRep.q, fock.FockRep.r
        monkeypatch.setattr(fock.FockRep, "q", r)
        monkeypatch.setattr(fock.FockRep, "r", q)
        assert fock.qboson_residual(rep) > 0.5
        assert fock.rll_residual(rep, LAM, NU) > 0.1
        assert fock.grading_violations(rep, 1.23) > 0

    def test_suite_fails_on_swapped_q_and_r(self, monkeypatch):
        q, r = fock.FockRep.q, fock.FockRep.r
        monkeypatch.setattr(fock.FockRep, "q", r)
        monkeypatch.setattr(fock.FockRep, "r", q)
        failed = {rec.check_id for rec in suites.suite_quantum(
            RunConfig(seed=0), np.random.default_rng(0)) if not rec.passed}
        assert {"quantum.qboson_algebra", "quantum.rll",
                "quantum.occupation_grading"} <= failed


def _eigenvalue(roots, N, nu):
    """t(nu) = P(nu^2)/nu^N from the TQ quotient of the root set."""
    P = transfer_poly_roots(roots, N, QP)[0]
    return np.polynomial.polynomial.polyval(nu**2, P) / nu**N


class TestBetheStates:
    @pytest.mark.parametrize("N, m", [(3, 1), (4, 2)])
    def test_eigen_residual(self, N, m):
        cfg = solve_bethe(N, m, QP)
        rep = fock.FockRep(N, m + 3, QP)
        phi = fock.bethe_state(rep, cfg)
        for nu in (1.3 * np.exp(0.4j), 1.5 * np.exp(2.2j), 1.2j + 0.5):
            t = _eigenvalue(cfg.roots, N, nu)
            assert fock.eigen_residual(rep, phi, t, nu) < 1e-12
        assert fock.delta_eigen_residual(rep, phi, m) < 1e-12

    def test_state_matches_oracle(self):
        N, n_max = 3, 4
        cfg = solve_bethe(N, 2, QP)
        rep = fock.FockRep(N, n_max, QP)
        want = np.zeros((n_max + 1) ** N, dtype=complex)
        want[0] = 1.0
        for lam in cfg.roots:
            want = _oracle_monodromy(N, n_max, QP.alpha, lam)[2] @ want
        got = _embedding(rep) @ fock.bethe_state(rep, cfg)
        assert np.abs(got - want).max() <= 1e-13

    def test_off_shell_state_is_not_an_eigenvector(self):
        N, m = 3, 1
        cfg = solve_bethe(N, m, QP)
        bad = cfg.roots * 1.1 + 0.03
        rep = fock.FockRep(N, m + 3, QP)
        phi = fock.bethe_state(rep, bad)
        nu = 1.3 * np.exp(0.4j)
        assert fock.eigen_residual(rep, phi, _eigenvalue(bad, N, nu), nu) \
            > 1e-3

    def test_headroom_required(self):
        rep = fock.FockRep(2, 2, QP)
        with pytest.raises(ValueError):
            fock.bethe_state(rep, [1.0, 1j])

    @pytest.mark.parametrize("N, m", [(2, 1), (3, 1), (4, 2)])
    def test_headroom_is_tight(self, N, m, monkeypatch):
        # negative control: at n_max = m the sweep of Tr L(nu) over the
        # state leaves the graded space
        cfg = solve_bethe(N, m, QP)
        monkeypatch.setitem(fock.HEADROOM, "bethe_state", 0)
        rep = fock.FockRep(N, m, QP)
        phi = fock.bethe_state(rep, cfg)
        nu = 1.3 * np.exp(0.4j)
        t = _eigenvalue(cfg.roots, N, nu)
        assert fock.eigen_residual(rep, phi, t, nu) > 0.1


def _ybe_draws(n, seed):
    rng = np.random.default_rng(seed)
    return np.transpose([(*suites._sample_spectral_pair(rng),
                          rng.standard_normal() + 1j * rng.standard_normal())
                         for _ in range(n)])


class TestStackedYangBaxter:
    """All draws of the Yang-Baxter check in one stacked contraction,
    against the per-draw loop it replaced."""

    def test_stacked_equals_draw_loop(self):
        for seed in range(20):
            lam, nu, eta = _ybe_draws(16, seed)
            got = fock.ybe_residual(lam, nu, eta)
            want, scale = ybe_residual_loop(lam, nu, eta)
            assert got.shape == (16,)
            assert (np.abs(got - want) <= 4 * np.spacing(scale)).all()
            assert got.max() < 1e-13

    def test_contraction_on_generic_tensors(self, monkeypatch):
        # an R-matrix with no symmetry, so that a wrong index order in the
        # pairwise path cannot hide; the equation then fails by O(1), the
        # same on both paths
        R, M = fock.quantum_rmatrix, np.arange(16).reshape(4, 4) * (1 - 2j)
        monkeypatch.setattr(fock, "quantum_rmatrix", lambda lam, nu, eta: R(
            lam, nu, eta) + 0.01 * np.asarray(lam)[..., None, None] * M)
        lam, nu, eta = _ybe_draws(8, 3)
        got = fock.ybe_residual(lam, nu, eta)
        want, scale = ybe_residual_loop(lam, nu, eta)
        assert (want > 0.1).all()
        assert (np.abs(got - want) <= 4 * np.spacing(scale)).all()

    def test_scalar_draw_and_nan(self):
        lam, nu, eta = _ybe_draws(4, 5)
        assert np.ndim(fock.ybe_residual(lam[0], nu[0], eta[0])) == 0
        assert fock.ybe_residual(lam[0], nu[0], eta[0]) \
            == fock.ybe_residual(lam[:1], nu[:1], eta[:1])[0]
        nu[2] = np.nan
        with np.errstate(invalid="ignore"):
            res = fock.ybe_residual(lam, nu, eta)
        assert np.isnan(res[2]) and np.isfinite(np.delete(res, 2)).all()
