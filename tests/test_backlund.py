import numpy as np
import pytest

from albaxter import classical_chain as chain
from albaxter.backlund import (BTError, BTResult, SolverOptions,
                               _bracket_deviation, _li2, bt_apply,
                               canonicity_check,
                               classical_baxter_check,
                               conjugate_flow_variable, dressing_matrix,
                               generating_function, generating_function_check,
                               intertwining_residual, map_jacobian,
                               spectrality)
from albaxter.classical_chain import ChainState, conserved_quantities

from oracles import central_difference_map_jacobian, generating_function_mp


@pytest.fixture(scope="module")
def bt3():
    rng = np.random.default_rng(40)
    state = ChainState.random(3, rng)
    return bt_apply(state, 0.3)


@pytest.fixture(scope="module")
def bt_real():
    rng = np.random.default_rng(41)
    state = ChainState.random_real_positive(3, rng)
    return bt_apply(state, 0.3)


class TestDressingMatrix:
    def test_singular_at_mu(self, bt3):
        for k in range(1, 4):
            D = dressing_matrix(bt3, k, bt3.mu)
            assert abs(np.linalg.det(D)) < 1e-13

    def test_decoupled_entries(self):
        rng = np.random.default_rng(42)
        st = ChainState.random(2, rng)
        bt = bt_apply(st, 0.25)
        lam = 1.7
        D = dressing_matrix(bt, 1, lam)
        b = st.q[0]
        c = bt.target.r[-1]
        assert D[0, 0] == pytest.approx(lam**2 - 0.25**2 * (1 - b * c))
        assert D[0, 1] == pytest.approx(lam * b)
        assert D[1, 0] == pytest.approx(lam * c)
        assert D[1, 1] == 1.0

    def test_kernel_vector_spans_nullspace(self, bt3):
        for k in range(1, 4):
            D = dressing_matrix(bt3, k, bt3.mu)
            w = np.array([1.0, -bt3.mu * bt3.target.r[k - 2]])  # r~_{k-1}
            assert np.abs(D @ w).max() < 1e-13


class TestBTApply:
    def test_residual_contract(self, bt3):
        assert bt3.residual < 1e-12

    def test_conserved_quantities_invariant(self, bt3):
        drift = conserved_quantities(bt3.source).max_relative_drift(
            conserved_quantities(bt3.target))
        assert drift < 1e-10

    def test_small_mu_shift_limit(self):
        rng = np.random.default_rng(43)
        st = ChainState.random(3, rng)
        mu = 1e-3
        # the printed residual form divides by mu^2, so its double-precision
        # floor at mu=1e-3 sits near 1e-11; relax the contract accordingly
        bt = bt_apply(st, mu, SolverOptions(tol=1e-9))
        assert np.abs(bt.target.r - np.roll(st.r, -1)).max() < 50 * mu**2

    def test_intertwining_at_random_lambdas(self, bt3):
        rng = np.random.default_rng(44)
        for _ in range(8):
            lam = rng.uniform(0.5, 1.8) * np.exp(2j * np.pi * rng.uniform())
            assert intertwining_residual(bt3, lam) < 1e-10

    def test_intertwining_at_mu_itself(self, bt3):
        assert intertwining_residual(bt3, bt3.mu) < 1e-10

    def test_intertwining_sensitivity(self, bt3):
        bumped = ChainState(bt3.target.q, bt3.target.r + np.array([1e-3, 0, 0]))
        fake = type(bt3)(mu=bt3.mu, source=bt3.source, target=bumped,
                         gamma_site=bt3.gamma_site,
                         newton_iters=bt3.newton_iters, residual=np.inf)
        res = intertwining_residual(fake, 1.1)
        assert 1e-5 < res < 1.0  # O(perturbation) growth

    def test_mu_zero_rejected(self):
        with pytest.raises(BTError):
            bt_apply(ChainState.zeros(2), 0.0)

    def test_zero_r_state_rejected(self):
        st = ChainState(np.array([0.1, 0.2]), np.array([0.0, 0.3]))
        with pytest.raises(BTError):
            bt_apply(st, 0.2)

    def test_commuting_parameters_on_conserved(self):
        rng = np.random.default_rng(45)
        st = ChainState.random(3, rng)
        ab = bt_apply(bt_apply(st, 0.3).target, 0.15).target
        ba = bt_apply(bt_apply(st, 0.15).target, 0.3).target
        drift = conserved_quantities(ab).max_relative_drift(
            conserved_quantities(ba))
        assert drift < 1e-9


class TestSpectrality:
    def test_collinearity_per_site(self, bt3):
        spec = spectrality(bt3)
        assert spec.collinearity.max() < 1e-10

    def test_trace_formula(self, bt3):
        spec = spectrality(bt3)
        assert spec.trace_residual < 1e-10

    def test_gamma_product_split_exact(self, bt3):
        spec = spectrality(bt3)
        M = chain.monodromy_matrix(bt3.source, bt3.mu)
        det = np.linalg.det(M)
        # gamma * (det/gamma) = det by construction
        assert spec.gamma * (det / spec.gamma) == pytest.approx(det)

    def test_trace_formula_relative_at_n16(self):
        bt = bt_apply(ChainState.random(16, np.random.default_rng(46)), 0.3)
        M = chain.monodromy_matrix(bt.source, bt.mu)
        tr = abs(M[0, 0] + M[1, 1])
        assert spectrality(bt).trace_residual <= 1e-12 * tr

    def test_gamma_pair_are_monodromy_eigenvalues(self, bt3):
        spec = spectrality(bt3)
        M = chain.monodromy_matrix(bt3.source, bt3.mu)
        eigs = np.linalg.eigvals(M)
        other = np.linalg.det(M) / spec.gamma
        d = min(abs(eigs[0] - spec.gamma) + abs(eigs[1] - other),
                abs(eigs[1] - spec.gamma) + abs(eigs[0] - other))
        assert d < 1e-10


def _real_bt(N, seed, mu=0.3):
    return bt_apply(ChainState.random_real_positive(
        N, np.random.default_rng(seed)), mu)


class TestGeneratingFunction:
    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_closed_form_matches_quadrature_oracle(self, N):
        bt = _real_bt(N, 80 + N)
        want = generating_function_mp(bt)
        assert abs(generating_function(bt) - float(want)) \
            <= 1e-13 * abs(float(want))

    def test_gradients_match_map(self, bt_real):
        out = generating_function_check(bt_real)
        assert out["grad_residual_rtilde"] <= 1e-10
        assert out["grad_residual_r"] <= 1e-10

    def test_flow_variable_matches_mu_derivative(self, bt_real):
        assert generating_function_check(bt_real)["phi_residual"] <= 1e-10

    @pytest.mark.parametrize("N", [1, 2, 16, 64, 512])
    def test_residuals_across_sizes(self, N):
        out = generating_function_check(_real_bt(N, 90 + N))
        assert max(out.values()) <= 1e-10

    @pytest.mark.parametrize("x", [-3.7382627542514157, -0.27007002334111263,
                                   0.3, 0.95])
    def test_li2_complex_step_derivative(self, x):
        # scipy's complex spence alone is off by 1.1e-11 and 3.8e-12
        # relative at the two negative points
        got = _li2(np.array(x + 1e-30j)).imag / 1e-30
        want = -np.log1p(-x) / x
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_target_from_other_mu_fails(self):
        # r~ and q~ solved at mu = 0.35, checked as if at mu = 0.3
        st = ChainState.random_real_positive(4, np.random.default_rng(95))
        other = bt_apply(st, 0.35)
        fake = BTResult(mu=0.3 + 0j, source=st, target=other.target,
                        gamma_site=other.gamma_site, newton_iters=0,
                        residual=np.inf)
        out = generating_function_check(fake)
        assert out["grad_residual_rtilde"] >= 1e-2
        assert out["grad_residual_r"] >= 1e-2

    def test_complex_data_rejected(self, bt3):
        with pytest.raises(ValueError):
            generating_function(bt3)
        with pytest.raises(ValueError):
            generating_function_check(bt3)

    def test_phi_sum_form(self, bt_real):
        # explicit display: (2/mu) sum ln((mu^2 r~ + r)/(mu^2 r~))
        mu, r, rt = bt_real.mu, bt_real.source.r, bt_real.target.r
        want = (2.0 / mu) * np.sum(np.log((mu**2 * rt + r) / (mu**2 * rt)))
        assert conjugate_flow_variable(bt_real) == pytest.approx(want)


class TestClassicalBaxter:
    def test_trace_representation(self, bt3):
        assert classical_baxter_check(bt3) < 1e-10

    def test_exponential_branch_consistency(self, bt3):
        mu, N = bt3.mu, bt3.source.N
        M = chain.monodromy_matrix(bt3.source, mu)
        det = np.linalg.det(M)
        phi = (2.0 / mu) * np.log(det / (mu**N * bt3.gamma))
        assert mu**N * np.exp(0.5 * mu * phi) == pytest.approx(
            det / bt3.gamma, rel=1e-12)

    def test_degenerate_input_rejected(self):
        st = ChainState(np.array([0.3, 0.1]), np.array([1e-14, 0.2]))
        with pytest.raises(BTError):
            bt_apply(st, 0.2)


class TestCanonicity:
    @pytest.mark.parametrize("N", [2, 3])
    def test_bracket_preservation(self, N):
        rng = np.random.default_rng(50 + N)
        st = ChainState.random(N, rng)
        assert canonicity_check(st, 0.3) < 1e-5

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_jacobian_matches_central_differences(self, N):
        st = ChainState.random(N, np.random.default_rng(60 + N))
        exact = map_jacobian(bt_apply(st, 0.3))
        oracle = central_difference_map_jacobian(st, 0.3)
        for got, want in zip(exact, oracle):
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("N", [1, 2, 16, 64, 256])
    def test_exact_deviation(self, N):
        # the deviation follows how closely Newton's r~ meets the first
        # line, not the Jacobian: 1e-14 to 1e-13 on these states
        st = ChainState.random(N, np.random.default_rng(0))
        assert canonicity_check(st, 0.3) <= 1e-12

    def _base(self):
        st = ChainState.random(3, np.random.default_rng(70))
        bt = bt_apply(st, 0.3)
        return st, bt, 1.0 - st.q * st.r, 1.0 - bt.target.q * bt.target.r

    def test_swapped_blocks_fail(self):
        _, bt, w, wt = self._base()
        A, B, C, D = map_jacobian(bt)
        assert _bracket_deviation((A, B, C, D), w, wt) <= 1e-12
        assert _bracket_deviation((A, B, D, C), w, wt) >= 1e-3

    def test_jacobian_at_wrong_mu_fails(self):
        st, _, w, wt = self._base()
        wrong = map_jacobian(bt_apply(st, 0.35))
        assert _bracket_deviation(wrong, w, wt) >= 1e-3

    def test_nan_in_one_block_is_returned(self):
        _, bt, w, wt = self._base()
        jac = map_jacobian(bt)
        wt = wt.copy()
        wt[1] = np.nan  # enters the {q~, r~} block only
        assert np.isnan(_bracket_deviation(jac, w, wt))

    def test_singular_jacobian_is_bterror(self):
        # q = 0 and mu = 1 make dP/dr~ = [[1, -1], [-1, 1]] exactly singular
        src = ChainState(np.zeros(2), np.array([0.3, 0.4]))
        tgt = ChainState(np.array([0.1, 0.2]), np.array([0.5, 0.6]))
        fake = BTResult(mu=1.0 + 0j, source=src, target=tgt,
                        gamma_site=np.ones(2), newton_iters=0, residual=0.0)
        with pytest.raises(BTError):
            map_jacobian(fake)


class TestResultInvariants:
    def test_gamma_nonzero(self, bt3):
        assert abs(bt3.gamma) > 0
        assert np.all(np.abs(bt3.gamma_site) > 0)

    def test_underflowing_gamma_product_is_accepted(self):
        # the state `verify bt --N 512` draws: every |gamma_k| >= 0.04 at
        # mu = 0.17, yet their product, 10^-397.6, underflows to zero
        st = ChainState.random(512, np.random.default_rng(7))
        bt = bt_apply(st, 0.17)
        assert np.abs(bt.gamma_site).min() > 0.04
        assert bt.gamma == 0
        assert spectrality(bt).collinearity.max() < 1e-10

    def test_mu_path_monotone(self, bt3):
        mags = [abs(m) for m in bt3.mu_path]
        assert mags == sorted(mags)
        assert mags[-1] == pytest.approx(abs(bt3.mu))
