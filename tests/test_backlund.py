import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from albaxter import backlund, classical_chain as chain
from albaxter.backlund import (BT_CACHE_SIZE, BTError, BTResult, SolverOptions,
                               _bracket_bands, _li2, bt_apply,
                               canonicity_check,
                               classical_baxter_check,
                               conjugate_flow_variable, generating_function,
                               generating_function_check,
                               intertwining_residual, spectrality)
from albaxter.classical_chain import ChainState, conserved_quantities

from oracles import (bracket_bands_ref, bracket_deviation,
                     central_difference_map_jacobian, dense_canonicity,
                     dense_polish_step, dressing_matrix,
                     gamma_least_squares_ref, generating_function_mp,
                     intertwining_loop, intertwining_residual_ref, li2_mp,
                     log_det_gamma_ref, map_jacobian, site_partials_loop)


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
                         collinearity=bt3.collinearity,
                         newton_iters=bt3.newton_iters, residual=np.inf)
        res = intertwining_residual(fake, 1.1)
        assert 1e-5 < res < 1.0  # O(perturbation) growth

    @pytest.mark.parametrize("N", (1, 2, 3, 16))
    def test_intertwining_at_an_array_of_lambdas(self, N):
        # one stacked call equals the scalar calls, and stays within 4 ulp
        # (of the largest product entry) of the per-site loop; at N <= 2
        # the neighbouring sites k - 1 and k + 1 coincide
        rng = np.random.default_rng(45 + N)
        bt = bt_apply(ChainState.random(N, rng), 0.3)
        lams = rng.uniform(0.5, 1.5, 8) * np.exp(2j * np.pi * rng.uniform(
            size=8))
        lams = np.append(lams, [bt.mu, 0.9 + 0.4j])
        got = intertwining_residual(bt, lams)
        assert got.shape == lams.shape
        for lam, res in zip(lams, got):
            assert intertwining_residual(bt, lam) == res
            want, scale = intertwining_loop(bt, lam)
            assert abs(res - want) <= 4 * np.spacing(scale)
        grid = intertwining_residual(bt, lams.reshape(2, 5))
        assert np.array_equal(grid, got.reshape(2, 5))

    def test_intertwining_rejects_zero_lambda(self, bt3):
        with pytest.raises(ValueError):
            intertwining_residual(bt3, np.array([1.1, 0.0]))

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

    @pytest.mark.parametrize("N", [1, 2, 16, 256])
    def test_stacked_partials_match_per_slot_loop(self, N):
        # within 4 ulps of each slot's largest partial: the stacked call
        # makes the unstepped slots complex, the loop keeps them real
        _, r, _, rt, mu = backlund._require_real_positive(_real_bt(N, 90 + N))
        slots = (np.roll(r, -1), r, rt, np.roll(rt, 1), mu)
        got = backlund._site_partials(*slots)
        assert got.shape == (5, N)
        for g, w in zip(got, site_partials_loop(*slots)):
            assert np.abs(g - w).max() <= 4 * np.spacing(np.abs(w).max())

    @pytest.mark.parametrize("x", [-3.7382627542514157, -0.27007002334111263,
                                   0.3, 0.95])
    def test_li2_complex_step_derivative(self, x):
        # one point on each of the four paths through _li2: Landen map with
        # and without the reflection, the series with and without it
        got = _li2(np.array(x + 1e-30j)).imag / 1e-30
        want = -np.log1p(-x) / x
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_target_from_other_mu_fails(self):
        # r~ and q~ solved at mu = 0.35, checked as if at mu = 0.3
        st = ChainState.random_real_positive(4, np.random.default_rng(95))
        other = bt_apply(st, 0.35)
        fake = BTResult(mu=0.3 + 0j, source=st, target=other.target,
                        gamma_site=other.gamma_site,
                        collinearity=other.collinearity, newton_iters=0,
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


# x in [-1e3, 1 - 1e-12]: the Landen map (reflected below x = -1), the
# series, and the reflection up to 1 - 1e-12, plus uniform draws
LI2_GRID = np.concatenate([
    -np.logspace(3, -12, 300), np.logspace(-12, np.log10(0.5), 200),
    1.0 - np.logspace(np.log10(0.5), -12, 300),
    np.random.default_rng(7).uniform(-10.0, 1.0, 200)])


def _li2_errors(xs):
    """Relative errors of _li2 and of its complex-step derivative against
    li2_mp, one entry per x; an exact zero reads 0."""
    xs = np.asarray(xs, dtype=float)
    val = _li2(xs)
    der = _li2(xs + 1e-30j).imag / 1e-30
    want = np.array([[float(w) for w in li2_mp(x)] for x in xs])
    rel = lambda got, w: np.abs(got - w) / np.where(w == 0, 1.0, np.abs(w))
    return rel(val, want[:, 0]), rel(der, want[:, 1])


class TestLi2:
    # measured floors over LI2_GRID and the seam points: 4.1e-16 relative
    # in value and 6.4e-16 in the derivative, and a step of 1.23 ulps
    # across a seam; the bounds leave a margin of 2.3x or more
    VALUE_REL, DERIV_REL, STEP_ULPS = 1e-15, 1.5e-15, 3

    def test_matches_mpmath_over_the_domain(self):
        ev, ed = _li2_errors(LI2_GRID)
        assert ev.max() <= self.VALUE_REL
        assert ed.max() <= self.DERIV_REL

    @pytest.mark.parametrize("seam", [-1.0, 0.0, 0.5])
    def test_seams(self, seam):
        # x = -1 is z = 1/2 of the Landen map, x = 0 splits Landen from the
        # series, x = 1/2 starts the reflection: each point on either side
        # matches mpmath, and so does the step across the seam
        near = 1e-300 if seam == 0 else abs(np.spacing(seam))
        d = np.array([1e-6, 1e-12, near])
        xs = np.concatenate([seam - d, [seam], seam + d[::-1]])
        ev, ed = _li2_errors(xs)
        assert ev.max() <= self.VALUE_REL
        assert ed.max() <= self.DERIV_REL
        # no jump: the step between the nearest points on either side
        lo, hi = xs[2], xs[4]
        step = _li2(np.array(hi)) - _li2(np.array(lo))
        step_want = float(li2_mp(hi)[0] - li2_mp(lo)[0])
        ulp = np.spacing(max(abs(float(li2_mp(x)[0])) for x in (lo, hi)))
        assert abs(step - step_want) <= self.STEP_ULPS * ulp

    def test_real_input_returns_float64(self):
        for x in (np.array([-2.0, -0.5, 0.0, 0.3, 0.9]), np.float64(-4.0),
                  np.linspace(-3.0, 0.99, 12).reshape(3, 4)):
            out = _li2(x)
            assert out.dtype == np.float64 and out.shape == np.shape(x)
        assert _li2(np.array([0.3 + 1e-30j])).dtype == np.complex128

    def test_series_coefficients_are_exact(self):
        # B_2k / (2k+1)! rounded once from mpmath's exact Bernoulli fractions
        want = [float(Fraction(*mpmath.bernfrac(2 * k))
                      / math.factorial(2 * k + 1)) for k in range(1, 11)]
        assert list(backlund._LI2_SERIES) == want


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
        assert bracket_deviation((A, B, C, D), w, wt) <= 1e-12
        assert bracket_deviation((A, B, D, C), w, wt) >= 1e-3

    def test_jacobian_at_wrong_mu_fails(self):
        st, _, w, wt = self._base()
        wrong = map_jacobian(bt_apply(st, 0.35))
        assert bracket_deviation(wrong, w, wt) >= 1e-3

    def test_nan_in_one_block_is_returned(self):
        _, bt, w, wt = self._base()
        jac = map_jacobian(bt)
        wt = wt.copy()
        wt[1] = np.nan  # enters the {q~, r~} block only
        assert np.isnan(bracket_deviation(jac, w, wt))

    GRID = [(N, mu) for N in (1, 2, 3, 16, 64)
            for mu in (0.3, 1.1, 0.3 + 0.2j)]

    @staticmethod
    def _mutants(bt):
        """The solved map with r~ and q~ moved by 1e-9 relative noise, and
        checked at mu + 1e-5: maps the check must flag."""
        g = np.random.default_rng(80).standard_normal(bt.source.N)
        t = bt.target
        return {"rt": dataclasses.replace(
                    bt, target=ChainState(t.q, t.r * (1 + 1e-9 * g))),
                "qt": dataclasses.replace(
                    bt, target=ChainState(t.q * (1 + 1e-9 * g), t.r)),
                "mu": dataclasses.replace(bt, mu=bt.mu + 1e-5)}

    @pytest.mark.parametrize("N, mu", GRID)
    def test_band_and_dense_forms_flag_the_same_maps(self, N, mu):
        # N <= 2 aliases the bands of the dense blocks.  Exact maps read
        # <= 7e-15 banded and <= 2e-12 dense here; the dense floor grows
        # with ||J^{-1}||.  The mutants read >= 1.4e-10 in both forms.
        bt = bt_apply(ChainState.random(N, np.random.default_rng(N)), mu)
        assert _bracket_bands(bt) <= 1e-13
        assert dense_canonicity(bt) <= 1e-11
        for name, mutant in self._mutants(bt).items():
            assert _bracket_bands(mutant) > 1e-11, name
            assert dense_canonicity(mutant) > 1e-11, name

    def test_nan_in_wtilde_is_returned(self):
        _, bt, _, _ = self._base()
        qt = bt.target.q.copy()
        qt[1] = np.nan  # w~_1 = 1 - q~_1 r~_1
        nan_map = dataclasses.replace(bt, target=ChainState(qt, bt.target.r))
        assert np.isnan(_bracket_bands(nan_map))

    def test_no_inverse_amplifies_the_roundoff(self):
        # the dense blocks multiply the map's roundoff by ||J^{-1}||: 3.1e-8
        # on this state; the band identities read 4.4e-15
        st = ChainState.random(64, np.random.default_rng(8))
        assert dense_canonicity(bt_apply(st, 1.1)) > 1e-9
        assert canonicity_check(st, 1.1) <= 1e-11

    def test_memory_is_linear_in_N(self, cold_cache):
        # no N x N array: a dense block at N = 4096 alone takes 256 MB
        st = ChainState.random(4096, np.random.default_rng(0))
        tracemalloc.start()
        try:
            deviation = canonicity_check(st, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert deviation <= 1e-11
        assert peak < 10 * 2**20

    def test_singular_jacobian_is_bterror(self):
        # q = 0 and mu = 1 make dP/dr~ = [[1, -1], [-1, 1]] exactly singular
        src = ChainState(np.zeros(2), np.array([0.3, 0.4]))
        tgt = ChainState(np.array([0.1, 0.2]), np.array([0.5, 0.6]))
        fake = BTResult(mu=1.0 + 0j, source=src, target=tgt,
                        gamma_site=np.ones(2), collinearity=np.zeros(2),
                        newton_iters=0, residual=0.0)
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
        # det L / gamma = exp(ln det - ln gamma) overflows; the report keeps
        # the non-finite value, and no warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = spectrality(bt)
        assert spec.collinearity.max() < 1e-10
        assert not np.isfinite(spec.det_over_gamma)


@pytest.fixture
def cold_cache():
    """An empty memo of solved maps, emptied again afterwards, for tests
    that count solver calls or entries."""
    backlund._solved.clear()
    yield backlund._solved
    backlund._solved.clear()


@pytest.fixture
def solver_calls(monkeypatch, cold_cache):
    """Counts of the calls of `_polish` and `_gamma_least_squares`."""
    calls = Counter()
    for name in ("_polish", "_gamma_least_squares"):
        def counted(*args, _fn=getattr(backlund, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(backlund, name, counted)
    return calls


class TestSolvedMapMemo:
    def _state(self, N=16, seed=90):
        return ChainState.random(N, np.random.default_rng(seed))

    def test_sweep_point_solves_once(self, solver_calls):
        # the calls of one `albaxter bt --sweep` point
        st = self._state()
        bt = bt_apply(st, 0.3)
        spectrality(bt)
        canonicity_check(st, 0.3)
        assert solver_calls == {"_polish": 1, "_gamma_least_squares": 1}

    def test_bt_suite_canonicity_reuses_its_map(self, solver_calls):
        # bt_apply at mu, the three solves of commuting_parameters, then
        # canonicity_check at mu, as suite_bt runs them
        st, opts = self._state(), SolverOptions()
        bt = bt_apply(st, 0.3, opts)
        bt_apply(bt.target, 0.17, opts)
        bt_apply(bt_apply(st, 0.17, opts).target, 0.3, opts)
        canonicity_check(st, 0.3, opts=opts)
        assert solver_calls["_polish"] == 4

    def test_failure_raises_on_every_call(self, solver_calls, cold_cache):
        st, opts = self._state(), SolverOptions(tol=1e-30)
        for _ in range(3):
            with pytest.raises(BTError):
                bt_apply(st, 0.3, opts)
        assert solver_calls["_polish"] == 3 and not cold_cache

    def test_key_is_bits_of_state_type_of_mu_and_tol(self, cold_cache):
        st = self._state()
        a, b = bt_apply(st, 0.3), bt_apply(st, 0.3 + 0j)
        assert a is not b and len(cold_cache) == 2
        # a numpy scalar runs other scalar arithmetic than a Python float
        assert bt_apply(st, np.float64(0.3)) is not a
        assert bt_apply(ChainState(st.q.copy(), st.r.copy()), 0.3) is a
        assert bt_apply(st, 0.3 + 0j) is b
        assert bt_apply(st, 0.3, SolverOptions(tol=1e-11)) is not a
        assert np.array_equal(a.target.r, b.target.r)

    def test_kept_arrays_are_read_only(self, cold_cache):
        bt = bt_apply(self._state(), 0.3)
        for arr in (bt.gamma_site, bt.collinearity, bt.source.q,
                    bt.source.r, bt.target.q, bt.target.r, *bt._sites[1:]):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            bt.gamma_site[0] = 1.0

    def test_size_stays_constant_least_recent_dropped(self, cold_cache):
        st = self._state()
        mus = 0.2 + 0.02 * np.arange(2 * BT_CACHE_SIZE)
        kept = []
        for mu in mus:
            kept.append(bt_apply(st, mu))
            bt_apply(st, mus[0])  # mus[0] stays the most recent use
            assert len(cold_cache) <= BT_CACHE_SIZE
        assert len(cold_cache) == BT_CACHE_SIZE
        assert bt_apply(st, mus[0]) is kept[0]
        assert bt_apply(st, mus[-1]) is kept[-1]
        assert bt_apply(st, mus[1]) is not kept[1]


class TestSiteTable:
    """The checks on the site table against their reference forms, which
    form the neighbour arrays from the result's own fields."""

    @settings(max_examples=30)
    @given(N=st.sampled_from([1, 2, 3, 16, 257]),
           mu=st.sampled_from([0.3, 1.1, 0.3 + 0.2j, 0.8j]),
           seed=st.integers(0, 2**32 - 1))
    def test_checks_match_their_reference_forms(self, N, mu, seed):
        rng = np.random.default_rng(seed)
        bt = bt_apply(ChainState.random(N, rng), mu)
        g = rng.standard_normal(N)
        t = bt.target
        # a replaced result must not read the table of the map it came from
        mutants = [dataclasses.replace(
                       bt, target=ChainState(t.q, t.r * (1 + 1e-9 * g))),
                   dataclasses.replace(bt, mu=bt.mu + 1e-5)]
        lams = np.append(rng.uniform(0.5, 1.5, 3)
                         * np.exp(2j * np.pi * rng.uniform(size=3)), bt.mu)
        for b in [bt] + mutants:
            q, r, rt = b.source.q, b.source.r, b.target.r
            assert abs(_bracket_bands(b) - bracket_bands_ref(b)) <= 1e-15
            gam, coll = backlund._gamma_least_squares(q, r, rt, b._sites.u,
                                                      b.mu)
            gam_ref, coll_ref = gamma_least_squares_ref(q, r, rt, b.mu)
            assert np.abs(gam - gam_ref).max() \
                <= 1e-15 * np.abs(gam_ref).max()
            assert np.abs(coll - coll_ref).max() <= 1e-15
            logs = backlund._log_det_gamma(b)
            scale = (np.abs(np.log(1.0 - q * r)).sum()
                     + np.abs(np.log(b.gamma_site)).sum())
            for got, want in zip(logs, log_det_gamma_ref(b)):
                assert abs(got - want) <= 1e-15 * scale
            res = intertwining_residual(b, lams)
            for lam, got, want in zip(lams, res,
                                      intertwining_residual_ref(b, lams)):
                assert abs(got - want) <= 1e-15 * intertwining_loop(b, lam)[1]
        # the mutants' tables are their own: the bracket check flags them
        assert all(_bracket_bands(m) > 1e-11 for m in mutants)


class TestDirectSolve:
    MUS = (-0.4, -0.1, 0.05, 0.17, 0.3, 0.7, 1.0, 1.3, 0.3 + 0.2j, 0.8j, 3.0)

    def _starts(self):
        """(q, r, backward start, mu) over N in {1, 2, 3, 16, 64, 512},
        8 seeds, random and real-positive states and MUS: 1,056 starts."""
        for N in (1, 2, 3, 16, 64, 512):
            for seed in range(8):
                for draw in (ChainState.random,
                             ChainState.random_real_positive):
                    st = draw(N, np.random.default_rng(seed))
                    for mu in self.MUS:
                        yield (st.q, st.r,
                               backlund._backward_start(st.q, st.r, mu), mu)

    def test_backward_solve_lands_below_polish_floor(self):
        # every start with |mu| <= 1.3 meets the first line below the
        # roundoff floor 64 eps (1 + max|r| + max|r~|).  At mu = 3 and
        # N = 512, two of the 16 states start above it, at up to 2.2 times
        # it; the one polish step takes every start below it.
        start, polished = [], []
        for q, r, rt, mu in self._starts():
            floor = 64 * np.finfo(float).eps * (
                1.0 + np.abs(r).max() + np.abs(rt).max())
            P = lambda x: np.abs(backlund._poly_residual(q, r, x, mu)).max()
            start.append((abs(mu), P(rt) / floor))
            polished.append(P(backlund._polish(q, r, rt, mu)[0]) / floor)
        assert len(start) == 1056
        assert max(ratio for size, ratio in start if size <= 1.3) < 1.0
        assert max(polished) < 1.0

    def test_ring_recurrence_matches_dense_solve(self):
        # the O(N) step against one LU solve of the N x N J, on every start
        steps = 0
        for q, r, rt, mu in self._starts():
            got, _ = backlund._polish_step(
                q, rt, mu, backlund._poly_residual(q, r, rt, mu))
            want = dense_polish_step(q, r, rt, mu)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            steps += 1
        assert steps == 1056

    def test_start_off_the_floor_raises(self, monkeypatch, cold_cache):
        # one Newton step from a start 1e-3 off the solution leaves the
        # line near 1e-6: the acceptance test refuses it, and nothing is kept
        start = backlund._backward_start
        monkeypatch.setattr(backlund, "_backward_start",
                            lambda q, r, mu: start(q, r, mu) * (1.0 + 1e-3))
        st = ChainState.random(16, np.random.default_rng(3))
        with pytest.raises(BTError, match="above tolerance"):
            bt_apply(st, 0.3)
        assert not cold_cache

    @pytest.mark.parametrize("q, start, mu, message", [
        ((0.1, 0.2), (np.nan, 0.5), 0.3, "non-finite residual"),
        ((0.1, 0.2), (1e-13, 0.5), 0.3, "vanishing r~"),
        # q = 0 and mu = 1 make dP/dr~ = [[1, -1], [-1, 1]] exactly singular
        ((0.0, 0.0), (0.5, 0.6), 1.0, "singular Jacobian"),
    ])
    def test_polish_refuses_a_bad_start(self, monkeypatch, cold_cache, q,
                                        start, mu, message):
        monkeypatch.setattr(backlund, "_backward_start",
                            lambda *args: np.array(start, dtype=complex))
        st = ChainState(np.array(q), np.array([0.3, 0.4]))
        with pytest.raises(BTError, match=message):
            bt_apply(st, mu)
        assert not cold_cache

    @pytest.mark.parametrize("N", [1, 2, 3, 16])
    def test_ring_multiplier_is_the_product_of_the_bands(self, N):
        st = ChainState.random(N, np.random.default_rng(N))
        for mu in (0.3, 1.1, 0.3 + 0.2j):
            start = backlund._backward_start(st.q, st.r, mu)
            d, e = backlund._jacobian_bands(st.q, start, mu)
            want = abs(np.prod(-d / e))
            got = bt_apply(st, mu).ring_multiplier
            assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("N", [2, 16, 64])
    @pytest.mark.parametrize("mu", [0.3, 1.1, 0.3 + 0.2j])
    def test_ring_multiplier_below_one(self, N, mu):
        # the start is the attracting fixed point: |pi| < 1
        for seed in range(8):
            st = ChainState.random(N, np.random.default_rng(seed))
            assert 0 < bt_apply(st, mu).ring_multiplier < 1

    @pytest.mark.parametrize("N, seed, mu", [
        # a point of `albaxter bt --N 16 --sweep 0.1 0.45 40` that ended at
        # 1.3e-12 after a continuation in |mu|
        (16, 7, np.linspace(0.1, 0.45, 40)[9]),
        # Newton from the shift guess r~_k = r_{k+1} stalls here
        (22, 2, 1.0),
    ])
    def test_map_and_canonicity(self, N, seed, mu):
        state = ChainState.random(N, np.random.default_rng(seed))
        assert bt_apply(state, mu).residual < 1e-12
        assert canonicity_check(state, mu) <= 1e-11

    @pytest.mark.parametrize("seed", [52, 71, 74])
    def test_canonicity_at_roundoff(self, seed):
        # 5.9e-12, 2.5e-12 and 1.2e-11 when Newton stops at the floor of P
        # without the polish step
        state = ChainState.random(2, np.random.default_rng(seed))
        assert canonicity_check(state, 0.3) < 1e-12

    @settings(max_examples=40)
    @given(N=st.integers(2, 64), mu=st.floats(0.1, 1.3),
           seed=st.integers(0, 2**32 - 1))
    def test_solves_and_conserves(self, N, mu, seed):
        state = ChainState.random(N, np.random.default_rng(seed))
        bt = bt_apply(state, mu)  # a BTError fails the property
        assert conserved_quantities(state).max_relative_drift(
            conserved_quantities(bt.target)) < 1e-10
