import json

import numpy as np
import pytest
from hypothesis import assume, given, strategies as hst

from albaxter import classical_chain as chain
from albaxter.classical_chain import (TRACE_POINTS, ChainState,
                                      DegenerateStateError,
                                      classical_rmatrix, conserved_quantities,
                                      eom_rhs, monodromy_det_residuals,
                                      monodromy_matrix, rk4_step,
                                      trace_bracket, trace_det_bracket)

from oracles import (dense_monodromy_loop, entry_brackets, lax_left_zeros,
                     local_lax, monodromy, observable_conserved,
                     observable_det, observable_entry, observable_trace,
                     poisson_bracket, prefix_products_loop,
                     rmatrix_relation_residual,
                     rmatrix_relation_residuals_loop)

N2_STATE = ChainState(np.array([0.2, 0.1]), np.array([0.3, -0.4]))


class TestLaxAndMonodromy:
    def test_local_lax_zero_site(self):
        st = ChainState.zeros(2)
        L = local_lax(st, 1)
        assert L.a11.coeffs == {1: 1.0}
        assert L.a22.coeffs == {-1: 1.0}
        assert L.a12.coeffs == {} and L.a21.coeffs == {}

    def test_local_lax_fill(self):
        st = ChainState(np.array([2.0, 0.0]), np.array([3.0, 0.0]))
        L = local_lax(st, 1)
        assert L.a12.coeff(0) == 2.0 and L.a21.coeff(0) == 3.0

    def test_local_lax_det(self):
        L = local_lax(N2_STATE, 2)
        det = L.det()
        assert det.support == [0]
        assert det.coeff(0) == pytest.approx(1 - 0.1 * (-0.4))

    def test_local_lax_index_range(self):
        with pytest.raises(IndexError):
            local_lax(N2_STATE, 3)

    def test_monodromy_frozen_n2(self):
        # Tr = lam^2 + H_1 + lam^-2 with H_1 = q_2 r_1 + q_1 r_2 = -0.05
        tr = monodromy(N2_STATE).trace()
        assert tr.coeff(2) == pytest.approx(1.0)
        assert tr.coeff(0) == pytest.approx(-0.05)
        assert tr.coeff(-2) == pytest.approx(1.0)

    def test_monodromy_zero_state(self):
        M = monodromy(ChainState.zeros(4))
        assert M.a11.coeffs == {4: 1.0}
        assert M.a22.coeffs == {-4: 1.0}
        assert M.a12.coeffs == {} and M.a21.coeffs == {}

    def test_monodromy_det_frozen(self):
        det = monodromy(N2_STATE).det()
        assert det.eval(1.7) == pytest.approx(0.9776)

    def test_trace_support(self):
        rng = np.random.default_rng(0)
        st = ChainState.random(3, rng)
        tr = monodromy(st).trace()
        assert set(tr.support) <= {3, 1, -1, -3}


def _coefficients(state):
    """H_0..H_N read off the point traces at the N + 1 points
    lam_j = exp(i pi j/(N+1)), on which the powers lam^(N-2i) are
    orthogonal: H_i = sum_j lam_j^-(N-2i) Tr L(lam_j) / (N + 1).  Also the
    largest |Tr L(lam_j)|, the size the sum's roundoff is measured on."""
    N = state.N
    lams = np.exp(1j * np.pi * np.arange(N + 1) / (N + 1))
    tr = conserved_quantities(state, lams).trace
    powers = lams[None, :] ** -(N - 2.0 * np.arange(N + 1))[:, None]
    return powers @ tr / (N + 1), np.abs(tr).max()


class TestConserved:
    def test_boundary_coefficients(self):
        rng = np.random.default_rng(1)
        for N in (1, 2, 4):
            H, _ = _coefficients(ChainState.random(N, rng))
            assert H[0] == pytest.approx(1.0)
            assert H[N] == pytest.approx(1.0)

    def test_frozen_h1(self):
        assert _coefficients(N2_STATE)[0][1] == pytest.approx(-0.05)

    def test_zero_state_interior(self):
        H, _ = _coefficients(ChainState.zeros(5))
        assert np.allclose(H[1:5], 0.0)
        assert conserved_quantities(ChainState.zeros(5)).det == 1.0

    def test_cyclic_invariance(self):
        rng = np.random.default_rng(2)
        st = ChainState.random(5, rng)
        cons = conserved_quantities(st)
        for shift in range(1, 5):
            rolled = ChainState(np.roll(st.q, shift), np.roll(st.r, shift))
            assert cons.max_relative_drift(conserved_quantities(rolled)) \
                < 1e-14

    def test_default_points_on_the_unit_circle(self):
        cons = conserved_quantities(N2_STATE)
        assert cons.points is TRACE_POINTS and len(TRACE_POINTS) == 3
        assert np.allclose(np.abs(TRACE_POINTS), 1.0, rtol=0, atol=1e-15)
        assert not TRACE_POINTS.flags.writeable

    def test_drift_across_different_points_raises(self):
        a = conserved_quantities(N2_STATE)
        b = conserved_quantities(N2_STATE, TRACE_POINTS[:2])
        c = conserved_quantities(N2_STATE, TRACE_POINTS[::-1])
        for other in (b, c):
            with pytest.raises(ValueError, match="different points"):
                a.max_relative_drift(other)

    def test_overflowed_monodromy_drift_reads_nan(self):
        # |L_k| ~ 4 on every site: the monodromy overflows at two of the
        # three points by N = 2000, while det L = (-1)^N stays finite
        st = ChainState(np.full(2000, 4.0), np.full(2000, 0.5))
        with np.errstate(all="ignore"):
            cons = conserved_quantities(st)
            drift = cons.trace_drift(cons)
            assert not np.isfinite(cons.trace).all() and cons.det == 1.0
            assert np.isnan(drift[~np.isfinite(cons.trace)]).all()
            assert np.isnan(cons.max_relative_drift(cons))

    def test_drift_reads_a_relative_change(self):
        # a change of one trace or of det L reads its size relative to the
        # larger scale, never 0
        a = conserved_quantities(ChainState.random(8, np.random.default_rng(3)))
        bumped = a.trace.copy()
        bumped[1] += 1e-9 * a.scale[1]
        b = type(a)(points=a.points, trace=bumped, scale=a.scale, det=a.det)
        assert a.max_relative_drift(b) == pytest.approx(1e-9, rel=1e-6)
        c = type(a)(points=a.points, trace=a.trace, scale=a.scale,
                    det=a.det * (1 + 1e-9))
        assert a.max_relative_drift(c) == pytest.approx(1e-9, rel=1e-6)


def _relative(got, want):
    return abs(got - want) / max(abs(want), 1.0)


KERNEL_SIZES = (1, 2, 3, 5, 8)


# points on |lam| = 1, where the suite draws its point checks, and two off it
POINTS = np.array([np.exp(0.7j), np.exp(-2.1j), 1.3 + 0.2j, 0.7 - 0.5j])


class TestDenseKernel:
    """The point kernels against the LaurentPoly/MultiDual oracles, and the
    oracles' dense Laurent coefficients against LaurentPoly."""

    @pytest.mark.parametrize("N", KERNEL_SIZES)
    def test_monodromy_coefficients(self, N):
        st = ChainState.random(N, np.random.default_rng(60 + N))
        dense = dense_monodromy_loop(st)
        oracle = monodromy(st)
        for (i, j), poly in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                                (oracle.a11, oracle.a12, oracle.a21,
                                 oracle.a22)):
            want = np.zeros(2 * N + 1, dtype=complex)
            for e, c in poly.coeffs.items():
                want[e + N] = c
            assert np.abs(dense[i, j] - want).max() < 1e-14 * max(
                np.abs(want).max(), 1.0)

    @pytest.mark.parametrize("N", KERNEL_SIZES + (16,))
    def test_conserved_against_laurent_trace(self, N):
        # Tr L at each point is sum_i H_i lam^(N-2i) of the oracle's H_i,
        # to roundoff of the sum of |H_i|, at the default points and off
        # the unit circle
        st = ChainState.random(N, np.random.default_rng(70 + N))
        tr = monodromy(st).trace()
        H = np.array([tr.coeff(N - 2 * i) for i in range(N + 1)])
        for lams in (TRACE_POINTS, POINTS):
            cons = conserved_quantities(st, lams)
            powers = lams[:, None] ** (N - 2.0 * np.arange(N + 1))
            assert cons.trace.shape == cons.scale.shape == (len(lams),)
            assert (np.abs(cons.trace - powers @ H)
                    <= 1e-14 * (np.abs(powers) @ np.abs(H))).all()
            assert cons.det == chain.lax_det(st)

    def test_conserved_zero_state(self):
        # M = diag(lam^6, lam^-6): trace lam^6 + lam^-6 and scale 1
        cons = conserved_quantities(ChainState.zeros(6))
        want = TRACE_POINTS**6 + TRACE_POINTS**-6
        assert np.abs(cons.trace - want).max() < 1e-14
        assert np.abs(cons.scale - 1.0).max() < 1e-14
        assert cons.det == 1.0

    def test_h1_closed_form_large_chain(self):
        # H_1 = sum_k r_k q_{k+1} (cyclic) read off the point traces, at a
        # size the LaurentPoly path is slow at; the read-off is ill-posed
        # past N ~ 100, where max |Tr L| on |lam| = 1 passes 1e6
        st = ChainState.random(64, np.random.default_rng(80))
        H, size = _coefficients(st)
        want = np.sum(st.r * np.roll(st.q, -1))
        assert abs(H[1] - want) < 1e-14 * size
        assert abs(H[0] - 1.0) < 1e-14 * size
        assert abs(H[64] - 1.0) < 1e-14 * size

    def test_det_eval_against_laurent_det(self):
        # M11 M22 - M12 M21 of the numeric monodromy at a point is the
        # Laurent determinant there, and both are prod_k (1 - q_k r_k)
        for N in KERNEL_SIZES:
            st = ChainState.random(N, np.random.default_rng(90 + N))
            det = monodromy(st).det()
            for lam in POINTS:
                assert _relative(det.eval(lam), np.prod(1 - st.q * st.r)) \
                    < 1e-13
            assert (monodromy_det_residuals(st, POINTS) < 1e-14).all()

    @pytest.mark.parametrize("N", (1, 2, 3, 4, 6))
    def test_trace_bracket_against_multidual(self, N):
        rng = np.random.default_rng(100 + N)
        st = ChainState.random(N, rng)
        lam, nu = 1.3 + 0.2j, 0.7 - 0.5j
        want = poisson_bracket(observable_trace(lam),
                               observable_trace(nu), st)
        got, scale = trace_bracket(st, lam, nu)
        # the bracket vanishes; compare on the size of the terms it cancels,
        # which is at most the size of the gradient products
        size = max(np.abs(monodromy_matrix(st, lam)).max()
                   * np.abs(monodromy_matrix(st, nu)).max(), 1.0)
        assert abs(got - want) < 1e-13 * size
        assert scale <= 8 * N * size
        # at N = 1 the trace does not depend on q, r: both are 0
        assert abs(got) <= 1e-15 * scale

    @pytest.mark.parametrize("N", (1, 2, 3, 4, 6))
    def test_conserved_det_bracket_against_multidual(self, N):
        # {Tr L(lam), det L} at a point is sum_i lam^(N-2i) {H_i, det L},
        # each {H_i, det L} from MultiDual gradients of the Laurent trace
        st = ChainState.random(N, np.random.default_rng(110 + N))
        h_det = [poisson_bracket(observable_conserved(i), observable_det, st)
                 for i in range(N + 1)]
        got, scale = trace_det_bracket(st, POINTS)
        assert got.shape == scale.shape == (len(POINTS),)
        for lam, g, sc in zip(POINTS, got, scale):
            want = sum(lam ** (N - 2 * i) * h for i, h in enumerate(h_det))
            # at N = 1 the trace does not depend on q, r: both are 0
            assert abs(g - want) <= 1e-15 * sc
            assert abs(g) <= 1e-15 * sc

    @pytest.mark.parametrize("N", (1, 2, 3, 4, 6))
    def test_conserved_gradients_against_multidual(self, N):
        # the trace gradients at a point are the generating function of
        # the conserved ones: d Tr L(lam)/dq_k = sum_i lam^(N-2i) dH_i/dq_k,
        # with {H_i, r_k} = dH_i/dq_k w_k and {q_k, H_i} = dH_i/dr_k w_k
        st = ChainState.random(N, np.random.default_rng(140 + N))
        w = 1 - st.q * st.r
        hq = np.zeros((N + 1, N), dtype=complex)
        hr = np.zeros((N + 1, N), dtype=complex)
        for i in range(N + 1):
            h = observable_conserved(i)
            for k in range(N):
                hq[i, k] = poisson_bracket(h, lambda q, r: r[k], st) / w[k]
                hr[i, k] = poisson_bracket(lambda q, r: q[k], h, st) / w[k]
        tq, tr = chain._trace_gradients(st, POINTS)
        for lam, gq, gr in zip(POINTS, tq, tr):
            powers = lam ** (N - 2.0 * np.arange(N + 1))
            scale = np.abs(powers) @ (np.abs(hq) + np.abs(hr))
            assert (np.abs(gq - powers @ hq) <= 1e-14 * scale).all()
            assert (np.abs(gr - powers @ hr) <= 1e-14 * scale).all()

    def test_h1_gradients_closed_form(self):
        # H_1 = sum_k r_k q_{k+1}: dH_1/dq_k = r_{k-1}, dH_1/dr_k = q_{k+1}.
        # On the N+1 points lam_j = exp(i pi j/(N+1)) the powers
        # lam^(N-2i) are orthogonal, so the coefficient of lam^(N-2) is a
        # discrete Fourier sum over the trace gradients at those points
        N = 64
        st = ChainState.random(N, np.random.default_rng(150))
        lams = np.exp(1j * np.pi * np.arange(N + 1) / (N + 1))
        tq, tr = chain._trace_gradients(st, lams)
        weight = lams ** -(N - 2.0) / (N + 1)
        # roundoff of the sum: a few eps times the largest gradient entry
        tol = 1e-14 * max(np.abs(tq).max(), np.abs(tr).max())
        assert np.abs(weight @ tq - np.roll(st.r, 1)).max() < tol
        assert np.abs(weight @ tr - np.roll(st.q, -1)).max() < tol

    @pytest.mark.parametrize("N", (1, 2, 5, 8))
    def test_trace_difference_against_laurent_trace(self, N):
        # Tr L(lam) of a state and its cyclic shifts agree at every point;
        # each trace against the Laurent oracle's
        st = ChainState.random(N, np.random.default_rng(230 + N))
        tr = monodromy(st).trace()
        cons = conserved_quantities(st, POINTS)
        for lam, got in zip(POINTS, cons.trace):
            assert _relative(got, tr.eval(lam)) < 1e-14
        for shift in range(N):
            rolled = ChainState(np.roll(st.q, shift), np.roll(st.r, shift))
            drift = cons.trace_drift(conserved_quantities(rolled, POINTS))
            assert drift.shape == (len(POINTS),) and (drift < 1e-14).all()

    @pytest.mark.parametrize("N", (1, 2, 3, 4, 6))
    def test_entry_brackets_against_multidual(self, N):
        st = ChainState.random(N, np.random.default_rng(130 + N))
        lam, nu = 1.4 - 0.3j, -0.6 + 0.9j
        got = entry_brackets(st, lam, nu)
        want = np.zeros((4, 4), dtype=complex)
        for a in range(4):
            for b in range(4):
                i, j = divmod(a, 2)
                k, l = divmod(b, 2)
                want[2 * i + k, 2 * j + l] = poisson_bracket(
                    observable_entry(i + 1, j + 1, lam),
                    observable_entry(k + 1, l + 1, nu), st)
        assert np.abs(got - want).max() < 1e-13 * max(np.abs(want).max(),
                                                       1.0)


def _draws(N, B, seed):
    """B random states of size N, each with a spectral pair."""
    rng = np.random.default_rng(seed)
    states = [ChainState.random(N, rng) for _ in range(B)]
    lams = rng.uniform(1.2, 2.0, (B, 2)) * np.exp(
        2j * np.pi * rng.uniform(size=(B, 2)))
    return states, lams


class TestBatchedKernels:
    """The batched kernels give each state the bits it gets alone."""

    def test_stacked_2x2_matmul_is_batch_invariant(self):
        # numpy's stacked matrix product gives each matrix the same bits at
        # any stack size; the r-matrix commutators of a batch of draws rest
        # on it
        rng = np.random.default_rng(170)
        shape = (10, 2, 2, 2)
        A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        B = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        whole = A @ B
        for i in range(10):
            assert np.array_equal(whole[i:i + 1], A[i:i + 1] @ B[i:i + 1])
            for j in range(2):
                assert np.array_equal(whole[i, j], A[i, j] @ B[i, j])

    @pytest.mark.parametrize("N", (1, 2, 3, 5, 16, 17, 100, 1000))
    def test_scan_matches_sequential_loop(self, N):
        # the doubling scan against the N-step loop it replaced, on points
        # of |lam| = 1 and off it.  Each partial product is within 1e-13 of
        # the same product of the factors' absolute values, |L_k| having
        # entries |lam|, |q_k|, |r_k|, 1/|lam|: no entry of a computed
        # product can exceed it, and it is at most prod_k ||L_k||
        states, lams = _draws(N, 3, 200 + N)
        lams[:, 1] = np.exp(2j * np.pi * np.random.default_rng(N).uniform(
            size=3))
        # |lam| <= 2^min(1, 8/N), so that no product overflows at N = 1000
        lams[:, 0] *= np.abs(lams[:, 0]) ** (min(1.0, 8.0 / N) - 1.0)
        q = np.stack([s.q for s in states])
        r = np.stack([s.r for s in states])
        got = chain._ordered_products(q, r, lams)
        pre, suf = prefix_products_loop(q, r, lams)
        sizes = prefix_products_loop(np.abs(q), np.abs(r), np.abs(lams))
        for k in range(N + 1):
            for way in (0, 1):
                want, size = pre[k] if way == 0 else suf[k], sizes[way][k]
                err = np.abs(got[:, :, way, k].transpose(2, 3, 0, 1) - want)
                assert (err.max(axis=(-2, -1))
                        <= 1e-13 * np.abs(size).max(axis=(-2, -1))).all()
        # the prefixes alone are the same bits as with the suffixes
        alone = chain._ordered_products(q, r, lams, suffixes=False)
        assert alone.shape == (2, 2, 1, N + 1, 3, 2)
        assert np.array_equal(alone[:, :, 0], got[:, :, 0])

    @pytest.mark.parametrize("N", (1, 2, 16, 17, 128))
    @pytest.mark.parametrize("B", (1, 10))
    def test_entry_gradients_batch_matches_single_states(self, N, B):
        states, lams = _draws(N, B, 180 + N + B)
        q = np.stack([s.q for s in states])
        r = np.stack([s.r for s in states])
        dq, dr, M = chain._entry_gradients(q, r, lams)
        assert dq.shape == dr.shape == (B, 2, 2, 2, N)
        assert np.array_equal(M, chain._monodromies(q, r, lams))
        for i in range(B):
            one_q, one_r, one_m = chain._entry_gradients(
                q[i:i + 1], r[i:i + 1], lams[i:i + 1])
            assert np.array_equal(dq[i], one_q[0])
            assert np.array_equal(dr[i], one_r[0])
            assert np.array_equal(M[i], one_m[0])
            for lam, m in zip(lams[i], M[i]):
                want = monodromy_matrix(states[i], lam)
                assert np.abs(m - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("N", (1, 2, 16))
    def test_rmatrix_residuals_match_single_draws(self, N):
        states, lams = _draws(N, 10, 190 + N)
        got = chain.rmatrix_relation_residuals(states, lams[:, 0],
                                               lams[:, 1])
        want = [rmatrix_relation_residual(s, lam, nu)
                for s, (lam, nu) in zip(states, lams)]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("N", (1, 2, 16, 64))
    def test_rmatrix_stacked_tail_equals_draw_loop(self, N):
        # brackets, Kronecker K, r-matrix and commutator stacked over the
        # draws, against the per-draw tail they replaced
        for seed in range(10):
            states, lams = _draws(N, 10, 300 + 10 * N + seed)
            got = chain.rmatrix_relation_residuals(states, lams[:, 0],
                                                   lams[:, 1])
            want = rmatrix_relation_residuals_loop(states, lams[:, 0],
                                                   lams[:, 1])
            # the two differences agree to a few ulps of the largest entry
            # they compare, which is at most the scale both divide by
            assert (np.abs(got - want) <= 4 * np.finfo(float).eps).all()

    def test_rmatrix_residuals_singular_guard(self):
        states = [ChainState.zeros(2)] * 2
        with pytest.raises(ZeroDivisionError):
            chain.rmatrix_relation_residuals(states, [1.4, 1.0], [0.7, -1.0])

    @staticmethod
    def _assert_dense_matches_loops(state):
        # the oracles' own check: the dense coefficient loop in its two
        # forms, bit for bit, NaNs included; the zeroed-buffer form adds +0
        # where the products stand alone, so -0 reads +0 there
        want = dense_monodromy_loop(state)
        assert want.shape == (2, 2, 2 * state.N + 1)
        assert np.array_equal(dense_monodromy_loop(state, lax_left_zeros),
                              want, equal_nan=True)

    @pytest.mark.parametrize("N", (1, 2, 3, 5, 16, 257))
    def test_dense_monodromy_matches_site_loop(self, N):
        st = ChainState.random(N, np.random.default_rng(200 + N))
        self._assert_dense_matches_loops(st)

    @given(N=hst.integers(1, 12), data=hst.data())
    def test_dense_monodromy_matches_site_loop_zero_and_large(self, N, data):
        # exact zeros, signed zeros and entries large enough that the
        # coefficients overflow to inf and NaN
        entry = hst.sampled_from([0.0, -0.0, 1e-300, 0.3, -2.5, 1e150,
                                  -1e200, 1e300])
        pair = hst.tuples(entry, entry).map(lambda p: complex(*p))
        q, r = (np.array(data.draw(hst.lists(pair, min_size=N, max_size=N)))
                for _ in range(2))
        with np.errstate(all="ignore"):
            assume(np.abs(1.0 - q * r).min() >= chain.DEGENERACY_TOL)
            self._assert_dense_matches_loops(ChainState(q, r))

    @pytest.mark.parametrize("N", (1, 2, 5))
    @pytest.mark.parametrize("k", (1, -1))
    def test_roll_matches_numpy(self, N, k):
        rng = np.random.default_rng(210 + N)
        a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        X = rng.standard_normal((N, 3))
        assert np.array_equal(chain._roll(a, k), np.roll(a, k))
        assert np.array_equal(chain._roll(X, k), np.roll(X, k, axis=0))


class TestEquationsOfMotion:
    def test_constant_background(self):
        st = ChainState(0.3 * np.ones(4), np.zeros(4))
        dq, dr = eom_rhs(st)
        assert np.abs(dq).max() < 1e-15 and np.abs(dr).max() < 1e-15

    def test_zero_state(self):
        dq, dr = eom_rhs(ChainState.zeros(3))
        assert np.abs(dq).max() == 0 and np.abs(dr).max() == 0

    def test_site_formula_n3(self):
        rng = np.random.default_rng(3)
        st = ChainState.random(3, rng)
        q, r = st.q, st.r
        dq, dr = eom_rhs(st)
        # direct substitution at site k=2 (0-based index 1)
        want_q = q[2] + q[0] - 2 * q[1] - q[1] * r[1] * (q[2] + q[0])
        want_r = -r[2] - r[0] + 2 * r[1] + q[1] * r[1] * (r[2] + r[0])
        assert dq[1] == pytest.approx(want_q, rel=1e-14)
        assert dr[1] == pytest.approx(want_r, rel=1e-14)


class TestRK4:
    def test_small_dt_returns_input(self):
        rng = np.random.default_rng(4)
        st = ChainState.random(3, rng)
        out = rk4_step(st, 1e-12)
        assert np.abs(out.q - st.q).max() < 1e-10
        assert np.abs(out.r - st.r).max() < 1e-10

    def test_zero_state_fixed_point(self):
        out = rk4_step(ChainState.zeros(3), 0.1)
        assert np.abs(out.q).max() == 0 and np.abs(out.r).max() == 0

    def test_dt_positive(self):
        with pytest.raises(ValueError):
            rk4_step(ChainState.zeros(2), 0.0)

    def test_single_step_drift_order(self):
        rng = np.random.default_rng(6)
        st = ChainState.random(4, rng)
        # H_1, the coefficient of lam^(N-2) of the oracle's Laurent trace
        h1 = lambda s: monodromy(s).trace().coeff(s.N - 2)
        drifts = []
        for dt in (1e-2, 5e-3):
            drift = abs(h1(rk4_step(st, dt)) - h1(st))
            drifts.append(drift)
        ratio = drifts[0] / drifts[1]
        assert 24 < ratio < 44  # local error O(dt^5): halving ~ 32x

    def test_flow_drift_accumulation(self):
        rng = np.random.default_rng(6)
        st = ChainState.random(4, rng)
        base = conserved_quantities(st)
        cur = st
        dt, steps = 1e-2, 50
        for _ in range(steps):
            cur = rk4_step(cur, dt)
        drift = base.max_relative_drift(conserved_quantities(cur))
        assert drift < 50 * dt**4 * (dt * steps)


class TestPoissonBrackets:
    def test_relative_reads_nan_off_non_finite_parts(self):
        diff = [1.0, 0.0, 1.0, np.inf, np.nan, 1.0]
        scale = [2.0, 0.0, np.inf, np.inf, 1.0, np.nan]
        got = chain._relative(diff, scale)
        assert got[:2].tolist() == [0.5, 0.0]
        assert np.isnan(got[2:]).all()

    @pytest.mark.parametrize("N", (2, 16, 128))
    def test_kernel_coordinate_bracket_against_oracle(self, N):
        # {q_k, r_k} for every site from the kernel's bracket sum on the
        # coordinate gradients, as the classical.bracket_weight check takes it
        st = ChainState.random(N, np.random.default_rng(160 + N))
        eye = np.eye(N)
        w = 1.0 - st.q * st.r
        got, scale = chain._bracket(eye, 0.0, 0.0, eye, w)
        want = [poisson_bracket(lambda q, r, k=k: q[k],
                                lambda q, r, k=k: r[k], st)
                for k in range(N)]
        assert np.array_equal(got, want)
        assert np.array_equal(scale, np.abs(w))

    def test_weighted_canonical_pair(self):
        rng = np.random.default_rng(7)
        st = ChainState.random(3, rng)
        for k in range(3):
            br = poisson_bracket(lambda q, r, k=k: q[k],
                                 lambda q, r, k=k: r[k], st)
            assert br == pytest.approx(1 - st.q[k] * st.r[k], rel=1e-14)

    def test_vanishing_same_family(self):
        rng = np.random.default_rng(8)
        st = ChainState.random(3, rng)
        assert poisson_bracket(lambda q, r: q[0], lambda q, r: q[2], st) == 0
        assert poisson_bracket(lambda q, r: r[1], lambda q, r: r[2], st) == 0

    def test_h1_det_involution(self):
        rng = np.random.default_rng(9)
        st = ChainState.random(3, rng)
        br = poisson_bracket(observable_conserved(1),
                             observable_det, st)
        assert abs(br) < 1e-10

    def test_trace_involution(self):
        rng = np.random.default_rng(10)
        st = ChainState.random(4, rng)
        br = poisson_bracket(observable_trace(1.3 + 0.2j),
                             observable_trace(0.7 - 0.5j), st)
        assert abs(br) < 1e-10


class TestClassicalRMatrix:
    def test_frozen_entries(self):
        r = classical_rmatrix(1.0, 2.0)
        assert r[1, 2] == pytest.approx(2.0 / 3.0)
        assert r[0, 0] == pytest.approx(5.0 / 6.0)
        assert r[3, 3] == pytest.approx(5.0 / 6.0)
        assert r[1, 1] == -0.5 and r[2, 2] == 0.5

    def test_antisymmetry_under_swap(self):
        P = np.zeros((4, 4))
        P[0, 0] = P[3, 3] = P[1, 2] = P[2, 1] = 1.0
        lam, nu = 1.3 + 0.1j, 0.6 - 0.4j
        assert np.abs(classical_rmatrix(lam, nu)
                      + P @ classical_rmatrix(nu, lam) @ P).max() < 1e-14

    def test_singular_parameters(self):
        with pytest.raises(ZeroDivisionError):
            classical_rmatrix(1.0, -1.0)


class TestRMatrixRelation:
    @pytest.mark.parametrize("N,tol", [(1, 1e-12), (2, 1e-11), (3, 1e-10)])
    def test_random_states(self, N, tol):
        rng = np.random.default_rng(20 + N)
        for _ in range(5):
            st = ChainState.random(N, rng)
            lam = rng.uniform(1.2, 2.0) * np.exp(2j * np.pi * rng.uniform())
            nu = rng.uniform(0.4, 0.9) * np.exp(2j * np.pi * rng.uniform())
            assert rmatrix_relation_residual(st, lam, nu) < tol

    def test_zero_state(self):
        st = ChainState.zeros(2)
        assert rmatrix_relation_residual(st, 1.4, 0.7 + 0.3j) < 1e-14

    def test_singular_guard(self):
        with pytest.raises(ZeroDivisionError):
            rmatrix_relation_residual(ChainState.zeros(2), 1.0, -1.0)


class TestStateHygiene:
    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateStateError):
            ChainState(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_json_round_trip(self):
        d = N2_STATE.to_json_dict()
        st = ChainState.from_json_dict(json.loads(json.dumps(d)))
        assert np.array_equal(st.q, N2_STATE.q)
        assert np.array_equal(st.r, N2_STATE.r)

    def test_monodromy_matrix_consistent(self):
        lam = 0.9 + 0.4j
        M = monodromy_matrix(N2_STATE, lam)
        Mp = monodromy(N2_STATE)
        assert M[0, 0] == pytest.approx(Mp.a11.eval(lam))
        assert M[1, 0] == pytest.approx(Mp.a21.eval(lam))
