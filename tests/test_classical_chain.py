import json

import numpy as np
import pytest

from albaxter import classical_chain as chain
from albaxter.classical_chain import (ChainState, DegenerateStateError,
                                      classical_rmatrix, conserved_det_bracket,
                                      conserved_gradients,
                                      conserved_quantities, dense_monodromy,
                                      entry_brackets, eom_rhs,
                                      monodromy_det_eval, monodromy_matrix,
                                      rk4_step, rmatrix_relation_residual,
                                      trace_bracket)

from oracles import (local_lax, monodromy, observable_conserved,
                     observable_det, observable_entry, observable_trace,
                     poisson_bracket)

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


class TestConserved:
    def test_boundary_coefficients(self):
        rng = np.random.default_rng(1)
        for N in (1, 2, 4):
            cons = conserved_quantities(ChainState.random(N, rng))
            assert cons.H[0] == pytest.approx(1.0)
            assert cons.H[N] == pytest.approx(1.0)

    def test_frozen_h1(self):
        assert conserved_quantities(N2_STATE).H[1] == pytest.approx(-0.05)

    def test_zero_state_interior(self):
        cons = conserved_quantities(ChainState.zeros(5))
        assert np.allclose(cons.H[1:5], 0.0)
        assert cons.det == pytest.approx(1.0)

    def test_cyclic_invariance(self):
        rng = np.random.default_rng(2)
        st = ChainState.random(5, rng)
        H = conserved_quantities(st).H
        for shift in range(1, 5):
            rolled = ChainState(np.roll(st.q, shift), np.roll(st.r, shift))
            assert np.abs(conserved_quantities(rolled).H - H).max() < 1e-12


def _relative(got, want):
    return abs(got - want) / max(abs(want), 1.0)


KERNEL_SIZES = (1, 2, 3, 5, 8)


class TestDenseKernel:
    """The dense transfer kernel against the LaurentPoly/MultiDual oracles."""

    @pytest.mark.parametrize("N", KERNEL_SIZES)
    def test_monodromy_coefficients(self, N):
        st = ChainState.random(N, np.random.default_rng(60 + N))
        dense = dense_monodromy(st)
        oracle = monodromy(st)
        for (i, j), poly in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                                (oracle.a11, oracle.a12, oracle.a21,
                                 oracle.a22)):
            want = np.zeros(2 * N + 1, dtype=complex)
            for e, c in poly.coeffs.items():
                want[e + N] = c
            assert np.abs(dense[i, j] - want).max() < 1e-14 * max(
                np.abs(want).max(), 1.0)

    @pytest.mark.parametrize("N", KERNEL_SIZES)
    def test_conserved_against_laurent_trace(self, N):
        st = ChainState.random(N, np.random.default_rng(70 + N))
        tr = monodromy(st).trace()
        want = np.array([tr.coeff(N - 2 * i) for i in range(N + 1)])
        H = conserved_quantities(st).H
        assert H.shape == (N + 1,)
        assert np.abs(H - want).max() < 1e-14 * max(np.abs(want).max(), 1.0)

    def test_conserved_zero_state(self):
        H = conserved_quantities(ChainState.zeros(6)).H
        assert np.array_equal(H, [1, 0, 0, 0, 0, 0, 1])

    def test_h1_closed_form_large_chain(self):
        # H_1 = sum_k r_k q_{k+1} (cyclic), at a size the LaurentPoly
        # path could not reach in reasonable time
        st = ChainState.random(512, np.random.default_rng(80))
        cons = conserved_quantities(st)
        want = np.sum(st.r * np.roll(st.q, -1))
        assert _relative(cons.H[1], want) < 1e-12
        assert cons.H[0] == 1.0 and cons.H[512] == 1.0

    def test_det_eval_against_laurent_det(self):
        for N in KERNEL_SIZES:
            st = ChainState.random(N, np.random.default_rng(90 + N))
            want = monodromy(st).det().eval(1.7)
            assert _relative(monodromy_det_eval(st, 1.7), want) < 1e-13
            assert _relative(monodromy_det_eval(st, 1.7),
                             np.prod(1 - st.q * st.r)) < 1e-12

    @pytest.mark.parametrize("N", (1, 2, 3, 4, 6))
    def test_trace_bracket_against_multidual(self, N):
        rng = np.random.default_rng(100 + N)
        st = ChainState.random(N, rng)
        lam, nu = 1.3 + 0.2j, 0.7 - 0.5j
        want = poisson_bracket(observable_trace(lam),
                               observable_trace(nu), st)
        got = trace_bracket(st, lam, nu)
        # the bracket vanishes; compare on the scale of its gradient terms
        scale = max(np.abs(monodromy_matrix(st, lam)).max()
                    * np.abs(monodromy_matrix(st, nu)).max(), 1.0)
        assert abs(got - want) < 1e-13 * scale

    @pytest.mark.parametrize("N", (1, 2, 3, 4, 6))
    def test_conserved_det_bracket_against_multidual(self, N):
        st = ChainState.random(N, np.random.default_rng(110 + N))
        for i in range(N + 1):
            want = poisson_bracket(observable_conserved(i),
                                   observable_det, st)
            assert abs(conserved_det_bracket(st, i) - want) < 1e-13

    @pytest.mark.parametrize("N", (1, 2, 3, 4, 6))
    def test_conserved_gradients_against_multidual(self, N):
        # {H_i, r_k} = dH_i/dq_k w_k and {q_k, H_i} = dH_i/dr_k w_k
        st = ChainState.random(N, np.random.default_rng(140 + N))
        w = 1 - st.q * st.r
        for i in range(N + 1):
            hq, hr = conserved_gradients(st, i)
            h = observable_conserved(i)
            for k in range(N):
                want_q = poisson_bracket(h, lambda q, r: r[k], st) / w[k]
                want_r = poisson_bracket(lambda q, r: q[k], h, st) / w[k]
                assert abs(hq[k] - want_q) < 1e-13
                assert abs(hr[k] - want_r) < 1e-13

    def test_h1_gradients_closed_form(self):
        # H_1 = sum_k r_k q_{k+1}: dH_1/dq_k = r_{k-1}, dH_1/dr_k = q_{k+1}
        st = ChainState.random(64, np.random.default_rng(150))
        hq, hr = conserved_gradients(st, 1)
        assert np.abs(hq - np.roll(st.r, 1)).max() < 1e-14
        assert np.abs(hr - np.roll(st.q, -1)).max() < 1e-14

    def test_conserved_index_range(self):
        with pytest.raises(IndexError):
            conserved_det_bracket(N2_STATE, 3)
        with pytest.raises(IndexError):
            conserved_gradients(N2_STATE, -1)

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
        h1 = conserved_quantities(st).H[1]
        drifts = []
        for dt in (1e-2, 5e-3):
            drift = abs(conserved_quantities(rk4_step(st, dt)).H[1] - h1)
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
    @pytest.mark.parametrize("N", (2, 16, 128))
    def test_kernel_coordinate_bracket_against_oracle(self, N):
        # {q_k, r_k} for every site from the kernel's bracket sum on the
        # coordinate gradients, as the classical.bracket_weight check takes it
        st = ChainState.random(N, np.random.default_rng(160 + N))
        eye = np.eye(N)
        got = chain._bracket(eye, 0.0, 0.0, eye, 1.0 - st.q * st.r)
        want = [poisson_bracket(lambda q, r, k=k: q[k],
                                lambda q, r, k=k: r[k], st)
                for k in range(N)]
        assert np.array_equal(got, want)

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
