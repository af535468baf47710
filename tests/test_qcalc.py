import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from albaxter import qcalc
from albaxter.qcalc import (JACKSON_TAIL, POCH_CACHE_SIZE, THETA,
                            KernelSite, QParam, QPochhammerPoleError,
                            _poch_guarded, _qpochhammer_parts,
                            _series_table, feq_residuals, ghat,
                            jackson_integral, jackson_op, kernel_G, qexp,
                            qhat_kernel, qpochhammer_inf,
                            rho_functional_residual, rho_site)
from oracles import (feq_residuals_loop, jackson_derivative,
                     jackson_integral_absolute_loop, jackson_integral_loop,
                     kernel_F, leibniz_parts_loop, poch_guarded_two_pass,
                     qpochhammer_log_mp, qpochhammer_mp,
                     qpochhammer_parts_loop)

QP = QParam(0.5)


class TestQParam:
    def test_derived_quantities(self):
        qp = QParam(0.25)
        assert qp.eta == pytest.approx(3.0)
        assert qp.one_plus_eta == pytest.approx(4.0)
        assert qp.sqrt_alpha == pytest.approx(0.5)

    def test_alpha_eta_consistency(self):
        qp = QParam(0.37)
        assert qp.alpha * (1.0 + qp.eta) == pytest.approx(1.0, abs=1e-15)

    def test_real_range_enforced(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                QParam(bad)

    def test_complex_needs_flag(self):
        with pytest.raises(ValueError):
            QParam(0.3 + 0.2j)
        qp = QParam(0.3 + 0.2j, allow_complex=True)
        assert abs(qp.alpha) < 1


class TestQPochhammer:
    def test_zero_argument(self):
        assert qpochhammer_inf(0.0, QP) == 1.0

    def test_small_alpha_single_factor(self):
        qp = QParam(1e-18)
        x = 0.3 + 0.1j
        assert qpochhammer_inf(x, qp) == pytest.approx(1 - x, rel=1e-15)

    def test_frozen_value(self):
        # brute oracle: prod_{p} (1 - 0.5 * 0.5^p), tail < 1e-16
        p, t = 1.0, 0.5
        while abs(t) > 1e-18:
            p *= 1 - t
            t *= 0.5
        got = qpochhammer_inf(0.5, QP)
        assert got == pytest.approx(p, rel=1e-14)
        assert got == pytest.approx(0.2887880950866024, rel=1e-12)

    def test_alpha_ge_one_rejected(self):
        qp = QParam(0.9 + 0.43j, allow_complex=True)
        qp2 = QParam.__new__(QParam)
        object.__setattr__(qp2, "alpha", 1.2)
        object.__setattr__(qp2, "allow_complex", True)
        with pytest.raises(ValueError):
            qpochhammer_inf(0.5, qp2)
        assert abs(qpochhammer_inf(0.5, qp)) > 0

    def test_qexp_limit(self):
        qp = QParam(1.0 - 1e-4)
        for x in (-1.0, -0.3, 0.5, 1.0):
            assert abs(qexp(x, qp) - np.exp(x)) < 1e-3

    # Arguments on both sides of THETA = 1/4, real, imaginary and complex,
    # up to |x| ~ 3, where the product takes ~250 factors at alpha = 0.99.
    XS = (0.1, -0.2, 0.2 + 0.1j, 0.24, 0.26, -0.3j, 0.5, -0.6, 0.9, 1.7j,
          3 - 1j, -2.5)
    # Relative error bound against the oracle over XS, >= 10x the worst
    # measured error (in the comment).
    ORACLE_BOUNDS = {
        1e-18: 1e-15,  # 3.4e-17
        0.2: 1e-14,  # 2.3e-16
        0.5: 1e-14,  # 2.4e-16
        0.9: 1e-13,  # 3.1e-15
        0.99: 2e-12,  # 1.2e-13
        math.exp(-0.01): 2e-12,  # 9.6e-14
        0.9 + 0.43j: 5e-12,  # 2.4e-13
    }

    @pytest.mark.parametrize("alpha", list(ORACLE_BOUNDS))
    def test_matches_mp_oracle(self, alpha):
        qp = QParam(alpha, allow_complex=isinstance(alpha, complex))
        worst = max(abs(qpochhammer_inf(x, qp) / complex(
            qpochhammer_mp(x, qp.alpha)) - 1) for x in self.XS)
        assert worst <= self.ORACLE_BOUNDS[alpha]

    def test_matches_mp_oracle_near_one(self):
        # alpha = 1 - 1e-4 with |x| <= 1e-4, the arguments qexp passes on;
        # measured worst 1.1e-16
        qp = QParam(1.0 - 1e-4)
        for x in (1e-4, -1e-4, 5e-5j, 1e-6, -7e-5 + 7e-5j, 2e-5):
            want = complex(qpochhammer_mp(x, qp.alpha))
            assert abs(qpochhammer_inf(x, qp) / want - 1) <= 2e-15

    def test_qexp_matches_mp_oracle(self):
        # the nine points of the baxter.qexp_limit check; measured worst
        # 1.8e-16 (the factor-by-factor product had 1.4e-12)
        qp = QParam(1.0 - 1e-4)
        for x in np.linspace(-1.0, 1.0, 9):
            want = 1 / complex(qpochhammer_mp(x * (1.0 - qp.alpha),
                                              qp.alpha))
            assert abs(qexp(x, qp) / want - 1) <= 2e-15

    def test_term_cap(self):
        # ~1.3e9 factors would be multiplied out: refused before any loop
        with pytest.raises(ValueError, match="term cap"):
            qpochhammer_inf(0.9, QParam(1.0 - 1e-9))

    # >= 10x the worst relative error of the recurrence below, 1.4e-12 over
    # 15,000 random draws of its domain
    SEAM_BOUND = 2e-11

    @given(modulus=st.floats(THETA / 2, 2 * THETA),
           phase=st.floats(-math.pi, math.pi),
           log_gap=st.floats(math.log10(1 / 0.95), 4.0))
    def test_seam_recurrence(self, modulus, phase, log_gap):
        # (x; a)_inf = (1 - x)(a x; a)_inf across |x| = THETA, where one
        # side multiplies out a factor that the other sums in its series
        qp = QParam(1.0 - 10.0**-log_gap)
        x = cmath.rect(modulus, phase)
        lhs = qpochhammer_inf(x, qp)
        rhs = (1 - x) * qpochhammer_inf(qp.alpha * x, qp)
        # near alpha = 1 the value can leave the double range
        assume(1e-300 < abs(lhs) < 1e300)
        assert abs(lhs - rhs) <= self.SEAM_BOUND * abs(lhs)


class TestSeriesTable:
    """_qpochhammer_parts reads the denominators of its log series from a
    per-alpha table; oracles.qpochhammer_parts_loop rebuilds them on every
    call."""

    # 0.99 e^0.5i: near the unit circle the series needs 30 terms, more
    # than the 27 of any real alpha
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1 - 1e-4, 0.6 + 0.3j,
                                       cmath.rect(0.99, 0.5)])
    def test_bit_identical_to_per_call_loop(self, alpha):
        qp = QParam(alpha, allow_complex=True)
        _series_table.cache_clear()
        rng = np.random.default_rng(47)
        # short series first, so that the table grows between calls; |y|
        # just below THETA takes the longest series, |x| >= THETA
        # multiplies factors out first
        mods = np.r_[1e-3, 0.05, np.nextafter(THETA, 0), THETA * 0.999,
                     rng.uniform(0.0, THETA, 20), THETA,
                     rng.uniform(THETA, 2.0, 6), 1e-6]
        for m in mods:
            for phase in (0.0, math.pi, rng.uniform(-math.pi, math.pi)):
                x = m if phase == 0.0 else cmath.rect(m, phase)
                got = _qpochhammer_parts(x, qp.alpha)
                want = qpochhammer_parts_loop(x, qp)
                # bit for bit, NaN included (prod overflows at |x| = 2 and
                # alpha = 1 - 1e-4)
                assert [type(v) for v in got] == [type(v) for v in want]
                assert np.array(got).tobytes() == np.array(want).tobytes()
        longest = math.ceil(_series_table(qp.alpha)[0]
                            / math.log(np.nextafter(THETA, 0)))
        assert len(_series_table(qp.alpha)[1]) == longest

    def test_real_and_complex_alpha_keep_separate_tables(self):
        # 0.5 == 0.5 + 0j, but a complex alpha builds complex denominators
        for alpha in (0.5, 0.5 + 0j, 0.5):
            qp = QParam(alpha, allow_complex=True)
            assert (_qpochhammer_parts(0.2 + 0.1j, qp.alpha)
                    == qpochhammer_parts_loop(0.2 + 0.1j, qp))
        assert isinstance(_series_table(0.5)[1][-1], float)
        assert isinstance(_series_table(0.5 + 0j)[1][-1], complex)


class TestJackson:
    def test_monomial_rule(self):
        f = lambda r: r[0] ** 3
        # q_k r^n = (1 - alpha^n) r^(n-1): n=3, alpha=0.5, r=2 -> 3.5
        assert jackson_op(f, 1, QP, [2.0]) == pytest.approx(3.5)
        # plain Jackson derivative of r^3 at r=2: (1-a^3)/(1-a) * r^2
        want = (1 - 0.5**3) / (1 - 0.5) * 4.0
        assert jackson_derivative(f, 1, QP, [2.0]) == pytest.approx(want)

    def test_constant_annihilated(self):
        assert jackson_derivative(lambda r: 4.2, 1, QP, [0.7]) == 0.0

    def test_classical_limit(self):
        qp = QParam(1.0 - 1e-7)
        f = lambda r: r[0] ** 4 + 2.0 * r[0]
        got = jackson_derivative(f, 1, qp, [1.3])
        assert got == pytest.approx(4 * 1.3**3 + 2.0, rel=1e-6)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ZeroDivisionError):
            jackson_op(lambda r: r[0], 1, QP, [0.0])

    def test_stacked_zero_coordinate_rejected(self):
        pts = np.array([[0.4, 0.0, 1.1]])
        for op in (jackson_op, jackson_derivative):
            with pytest.raises(ZeroDivisionError):
                op(lambda r: r[0], 1, QP, pts)

    def test_multisite_direction(self):
        f = lambda r: r[0] * r[1] ** 2
        pt = np.array([0.3, 0.8])
        got = jackson_op(f, 2, QP, pt)
        want = 0.3 * (1 - 0.5**2) * 0.8
        assert got == pytest.approx(want)


class TestJacksonIntegral:
    def test_geometric_series(self):
        b = 0.8
        got = jackson_integral(lambda r: 1.0, 1, QP, b)
        assert got == pytest.approx(b / (1 - 0.5), rel=1e-14)

    def test_inverse_property(self):
        f = lambda r: 1.0 + r[0] + 0.5 * r[0] ** 2
        inv = lambda r: jackson_integral(f, 1, QP, r[0])
        pt = np.array([0.7])
        assert abs(jackson_op(inv, 1, QP, pt) - f(pt)) < 1e-12

    def test_odd_symmetry(self):
        f = lambda r: r[0] ** 3
        got = jackson_integral(f, 1, QP, 0.9, a=-0.9)
        assert abs(got) < 1e-15

    def test_tail_cap(self):
        # a constant integrand stops only at alpha^n < JACKSON_TAIL / (1 - alpha),
        # after ~2.3e7 nodes, far beyond the JACKSON_MAX_NODES cap
        qp = QParam(0.999999)
        with pytest.raises(ValueError):
            jackson_integral(lambda r: 1.0, 1, qp, 1.0)


def _per_node(coef, k):
    """The polynomial sum_i coef[i] r_k^i, evaluated node by node in scalar
    arithmetic, so its values do not depend on how the nodes are stacked."""
    def poly(x):
        acc = 0j
        for c in coef[::-1]:
            acc = acc * x + c
        return acc

    def f(r):
        row = r[k - 1]
        if np.ndim(row) == 0:
            return poly(row)
        return np.array([poly(x) for x in row])
    return f


def _numpy_poly(coef, k):
    """sum_i coef[i] r_k^i as one numpy expression on the stacked nodes,
    plus r_1 r_2 when k = 2, so that the other coordinates enter."""
    def f(r):
        x = r[k - 1]
        val = coef[0] + coef[1] * x + coef[2] * x**2
        if len(coef) > 3:
            val = val + coef[3] * x**3
        return val if k == 1 else val + r[0] * x
    return f


JACKSON_ALPHAS = [0.2, 0.5, 0.9, 0.6 + 0.3j]
# (k, point): one coordinate, and direction 2 with a non-zero r_1
JACKSON_PLACES = [(1, None), (2, np.array([0.7, 0.0]))]


class TestJacksonBlocks:
    """jackson_integral evaluates its integrand on blocks of nodes; the
    node-by-node loop it replaced is oracles.jackson_integral_loop."""

    @pytest.mark.parametrize("alpha", JACKSON_ALPHAS)
    @pytest.mark.parametrize("k, point", JACKSON_PLACES)
    def test_bit_identical_to_node_loop(self, alpha, k, point):
        # same nodes, same products, same additions in the same order
        qp = QParam(alpha, allow_complex=True)
        rng = np.random.default_rng(41)
        for deg in (2, 3, 2, 3):
            coef = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            b, a = rng.uniform(0.3, 1.5), -rng.uniform(0.2, 1.2)
            integrands = [_per_node(coef, k), lambda r: 2.0]
            if isinstance(alpha, float):
                # at real alpha and real bounds the nodes are real, so
                # numpy's vector arithmetic inside f rounds as the scalar does
                integrands.append(_numpy_poly(coef, k))
            for f in integrands:
                for lims in ((b,), (b, a)):
                    got = jackson_integral(f, k, qp, *lims, point=point)
                    want = jackson_integral_loop(f, k, qp, *lims, point=point)
                    assert got == want

    @pytest.mark.parametrize("k, point", JACKSON_PLACES)
    def test_numpy_integrand_at_complex_alpha(self, k, point):
        # at complex nodes numpy's vector complex product is fused (FMA)
        # and the scalar one is not, so f itself differs in its last bits
        # between the two schedules; measured worst 2.8e-16 relative
        qp = QParam(0.6 + 0.3j, allow_complex=True)
        rng = np.random.default_rng(42)
        for deg in (2, 3) * 5:
            coef = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            f = _numpy_poly(coef, k)
            b, a = rng.uniform(0.3, 1.5), -rng.uniform(0.2, 1.2)
            for lims in ((b,), (b, a)):
                got = jackson_integral(f, k, qp, *lims, point=point)
                want = jackson_integral_loop(f, k, qp, *lims, point=point)
                assert abs(got - want) <= 4e-15 * abs(want)

    # alpha -> bound on |error| / |I|; the stop rule is relative, so small
    # integrals keep their precision (with the absolute rule it had, the
    # error at alpha = 0.9, b = 0.3, n = 5 was 6.6e-14 of |I|).  Measured
    # worst: 4.1e-16, 4.4e-16, 1.7e-15 and 8.7e-16.
    CLOSED_FORM_BOUND = {0.2: 1e-15, 0.5: 1e-15, 0.9: 4e-15, 0.6 + 0.3j: 2e-15}

    @pytest.mark.parametrize("alpha", JACKSON_ALPHAS)
    def test_monomial_closed_form(self, alpha):
        # int_0^b r^n d_alpha r = (1 - alpha) b^(n+1) / (1 - alpha^(n+1)) in
        # the standard normalisation; jackson_integral drops the 1 - alpha,
        # so that q_k inverts it
        qp = QParam(alpha, allow_complex=True)
        bound = self.CLOSED_FORM_BOUND[alpha]
        for n in range(6):
            for b in (0.3, 0.77, 1.0, 1.9, -1.3, 3.0):
                got = jackson_integral(lambda r: r[0] ** n, 1, qp, b)
                want = (mpmath.mpf(b) ** (n + 1)
                        / (1 - mpmath.mpc(alpha) ** (n + 1)))
                assert abs(got - complex(want)) <= bound * abs(complex(want))

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_stacked_op_equals_per_point(self, alpha):
        qp = QParam(alpha)
        rng = np.random.default_rng(43)
        coef = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pts = rng.uniform(0.2, 1.4, (2, 7)) + 1j * rng.uniform(-1, 1, (2, 7))
        for k in (1, 2):
            f = _per_node(coef, k)
            for op in (jackson_op, jackson_derivative):
                stacked = op(f, k, qp, pts)
                cols = [op(f, k, qp, pts[:, j]) for j in range(pts.shape[1])]
                assert stacked.shape == (pts.shape[1],)
                assert np.array_equal(stacked, cols)

    def test_one_integrand_call_for_both_bounds(self):
        # a slide back to one integrand call per node, or per bound, fails
        # here; the first block, ceil(ln(JACKSON_TAIL) / ln 2) + 2 = 56
        # nodes per bound, suffices, and both bounds share it
        first = math.ceil(math.log(JACKSON_TAIL) / math.log(QP.alpha)) + 2
        rng = np.random.default_rng(44)
        shapes = []
        for _ in range(20):
            coef = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            poly = _numpy_poly(coef, 1)

            def f(r):
                shapes.append(r.shape)
                return poly(r)
            b, a = rng.uniform(0.1, 2.0), -rng.uniform(0.1, 2.0)
            shapes.clear()
            jackson_integral(f, 1, QP, b)
            assert shapes == [(1, first)]
            shapes.clear()
            jackson_integral(f, 1, QP, b, a=a)
            assert shapes == [(1, 2 * first)]

    # >= 6x the worst of |q_1 int_0^r f - f| / (eps scale) below, 10.5 over
    # 3,000 random draws of this domain
    INVERSE_C = 64

    @given(c0_mod=st.floats(0.5, 2.0), c0_phase=st.floats(-math.pi, math.pi),
           rest=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
           r_mod=st.floats(0.5, 2.0), r_sign=st.sampled_from([1.0, -1.0]),
           alpha=st.floats(0.05, 0.95))
    def test_q_op_inverts_integral(self, c0_mod, c0_phase, rest, r_mod,
                                   r_sign, alpha):
        # q_1 int_0^r f = f for cubics f.  The error is rounding in the sum
        # I(r), eps |r| sum_i |c_i| |r|^i / (1 - alpha), divided by |r| in
        # q_1; the relative stop rule's tail stays under it
        qp = QParam(alpha)
        coef = [cmath.rect(c0_mod, c0_phase)] + [
            complex(x, y) for x, y in zip(rest[::2], rest[1::2])]
        f = _numpy_poly(coef, 1)
        pt = np.array([r_sign * r_mod])
        got = jackson_op(lambda p: jackson_integral(f, 1, qp, p[0]), 1, qp, pt)
        scale = sum(abs(c) * r_mod**i for i, c in enumerate(coef)) / (1 - alpha)
        assert abs(got - f(pt)) <= self.INVERSE_C * 2.0**-53 * scale


def _power(r):
    """r_1 ** r_2: the exponent rides along as the second coordinate, so
    that bounds sharing a call stop at different nodes."""
    return r[0] ** r[1]


class TestJacksonArrayBounds:
    """Arrays of bounds, each with the shared point or its own, give the
    per-bound scalar calls bit for bit."""

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
    def test_equal_to_scalar_calls(self, alpha):
        qp = QParam(alpha)
        rng = np.random.default_rng(45)
        n = 9
        b = np.r_[rng.uniform(0.3, 1.5, n - 2), 0.0, -0.8]
        a = np.r_[0.0, rng.uniform(-1.2, 0.4, n - 1)]
        # per-bound coefficients of r_1^0..r_1^2 as coordinates 2..4
        poly = lambda r: r[1] + r[2] * r[0] + r[3] * r[0] ** 2
        coef = rng.uniform(-1, 1, (3, n)) + 1j * rng.uniform(-1, 1, (3, n))
        pts = np.vstack([np.zeros(n), coef])
        # exponents from 2 down to -0.9: terms decaying like alpha^(0.1 n)
        # stop several blocks after those of the polynomials
        powers = np.vstack([np.zeros(n), np.linspace(2.0, -0.9, n)])
        for f, point, per_bound in ((poly, pts, True),
                                    (_power, powers, True),
                                    (_per_node([0.3, -1.1, 0.7], 1),
                                     None, False),
                                    (lambda r: 2.0, None, False)):
            col = lambda i: point[:, i] if per_bound else point
            for lims in ((b,), (b, a)):
                got = jackson_integral(f, 1, qp, *lims, point=point)
                want = [jackson_integral(f, 1, qp, *(w[i] for w in lims),
                                         point=col(i)) for i in range(n)]
                assert got.shape == (n,)
                assert np.array_equal(got, want)
        assert np.ndim(jackson_integral(poly, 1, qp, 0.7,
                                        point=pts[:, 0])) == 0

    def test_bounds_stop_in_different_blocks(self):
        first = math.ceil(math.log(JACKSON_TAIL) / math.log(QP.alpha)) + 2
        widths = []

        def f(r):
            widths.append(r.shape[1])
            return _power(r)
        powers = np.array([[0.0, 0.0, 0.0], [2.0, -0.5, -0.9]])
        jackson_integral(f, 1, QP, np.array([0.7, 0.7, 0.7]), point=powers)
        # blocks of first, 2 first, 4 first, 8 first nodes per bound: r^2
        # stops in the first, r^-0.5 in the second, r^-0.9 in the fourth
        assert widths == [3 * first, 2 * 2 * first, 4 * first, 8 * first]


class TestJacksonStopRule:
    """The sum of a bound stops at its first nonzero term below JACKSON_TAIL
    times max(|partial sum|, largest |term| so far), or at a zero term in
    the tail, where |alpha|^n < JACKSON_TAIL."""

    @pytest.mark.parametrize("c", [0.7, 0.35])
    def test_zero_at_a_node_does_not_end_the_sum(self, c):
        # r - c vanishes at the node 0.7 alpha^n = c, n = 0 and 1: the sum
        # used to end there, at 0 and at 0.245
        widths = []

        def f(r):
            widths.append(r.shape[1])
            return r[0] - c
        b, a = mpmath.mpf(0.7), mpmath.mpf(QP.alpha)
        want = float(b**2 / (1 - a**2) - c * b / (1 - a))
        got = jackson_integral(f, 1, QP, 0.7)
        assert abs(got - want) <= 1e-15 * abs(want)
        assert len(widths) == 1
        assert got == jackson_integral_loop(lambda r: r[0] - c, 1, QP, 0.7)

    def test_integrand_vanishing_below_a_node_stops_in_the_tail(self):
        # zero from the third node on: the sum is exact after two terms and
        # the zeros end it within the first block
        widths = []

        def f(r):
            widths.append(r.shape[1])
            return (r[0].real > 0.3) * 1.0
        assert jackson_integral(f, 1, QP, 0.7) == 0.7 + 0.35
        assert len(widths) == 1

    @pytest.mark.parametrize("c", [1e-17, 1e-30, 1e-10, 1.0])
    def test_small_integrals_keep_their_precision(self, c):
        # with the absolute rule, max(1, |partial sum|), a constant 1e-17
        # was cut after one node and q_1 int came back 50% off
        f = lambda r: c
        inv = lambda q: jackson_op(lambda p: q(f, 1, QP, p[0]), 1, QP, [0.7])
        assert abs(inv(jackson_integral) - c) <= 1e-15 * c
        if c < 1e-16:
            assert abs(inv(jackson_integral_absolute_loop) - c) > 0.4 * c

    def test_all_zero_integrand_stops_at_once(self):
        widths = []

        def f(r):
            widths.append(r.shape[1])
            return 0.0 * r[0]
        assert jackson_integral(f, 1, QP, 0.9, a=-0.4) == 0
        assert np.array_equal(jackson_integral(f, 1, QP, [0.3, 2.0]), [0, 0])
        first = math.ceil(math.log(JACKSON_TAIL) / math.log(QP.alpha)) + 2
        assert widths == [2 * first, 2 * first]

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
    def test_large_sums_keep_their_bits(self, alpha):
        # where the sum is >= 1 and >= every term, the relative threshold
        # equals the absolute one node by node
        qp = QParam(alpha)
        rng = np.random.default_rng(46)
        for _ in range(10):
            coef = rng.uniform(0.5, 2.0, 4)
            f = _per_node(coef, 1)
            b = rng.uniform(1.0, 2.0)
            assert jackson_integral(f, 1, qp, b) \
                == jackson_integral_absolute_loop(f, 1, qp, b)

    def test_small_integrals_stop_in_the_first_block(self):
        # at alpha = 1/2 the relative rule needs no second block either
        first = math.ceil(math.log(JACKSON_TAIL) / math.log(QP.alpha)) + 2
        rng = np.random.default_rng(47)
        for scale in (1e-30, 1e-17, 1e-3, 1.0, 1e12):
            widths = []
            coef = scale * (rng.standard_normal(4)
                            + 1j * rng.standard_normal(4))

            def f(r):
                widths.append(r.shape[1])
                return _numpy_poly(coef, 1)(r)
            jackson_integral(f, 1, QP, rng.uniform(0.05, 2.0, 5),
                             a=-rng.uniform(0.05, 2.0, 5))
            assert widths == [10 * first]

    def test_nan_term_ends_the_sum_with_nan(self):
        # the NaN stops the sum in the first block, not at the node cap
        # with a "tail not decaying" ValueError
        widths = []

        def f(r):
            widths.append(r.shape[1])
            return np.nan * r[0]
        assert cmath.isnan(jackson_integral(f, 1, QP, 0.7))
        assert len(widths) == 1
        assert cmath.isnan(jackson_integral_loop(lambda r: np.nan * r[0], 1,
                                                 QP, 0.7))

    def test_nan_column_among_finite_bounds(self):
        # r_2 = NaN in the middle column only: that bound's sum is NaN, the
        # others keep their node-by-node bits, all in one block
        widths = []

        def f(r):
            widths.append(np.shape(r[0]))
            return r[0] * r[1] + 1.0
        b = np.array([0.7, 0.5, 0.3])
        point = np.array([[0.0, 0.0, 0.0], [1.5, np.nan, -2.0]])
        got = jackson_integral(f, 1, QP, b, point=point)
        assert len(widths) == 1
        assert cmath.isnan(got[1])
        for i in (0, 2):
            assert got[i] == jackson_integral_loop(f, 1, QP, b[i],
                                                   point=point[:, i])


class TestLeibnizParts:
    """The q-product rule and q-integration by parts for ten pairs in one
    stacked check, against the per-pair loop it replaced."""

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
    def test_stacked_equals_pair_loop(self, alpha):
        qp = QParam(alpha)
        rng = np.random.default_rng(48)
        for _ in range(5):
            cf, cg = rng.uniform(-1, 1, (10, 3)), rng.uniform(-1, 1, (10, 3))
            x, b, a = (rng.uniform(0.3, 1.2, 10), rng.uniform(0.5, 1.5, 10),
                       rng.uniform(0.1, 0.4, 10))
            got = qcalc.leibniz_parts_residuals(qp, cf, cg, x, b, a)
            want, scale = leibniz_parts_loop(qp, cf, cg, x, b, a)
            assert got.shape == (2, 10)
            assert (np.abs(got - want) <= 4 * np.spacing(scale)).all()
            assert got.max() < 1e-13

    def test_two_integrals_and_three_products(self, monkeypatch):
        calls = {"jackson_integral": [], "jackson_op": []}
        for name, fn in ((n, getattr(qcalc, n)) for n in list(calls)):
            def counted(*args, name=name, fn=fn, **kw):
                calls[name].append(np.shape(args[3]))
                return fn(*args, **kw)
            monkeypatch.setattr(qcalc, name, counted)
        rng = np.random.default_rng(49)
        qcalc.leibniz_parts_residuals(QP, rng.uniform(-1, 1, (10, 3)),
                                      rng.uniform(-1, 1, (10, 3)),
                                      *rng.uniform(0.3, 1.2, (3, 10)))
        assert calls["jackson_integral"] == [(10,), (10,)]
        # the product rule on the ten columns, then one per integrand block
        assert calls["jackson_op"][:3] == [(7, 10)] * 3
        assert len(calls["jackson_op"]) == 5


class TestCalculusLaws:
    def test_leibniz_and_parts_random_pairs(self):
        rng = np.random.default_rng(31)
        worst_leib, worst_parts = 0.0, 0.0
        for _ in range(50):
            cf = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            cg = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            f = lambda r: cf[0] + cf[1] * r[0] + cf[2] * r[0] ** 2
            g = lambda r: cg[0] + cg[1] * r[0] + cg[2] * r[0] ** 3
            pt = np.array([rng.uniform(0.2, 1.4)])
            lhs = jackson_op(lambda r: f(r) * g(r), 1, QP, pt)
            rhs = (f(pt) * jackson_op(g, 1, QP, pt)
                   + g(QP.alpha * pt) * jackson_op(f, 1, QP, pt))
            worst_leib = max(worst_leib, abs(lhs - rhs))

            a, b = rng.uniform(0.1, 0.4), rng.uniform(0.6, 1.4)
            qg = lambda r: jackson_op(g, 1, QP, r)
            qf = lambda r: jackson_op(f, 1, QP, r)
            lhs2 = jackson_integral(lambda r: f(r) * qg(r), 1, QP, b, a=a)
            rhs2 = (f([b]) * g([b]) - f([a]) * g([a])
                    - jackson_integral(lambda r: g(QP.alpha * r) * qf(r),
                                       1, QP, b, a=a))
            worst_parts = max(worst_parts, abs(lhs2 - rhs2))
        assert worst_leib < 1e-12
        assert worst_parts < 1e-10


def _outcome(kernel, x, qp):
    """The bits of kernel(x, qp), or the exception type it raises."""
    try:
        return np.array(kernel(x, qp)).tobytes()
    except ValueError as exc:
        return type(exc)


def _guarded_value(x, qp):
    return _poch_guarded(x, qp)[0]


class TestPochGuarded:
    """The pole test folded into the factor loop, memoised, against the
    two-pass guard it replaced (oracles.poch_guarded_two_pass)."""

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1 - 1e-4, 0.6 + 0.3j])
    def test_bit_identical_to_two_pass_guard(self, alpha):
        qp = QParam(alpha, allow_complex=True)
        rng = np.random.default_rng(48)
        mods = np.exp(rng.uniform(math.log(1e-3), math.log(50.0), 40))
        xs = [cmath.rect(m, rng.uniform(-math.pi, math.pi)) for m in mods]
        # real arguments with either sign of a zero imaginary part
        xs += [complex(m, z) for m in (0.3, -2.0, 7.5) for z in (0.0, -0.0)]
        # inner-factor poles x = alpha^-p, and points just off them
        for p in range(4):
            pole = qp.alpha ** -p
            xs += [pole, pole * (1 + 1e-13), pole * (1 + 1e-11)]
        raised = 0
        for x in xs:
            want = _outcome(poch_guarded_two_pass, x, qp)
            # the first call evaluates, the second reads the cache
            assert _outcome(_guarded_value, x, qp) == want
            assert _outcome(_guarded_value, x, qp) == want
            raised += want is QPochhammerPoleError
        assert raised == 8  # alpha^-p and alpha^-p (1 + 1e-13), p = 0..3

    def test_signed_zeros_are_separate_arguments(self):
        # 0.5+0j == 0.5-0j, but the cache keys on bits: four entries for
        # the signs of zero in x and in a complex alpha, two more at the
        # real alpha 0.5
        qcalc._guarded_memo.cache_clear()
        qps = [QParam(complex(0.5, z), allow_complex=True)
               for z in (0.0, -0.0)] + [QP]
        for qp in qps:
            for x in (complex(-0.5, 0.0), complex(-0.5, -0.0)):
                assert (_outcome(_guarded_value, x, qp)
                        == _outcome(poch_guarded_two_pass, x, qp))
        assert qcalc._guarded_memo.cache_info().misses == 6

    def test_pole_raises_on_every_call(self):
        qcalc._guarded_memo.cache_clear()
        for _ in range(3):
            with pytest.raises(QPochhammerPoleError):
                _poch_guarded(1.0, QP)
        info = qcalc._guarded_memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    def test_cache_stays_bounded(self):
        qcalc._guarded_memo.cache_clear()
        for x in np.linspace(0.01, 0.9, 3 * POCH_CACHE_SIZE):
            _poch_guarded(x, QP)
        info = qcalc._guarded_memo.cache_info()
        assert info.currsize == info.maxsize == POCH_CACHE_SIZE


class TestRhoSite:
    KS = KernelSite(mu=1.3, rtilde_k=1.4, rtilde_km1=1.7)

    def test_functional_equation(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            r = rng.uniform(0.05, 0.9)
            assert rho_functional_residual(self.KS, QP, r) < 1e-12

    def test_zero_argument_is_normalization(self):
        assert rho_site(self.KS, QP, 0.0) == 1.0

    def test_accepts_arguments_beyond_one_over_one_minus_alpha(self):
        # |x1| = 3 and |x2| = 2.2 exceed 1/(1 - alpha) = 2: the products
        # still converge, so rho_site evaluates them.
        ks = KernelSite(mu=0.9, rtilde_k=0.75, rtilde_km1=0.5)
        r = 1.5
        x1, x2 = r / 0.5, -r / (0.81 * 0.75)
        want = 1.0
        for p in range(200):
            want /= (1.0 - x1 * 0.5**p) * (1.0 - x2 * 0.5**p)
        got = rho_site(ks, QP, r)
        assert abs(got - want) <= 1e-13 * abs(want)
        assert rho_functional_residual(ks, QP, r) < 1e-12

    def test_pole_guard(self):
        ks = KernelSite(mu=1.3, rtilde_k=1.4, rtilde_km1=1.0)
        with pytest.raises(ValueError):
            rho_site(ks, QP, 1.0)  # r/rtilde_{k-1} = 1 kills a factor

    def test_pole_guard_inner_factor(self):
        # r/rtilde_{k-1} = alpha^-3 kills the factor p = 3
        qp = QParam(math.exp(-0.01))
        ks = KernelSite(mu=1.3, rtilde_k=1.4, rtilde_km1=1.0)
        with pytest.raises(QPochhammerPoleError):
            rho_site(ks, qp, qp.alpha**-3)

    def test_small_product_is_not_a_pole(self):
        # (0.5; e^-0.01)_inf ~ 5e-26 with no factor near zero; the bound is
        # >= 10x the worst measured error, 4.2e-14
        qp = QParam(math.exp(-0.01))
        ks = KernelSite(mu=1.0, rtilde_k=1.0, rtilde_km1=1.0)
        for r in (0.5, 0.863):
            want = 1 / complex(qpochhammer_mp(r, qp.alpha)
                               * qpochhammer_mp(-r, qp.alpha))
            got = rho_site(ks, qp, r)
            assert abs(got / want - 1) <= 1e-12

    def test_underflow_against_overflow_in_logs(self):
        # at alpha = 1 - 1e-4, (0.2; alpha)_inf ~ e^-2110 underflows to 0
        # and (-0.2; alpha)_inf ~ e^1908 overflows; their ratio is 5.6e87.
        # Measured error 2.8e-14; the bound is >= 10x that.
        qp = QParam(1.0 - 1e-4)
        ks = KernelSite(mu=1.0, rtilde_k=1.0, rtilde_km1=1.0)
        assert qpochhammer_inf(0.2, qp) == 0
        assert not cmath.isfinite(qpochhammer_inf(-0.2, qp))
        want = complex(1 / (qpochhammer_mp(0.2, qp.alpha)
                            * qpochhammer_mp(-0.2, qp.alpha)))
        got = rho_site(ks, qp, 0.2)
        assert abs(got / want - 1) <= 1e-12

    def test_finite_products_keep_the_direct_quotient(self):
        qp = QParam(0.9)
        for r in (0.1, 0.7, 2.5):
            x1 = r / self.KS.rtilde_km1
            x2 = -r / (self.KS.mu**2 * self.KS.rtilde_k)
            assert rho_site(self.KS, qp, r) == 1.0 / (
                qpochhammer_inf(x1, qp) * qpochhammer_inf(x2, qp))

    def test_log_parts_near_one_match_mp(self):
        # at alpha = 1 - 1e-4 the factors multiplied out for |x| >= THETA
        # leave the double range ((0.5; alpha)_inf ~ e^-5822); summed as
        # logs they give log (x; alpha)_inf.  Measured worst 9.4e-15
        qp = QParam(1.0 - 1e-4)
        for x in (0.2, 0.5, 0.9, -0.2, -0.5, -0.9):
            want = complex(qpochhammer_log_mp(x, qp.alpha))
            got = sum(_qpochhammer_parts(x, qp.alpha, log=True))
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_products_beyond_the_double_range(self):
        # rho = 1/((r; alpha)_inf (-r; alpha)_inf) at alpha = 1 - 1e-4:
        # log rho = 202 at r = 0.2; 1338 and 5476 at r = 0.5, 0.9, where
        # the value itself is beyond the double range and comes back with
        # an infinite modulus, not NaN
        qp = QParam(1.0 - 1e-4)
        ks = KernelSite(mu=1.0, rtilde_k=1.0, rtilde_km1=1.0)
        for r in (0.2, 0.5, 0.9):
            log_want = -(qpochhammer_log_mp(r, qp.alpha)
                         + qpochhammer_log_mp(-r, qp.alpha))
            got = rho_site(ks, qp, r)
            if log_want.real < math.log(sys.float_info.max):
                want = complex(mpmath.exp(log_want))
                assert abs(got / want - 1) <= 1e-10
            else:
                assert got == cmath.rect(math.inf, float(log_want.imag))

    def test_both_products_out_of_range_value_in_range(self):
        # (0.5; alpha)_inf ~ e^-5822 and (-0.67; alpha)_inf ~ e^5823: both
        # multiplied-out parts leave the double range, rho ~ 0.56 does not
        qp = QParam(1.0 - 1e-4)
        ks = KernelSite(mu=1.0, rtilde_k=0.5 / 0.67, rtilde_km1=1.0)
        r = 0.5
        x2 = -r / (ks.mu**2 * ks.rtilde_k)
        want = complex(mpmath.exp(-(qpochhammer_log_mp(r, qp.alpha)
                                    + qpochhammer_log_mp(x2, qp.alpha))))
        got = rho_site(ks, qp, r)
        assert 0.1 < abs(want) < 10
        assert abs(got / want - 1) <= 1e-10

    def test_log_oracle_matches_product_oracle(self):
        # the power series of qpochhammer_log_mp against mpmath's qp; the
        # two branches differ by multiples of 2 pi i
        with mpmath.workdps(40):
            for x in (0.5, -0.9, 0.3 + 0.4j):
                diff = (qpochhammer_log_mp(x, 0.9)
                        - mpmath.log(qpochhammer_mp(x, 0.9)))
                turns = diff.imag / (2 * mpmath.pi)
                assert abs(diff.real) < 1e-30
                assert abs(turns - mpmath.nint(turns)) < 1e-30

    def test_kernel_site_validation(self):
        with pytest.raises(ValueError):
            KernelSite(mu=0.0, rtilde_k=1.0, rtilde_km1=1.0)


class TestKernelF:
    MU = 1.3

    def test_four_functional_equations(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            c, cp = rng.uniform(0.5, 0.9, 2)
            r = rng.uniform(0.2, 0.4)
            res = feq_residuals(c, cp, r, self.MU, QP)
            assert res.max() < 1e-10

    def test_bit_identical_to_per_occurrence_loop(self):
        rng = np.random.default_rng(36)
        for mu, qp in ((self.MU, QP), (0.7, QParam(0.9)),
                       (1.1, QParam(0.6 + 0.3j, allow_complex=True))):
            for _ in range(10):
                c, cp = rng.uniform(0.5, 0.9, 2)
                r = rng.uniform(0.2, 0.4)
                got = feq_residuals(c, cp, r, mu, qp)
                assert np.array_equal(got,
                                      feq_residuals_loop(c, cp, r, mu, qp))

    def test_one_kernel_evaluation_per_distinct_triple(self, monkeypatch):
        slots = qcalc._kernel_F_slots
        calls = []

        def counted(u, v, w, mu, qp):
            calls.append((u, v, w))
            return slots(u, v, w, mu, qp)

        monkeypatch.setattr(qcalc, "_kernel_F_slots", counted)
        feq_residuals(0.7, 0.6, 0.3, self.MU, QP)
        assert len(calls) == len(set(calls)) == 5

    def test_homogeneity_degree_minus_one(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            c, cp = rng.uniform(0.4, 0.9, 2)
            lhs = kernel_G(c, cp, self.MU, QP)
            rhs = QP.alpha * kernel_G(QP.alpha * c, QP.alpha * cp,
                                      self.MU, QP)
            assert abs(lhs - rhs) / abs(lhs) < 1e-12

    def test_ghat_scaling_relation(self):
        for z in (0.3, 0.77, 1.4):
            lhs = ghat(z, QP)
            rhs = z * ghat(QP.alpha * z, QP)
            assert abs(lhs - rhs) / abs(lhs) < 1e-12

    def test_branch_error_on_negative_axis(self):
        with pytest.raises(ValueError):
            ghat(-0.5, QP)
        with pytest.raises(ValueError):
            kernel_F(-0.5, 0.8, 0.2, self.MU, QP)


class TestQhatKernel:
    MU = 1.3

    def test_zero_r_vector(self):
        rt = np.array([1.2, 1.5, 1.8])
        got = qhat_kernel(self.MU, QP, rt, np.zeros(3))
        assert got == pytest.approx(1.0 / np.prod(rt))

    def test_matches_rho_product(self):
        rng = np.random.default_rng(35)
        rt = rng.uniform(1.1, 1.9, 3)
        r = rng.uniform(0.1, 0.9, 3)
        want = 1.0
        for k in range(3):
            ks = KernelSite(mu=self.MU, rtilde_k=rt[k], rtilde_km1=rt[k - 1])
            want *= rho_site(ks, QP, r[k]) / rt[k]
        assert qhat_kernel(self.MU, QP, rt, r) == pytest.approx(want,
                                                                rel=1e-13)

    def test_rejects_zero_rtilde(self):
        with pytest.raises(ValueError):
            qhat_kernel(self.MU, QP, np.array([1.0, 0.0]), np.zeros(2))
