import numpy as np
import pytest

from albaxter.qcalc import (KernelSite, QParam, feq_residuals, ghat,
                            jackson_derivative, jackson_integral, jackson_op,
                            kernel_F, kernel_G, qexp, qhat_kernel,
                            qpochhammer_inf, rho_functional_residual, rho_site)

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

    def test_from_eta(self):
        assert QParam.from_eta(1.0).alpha == pytest.approx(0.5)

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
        qp = QParam(0.999999)
        with pytest.raises(ValueError):
            jackson_integral(lambda r: 1.0, 1, qp, 1.0, terms=50)


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


class TestRhoSite:
    KS = KernelSite(mu=1.3, rtilde_k=1.4, rtilde_km1=1.7)

    def test_functional_equation(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            r = rng.uniform(0.05, 0.9)
            assert rho_functional_residual(self.KS, QP, r) < 1e-12

    def test_zero_argument_is_normalization(self):
        ks = KernelSite(mu=1.3, rtilde_k=1.4, rtilde_km1=1.7,
                        normalization=2.5)
        assert rho_site(ks, QP, 0.0) == pytest.approx(2.5)

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

    def test_amplitude_scales_linearly(self):
        v1 = kernel_F(0.6, 0.8, 0.3, self.MU, QP, amplitude=1.0)
        v2 = kernel_F(0.6, 0.8, 0.3, self.MU, QP, amplitude=3.0)
        assert v2 == pytest.approx(3.0 * v1)


class TestQhatKernel:
    MU = 1.3

    def test_zero_r_vector(self):
        rt = np.array([1.2, 1.5, 1.8])
        got = qhat_kernel(self.MU, QP, rt, np.zeros(3), amplitude=2.0)
        assert got == pytest.approx(2.0 / np.prod(rt))

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

    def test_amplitude_cancels_in_ratios(self):
        rt = np.array([1.2, 1.5])
        r1, r2 = np.array([0.2, 0.3]), np.array([0.4, 0.1])
        ratio_1 = (qhat_kernel(self.MU, QP, rt, r1, amplitude=1.0)
                   / qhat_kernel(self.MU, QP, rt, r2, amplitude=1.0))
        ratio_7 = (qhat_kernel(self.MU, QP, rt, r1, amplitude=7.0)
                   / qhat_kernel(self.MU, QP, rt, r2, amplitude=7.0))
        assert ratio_1 == pytest.approx(ratio_7, rel=1e-14)

    def test_rejects_zero_rtilde(self):
        with pytest.raises(ValueError):
            qhat_kernel(self.MU, QP, np.array([1.0, 0.0]), np.zeros(2))
