import numpy as np
import pytest

from albaxter.algebra import LaurentPoly, MultiDual

from oracles import Mat2, seed_duals


def lp(d):
    return LaurentPoly(d)


class TestLaurent:
    def test_exponent_cancellation(self):
        p = lp({1: 1.0}) * lp({-1: 1.0})
        assert p.coeffs == {0: 1.0}

    def test_hand_convolution(self):
        # (lam + 2 lam^-1) (3 lam) = 3 lam^2 + 6
        p = lp({1: 1.0, -1: 2.0}) * lp({1: 3.0})
        assert p.support == [0, 2]
        assert p.coeff(2) == pytest.approx(3.0)
        assert p.coeff(0) == pytest.approx(6.0)

    def test_zero_annihilates(self):
        p = lp({3: 2.0, -1: 1.0}) * lp({})
        assert p.coeffs == {}

    def test_eval_values(self):
        assert lp({1: 1.0, -1: 1.0}).eval(1.0) == pytest.approx(2.0)
        assert lp({2: 1.0}).eval(3.0) == pytest.approx(9.0)
        assert lp({1: 1.0, -1: -1.0}).eval(1j) == pytest.approx(2j)

    def test_eval_zero_with_negative_exponent(self):
        with pytest.raises(ZeroDivisionError):
            lp({-1: 1.0}).eval(0.0)
        assert lp({2: 5.0}).eval(0.0) == 0.0

    def test_exponent_guard(self):
        with pytest.raises(OverflowError):
            lp({2**40: 1.0})

    def test_support_addition_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = _random_poly(rng)
            q = _random_poly(rng)
            prod = p * q
            allowed = {e1 + e2 for e1 in p.coeffs for e2 in q.coeffs}
            assert set(prod.coeffs) <= allowed

    def test_associativity_and_eval_homomorphism(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p, q, r = (_random_poly(rng) for _ in range(3))
            left = (p * q) * r
            right = p * (q * r)
            lam = 0.7 + 0.4j
            for e in set(left.coeffs) | set(right.coeffs):
                assert left.coeff(e) == pytest.approx(right.coeff(e),
                                                      rel=1e-12, abs=1e-12)
            ev = (p * q).eval(lam)
            assert ev == pytest.approx(p.eval(lam) * q.eval(lam), rel=1e-12)

    def test_relative_pruning(self):
        p = lp({0: 1.0, 5: 1e-30})
        assert p.support == [0]


def _random_poly(rng, span=4):
    exps = rng.integers(-span, span + 1, size=rng.integers(1, 5))
    return LaurentPoly({int(e): complex(rng.standard_normal(),
                                        rng.standard_normal())
                        for e in exps})


class TestMat2:
    def test_identity_both_sides(self):
        I = Mat2(1.0, 0.0, 0.0, 1.0)
        A = Mat2(1.0 + 2j, 3.0, -1j, 0.5)
        for prod in (A @ I, I @ A):
            assert prod.a11 == A.a11 and prod.a12 == A.a12
            assert prod.a21 == A.a21 and prod.a22 == A.a22

    def test_hand_checked_product(self):
        A = Mat2(1.0, 2.0, 3.0, 4.0)
        B = Mat2(5.0, 6.0, 7.0, 8.0)
        P = A @ B
        assert (P.a11, P.a12, P.a21, P.a22) == (19.0, 22.0, 43.0, 50.0)

    def test_entry_order_preserved(self):
        # entries from a non-commutative ring (sparse matrices, * = matmul)
        from scipy.sparse import csr_matrix
        x = csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        y = csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        z = 0.0 * x
        A = Mat2(x, z, z, x)
        B = Mat2(y, z, z, y)
        assert np.allclose((A @ B).a11.toarray(), (x @ y).toarray())
        assert np.allclose((B @ A).a11.toarray(), (y @ x).toarray())
        assert not np.allclose((x @ y).toarray(), (y @ x).toarray())


class TestMultiDual:
    def test_unit_seed(self):
        d = MultiDual.variable(2.0 + 1j, 1, 3)
        assert d.value == 2.0 + 1j
        assert np.array_equal(d.partials, np.array([0, 1, 0], dtype=complex))

    def test_rational_gradients_match_central_differences(self):
        rng = np.random.default_rng(3)

        def expr(v):
            a, b, c = v
            return (a * b + 2.0) / (c * c + a) - b**3 + 1.0 / (b + 4.0)

        for _ in range(25):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            if abs(x[2] ** 2 + x[0]) < 0.3 or abs(x[1] + 4.0) < 0.3:
                continue
            duals = seed_duals(x, 0, 3)
            grad = expr(duals).partials
            h = 1e-6
            for i in range(3):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (expr(xp) - expr(xm)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_pow_and_scalar_mixing(self):
        d = MultiDual.variable(1.5, 0, 1)
        out = 2.0 * d**3 - d / 2.0 + 7.0
        assert out.value == pytest.approx(2 * 1.5**3 - 0.75 + 7)
        assert out.partials[0] == pytest.approx(6 * 1.5**2 - 0.5)

    def test_exp_log_sqrt(self):
        d = MultiDual.variable(0.7 + 0.2j, 0, 1)
        assert d.exp().partials[0] == pytest.approx(np.exp(d.value))
        assert d.log().partials[0] == pytest.approx(1 / d.value)
        assert d.sqrt().partials[0] == pytest.approx(0.5 / np.sqrt(d.value))
