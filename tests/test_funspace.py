import itertools

import numpy as np
import pytest

from albaxter import funspace, qcalc
from albaxter.qcalc import QParam, jackson_op
from albaxter.report import RunConfig
from albaxter.suites import suite_baxter
from oracles import delta_action_residual_loop

QP = QParam(0.5)
MU = 1.3


def _inputs(N, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(1.1, 1.9, N) + 0j, rng.uniform(0.1, 0.9, (4, N))


def _word_expansion(mu, qp, rtilde, point):
    """Tr L_N ... L_1 rho summed over its 2^N index words.

    The word (s_0, .., s_{N-1}) takes the entry (L_k)_{s_k, s_{k-1}} at
    site k (s_N = s_0); each entry acts on a generic callable, q_k through
    qcalc.jackson_op, so nothing assumes the product structure of rho.
    """
    N = len(rtilde)

    def entry(i, j, k, g):
        if (i, j) == (0, 0):
            return lambda p: mu * g(p)
        if (i, j) == (0, 1):
            return lambda p: jackson_op(g, k, qp, p)
        if (i, j) == (1, 0):
            return lambda p: p[k - 1] * g(p)
        return lambda p: g(p) / mu

    total = 0.0
    for s in itertools.product((0, 1), repeat=N):
        g = funspace.rho_product(mu, qp, rtilde)
        for k in range(1, N + 1):
            g = entry(s[k % N], s[k - 1], k, g)
        total += g(np.asarray(point, dtype=complex))
    return total


class TestTraceAction:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_product_form_matches_word_expansion(self, N):
        for seed in range(3):
            rtilde, pts = _inputs(N, seed)
            for pt in pts:
                want = _word_expansion(MU, QP, rtilde, pt)
                got = funspace.trace_action(MU, QP, rtilde, pt)
                assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("N", [2, 3, 6, 8])
    def test_trace_identity_and_wrong_shift(self, N):
        rtilde, pts = _inputs(N, 10 + N)
        assert funspace.baxter_action_residual(MU, QP, rtilde, pts) < 1e-10
        off = funspace.baxter_action_residual(MU, QP, rtilde, pts[:1],
                                              shift=QP.alpha)
        assert off > 1e-2

    def test_trace_identity_at_N16(self):
        rtilde, pts = _inputs(16, 16)
        for pt in pts:
            res = funspace.baxter_action_residual(MU, QP, rtilde, pt)
            assert res <= 1e-12 * abs(funspace.trace_action(MU, QP, rtilde,
                                                            pt))

    def test_overflow_does_not_read_as_pass(self):
        # At N=1000 the 2x2 product leaves double range; the residual must
        # come out NaN, not the 0.0 that max(0.0, nan) would give.
        rtilde, pts = _inputs(1000, 1000)
        with np.errstate(over="ignore", invalid="ignore"):
            res = funspace.baxter_action_residual(MU, QP, rtilde, pts[:2])
        assert not res < 1e-10

    def test_rejects_zero_parameters(self):
        with pytest.raises(ValueError):
            funspace.rho_product(MU, QP, np.array([1.2, 0.0]))
        with pytest.raises(ValueError):
            funspace.trace_action(0.0, QP, np.array([1.2, 1.5]), [0.3, 0.4])

    def test_zero_coordinate_raises(self):
        with pytest.raises(ZeroDivisionError):
            funspace.trace_action(MU, QP, np.array([1.2, 1.5]), [0.3, 0.0])


class TestTriangularization:
    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_every_site_is_lower_triangular(self, N):
        rtilde, pts = _inputs(N, 20 + N)
        for k in range(1, N + 1):
            res = funspace.triangular_check(MU, QP, rtilde, k, pts[k % 4])
            assert res.shape == (4,)
            assert res.max() < 1e-11


class TestDeltaAction:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_product_kernel(self, N):
        rtilde, pts = _inputs(N, 30 + N)
        rho = funspace.rho_product(MU, QP, rtilde)
        for pt in pts:
            assert funspace.delta_action_residual(rho, QP, N, pt) < 1e-12

    def test_non_product_polynomial(self):
        f = lambda r: 1.0 + r[0] * r[1] + 0.5 * r[0] ** 2 * r[1] ** 3 - r[1]
        for pt in _inputs(2, 40)[1]:
            assert funspace.delta_action_residual(f, QP, 2, pt) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_one_evaluation_per_distinct_point(self, N):
        # the nested factors reach f at 2^N distinct points; each is
        # evaluated once, and the residual keeps the bits of the 3^N + 1
        # calls of oracles.delta_action_residual_loop
        rtilde, pts = _inputs(N, 50 + N)
        poly = lambda r: 1.0 + r[0] * r[-1] + 0.5 * r[0] ** 2 - r[-1] ** 3
        for qp in (QP, QParam(0.9)):
            for f in (funspace.rho_product(MU, qp, rtilde), poly):
                calls = []

                def counted(p):
                    calls.append(p.tobytes())
                    return f(p)
                for pt in pts:
                    calls.clear()
                    got = funspace.delta_action_residual(counted, qp, N, pt)
                    assert len(calls) == len(set(calls)) == 2**N
                    assert got == delta_action_residual_loop(f, qp, N, pt)


@pytest.mark.parametrize("mu", [0.55, 0.6, 0.7])
def test_baxter_suite_passes_below_mu_one(mu):
    # Here the shifted kernels reach |r_k/(mu^2 r~_k)| > 1/(1 - alpha);
    # the infinite products are well defined there, and qcalc.rho_site,
    # which funspace and the suite share, accepts them.  At mu = 0.55
    # seeds 0 and 3 reach that range in baxter.rho_functional_eq itself.
    for seed in range(5):
        records = suite_baxter(RunConfig(seed=seed, mu=mu),
                               np.random.default_rng(seed))
        assert len(records) == 10
        assert all(r.passed for r in records), \
            [(r.check_id, r.residual) for r in records if not r.passed]


def test_baxter_suite_pochhammer_calls(monkeypatch):
    # each Pochhammer the suite needs is evaluated once: 120 evaluations at
    # the default config (111 distinct guarded arguments and 9 qexp), from
    # 269 when every guarded call evaluated its argument, and 437 when
    # feq_residuals evaluated F 11 times per draw and delta_action_residual
    # f 3^N + 1 times per point
    kernel = qcalc._qpochhammer_parts
    calls = []

    def counted(x, a, **kw):
        calls.append(x)
        return kernel(x, a, **kw)

    monkeypatch.setattr(qcalc, "_qpochhammer_parts", counted)
    qcalc._guarded_memo.cache_clear()
    suite_baxter(RunConfig(seed=0), np.random.default_rng(0))
    assert len(calls) <= 120


def test_baxter_suite_one_evaluation_per_distinct_argument(monkeypatch):
    # the guarded kernel evaluates (cache misses) as many arguments as the
    # suite asks for distinct (x, alpha) bits, and serves the rest (149 of
    # 260 calls at the default config) from the cache
    guarded = qcalc._poch_guarded
    keys = []

    def recorded(x, qp):
        x, a = complex(x), qp.alpha
        keys.append((x.real.hex(), x.imag.hex(), complex(a).real.hex(),
                     complex(a).imag.hex(), type(a)))
        return guarded(x, qp)

    monkeypatch.setattr(qcalc, "_poch_guarded", recorded)
    qcalc._guarded_memo.cache_clear()
    suite_baxter(RunConfig(seed=0), np.random.default_rng(0))
    info = qcalc._guarded_memo.cache_info()
    assert info.misses == len(set(keys)) < len(keys) == info.hits + info.misses
