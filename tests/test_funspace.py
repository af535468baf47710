import itertools

import numpy as np
import pytest

from albaxter import funspace, qcalc
from albaxter.qcalc import QParam, jackson_op
from albaxter.report import RunConfig
from albaxter.suites import suite_baxter
from oracles import (delta_action_loop, delta_action_residual_loop,
                     rho_product_loop)

QP = QParam(0.5)
MU = 1.3


def _inputs(N, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(1.1, 1.9, N) + 0j, rng.uniform(0.1, 0.9, (4, N))


def _word_expansion(mu, qp, rtilde, point):
    """Tr L_N ... L_1 rho summed over its 2^N index words.

    The word (s_0, .., s_{N-1}) takes the entry (L_k)_{s_k, s_{k-1}} at
    site k (s_N = s_0); each entry acts on a generic callable, q_k through
    qcalc.jackson_op, so nothing assumes the product structure of rho.  The
    kernel is a callable built from qcalc.rho_site, not from site values.
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
        g = rho_product_loop(mu, qp, rtilde)
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
            qcalc.rho_sites(MU, QP, np.array([1.2, 0.0]), [0.3, 0.4])
        with pytest.raises(ValueError):
            funspace.trace_action(MU, QP, np.array([1.2, 0.0]), [0.3, 0.4])
        with pytest.raises(ValueError):
            funspace.trace_action(0.0, QP, np.array([1.2, 1.5]), [0.3, 0.4])

    def test_zero_coordinate_raises(self):
        with pytest.raises(ZeroDivisionError):
            funspace.trace_action(MU, QP, np.array([1.2, 1.5]), [0.3, 0.0])


class TestTriangularization:
    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_every_site_is_lower_triangular(self, N):
        rtilde, pts = _inputs(N, 20 + N)
        sites = np.arange(1, N + 1)
        res = funspace.triangular_check(MU, QP, rtilde,
                                        pts[sites % 4, sites - 1])
        assert res.shape == (N, 4)
        assert res.max() < 1e-11

    def test_a_wrong_site_value_is_seen(self, monkeypatch):
        # rho_k(mu, r_k) off by 1e-8 at site 2 breaks that site's defining
        # condition e12, and only that site's row
        rtilde, pts = _inputs(3, 23)
        sites = funspace.rho_sites

        def off(mu, qp, rt, r):
            v = sites(mu, qp, rt, r)
            if mu == MU and np.array_equal(r, pts[0]):
                v[1] *= 1 + 1e-8
            return v

        monkeypatch.setattr(funspace, "rho_sites", off)
        res = funspace.triangular_check(MU, QP, rtilde, pts[0])
        assert res[[0, 2]].max() < 1e-11 < res[1, 1]


class TestDeltaAction:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_product_kernel(self, N):
        # the site form against the 2^N operator tree of the oracle, which
        # acts on the kernel as a generic callable; at alpha = 0.9 the
        # kernel reaches 2e5, so the residuals are taken relative to it
        rtilde, pts = _inputs(N, 30 + N)
        for qp in (QP, QParam(0.9)):
            rho = rho_product_loop(MU, qp, rtilde)
            for pt in pts:
                delta, shifted = funspace.delta_action(MU, qp, rtilde, pt)
                scale = max(1.0, abs(shifted))
                assert abs(delta - shifted) <= 1e-12 * scale
                assert (delta_action_residual_loop(rho, qp, N, pt)
                        <= 1e-12 * scale)
                tree = delta_action_loop(rho, qp, N, pt)
                assert abs(delta - tree) <= 1e-14 * abs(tree)
                assert shifted == pytest.approx(rho(qp.alpha * pt),
                                                rel=1e-14)

    def test_overflow_reads_nan(self):
        # at N = 4096 the site products overflow; the residual the suite
        # takes reads NaN, a FAIL, and nothing raises
        rtilde, pts = _inputs(4096, 4096)
        with np.errstate(over="ignore", invalid="ignore"):
            delta, shifted = funspace.delta_action(MU, QP, rtilde, pts[0])
        assert not abs(delta - shifted) < 1e-12


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
    # feq_residuals evaluated F 11 times per draw and the Delta check
    # evaluated its kernel 3^N + 1 times per point
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
