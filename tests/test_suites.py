import numpy as np

from albaxter import backlund, bethe, classical_chain as chain, fock, suites
from albaxter.qcalc import QParam
from albaxter.report import RunConfig


def test_nan_residual_is_a_fail(monkeypatch):
    # One NaN among the sampled Yang-Baxter residuals must not be masked
    # by the finite ones around it.
    values = iter([1e-16, float("nan")] + [1e-16] * 20)
    monkeypatch.setattr(fock, "ybe_residual",
                        lambda lam, nu, eta: next(values))
    records = suites.suite_quantum(RunConfig(seed=0), np.random.default_rng(0))
    ybe = next(r for r in records if r.check_id == "quantum.yang_baxter")
    assert np.isnan(ybe.residual)
    assert not ybe.passed


def test_intertwining_residual_propagates_nan():
    state = chain.ChainState.random(3, np.random.default_rng(1))
    bt = backlund.bt_apply(state, 0.3)
    q = np.array(bt.target.q)
    q[1] = np.nan
    bad = backlund.BTResult(mu=bt.mu, source=bt.source,
                            target=chain.ChainState(q, bt.target.r),
                            gamma_site=bt.gamma_site,
                            newton_iters=bt.newton_iters,
                            residual=bt.residual)
    assert np.isnan(backlund.intertwining_residual(bad, 0.9 + 0.2j))


def test_qdiff_residual_propagates_nan():
    cfg = bethe.solve_bethe(2, 1, QParam(0.5))
    assert bethe.baxter_qdiff_residual(cfg, [1.2 + 0.1j]) < 1e-12
    with np.errstate(invalid="ignore"):
        res = bethe.baxter_qdiff_residual(cfg, [1.2 + 0.1j, np.nan])
    assert np.isnan(res)
