import numpy as np
import pytest

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
    res = backlund.intertwining_residual(bad, np.array([0.9 + 0.2j, 1.3j]))
    assert np.isnan(res).all()


def test_qdiff_residual_propagates_nan():
    cfg = bethe.solve_bethe(2, 1, QParam(0.5))
    assert bethe.baxter_qdiff_residual(cfg, [1.2 + 0.1j]) < 1e-12
    with np.errstate(invalid="ignore"):
        res = bethe.baxter_qdiff_residual(cfg, [1.2 + 0.1j, np.nan])
    assert np.isnan(res)


@pytest.mark.parametrize("seed", [3, 13, 21, 37])
def test_bt_suite_passes_at_default_config(seed):
    # a continuation in |mu| ended these maps at 1.1-3.5e-12, above the
    # 1e-12 acceptance
    records = suites.suite_bt(RunConfig(seed=seed),
                              np.random.default_rng(seed))
    assert len(records) == 10
    assert all(r.passed for r in records)


@pytest.mark.parametrize("N", (2, 16))
def test_classical_suite_matches_direct_calls(N):
    # the suite runs its ten r-matrix draws as one batch and builds the
    # dense monodromy of its state once; replaying its draws through
    # single calls gives the same bits
    seed = 5
    records = {r.check_id: r.residual for r in suites.suite_classical(
        RunConfig(N=N, seed=seed), np.random.default_rng(seed))}
    rng = np.random.default_rng(seed)
    rrel = []
    for _ in range(10):
        state = chain.ChainState.random(N, rng)
        rrel.append(chain.rmatrix_relation_residual(
            state, *suites._sample_spectral_pair(rng)))
    assert records["classical.rmatrix_relation"] == max(rrel)
    state = chain.ChainState.random(N, rng)
    cons = chain.conserved_quantities(state)
    rolled = chain.ChainState(np.roll(state.q, 1), np.roll(state.r, 1))
    assert records["classical.cyclic_trace"] == float(
        np.abs(cons.H - chain.conserved_quantities(rolled).H).max())
    assert records["classical.monodromy_det"] == abs(
        chain.monodromy_det_eval(state, 1.7) - cons.det)
