import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from albaxter import bethe, suites
from albaxter.qcalc import QParam
from albaxter.report import RunConfig
from oracles import bethe_roots_mp, tq_remainder_mp

QP = QParam(0.5)
CONTINUATION = json.loads((Path(__file__).parent / "golden"
                           / "bethe_continuation_alpha005.json").read_text())

# roots at alpha = 0.5 as an independent logarithmic-form solver found
# them, in the order and sign their seeds fix; every (N, 1) root is 1
REFERENCE_ROOTS = {
    (4, 2): [0.9980054349218662 - 0.06312805926382205j,
             0.6610581319056865 + 0.7503346894828761j],
    (5, 2): [0.9977471066753185 - 0.06708733949882537j,
             0.7677614166158183 + 0.6407358325831886j],
    (6, 2): [0.9977072252743675 - 0.06767785926964999j,
             0.8302008729920609 + 0.5574643580384488j],
    **{(N, 1): [1 + 0j] for N in range(1, 17)},
}


def _relative_ratio_residual(roots, N, qp):
    # the ratio form, judged against |lam^2N|: independent of the solver's
    # product-form residual
    return float((bethe.bethe_residuals_roots(roots, N, qp)
                  / np.abs(roots) ** (2 * N)).max())


@pytest.mark.parametrize("N, m", [(4, 3), (6, 3), (8, 4), (16, 3)])
def test_converges_at_three_and_four_roots(N, m):
    cfg = bethe.solve_bethe(N, m, QP)
    assert cfg.residual < 1e-13
    assert _relative_ratio_residual(cfg.roots, N, QP) < 1e-12
    x = cfg.roots**2
    assert np.abs(x[:, None] - x)[~np.eye(m, dtype=bool)].min() > 1e-3
    assert cfg.homotopy_path[-1][0] == 1.0


@pytest.mark.parametrize("N, m", sorted(REFERENCE_ROOTS))
def test_roots_match_reference_order_and_sign(N, m):
    # same order and sign: the negative control and the roots CSV rely on it
    roots = bethe.solve_bethe(N, m, QP).roots
    assert np.abs(roots - np.array(REFERENCE_ROOTS[N, m])).max() <= 1e-12


@pytest.mark.parametrize("N, m, alpha", [
    (2, 2, 0.5), (4, 3, 0.5), (6, 3, 0.5), (8, 4, 0.5), (16, 3, 0.5),
    (6, 2, 0.2), (9, 4, 0.9), (8, 4, 0.05)])
def test_roots_agree_with_mpmath_polish(N, m, alpha):
    roots = bethe.solve_bethe(N, m, QParam(alpha)).roots
    exact = bethe_roots_mp(roots, N, alpha)
    assert (np.abs(exact - roots) / np.abs(exact)).max() <= 1e-12


def _remainder(roots, N, qp):
    return bethe.transfer_poly_roots(roots, N, qp)[1]


@settings(max_examples=30)
@given(N=st.integers(2, 10), m=st.integers(1, 4),
       alpha=st.floats(0.2, 0.9))
def test_on_shell_roots_leave_no_division_remainder(N, m, alpha):
    m = min(m, N)
    qp = QParam(alpha)
    roots = bethe.solve_bethe(N, m, qp).roots
    assert _remainder(roots, N, qp) < 1e-11
    assert _remainder(roots * 1.1 + 0.03, N, qp) > 1e-2


@pytest.mark.parametrize("N, m", [(2, 1), (5, 2), (6, 2), (4, 3), (6, 3),
                                  (8, 4)])
def test_solver_residual_and_negative_control_margins(N, m):
    # both records pass with at least 10x room under their bounds
    recs = {r.check_id: r for r in suites.suite_bethe(
        RunConfig(N=N, m=m), np.random.default_rng(0))}
    for check in ("bethe.solver_residual", "bethe.negative_control_margin"):
        assert recs[check].residual <= 0.1 * recs[check].tolerance
    cfg = bethe.solve_bethe(N, m, QP)
    off = _relative_ratio_residual(cfg.roots * 1.1 + 0.03, N, QP)
    assert off >= 10 * 1e-12


def test_failure_names_its_input(monkeypatch):
    monkeypatch.setattr(bethe, "TOL", 0.0)
    with pytest.raises(bethe.BetheConvergenceError) as err:
        bethe.solve_bethe(2, 1, QP)
    msg = str(err.value)
    assert "N=2, m=1" in msg
    assert "eta fraction 0 reached" in msg
    assert "relative residual 0.000e+00" in msg


@pytest.mark.parametrize("N, m", [(16, 3), (24, 2)])
def test_qdiff_identity_is_relative_to_its_terms(N, m):
    # the products P Psi that cancel against the dividend reach 11 and 5.4
    # in |P| * |Psi| here, against a largest dividend coefficient of 1.3
    # and 1.0; relative to them the identity sits at roundoff, and the
    # off-shell root set still misses it by O(1)
    cfg = bethe.solve_bethe(N, m, QP)
    assert _remainder(cfg.roots, N, QP) < 1e-13
    assert _remainder(cfg.roots * 1.1 + 0.03, N, QP) > 0.1


@pytest.mark.parametrize("N, m, alpha", [
    (2, 1, 0.5), (4, 2, 0.5), (6, 3, 0.5), (8, 4, 0.2), (9, 4, 0.9),
    (16, 3, 0.5), (24, 2, 0.5), (24, 4, 0.3)])
def test_remainder_agrees_with_mpmath(N, m, alpha):
    # the same roots at 50 digits: on shell the exact remainder is the
    # roots' own rounding, <= 1.3e-15 here, and the float one adds its
    # evaluation roundoff, measured worst 1.8e-14 at (24, 4, 0.3); off
    # shell the two agree to 4.1e-13 relative there, <= 6.4e-15 elsewhere
    qp = QParam(alpha)
    roots = bethe.solve_bethe(N, m, qp).roots
    assert tq_remainder_mp(roots, N, alpha) < 1e-14
    assert abs(_remainder(roots, N, qp)
               - tq_remainder_mp(roots, N, alpha)) <= 1e-13
    off = roots * 1.1 + 0.03
    want = tq_remainder_mp(off, N, alpha)
    assert abs(_remainder(off, N, qp) - want) <= 1e-11 * want


@pytest.mark.parametrize("fast_iters", [bethe.FAST_ITERS, -1])
@pytest.mark.parametrize("N, m, alpha", [
    (2, 1, 0.5), (4, 3, 0.5), (6, 3, 0.5), (16, 3, 0.5), (24, 2, 0.5),
    (8, 4, 0.05), (12, 6, 0.05), (9, 4, 0.9), (6, 2, 0.2)])
def test_path_ends_at_exactly_the_target(N, m, alpha, fast_iters,
                                          monkeypatch):
    # without step growth (fast_iters = -1) ten steps of 0.1 sum to
    # 0.9999999999999999: the last step must snap to 1.0 rather than leave
    # a zero-iteration step behind it
    monkeypatch.setattr(bethe, "FAST_ITERS", fast_iters)
    fractions = [s for s, _ in
                 bethe.solve_bethe(N, m, QParam(alpha)).homotopy_path]
    assert fractions[-1] == 1.0
    assert not any(1.0 - 1e-12 < s < 1.0 for s in fractions)
    assert fractions == sorted(set(fractions))


@pytest.mark.parametrize("alpha", [0.05, 0.5])
@pytest.mark.parametrize("N, m", [(5, 2), (6, 3), (16, 3)])
def test_eta_derivative_matches_central_difference(N, m, alpha):
    # F is a polynomial of degree m - 1 in 1+eta, so the central
    # difference is exact up to rounding: measured <= 2.3e-11 relative
    x = bethe.solve_bethe(N, m, QParam(alpha)).roots ** 2
    ope, h = 1.0 / alpha, 1e-3
    dF = bethe._jacobian(x, N, ope, bethe._pairs(x, ope))[1]
    central = (bethe._residual(x, N, ope + h)[0]
               - bethe._residual(x, N, ope - h)[0]) / (2 * h)
    assert np.abs(dF - central).max() <= 1e-9 * np.abs(dF).max()


@pytest.mark.parametrize("cfg", CONTINUATION["configs"],
                         ids=lambda c: f"N={c['N']}-m={c['m']}")
def test_roots_follow_their_seeds_continuation(cfg):
    # a fixed first eta step of 1.9 landed these on other valid states
    want = np.array([complex(*z) for z in cfg["roots"]])
    roots = bethe.solve_bethe(cfg["N"], cfg["m"],
                              QParam(CONTINUATION["alpha"])).roots
    assert (np.abs(roots - want) / np.abs(want)).max() <= 1e-10


@pytest.mark.parametrize("N, m", [(5, 2), (6, 2), (4, 3), (6, 3)])
def test_newton_work_per_solve(N, m):
    # the quantum-scale benchmark's configs, guarded by a count, not a
    # timing: about half the 36-40 iterations of fixed steps of 0.1
    path = bethe.solve_bethe(N, m, QP).homotopy_path
    assert sum(iters for _, iters in path) <= 20


@pytest.mark.parametrize("N", [1, 2, 6, 16])
def test_one_root_is_on_shell_from_its_seed(N):
    cfg = bethe.solve_bethe(N, 1, QP)
    assert cfg.roots.tolist() == [1 + 0j]
    assert cfg.homotopy_path == ((0.0, 0), (1.0, 0))
