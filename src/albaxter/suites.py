"""Named verification suites driven by the CLI.

Each suite draws its randomness from a single seeded generator and returns
a list of CheckRecords; "pass" always means residual < tolerance.  For the
two negative controls the recorded value is tolerance/observed, so that a
healthy run (observed residual far above the threshold) still satisfies
the uniform pass rule.
"""

import time

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import backlund, bethe, classical_chain as chain, fock, funspace, qcalc
from .qcalc import QParam
from .report import CheckRecord


def _timed(records, check_id, params, tolerance, fn):
    t0 = time.perf_counter()
    residual = float(fn())
    dt = time.perf_counter() - t0
    records.append(CheckRecord(check_id=check_id, params=params,
                               residual=residual, tolerance=tolerance,
                               passed=residual < tolerance, wall_time=dt))


def _worst(residuals):
    """Largest residual; a NaN among them is returned, never skipped, so it
    reads as a FAIL."""
    return float(np.max(residuals, initial=0.0))


def _sample_spectral_pair(rng):
    """Two spectral points on a safe annulus with |lam^2 - nu^2| > 0.1
    and both lam^2, nu^2 at least 0.1 away from 1 (the ratio-form R
    poles)."""
    while True:
        lam = rng.uniform(1.2, 2.0) * np.exp(2j * np.pi * rng.uniform())
        nu = rng.uniform(1.2, 2.0) * np.exp(2j * np.pi * rng.uniform())
        if (abs(lam**2 - nu**2) > 0.1 and abs(lam**2 - 1) > 0.1
                and abs(nu**2 - 1) > 0.1):
            return lam, nu


def suite_classical(cfg, rng):
    import zlib
    records = []
    N = cfg.N
    # the point checks share three points of |lam| = 1 from a stream of
    # their own, so that the shared stream keeps every other draw
    points = np.exp(2j * np.pi * np.random.default_rng(
        [cfg.seed, zlib.crc32(b"classical.points")]).uniform(size=3))

    def worst_rrel():
        states, lams, nus = [], [], []
        for _ in range(10):  # each draw: its state, then its (lam, nu)
            states.append(chain.ChainState.random(N, rng))
            lam, nu = _sample_spectral_pair(rng)
            lams.append(lam)
            nus.append(nu)
        return _worst(chain.rmatrix_relation_residuals(states, lams, nus))

    _timed(records, "classical.rmatrix_relation", {"N": N, "states": 10},
           1e-10, worst_rrel)

    state = chain.ChainState.random(N, rng)

    def involution():
        lam, nu = _sample_spectral_pair(rng)
        bracket, scale = chain.trace_bracket(state, lam, nu)
        return chain._relative(abs(bracket), scale)

    _timed(records, "classical.trace_involution", {"N": N}, 1e-10, involution)

    def bracket_basic():
        # {q_k, r_k} from the kernel's bracket sum on the coordinate
        # gradients dq_k/dq = dr_k/dr = e_k, against the scalar weight
        k = int(rng.integers(1, N + 1))
        e_k = np.eye(1, N, k - 1)[0]
        got = complex(chain._bracket(e_k, 0.0, 0.0, e_k,
                                     1.0 - state.q * state.r)[0])
        want = 1.0 - state.q[k - 1] * state.r[k - 1]
        return abs(got - want)

    _timed(records, "classical.bracket_weight", {"N": N}, 1e-13, bracket_basic)

    def h_det_involution():
        bracket, scale = chain.trace_det_bracket(state, points)
        # at N = 1 the trace does not depend on q, r: every term is 0
        return _worst(chain._relative(np.abs(bracket), scale))

    _timed(records, "classical.conserved_involution", {"N": N}, 1e-10,
           h_det_involution)

    def cyclic():
        rolled = chain.ChainState(chain._roll(state.q, 1),
                                  chain._roll(state.r, 1))
        return _worst(chain.conserved_quantities(state, points).trace_drift(
            chain.conserved_quantities(rolled, points)))

    _timed(records, "classical.cyclic_trace", {"N": N}, 1e-12, cyclic)

    _timed(records, "classical.monodromy_det", {"N": N}, 1e-12,
           lambda: _worst(chain.monodromy_det_residuals(state, points)))

    def rk4_order():
        # one-step drift of H_1 = sum_k r_k q_{k+1} should shrink ~2^5
        # under dt halving
        h1 = lambda s: np.sum(s.r * chain._roll(s.q, -1))
        h0 = h1(state)
        drift = [abs(h1(chain.rk4_step(state, dt)) - h0)
                 for dt in (1e-2, 5e-3)]
        ratio = drift[0] / max(drift[1], 1e-300)
        return abs(np.log2(ratio) - 5.0)

    _timed(records, "classical.rk4_drift_order", {"N": N, "dt": 1e-2}, 1.2,
           rk4_order)
    return records


def suite_bt(cfg, rng):
    records = []
    N = cfg.N
    # |mu| > 0.5 runs at 0.3; the golden report's params record this clamp
    mu = 0.3 if abs(cfg.mu) > 0.5 else cfg.mu
    opts = backlund.SolverOptions(tol=cfg.newton_tol)
    state = chain.ChainState.random(N, rng)
    bt = backlund.bt_apply(state, mu, opts)

    _timed(records, "bt.map_residual", {"N": N, "mu": mu}, cfg.newton_tol * 10,
           lambda: bt.residual)
    _timed(records, "bt.conservation", {"N": N, "mu": mu}, 1e-10,
           lambda: chain.conserved_quantities(state).max_relative_drift(
               chain.conserved_quantities(bt.target)))

    def intertwine():
        lams = [rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
                for _ in range(8)]
        return _worst(backlund.intertwining_residual(bt, np.array(lams)))

    _timed(records, "bt.intertwining", {"N": N, "mu": mu, "lams": 8}, 1e-10,
           intertwine)

    spec = backlund.spectrality(bt)
    _timed(records, "bt.spectrality_collinearity", {"N": N, "mu": mu}, 1e-10,
           lambda: float(spec.collinearity.max()))
    _timed(records, "bt.trace_formula", {"N": N, "mu": mu}, 1e-10,
           lambda: spec.trace_residual)

    def eigen_pair():
        M = chain.monodromy_matrix(state, mu)
        if not np.all(np.isfinite(M)):  # overflowed at large N: a FAIL
            return np.nan
        eigs = np.linalg.eigvals(M)
        g, other = spec.gamma, spec.det_over_gamma
        d1 = min(abs(eigs[0] - g) + abs(eigs[1] - other),
                 abs(eigs[1] - g) + abs(eigs[0] - other))
        return d1

    _timed(records, "bt.gamma_eigenvalues", {"N": N, "mu": mu}, 1e-10,
           eigen_pair)
    _timed(records, "bt.classical_baxter", {"N": N, "mu": mu}, 1e-10,
           lambda: backlund.classical_baxter_check(bt))

    def commuting():
        mu2 = 0.17
        ab = backlund.bt_apply(bt.target, mu2, opts).target
        ba = backlund.bt_apply(backlund.bt_apply(state, mu2, opts).target,
                               mu, opts).target
        return chain.conserved_quantities(ab).max_relative_drift(
            chain.conserved_quantities(ba))

    _timed(records, "bt.commuting_parameters", {"N": N, "mus": [mu, 0.17]},
           1e-9, commuting)

    # the relative band residuals of the bracket identities sit at
    # <= 1.2e-14 up to N = 512 and <= 3.2e-14 up to N = 10^4 (seeds 0-9,
    # mu in {0.3, 1.1, 1.3}); the {r~, r~} block is zero for every
    # Jacobian, so it is not among them
    _timed(records, "bt.canonicity", {"N": N, "mu": mu}, 1e-11,
           lambda: backlund.canonicity_check(state, mu, opts=opts))

    def genfun():
        real_state = chain.ChainState.random_real_positive(N, rng)
        btr = backlund.bt_apply(real_state, 0.3, opts)
        out = backlund.generating_function_check(btr)
        return _worst([out["grad_residual_r"], out["grad_residual_rtilde"],
                       out["phi_residual"]])

    _timed(records, "bt.generating_function", {"N": N, "mu": 0.3}, 1e-6,
           genfun)
    return records


def suite_quantum(cfg, rng):
    records = []
    qp = QParam(cfg.alpha)

    def ybe():
        draws = [(*_sample_spectral_pair(rng),
                  rng.standard_normal() + 1j * rng.standard_normal())
                 for _ in range(cfg.sample_counts)]
        return _worst(fock.ybe_residual(*np.transpose(draws)))

    _timed(records, "quantum.yang_baxter", {"draws": cfg.sample_counts},
           1e-12, ybe)

    def r_vs_classical():
        lam, nu = _sample_spectral_pair(rng)
        eta = 0.31
        R = fock.quantum_rmatrix(lam, nu, eta)
        rcl = chain.classical_rmatrix(lam, nu)
        return float(np.abs(R - ((1 + eta / 2) * np.eye(4) - eta * rcl)).max())

    _timed(records, "quantum.r_matrix_classical_limit", {}, 1e-13,
           r_vs_classical)

    rep = fock.FockRep(cfg.N, cfg.n_max, qp)
    _timed(records, "quantum.qboson_algebra",
           {"N": rep.N, "n_max": cfg.n_max}, 1e-13,
           lambda: fock.qboson_residual(rep))

    lam, nu = _sample_spectral_pair(rng)
    _timed(records, "quantum.rll", {"N": rep.N, "n_max": cfg.n_max}, 1e-11,
           lambda: fock.rll_residual(rep, lam, nu))
    _timed(records, "quantum.trace_commutator",
           {"N": rep.N, "n_max": cfg.n_max}, 1e-10,
           lambda: fock.trace_commutator_residual(rep, lam, nu))

    qd = {}  # evaluated under the first record's timer, read by the second

    def qdet_four_forms():
        qd["report"] = fock.quantum_determinant(rep, 1.1 + 0.3j)
        return qd["report"].pairwise_residual

    _timed(records, "quantum.qdet_four_forms", {"N": rep.N}, 1e-11,
           qdet_four_forms)
    _timed(records, "quantum.qdet_product_form", {"N": rep.N}, 1e-11,
           lambda: qd["report"].product_residual)

    _timed(records, "quantum.occupation_grading", {"N": rep.N}, 0.5,
           lambda: fock.grading_violations(rep, 1.23))
    return records


def suite_bethe(cfg, rng):
    records = []
    qp = QParam(cfg.alpha)
    m = max(cfg.m, 1)
    bcfg = bethe.solve_bethe(cfg.N, m, qp)

    _timed(records, "bethe.solver_residual", {"N": cfg.N, "m": m,
                                              "alpha": cfg.alpha},
           1e-12, lambda: bcfg.residual)

    def m1_exact():
        one = bethe.solve_bethe(cfg.N, 1, qp)
        return abs(one.roots[0] ** (2 * cfg.N) - 1.0)

    _timed(records, "bethe.m1_roots_of_unity", {"N": cfg.N}, 1e-13, m1_exact)

    n_max = m + fock.HEADROOM["bethe_state"]  # from m; --nmax is quantum's
    rep = fock.FockRep(cfg.N, n_max, qp)
    phi = fock.bethe_state(rep, bcfg)
    # one division per root set: the quotient P gives t(nu) = P(nu^2)/nu^N,
    # the relative remainder is the TQ identity itself
    P, remainder = bethe.transfer_poly_roots(bcfg.roots, cfg.N, qp)

    def eig():
        nus = [rng.uniform(1.1, 1.6) * np.exp(2j * np.pi * rng.uniform())
               for _ in range(4)]
        return _worst([fock.eigen_residual(
            rep, phi, npoly.polyval(nu**2, P) / nu**cfg.N, nu) for nu in nus])

    _timed(records, "bethe.fock_eigen_residual",
           {"N": cfg.N, "m": m, "n_max": n_max}, 1e-10, eig)
    _timed(records, "bethe.delta_eigenvalue", {"N": cfg.N, "m": m}, 1e-10,
           lambda: fock.delta_eigen_residual(rep, phi, m))

    # measured floor of the on-shell remainder: <= 5.3e-14 for N <= 24,
    # m <= 4, alpha in [0.2, 0.9]; 6.8e-12 at (64, 6), alpha = 0.5.  A
    # 50-digit remainder on the same roots is <= 1.3e-15, and the float one
    # is within 1.8e-14 of it (tests/test_bethe.py)
    _timed(records, "bethe.qdiff_identity", {"N": cfg.N, "m": m}, 1e-10,
           lambda: remainder)

    def negative_control():
        off = bethe.transfer_poly_roots(bcfg.roots * 1.1 + 0.03, cfg.N,
                                        qp)[1]
        return 1e-2 / max(off, 1e-300)  # pass iff off-shell residual > 1e-2

    _timed(records, "bethe.negative_control_margin", {"N": cfg.N, "m": m},
           1.0, negative_control)

    def sign_symmetry():
        return float(bethe.bethe_residuals_roots(-bcfg.roots, cfg.N,
                                                 qp).max())

    _timed(records, "bethe.sign_symmetry", {"N": cfg.N, "m": m}, 1e-12,
           sign_symmetry)
    return records


def suite_baxter(cfg, rng):
    records = []
    qp = QParam(cfg.alpha)
    mu = abs(cfg.mu) if abs(cfg.mu) > 0.5 else 1.3
    # every check here is O(N); the clamp stays because trace_identity is
    # absolute: up to 2e-8 at N = 16 (seeds 0-9), where relative to its
    # largest term it reads <= 1.5e-14 up to N = 256 (ROADMAP item 2)
    N = min(cfg.N, 3)
    rtilde = rng.uniform(1.1, 1.9, N) + 0j

    def rho_feq():
        sites = [qcalc.KernelSite(mu=mu, rtilde_k=rtilde[k - 1],
                                  rtilde_km1=rtilde[k - 2])
                 for k in range(1, N + 1)]
        return _worst([qcalc.rho_functional_residual(
            ks, qp, rng.uniform(0.1, 0.9)) for ks in sites for _ in range(4)])

    _timed(records, "baxter.rho_functional_eq", {"N": N, "mu": mu}, 1e-12,
           rho_feq)

    def triangular():
        # one draw of N coordinates per site; site k reads r_k off its own
        r = [rng.uniform(0.1, 0.9, N)[k] for k in range(N)]
        return _worst(funspace.triangular_check(mu, qp, rtilde, r))

    _timed(records, "baxter.triangularization", {"N": N, "mu": mu}, 1e-11,
           triangular)

    def feq():
        return _worst([qcalc.feq_residuals(
            *rng.uniform(0.5, 0.9, 2), rng.uniform(0.2, 0.4), mu, qp).max()
            for _ in range(6)])

    _timed(records, "baxter.kernel_F_equations", {"mu": mu}, 1e-10, feq)

    def g_relations():
        z = rng.uniform(0.4, 0.9)
        c, cp = rng.uniform(0.5, 0.9, 2)
        e1 = abs(qcalc.ghat(z, qp) - z * qcalc.ghat(qp.alpha * z, qp))
        e2 = abs(qcalc.kernel_G(c, cp, mu, qp)
                 - qp.alpha * qcalc.kernel_G(qp.alpha * c, qp.alpha * cp,
                                             mu, qp))
        return _worst([e1, e2]) / max(abs(qcalc.kernel_G(c, cp, mu, qp)),
                                      1.0)

    _timed(records, "baxter.G_homogeneity", {"mu": mu}, 1e-12, g_relations)

    pts = rng.uniform(0.1, 0.9, (4, N))
    _timed(records, "baxter.trace_identity", {"N": N, "mu": mu, "points": 4},
           1e-10, lambda: funspace.baxter_action_residual(mu, qp, rtilde, pts))

    def wrong_shift_margin():
        off = funspace.baxter_action_residual(mu, qp, rtilde, pts[:1],
                                              shift=qp.alpha)
        return 1e-2 / max(off, 1e-300)

    _timed(records, "baxter.negative_control_margin", {"N": N}, 1.0,
           wrong_shift_margin)

    def delta_action():
        return _worst([abs(lhs - rhs) for lhs, rhs in (
            funspace.delta_action(mu, qp, rtilde, p) for p in pts)])

    _timed(records, "baxter.delta_action", {"N": N}, 1e-12, delta_action)

    def qexp_limit():
        qp1 = QParam(1.0 - 1e-4)
        return _worst([abs(qcalc.qexp(x, qp1) - np.exp(x))
                       for x in np.linspace(-1.0, 1.0, 9)])

    _timed(records, "baxter.qexp_limit", {"alpha": 1 - 1e-4}, 1e-3,
           qexp_limit)

    def leibniz_parts():
        # each pair's draws, pair after pair; all pairs in one stacked check
        cf, cg, x, b, a = map(np.array, zip(*[
            (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3),
             rng.uniform(0.3, 1.2), rng.uniform(0.5, 1.5),
             rng.uniform(0.1, 0.4)) for _ in range(10)]))
        return _worst(qcalc.leibniz_parts_residuals(qp, cf, cg, x, b, a))

    _timed(records, "baxter.q_leibniz_parts", {"pairs": 10}, 1e-10,
           leibniz_parts)

    def inverse():
        f = lambda r: 1.0 + 0.5 * r[0] + 0.25 * r[0] ** 2
        pt = np.array([0.7])
        inv = lambda r: qcalc.jackson_integral(f, 1, qp, r[0])
        return abs(qcalc.jackson_op(inv, 1, qp, pt) - f(pt))

    _timed(records, "baxter.jackson_inverse", {}, 1e-12, inverse)
    return records


SUITES = {
    "classical": suite_classical,
    "bt": suite_bt,
    "quantum": suite_quantum,
    "bethe": suite_bethe,
    "baxter": suite_baxter,
}


def run_suites(names, cfg):
    """Run the named suites under one seeded generator, in a fixed order.
    Floating-point warnings are silenced: a residual that overflows reads
    inf or NaN in its record, and that is a FAIL."""
    rng = np.random.default_rng(cfg.seed)
    records = []
    with np.errstate(all="ignore"):
        for name in names:
            records.extend(SUITES[name](cfg, rng))
    return records
