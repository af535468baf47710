"""Named verification suites driven by the CLI.

Each suite draws its randomness from a single seeded generator and returns
a list of CheckRecords; "pass" always means residual < tolerance.  For the
two negative controls the recorded value is tolerance/observed, so that a
healthy run (observed residual far above the threshold) still satisfies
the uniform pass rule.
"""

import time

import numpy as np

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
    records = []
    N = cfg.N

    def worst_rrel():
        return _worst([chain.rmatrix_relation_residual(
            chain.ChainState.random(N, rng), *_sample_spectral_pair(rng))
            for _ in range(10)])

    _timed(records, "classical.rmatrix_relation", {"N": N, "states": 10},
           1e-10, worst_rrel)

    state = chain.ChainState.random(N, rng)

    def involution():
        lam, nu = _sample_spectral_pair(rng)
        return abs(chain.trace_bracket(state, lam, nu))

    _timed(records, "classical.trace_involution", {"N": N}, 1e-10, involution)

    def bracket_basic():
        # {q_k, r_k} from the kernel's bracket sum on the coordinate
        # gradients dq_k/dq = dr_k/dr = e_k, against the scalar weight
        k = int(rng.integers(1, N + 1))
        e_k = np.eye(1, N, k - 1)[0]
        got = complex(chain._bracket(e_k, 0.0, 0.0, e_k,
                                     1.0 - state.q * state.r))
        want = 1.0 - state.q[k - 1] * state.r[k - 1]
        return abs(got - want)

    _timed(records, "classical.bracket_weight", {"N": N}, 1e-13, bracket_basic)

    def h_det_involution():
        return abs(chain.conserved_det_bracket(state, 1))

    _timed(records, "classical.conserved_involution", {"N": N}, 1e-10,
           h_det_involution)

    def cyclic():
        cons = chain.conserved_quantities(state)
        rolled = chain.ChainState(np.roll(state.q, 1), np.roll(state.r, 1))
        cons2 = chain.conserved_quantities(rolled)
        return float(np.abs(cons.H - cons2.H).max())

    _timed(records, "classical.cyclic_trace", {"N": N}, 1e-12, cyclic)

    def det_vs_eval():
        cons = chain.conserved_quantities(state)
        return abs(chain.monodromy_det_eval(state, 1.7) - cons.det)

    _timed(records, "classical.monodromy_det", {"N": N}, 1e-12, det_vs_eval)

    def rk4_order():
        # one-step drift of H_1 should shrink ~2^5 under dt halving
        h0 = chain.conserved_quantities(state).H[1]
        drift = []
        for dt in (1e-2, 5e-3):
            stepped = chain.rk4_step(state, dt)
            drift.append(abs(chain.conserved_quantities(stepped).H[1] - h0))
        ratio = drift[0] / max(drift[1], 1e-300)
        return abs(np.log2(ratio) - 5.0)

    _timed(records, "classical.rk4_drift_order", {"N": N, "dt": 1e-2}, 1.2,
           rk4_order)
    return records


def suite_bt(cfg, rng):
    records = []
    N = cfg.N
    mu = 0.3 if abs(cfg.mu) > 0.5 else cfg.mu  # keep continuation short
    opts = backlund.SolverOptions(tol=cfg.newton_tol)
    state = chain.ChainState.random(N, rng)
    bt = backlund.bt_apply(state, mu, opts)

    _timed(records, "bt.map_residual", {"N": N, "mu": mu}, cfg.newton_tol * 10,
           lambda: bt.residual)
    _timed(records, "bt.conservation", {"N": N, "mu": mu}, 1e-10,
           lambda: chain.conserved_quantities(state).max_relative_drift(
               chain.conserved_quantities(bt.target)))

    def intertwine():
        return _worst([backlund.intertwining_residual(
            bt, rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()))
            for _ in range(8)])

    _timed(records, "bt.intertwining", {"N": N, "mu": mu, "lams": 8}, 1e-10,
           intertwine)

    spec = backlund.spectrality(bt)
    _timed(records, "bt.spectrality_collinearity", {"N": N, "mu": mu}, 1e-10,
           lambda: float(spec.collinearity.max()))
    _timed(records, "bt.trace_formula", {"N": N, "mu": mu}, 1e-10,
           lambda: spec.trace_residual)

    def eigen_pair():
        M = chain.monodromy_matrix(state, mu)
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

    _timed(records, "bt.canonicity", {"N": N, "mu": mu}, 1e-5,
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
        return _worst([fock.ybe_residual(
            *_sample_spectral_pair(rng),
            rng.standard_normal() + 1j * rng.standard_normal())
            for _ in range(cfg.sample_counts)])

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

    rep = fock.FockRep(min(cfg.N, 2), cfg.n_max, qp)

    def commutator():
        # [q_j, r_k] = eta (1 - q_j r_j) delta_jk on the column slice where
        # one raising stays inside the graded space
        n = rep.exact_dim(fock.HEADROOM["qboson"])
        res = []
        for j, q in enumerate(rep.q_ops):
            for k, r in enumerate(rep.r_ops):
                diff = q @ r[:, :n] - r @ q[:, :n]
                if j == k:
                    diff = diff - qp.eta * (rep.identity[:, :n] - q @ r[:, :n])
                res.append(np.max(np.abs(diff.data), initial=0.0))
        return _worst(res)

    _timed(records, "quantum.qboson_algebra",
           {"N": rep.N, "n_max": cfg.n_max}, 1e-13, commutator)

    lam, nu = _sample_spectral_pair(rng)
    _timed(records, "quantum.rll", {"N": rep.N, "n_max": cfg.n_max}, 1e-11,
           lambda: fock.rll_residual(rep, lam, nu))
    _timed(records, "quantum.trace_commutator",
           {"N": rep.N, "n_max": cfg.n_max}, 1e-10,
           lambda: fock.trace_commutator_residual(rep, lam, nu))

    qd = fock.quantum_determinant(rep, 1.1 + 0.3j)
    _timed(records, "quantum.qdet_four_forms", {"N": rep.N}, 1e-11,
           lambda: qd.pairwise_residual)
    _timed(records, "quantum.qdet_product_form", {"N": rep.N}, 1e-11,
           lambda: qd.product_residual)

    def grading():
        bad = 0
        for M, want in zip(rep.monodromy_at(1.23), ({0}, {-1}, {1}, {0})):
            bad += len(set(fock.grading_offsets(rep, M)) - want)
        return float(bad)

    _timed(records, "quantum.occupation_grading", {"N": rep.N}, 0.5, grading)
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

    n_max = max(cfg.n_max, m + fock.HEADROOM["bethe_state"])
    rep = fock.FockRep(cfg.N, n_max, qp)
    phi = fock.bethe_state(rep, bcfg)

    def eig():
        return _worst([fock.eigen_residual(
            rep, phi, bcfg,
            rng.uniform(1.1, 1.6) * np.exp(2j * np.pi * rng.uniform()))
            for _ in range(4)])

    _timed(records, "bethe.fock_eigen_residual",
           {"N": cfg.N, "m": m, "n_max": n_max}, 1e-10, eig)
    _timed(records, "bethe.delta_eigenvalue", {"N": cfg.N, "m": m}, 1e-10,
           lambda: fock.delta_eigen_residual(rep, phi, m))

    samples = rng.uniform(1.05, 1.9, cfg.sample_counts) \
        * np.exp(2j * np.pi * rng.uniform(size=cfg.sample_counts))
    _timed(records, "bethe.qdiff_identity",
           {"N": cfg.N, "m": m, "samples": cfg.sample_counts}, 1e-10,
           lambda: bethe.baxter_qdiff_residual(bcfg, samples))

    def negative_control():
        bad = bethe.BetheConfig(N=cfg.N, m=m, qp=qp,
                                roots=bcfg.roots * 1.1 + 0.03,
                                residual=np.inf)
        off = bethe.baxter_qdiff_residual(bad, samples)
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
        return _worst([funspace.triangular_check(
            mu, qp, rtilde, k, rng.uniform(0.1, 0.9, N)).max()
            for k in range(1, N + 1)])

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
        rho = funspace.rho_product(mu, qp, rtilde)
        return _worst([funspace.delta_action_residual(rho, qp, N, p)
                       for p in pts])

    _timed(records, "baxter.delta_action", {"N": N}, 1e-12, delta_action)

    def qexp_limit():
        qp1 = QParam(1.0 - 1e-4)
        return _worst([abs(qcalc.qexp(x, qp1) - np.exp(x))
                       for x in np.linspace(-1.0, 1.0, 9)])

    _timed(records, "baxter.qexp_limit", {"alpha": 1 - 1e-4}, 1e-3,
           qexp_limit)

    def leibniz_parts():
        res = []
        for _ in range(10):
            cf, cg = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            f = lambda r: cf[0] + cf[1] * r[0] + cf[2] * r[0] ** 2
            g = lambda r: cg[0] + cg[1] * r[0] + cg[2] * r[0] ** 3
            pt = np.array([rng.uniform(0.3, 1.2)])
            fg = lambda r: f(r) * g(r)
            lhs = qcalc.jackson_op(fg, 1, qp, pt)
            rhs = (f(pt) * qcalc.jackson_op(g, 1, qp, pt)
                   + g(pt * qp.alpha) * qcalc.jackson_op(f, 1, qp, pt))
            res.append(abs(lhs - rhs))
            b, a = rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.4)
            qg = lambda r: qcalc.jackson_op(g, 1, qp, r)
            qf = lambda r: qcalc.jackson_op(f, 1, qp, r)
            lhs2 = qcalc.jackson_integral(lambda r: f(r) * qg(r), 1, qp, b, a)
            ga = lambda r: g(qp.alpha * r)
            rhs2 = (f([b]) * g([b]) - f([a]) * g([a])
                    - qcalc.jackson_integral(lambda r: ga(r) * qf(r), 1, qp,
                                             b, a))
            res.append(abs(lhs2 - rhs2))
        return _worst(res)

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
    """Run the named suites under one seeded generator, in a fixed order."""
    rng = np.random.default_rng(cfg.seed)
    records = []
    for name in names:
        records.extend(SUITES[name](cfg, rng))
    return records
