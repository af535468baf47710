"""The benchmark's three workloads and its own output checks.

A task is one suite call for one (seed, size), one mu-point of a sweep, or
one Fock / function-space rung.  Running a task yields ops: one
(check_id, residual) pair per check record.  Every residual is judged
against TOLERANCES, the per-check table recorded from `suites.py` at the
commit that introduced this benchmark, never against the tolerance or the
pass flag the program reports, so loosening a tolerance in the program
cannot turn a FAIL into a PASS here.

All inputs are drawn while the tasks are built (the set-up phase); a task
only calls the library.  The library is driven through public names only.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from albaxter import backlund, classical_chain as chain, fock, funspace
from albaxter import suites
from albaxter.qcalc import QParam
from albaxter.report import RunConfig

from tracer import TASK_SPAN

# check_id -> tolerance; a residual passes iff it is finite and below it.
TOLERANCES = {
    "classical.rmatrix_relation": 1e-10,
    "classical.trace_involution": 1e-10,
    "classical.bracket_weight": 1e-13,
    "classical.conserved_involution": 1e-10,
    "classical.cyclic_trace": 1e-12,
    "classical.monodromy_det": 1e-12,
    "classical.rk4_drift_order": 1.2,
    "bt.map_residual": 1e-11,
    "bt.conservation": 1e-10,
    "bt.intertwining": 1e-10,
    "bt.spectrality_collinearity": 1e-10,
    "bt.trace_formula": 1e-10,
    "bt.gamma_eigenvalues": 1e-10,
    "bt.classical_baxter": 1e-10,
    "bt.commuting_parameters": 1e-9,
    "bt.canonicity": 1e-5,
    "bt.generating_function": 1e-6,
    "quantum.yang_baxter": 1e-12,
    "quantum.r_matrix_classical_limit": 1e-13,
    "quantum.qboson_algebra": 1e-13,
    "quantum.rll": 1e-11,
    "quantum.trace_commutator": 1e-10,
    "quantum.qdet_four_forms": 1e-11,
    "quantum.qdet_product_form": 1e-11,
    "quantum.occupation_grading": 0.5,
    "bethe.solver_residual": 1e-12,
    "bethe.m1_roots_of_unity": 1e-13,
    "bethe.fock_eigen_residual": 1e-10,
    "bethe.delta_eigenvalue": 1e-10,
    "bethe.qdiff_identity": 1e-10,
    "bethe.negative_control_margin": 1.0,
    "bethe.sign_symmetry": 1e-12,
    "baxter.rho_functional_eq": 1e-12,
    "baxter.triangularization": 1e-11,
    "baxter.kernel_F_equations": 1e-10,
    "baxter.G_homogeneity": 1e-12,
    "baxter.trace_identity": 1e-10,
    "baxter.negative_control_margin": 1.0,
    "baxter.delta_action": 1e-12,
    "baxter.qexp_limit": 1e-3,
    "baxter.q_leibniz_parts": 1e-10,
    "baxter.jackson_inverse": 1e-12,
    # one point of `albaxter bt --sweep`, judged like the bt suite
    "sweep.map_residual": 1e-11,
    "sweep.intertwining": 1e-10,
    "sweep.spectrality_collinearity": 1e-10,
    "sweep.trace_formula": 1e-10,
    "sweep.canonicity": 1e-5,
    "sweep.conservation": 1e-10,
}

SUITE_NAMES = ("classical", "bt", "quantum", "bethe", "baxter")
SUITE_CHECKS = {name: tuple(c for c in TOLERANCES if c.startswith(name + "."))
                for name in SUITE_NAMES}

# verify-default runs the default-config suites on this fixed seed block.
# About one seed in eight raises BTError in the bt suite (3, 13, 14, 21 and
# 37 here), so a block drawn from the workload seed would move
# ops_failed_frac by ~25% from one workload seed to the next; the block is
# pinned so that the recorded defect inputs always stay in.
VERIFY_SEEDS = tuple(range(40))

CHAIN_SIZES = (16, 32, 64, 128)
SWEEP_N = 16
SWEEP_MUS = tuple(float(m) for m in np.linspace(0.1, 0.45, 40))
SWEEP_LAMBDA = 0.9 + 0.4j   # the probe point `albaxter bt` records
FUNSPACE_SIZES = (6, 8)
FUNSPACE_POINTS = 4
FOCK_SIZES = (2, 3, 4, 5)
BETHE_SIZES = ((5, 2), (6, 2), (4, 3), (6, 3))

WORKLOADS = ("verify-default", "chain-scale", "quantum-scale")


@dataclass
class Task:
    group: str                 # task family, e.g. "suite.bt", "sweep"
    label: str                 # unique within a workload
    run: object                # () -> list of (check_id, residual)
    expected: tuple = ()       # check ids a successful run must yield


@dataclass
class TaskResult:
    label: str
    latency_s: float
    ops: list = field(default_factory=list)   # (check_id, residual, passed)
    error: str | None = None                  # exception type, if raised
    typed: bool = True                        # error defined by albaxter
    missing: tuple = ()                       # expected ids not produced
    scale: float = 1.0                        # raw -> reference-speed time

    @property
    def attempted(self):
        return 1 if self.error else len(self.ops) + len(self.missing)

    @property
    def failed(self):
        if self.error:
            return 1
        return sum(1 for op in self.ops if not op[2]) + len(self.missing)

    def outcome(self):
        """What must repeat exactly between passes over the same inputs."""
        return (self.error, tuple((c, p) for c, _, p in self.ops),
                self.missing)


def judge(check_id, residual):
    tol = TOLERANCES.get(check_id)
    r = float(residual)
    return tol is not None and math.isfinite(r) and r < tol


def run_task(task, tracer=None):
    """Run one task, timing only the library call (inside one root span
    when traced); an exception counts as one failed op carrying its type."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            pairs = task.run()
        else:
            with tracer.span(TASK_SPAN):
                pairs = task.run()
    except Exception as exc:  # every failure is reported, none dropped
        return TaskResult(task.label, time.perf_counter() - t0,
                          error=type(exc).__name__,
                          typed=type(exc).__module__.startswith("albaxter"))
    dt = time.perf_counter() - t0
    ops = [(c, float(r), judge(c, r)) for c, r in pairs]
    seen = {c for c, _, _ in ops}
    missing = tuple(c for c in task.expected if c not in seen)
    return TaskResult(task.label, dt, ops=ops, missing=missing)


def _suite_task(name, cfg, label):
    def run():
        recs = suites.SUITES[name](cfg, np.random.default_rng(cfg.seed))
        return [(r.check_id, r.residual) for r in recs]

    return Task(f"suite.{name}", label, run, SUITE_CHECKS[name])


def _spectral_pair(rng, min_sep=0.1):
    """Two points on the annulus 1.2 <= |z| <= 2 with lam^2, nu^2 apart from
    each other and from 1 (the poles of the ratio-form R-matrix)."""
    while True:
        lam, nu = (rng.uniform(1.2, 2.0) * np.exp(2j * np.pi * rng.uniform())
                   for _ in range(2))
        if (abs(lam**2 - nu**2) > min_sep and abs(lam**2 - 1) > min_sep
                and abs(nu**2 - 1) > min_sep):
            return complex(lam), complex(nu)


def _sweep_task(state, mu, opts):
    def run():
        bt = backlund.bt_apply(state, mu, opts)
        spec = backlund.spectrality(bt)
        before = chain.conserved_quantities(state)
        after = chain.conserved_quantities(bt.target)
        return [
            ("sweep.map_residual", bt.residual),
            ("sweep.intertwining",
             backlund.intertwining_residual(bt, SWEEP_LAMBDA)),
            ("sweep.spectrality_collinearity",
             float(np.max(spec.collinearity))),
            ("sweep.trace_formula", spec.trace_residual),
            ("sweep.canonicity",
             backlund.canonicity_check(state, mu, opts=opts)),
            ("sweep.conservation", before.max_relative_drift(after)),
        ]

    expected = tuple(c for c in TOLERANCES if c.startswith("sweep."))
    return Task("sweep", f"sweep/N={state.N}/mu={mu:.4f}", run, expected)


def _funspace_task(N, rtilde, points, qp, mu):
    def run():
        return [("baxter.trace_identity",
                 funspace.baxter_action_residual(mu, qp, rtilde, points))]

    return Task("funspace", f"funspace/N={N}", run, ("baxter.trace_identity",))


def _fock_task(N, n_max, qp, lam, nu, z):
    def run():
        rep = fock.FockRep(N, n_max, qp)
        ops = [("quantum.rll", fock.rll_residual(rep, lam, nu)),
               ("quantum.trace_commutator",
                fock.trace_commutator_residual(rep, lam, nu))]
        qd = fock.quantum_determinant(rep, z)
        return ops + [("quantum.qdet_four_forms", qd.pairwise_residual),
                      ("quantum.qdet_product_form", qd.product_residual)]

    expected = ("quantum.rll", "quantum.trace_commutator",
                "quantum.qdet_four_forms", "quantum.qdet_product_form")
    return Task("fock", f"fock/N={N}/n_max={n_max}", run, expected)


def _sub_seeds(seed, n):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, n)]


def build_tasks(workload, seed):
    """All tasks of one workload, with every input drawn from `seed`
    (apart from the fixed verify-default seed block and sweep state)."""
    if workload == "verify-default":
        return [_suite_task(name, RunConfig(seed=s), f"{name}/seed={s}")
                for s in VERIFY_SEEDS for name in SUITE_NAMES]

    if workload == "chain-scale":
        s_classical, s_fun = _sub_seeds(seed, 2)
        tasks = [_suite_task("classical", RunConfig(N=N, seed=s_classical + N),
                             f"classical/N={N}")
                 for N in CHAIN_SIZES]
        # The sweep runs on the state `albaxter bt --N 16 --sweep` draws at
        # the default seed: whether a mu-point raises BTError depends on
        # the state, and a raised point counts as one op instead of six,
        # so a seed-drawn state would move ops_failed_frac by ~20%.
        cfg = RunConfig()
        state = chain.ChainState.random(SWEEP_N,
                                        np.random.default_rng(cfg.seed))
        opts = backlund.SolverOptions(tol=cfg.newton_tol)
        tasks += [_sweep_task(state, mu, opts) for mu in SWEEP_MUS]
        rng = np.random.default_rng(s_fun)
        qp = QParam(cfg.alpha)
        for N in FUNSPACE_SIZES:
            rtilde = rng.uniform(1.1, 1.9, N) + 0j
            points = rng.uniform(0.1, 0.9, (FUNSPACE_POINTS, N))
            tasks.append(_funspace_task(N, rtilde, points, qp, cfg.mu))
        return tasks

    if workload == "quantum-scale":
        s_fock, s_bethe = _sub_seeds(seed, 2)
        cfg = RunConfig()
        qp = QParam(cfg.alpha)
        rng = np.random.default_rng(s_fock)
        tasks = []
        for N in FOCK_SIZES:
            lam, nu = _spectral_pair(rng)
            z = complex(rng.uniform(1.05, 1.5)
                        * np.exp(2j * np.pi * rng.uniform()))
            tasks.append(_fock_task(N, cfg.n_max, qp, lam, nu, z))
        tasks += [_suite_task("bethe", RunConfig(N=N, m=m, seed=s_bethe + i),
                              f"bethe/N={N}/m={m}")
                  for i, (N, m) in enumerate(BETHE_SIZES)]
        return tasks

    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose one of {', '.join(WORKLOADS)}")
