"""Verification laboratory for the Ablowitz-Ladik integrable chain.

Classical layer: Lax/monodromy construction, conserved quantities, exact
Poisson brackets, the r-matrix relation, and one-parameter Backlund maps
with spectrality and generating-function checks.  Quantum layer: the
q-boson representation on the Fock states of total occupation <= n_max,
with RLL/Yang-Baxter and quantum determinant identities, Bethe roots by
homotopy continuation, and the q-difference Baxter equation verified at
the eigenvalue level and pointwise on product kernels.
"""

from .classical_chain import (
    ChainState,
    ConservedSet,
    DegenerateStateError,
    classical_rmatrix,
    conserved_quantities,
    eom_rhs,
    monodromy_det_residuals,
    monodromy_matrix,
    rk4_step,
    rmatrix_relation_residuals,
    trace_bracket,
    trace_det_bracket,
)
from .backlund import (
    BTError,
    BTResult,
    SolverOptions,
    bt_apply,
    canonicity_check,
    classical_baxter_check,
    generating_function,
    generating_function_check,
    intertwining_residual,
    spectrality,
)
from .qcalc import (
    KernelSite,
    QParam,
    feq_residuals,
    jackson_integral,
    jackson_op,
    qhat_kernel,
    qpochhammer_inf,
    rho_site,
)
from .fock import (
    FockRep,
    bethe_state,
    eigen_residual,
    quantum_determinant,
    quantum_rmatrix,
    rll_residual,
    trace_commutator_residual,
    ybe_residual,
)
from .bethe import (
    BetheConfig,
    BetheConvergenceError,
    solve_bethe,
)
from .funspace import (
    baxter_action_residual,
    rho_product,
    triangular_check,
)

__version__ = "0.1.0"
