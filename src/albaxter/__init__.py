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
    conserved_det_bracket,
    conserved_gradients,
    conserved_quantities,
    dense_monodromy,
    entry_brackets,
    eom_rhs,
    monodromy_det_eval,
    monodromy_matrix,
    rk4_step,
    rmatrix_relation_residual,
    trace_bracket,
)
from .backlund import (
    BTError,
    BTResult,
    SolverOptions,
    bt_apply,
    canonicity_check,
    classical_baxter_check,
    dressing_matrix,
    generating_function,
    generating_function_check,
    intertwining_residual,
    map_jacobian,
    spectrality,
)
from .qcalc import (
    KernelSite,
    QParam,
    feq_residuals,
    jackson_derivative,
    jackson_integral,
    jackson_op,
    kernel_F,
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
    baxter_qdiff_residual,
    solve_bethe,
)
from .funspace import (
    baxter_action_residual,
    rho_product,
    triangular_check,
)

__version__ = "0.1.0"
