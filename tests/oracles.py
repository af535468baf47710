"""Independent reference computations used only by the tests."""

import numpy as np

from albaxter.backlund import bt_apply
from albaxter.classical_chain import ChainState


def central_difference_map_jacobian(state, mu, opts=None, step=1e-4):
    """(dq~/dq, dq~/dr, dr~/dq, dr~/dr) of the Backlund map by central
    differences, each column from two cold-start bt_apply solves at states
    perturbed by +-step in one real direction.  4N solves; its error is
    O(step^2) truncation plus O(eps/step) roundoff.
    """
    N = state.N
    A, B, C, D = (np.zeros((N, N), dtype=complex) for _ in range(4))
    for n in range(N):
        e = np.zeros(N)
        e[n] = step
        for dq, dr, dqt, drt in ((e, 0.0, A, C), (0.0, e, B, D)):
            hi = bt_apply(ChainState(state.q + dq, state.r + dr), mu,
                          opts).target
            lo = bt_apply(ChainState(state.q - dq, state.r - dr), mu,
                          opts).target
            dqt[:, n] = (hi.q - lo.q) / (2 * step)
            drt[:, n] = (hi.r - lo.r) / (2 * step)
    return A, B, C, D
