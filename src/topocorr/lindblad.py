"""Reference steady-state second moments from the master equation.

For a quadratic Liouvillian the equal-time second moments close on
themselves: the doubled correlation matrix ``C = [[N, M], [M*, N^T + I]]``
satisfies the Sylvester equation ``H* C - C H^T = i diag(P, Gamma)``, whose
unique solution (for a dynamically stable chain) is the steady state.

This path never touches Green's functions or the frequency integral; it is
the independent cross-check used by the validation suite and the tests.
"""

from __future__ import annotations

import numpy as np
import scipy

from .models import CouplingSet, assert_stable, dynamical_matrix


def steady_state_moments(c: CouplingSet):
    """Solve the moment equations directly; returns (n_mat, m_mat, full 2n matrix).

    The bottom-right block of the returned full matrix must equal
    ``n_mat.T + I`` (bosonic commutation preserved by the dynamics), which
    callers can use as a consistency residual.
    """
    assert_stable(c, "steady_state_moments")
    h = dynamical_matrix(c)
    n = c.n
    cmat = scipy.linalg.solve_sylvester(h.h.conj(), -h.h.T, 1j * c.noise_matrix)
    return cmat[:n, :n], cmat[:n, n:], cmat


def commutation_residual(cmat) -> float:
    """How far the solved moments drift from the bosonic algebra."""
    n = cmat.shape[0] // 2
    return float(
        np.linalg.norm(cmat[n:, n:] - (cmat[:n, :n].T + np.eye(n)), np.inf)
    )
