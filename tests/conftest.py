import numpy as np
import pytest

import topocorr as tc


@pytest.fixture(scope="session")
def model_i_topo_50():
    """Symmetric chain deep in the single-edge phase."""
    return tc.build_model_i(tc.ModelIParams(n_sites=50, gamma=4.0))


@pytest.fixture(scope="session")
def model_i_g5_100():
    return tc.build_model_i(tc.ModelIParams(n_sites=100, gamma=5.0))


@pytest.fixture(scope="session")
def model_i_trivial_100():
    return tc.build_model_i(tc.ModelIParams(n_sites=100, gamma=8.0))


@pytest.fixture(scope="session")
def effective_ii_g3():
    return tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=50, gamma=3.0))


def overlap(a, b):
    return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def sigma_oracle(t, c):
    """N(w), M(w) from the paper's singular-basis form ``Vp* Sigma Vp^T``,
    ``Vp* Sigma Vh^T``, with ``Sigma`` the amplification matrix."""
    vp, vh = t.v[:c.n], t.v[c.n:]
    left = vp.conj() @ tc.amplification_matrix(t, c)
    return left @ vp.T, left @ vh.T
