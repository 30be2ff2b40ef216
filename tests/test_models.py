import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topocorr as tc
from topocorr.models import (
    particle_hole_conjugation,
    pbc_dynamical_matrix,
    phs_residual,
)

PI_HALF = np.pi / 2

BUILDERS = pytest.mark.parametrize("build", [
    lambda n: tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=3.3)),
    lambda n: tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=n, gamma=3.3)),
    lambda n: tc.build_model_ii_full(tc.ModelIIParams(n_cells=n, gamma=3.3)),
], ids=["model_i", "model_ii_effective", "model_ii_full"])


class TestModelI:
    def test_small_chain_entries(self):
        c = tc.build_model_i(tc.ModelIParams(
            n_sites=3, j=1.0, g_s=1.0, g_c=1.0, delta=0.0, phi=PI_HALF, gamma=5.0
        ))
        # sub-diagonal carries exp(+i phi)
        assert c.j_mat[1, 0] == pytest.approx(1j, abs=1e-15)
        assert c.j_mat[0, 1] == pytest.approx(-1j, abs=1e-15)
        assert c.k_mat[0, 0] == 1.0
        assert c.k_mat[1, 0] == 1.0
        np.testing.assert_allclose(c.gamma_mat, 5.0 * np.eye(3))
        assert not np.any(c.p_mat)
        # open boundary: no wraparound
        assert c.j_mat[0, 2] == 0 and c.k_mat[0, 2] == 0

    def test_decoupled_limit(self):
        c = tc.build_model_i(tc.ModelIParams(
            n_sites=4, j=0.0, g_s=0.0, g_c=0.0, delta=0.7, gamma=0.0
        ))
        np.testing.assert_allclose(c.j_mat, 0.7 * np.eye(4))
        assert not np.any(c.k_mat)
        assert not np.any(c.gamma_mat)

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            tc.ModelIParams(n_sites=1)
        with pytest.raises(ValueError):
            tc.ModelIParams(n_sites=4, gamma=-1.0)

    def test_symmetric_regime_flag(self):
        assert tc.ModelIParams(n_sites=4, gamma=3.0).symmetric_regime
        assert not tc.ModelIParams(n_sites=4, gamma=3.0, delta=0.1).symmetric_regime
        assert not tc.ModelIParams(n_sites=4, g_c=0.5).symmetric_regime

    def test_unique_zero_singular_value_obc(self, model_i_topo_50):
        t = tc.svd_at(tc.dynamical_matrix(model_i_topo_50), 0.0)
        gap = tc.singular_gap(t, n_edge=1)
        assert np.sum(t.s < gap / 10) == 1


class TestModelII:
    def test_alternating_decay(self):
        c = tc.build_model_ii_full(tc.ModelIIParams(n_cells=2, gamma=1.0, gamma_prime=9.0))
        np.testing.assert_allclose(np.diag(c.gamma_mat), [1.0, 9.0, 1.0, 9.0])
        assert c.unit_cell == 2
        assert c.n == 4

    def test_couplings_live_on_the_right_sublattices(self):
        p = tc.ModelIIParams(n_cells=3, j=1.0, g_s=0.1, g_c=0.1,
                             g_c_prime=3.0, gamma=4.0, gamma_prime=30.0)
        c = tc.build_model_ii_full(p)
        assert c.j_mat[2, 0] == pytest.approx(1j)      # even-even, distance 2
        assert c.j_mat[1, 0] == 0                      # no odd hopping
        assert c.k_mat[1, 0] == 3.0                    # even-odd pairing
        assert c.k_mat[2, 0] == 0.1
        assert c.k_mat[0, 0] == 0.1 and c.k_mat[1, 1] == 0.0

    def test_gcp_zero_block_decouples(self):
        p = tc.ModelIIParams(n_cells=3, g_c_prime=0.0, gamma=2.0, gamma_prime=7.0)
        c = tc.build_model_ii_full(p)
        even = np.ix_(range(0, 6, 2), range(0, 6, 2))
        ref = tc.build_model_i(tc.ModelIParams(
            n_sites=3, j=p.j, g_s=p.g_s, g_c=p.g_c, gamma=p.gamma
        ))
        np.testing.assert_allclose(c.j_mat[even], ref.j_mat)
        np.testing.assert_allclose(c.k_mat[even], ref.k_mat)
        # odd sites keep only their decay
        odd = np.ix_(range(1, 6, 2), range(1, 6, 2))
        assert not np.any(c.j_mat[odd])
        assert not np.any(c.k_mat[odd])

    def test_adiabatic_validity_flag(self):
        assert tc.ModelIIParams(n_cells=2, g_c_prime=3.0, gamma_prime=30.0).adiabatic_validity()
        assert not tc.ModelIIParams(n_cells=2, g_c_prime=10.0, gamma_prime=30.0).adiabatic_validity()


class TestAdiabaticElimination:
    def test_collective_gain_matrix(self):
        c = tc.adiabatic_eliminate(tc.ModelIIParams(
            n_cells=4, g_c_prime=3.0, gamma_prime=30.0, gamma=3.0
        ))
        # local gain 4 g_c'^2/gamma' per adjacent auxiliary: q = 1.2
        np.testing.assert_allclose(np.diag(c.p_mat), 2.4)
        np.testing.assert_allclose(np.diag(c.p_mat, k=1), 1.2)
        assert c.unit_cell == 1 and c.translationally_invariant
        np.testing.assert_allclose(c.gamma_mat, 3.0 * np.eye(4))

    def test_gain_scale(self):
        c = tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=4, g_c_prime=2.0, gamma_prime=20.0))
        np.testing.assert_allclose(np.diag(c.p_mat, k=1), 0.8)

    def test_no_auxiliary_coupling_reduces_to_model_i(self):
        p = tc.ModelIIParams(n_cells=5, g_c_prime=0.0, gamma=2.5)
        c = tc.adiabatic_eliminate(p)
        assert not np.any(c.p_mat)
        ref = tc.build_model_i(tc.ModelIParams(
            n_sites=5, j=p.j, g_s=p.g_s, g_c=p.g_c, gamma=p.gamma
        ))
        np.testing.assert_allclose(c.j_mat, ref.j_mat)

    def test_rejects_zero_auxiliary_decay(self):
        with pytest.raises(ValueError):
            tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=3, gamma_prime=0.0))

    def test_edge_correction_halves_first_site(self):
        p = tc.ModelIIParams(n_cells=4, g_c_prime=3.0, gamma_prime=30.0, gamma=3.0)
        c = tc.adiabatic_eliminate(p, edge_correction=True)
        assert c.p_mat[0, 0] == pytest.approx(1.2)
        assert c.p_mat[1, 1] == pytest.approx(2.4)
        assert not c.translationally_invariant


class TestDisorderApplication:
    def test_zero_disorder_identity(self):
        base = tc.build_model_i(tc.ModelIParams(n_sites=6, gamma=3.0))
        real = tc.gaussian_disorder(6, 0.0, seed=11)
        out = tc.apply_disorder(base, real)
        np.testing.assert_array_equal(out.j_mat, base.j_mat)

    def test_only_diagonal_changes(self):
        base = tc.build_model_i(tc.ModelIParams(n_sites=4, gamma=3.0))
        real = tc.DisorderRealization(
            deltas=np.array([0.1, -0.1, 0.2, -0.2]), seed=0, w=0.1
        )
        out = tc.apply_disorder(base, real)
        diff = out.j_mat - base.j_mat
        np.testing.assert_allclose(np.diag(diff), real.deltas)
        assert np.linalg.norm(diff - np.diag(np.diag(diff))) == 0
        np.testing.assert_array_equal(out.k_mat, base.k_mat)
        assert not out.translationally_invariant

    def test_reproducible_from_seed(self):
        a = tc.gaussian_disorder(32, 0.5, seed=987)
        b = tc.gaussian_disorder(32, 0.5, seed=987)
        np.testing.assert_array_equal(a.deltas, b.deltas)
        c = tc.gaussian_disorder(32, 0.5, seed=988)
        assert not np.array_equal(a.deltas, c.deltas)

    def test_length_mismatch_rejected(self):
        base = tc.build_model_i(tc.ModelIParams(n_sites=4, gamma=3.0))
        with pytest.raises(ValueError):
            tc.apply_disorder(base, tc.gaussian_disorder(5, 0.1, seed=1))


class TestDynamicalMatrix:
    def test_pure_loss(self):
        c = tc.build_model_i(tc.ModelIParams(
            n_sites=3, j=0.0, g_s=0.0, g_c=0.0, gamma=2.0
        ))
        h = tc.dynamical_matrix(c)
        np.testing.assert_allclose(h.h, -1j * np.eye(6), atol=1e-15)

    def test_blocks(self):
        p = tc.ModelIParams(n_sites=3, gamma=1.0)
        c = tc.build_model_i(p)
        h = tc.dynamical_matrix(c).h
        d = 0.5j * (c.p_mat - c.gamma_mat)
        np.testing.assert_allclose(h[:3, :3], c.j_mat + d)
        np.testing.assert_allclose(h[:3, 3:], c.k_mat)
        np.testing.assert_allclose(h[3:, :3], -c.k_mat.conj())
        np.testing.assert_allclose(h[3:, 3:], -c.j_mat.conj() + d)

    def test_particle_hole_symmetry(self, model_i_topo_50):
        assert phs_residual(tc.dynamical_matrix(model_i_topo_50)) < 1e-12

    def test_symmetric_chain_is_stable_above_threshold(self):
        c = tc.build_model_i(tc.ModelIParams(n_sites=20, gamma=5.0))
        assert tc.is_dynamically_stable(tc.dynamical_matrix(c))

    def test_weak_loss_chain_is_unstable(self):
        c = tc.build_model_i(tc.ModelIParams(n_sites=20, gamma=1.6))
        assert not tc.is_dynamically_stable(tc.dynamical_matrix(c))
        with pytest.raises(tc.UnstableSystemError):
            tc.assert_stable(tc.dynamical_matrix(c))

    def test_stability_gate_survives_eigensolver_scatter(self):
        # dense eigensolves report spurious growth for this stable chain
        c = tc.build_model_i(tc.ModelIParams(n_sites=100, gamma=4.6))
        assert tc.is_dynamically_stable(tc.dynamical_matrix(c))


@st.composite
def model_i_params(draw):
    return tc.ModelIParams(
        n_sites=draw(st.integers(2, 9)),
        j=draw(st.floats(-2, 2, allow_nan=False)),
        g_s=draw(st.floats(-2, 2, allow_nan=False)),
        g_c=draw(st.floats(-2, 2, allow_nan=False)),
        delta=draw(st.floats(-1, 1, allow_nan=False)),
        phi=draw(st.floats(0, np.pi, allow_nan=False)),
        gamma=draw(st.floats(0, 8, allow_nan=False)),
    )


@given(model_i_params())
@settings(max_examples=25, deadline=None)
def test_phs_holds_for_any_parameters(params):
    h = tc.dynamical_matrix(tc.build_model_i(params))
    assert phs_residual(h) < 1e-12


@given(model_i_params(), st.integers(0, 2**32 - 1), st.floats(0, 2))
@settings(max_examples=25, deadline=None)
def test_disorder_preserves_coupling_invariants(params, seed, w):
    base = tc.build_model_i(params)
    out = tc.apply_disorder(base, tc.gaussian_disorder(params.n_sites, w, seed))
    # construction re-validates hermiticity/symmetry; PHS must survive too
    assert phs_residual(tc.dynamical_matrix(out)) < 1e-12


class TestBlochMatrix:
    def test_zero_couplings_flat(self):
        c = tc.build_model_i(tc.ModelIParams(
            n_sites=4, j=0.0, g_s=0.0, g_c=0.0, gamma=2.0
        ))
        for k in (-2.0, 0.0, 1.3):
            np.testing.assert_allclose(tc.bloch_matrix(c, k), -1j * np.eye(2), atol=1e-15)

    def test_rejects_disordered_chain(self):
        base = tc.build_model_i(tc.ModelIParams(n_sites=4, gamma=3.0))
        dis = tc.apply_disorder(base, tc.gaussian_disorder(4, 0.1, 3))
        with pytest.raises(ValueError):
            tc.bloch_matrix(dis, 0.0)

    def test_gapped_at_k0(self):
        c = tc.build_model_i(tc.ModelIParams(n_sites=4, gamma=4.0))
        s = np.linalg.svd(0.0 * np.eye(2) - tc.bloch_matrix(c, 0.0), compute_uv=False)
        assert s.min() > 0.1

    def test_effective_gain_enters_diagonal(self):
        c = tc.adiabatic_eliminate(tc.ModelIIParams(
            n_cells=4, g_c_prime=3.0, gamma_prime=30.0, gamma=0.0
        ))
        q = 1.2
        for k in (0.0, 1.0):
            hk = tc.bloch_matrix(c, k)
            expected = 0.5j * q * (2 + 2 * np.cos(k))
            assert hk[0, 0] == pytest.approx(expected + 2 * np.cos(k + PI_HALF), abs=1e-12)

    @BUILDERS
    @pytest.mark.parametrize("omega", [0.0, 0.9])
    def test_determinant_product_identity(self, build, omega):
        c = build(12)
        n_cells = c.n // c.unit_cell
        h_pbc = pbc_dynamical_matrix(c)
        det_real = np.linalg.det(omega * np.eye(2 * c.n) - h_pbc)
        det_prod = np.prod([
            np.linalg.det(omega * np.eye(2 * c.unit_cell)
                          - tc.bloch_matrix(c, 2 * np.pi * m / n_cells))
            for m in range(n_cells)
        ])
        assert det_real == pytest.approx(det_prod, rel=1e-8)

    @BUILDERS
    def test_batch_is_the_stack_of_scalar_calls(self, build):
        c = build(12)
        ks = np.linspace(-np.pi, np.pi, 64, endpoint=False)
        batch = tc.bloch_matrix(c, ks)
        assert batch.shape == (64, 2 * c.unit_cell, 2 * c.unit_cell)
        np.testing.assert_array_equal(batch, np.stack([tc.bloch_matrix(c, k) for k in ks]))

    @BUILDERS
    def test_periodic_closure_only_adds_the_wraparound(self, build):
        # the open chain drops the couplings that leave it; the ring wraps
        # exactly those, between the first and the last cell
        c = build(6)
        diff = pbc_dynamical_matrix(c) - tc.dynamical_matrix(c).h
        m, n = c.unit_cell, c.n
        site = np.arange(2 * n) % n
        edge_pair = ((site[:, None] < m) & (site[None, :] >= n - m)) | (
            (site[:, None] >= n - m) & (site[None, :] < m))
        assert np.any(diff[edge_pair])
        assert not np.any(diff[~edge_pair])


def test_conjugation_operator_is_block_swap():
    cmat = particle_hole_conjugation(2)
    np.testing.assert_array_equal(cmat, np.block([
        [np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]
    ]))
