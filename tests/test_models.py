import math

import numpy as np
import pytest
import scipy.linalg
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import topocorr as tc
from topocorr import cli, models
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


def oracle_stability(mat, tol=1e-10, tau=1.0, max_doublings=24):
    """Reference gate: the complex eigensolve of ``H`` (``Im eig < -tol``),
    then the norm certificate on ``exp(-i tau H)``, with no real form and no
    caching.  Returns ``(stable, route, doublings)``."""
    if float(np.max(np.linalg.eigvals(mat).imag)) < -tol:
        return True, "eigensolve", 0
    p = scipy.linalg.expm(-1j * tau * mat)
    log_norm = 0.0
    for doubling in range(max_doublings):
        nrm = np.linalg.norm(p, 2)
        log_norm += math.log(nrm) if nrm > 0 else -math.inf
        if log_norm < 0:
            return True, "certificate", doubling
        p = (p / nrm) @ (p / nrm)
        log_norm += log_norm
    return False, "certificate", max_doublings


class TestNoiseMatrix:
    @pytest.mark.parametrize("build", [
        lambda: tc.build_model_i(tc.ModelIParams(n_sites=12, gamma=3.3)),
        lambda: tc.build_model_ii_full(tc.ModelIIParams(n_cells=6, gamma=3.3)),
        # the one chain whose gain is not diagonal
        lambda: tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=12, gamma=3.3)),
        lambda: tc.apply_disorder(tc.build_model_i(tc.ModelIParams(n_sites=12, gamma=5.0)),
                                  tc.gaussian_disorder(12, 1.5, seed=7)),
    ], ids=["model_i", "model_ii_full", "model_ii_effective", "disorder_draw"])
    def test_is_scipy_block_diag_bit_for_bit(self, build):
        c = build()
        want = scipy.linalg.block_diag(c.p_mat, c.gamma_mat)
        got = c.noise_matrix
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def _model_i(n, gamma):
    return lambda: tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))


def _model_ii_full(gamma):
    return lambda: tc.build_model_ii_full(tc.ModelIIParams(n_cells=15, gamma=gamma))


def _model_ii_effective(gamma):
    return lambda: tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=30, gamma=gamma))


def _disordered(w, seed=7):
    base = tc.build_model_i(tc.ModelIParams(n_sites=100, gamma=5.0))
    return lambda: tc.apply_disorder(base, tc.gaussian_disorder(100, w, seed))


# Includes the certificate-route chains (model_i n=20/2.5, n=100/4.0 and
# n=100/4.6, where the eigensolve reports spurious growth) and the marginal
# band of the effective chain near gamma = 2.6, where the eigensolve scatters
# to about +1e-7 and the certificate cannot decide within its doublings.
VERDICT_BATTERY = {
    **{f"model_i-n{n}-g{g}": _model_i(n, g)
       for n in (20, 50, 100) for g in (1.6, 2.0, 2.5, 3.0, 4.0, 4.6, 5.0)},
    **{f"model_ii_full-g{g}": _model_ii_full(g) for g in (0.5, 1.0, 3.0)},
    **{f"model_ii_effective-g{g!r}": _model_ii_effective(g)
       for g in (1.0, 3.0, 2.6 - 2e-9, 2.6 + 2e-9, 2.6 + 1e-10)},
    **{f"disordered-w{w}": _disordered(w) for w in (0.5, 1.5, 3.0, 6.0)},
}


class TestStabilityVerdict:
    @pytest.mark.parametrize("name", sorted(VERDICT_BATTERY))
    def test_matches_complex_gate(self, name):
        c = VERDICT_BATTERY[name]()
        stable, route, doublings = oracle_stability(tc.dynamical_matrix(c).h)
        if name.startswith("disordered"):
            # draws of the certified gamma=5 chain inherit its gauge verdict
            route, doublings = "gauge", 0
        assert c.stability == tc.StabilityVerdict(stable, route, doublings)
        assert tc.is_dynamically_stable(tc.dynamical_matrix(c)) is stable

    @pytest.mark.parametrize("name", ["model_i-n20-g2.5", "model_i-n100-g4.0",
                                      "model_i-n100-g4.6"])
    def test_certificate_route_recorded(self, name):
        v = VERDICT_BATTERY[name]().stability
        assert v.stable and v.route == "certificate" and v.doublings > 0

    @pytest.mark.parametrize("build", [
        _model_i(12, 4.0), _model_ii_full(3.0), _model_ii_effective(2.6),
        lambda: tc.apply_disorder(_model_i(12, 4.0)(), tc.gaussian_disorder(12, 1.0, 5)),
    ], ids=["model_i", "model_ii_full", "model_ii_effective", "disordered"])
    def test_real_form_is_the_quadrature_rotation(self, build):
        c = build()
        h = tc.dynamical_matrix(c).h
        n = h.shape[0] // 2
        eye = np.eye(n)
        t = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / np.sqrt(2)
        a = tc.real_form(c)
        assert a.dtype == np.float64
        assert np.max(np.abs(a - (-1j * t @ h @ t.conj().T))) <= 1e-14

    def test_decided_once_per_chain(self, monkeypatch):
        calls = []
        decide = models._decide
        monkeypatch.setattr(models, "_decide", lambda *a: calls.append(1) or decide(*a))
        c = tc.build_model_i(tc.ModelIParams(n_sites=10, gamma=5.0))
        for _ in range(3):
            assert tc.is_dynamically_stable(tc.dynamical_matrix(c))
            tc.assert_stable(c)
        assert "stability" in vars(c) and len(calls) == 1
        # a disorder draw of a gauge-certified chain inherits its verdict
        draw = tc.apply_disorder(c, tc.gaussian_disorder(10, 0.5, 1))
        assert draw.stability == tc.StabilityVerdict(True, "gauge")
        assert len(calls) == 1

    def test_correlations_command_runs_the_eigensolve_once(self, tmp_path, monkeypatch):
        gates, decisions = [], []
        gate, decide = models.is_dynamically_stable, models._decide
        monkeypatch.setattr(models, "is_dynamically_stable",
                            lambda *a, **k: gates.append(1) or gate(*a, **k))
        monkeypatch.setattr(models, "_decide", lambda *a: decisions.append(1) or decide(*a))
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(yaml.safe_dump({
            "params": {"n_sites": 8, "gamma": 5.0},
            "omega_grid": {"min": -2.0, "max": 2.0, "count": 101},
            "outputs": {"dir": str(tmp_path / "out")},
        }))
        assert cli.main(["correlations", "--config", str(cfgfile)]) == cli.EXIT_OK
        assert len(gates) == 1 and len(decisions) == 1


def _fresh(c):
    """The chain rebuilt from its matrices, with no cached facts."""
    return tc.CouplingSet(c.j_mat, c.k_mat, c.gamma_mat, c.p_mat, unit_cell=c.unit_cell)


class TestImaginaryGauge:
    @given(st.one_of(
        st.builds(lambda n, g: tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=g)),
                  st.integers(10, 60), st.floats(4.6, 8.0)),
        st.just(tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=30, gamma=3.0))),
    ), st.floats(0.0, 30.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_draws_share_the_certified_gauge(self, base, w, seed):
        assert base.gauge.certified
        draw = tc.apply_disorder(base, tc.gaussian_disorder(base.n, w, seed))
        assert _fresh(draw).gauge == base.gauge
        assert draw.stability == tc.StabilityVerdict(True, "gauge")
        assert models._decide(tc.real_form(draw)).stable

    @pytest.mark.parametrize("build", [
        _model_i(100, 4.0), _model_ii_full(3.0),
    ], ids=["model_i-n100-g4.0", "model_ii_full-g3.0"])
    def test_uncertified_draws_keep_the_gate(self, build):
        base = build()
        assert not base.gauge.certified
        for w in (0.5, 3.0):
            draw = tc.apply_disorder(base, tc.gaussian_disorder(base.n, w, 7))
            assert _fresh(draw).gauge == base.gauge
            assert draw.stability.route in ("eigensolve", "certificate")
            assert draw.stability == models._decide(tc.real_form(draw))

    def test_unconverged_search_is_uncertified(self):
        # the banded eigensolve raises LinAlgError on this chain
        base = tc.build_model_i(tc.ModelIParams(n_sites=8, j=1.175494351e-38, g_s=1.0,
                                                g_c=0.0, delta=0.0, phi=1.0, gamma=0.0))
        assert not base.gauge.certified
        draw = tc.apply_disorder(base, tc.gaussian_disorder(base.n, 1.0, 0))
        assert draw.stability == models._decide(tc.real_form(draw))

    @pytest.mark.parametrize("name", ["model_i-n20-g5.0", "model_i-n100-g4.6",
                                      "model_ii_effective-g3.0"])
    def test_abscissa_is_the_dense_one(self, name):
        c = VERDICT_BATTERY[name]()
        n, g = c.n, c.gauge
        site = np.tile(np.arange(n), 2)
        b = tc.real_form(c) * g.r ** (site[:, None] - site[None, :]).astype(float)
        dense = np.linalg.eigvalsh(0.5 * (b + b.T))[-1]
        assert abs(g.alpha - dense) <= g.margin


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
# the gauge search's banded eigensolve does not converge on this chain
@example(tc.ModelIParams(n_sites=8, j=1.175494351e-38, g_s=1.0, g_c=0.0, delta=0.0,
                         phi=1.0, gamma=0.0), 0, 1.0)
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
