import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topocorr as tc
from topocorr import correlations
from topocorr.correlations import (
    QuadratureSpec, _gauss_rule, _integrand_factory, _kronrod_rule, normalized_forms,
)
from topocorr.greensvd import SvdTriple
from topocorr.lindblad import commutation_residual, steady_state_moments
from conftest import sigma_oracle


def stable_chain(n=8, gamma=5.0, **kw):
    return tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma, **kw))


# lambda_N of model_i n=100, gamma=5 at w = 0, where s0 = 2.8e-13 is 5e-14
# of s_max: 40 digits from the exact triangular Toeplitz inverses of the two
# channels, in mpmath
LAMBDA_N_G5_100 = 0.98726651562464137591


def overflowing_resolvent(monkeypatch, scaled):
    """Scale the resolvent by 1e160 in the calls where ``scaled(omegas)``
    holds, so that ``Y Y^dagger`` overflows there."""
    real = correlations.resolvent
    monkeypatch.setattr(correlations, "resolvent", lambda h, omegas: real(h, omegas) * (
        1e160 if scaled(omegas) else 1.0))


class TestFreqCorrelations:
    def test_vacuum_steady_state(self):
        # loss only, no squeezing: nothing to excite
        c = tc.build_model_i(tc.ModelIParams(
            n_sites=5, j=0.8, g_s=0.0, g_c=0.0, gamma=2.0
        ))
        fc = tc.freq_correlations(tc.svd_at(tc.dynamical_matrix(c), 0.4), c)
        assert np.linalg.norm(fc.n_mat) < 1e-14
        assert np.linalg.norm(fc.m_mat) < 1e-14
        assert fc.excluded_sites == tuple(range(5))
        assert np.all(np.isnan(fc.n_bar))

    def test_matrix_invariants(self):
        c = stable_chain(n=12, gamma=4.5)
        fc = tc.freq_correlations(tc.svd_at(tc.dynamical_matrix(c), 0.3), c)
        n = fc.n_mat
        assert np.linalg.norm(n - n.conj().T) < 1e-10 * np.linalg.norm(n)
        vals = np.linalg.eigvalsh(n)
        assert vals[0] > -1e-10 * vals[-1]
        np.testing.assert_allclose(np.diag(fc.n_bar).real, 1.0, atol=1e-12)
        assert np.nanmax(np.abs(fc.n_bar)) <= 1 + 1e-9

    def test_gate_refuses_unstable_chain(self):
        c = stable_chain(n=6, gamma=1.6)
        t = tc.svd_at(tc.dynamical_matrix(c), 0.0)
        with pytest.raises(tc.UnstableSystemError):
            tc.freq_correlations(t, c)

    def test_plateau_and_anomalous_weight(self, model_i_g5_100):
        fc = tc.freq_correlations(
            tc.svd_at(tc.dynamical_matrix(model_i_g5_100), 0.0), model_i_g5_100
        )
        row = np.abs(fc.n_bar[10])
        # long-range plateau away from the extreme loss edge
        assert row[2:].min() > 0.9
        assert row[10:].min() > 0.99
        # equal particle/hole weight of the zero mode syncs |M| with |N|
        # (up to the same near-edge background admixture as the plateau dip)
        diff = np.abs(np.abs(fc.m_bar[10]) - row)
        assert diff[5:].max() < 0.02
        assert diff[2:].max() < 0.1

    def test_topological_lro_is_exact(self, model_i_g5_100):
        c = model_i_g5_100
        fc = tc.freq_correlations(tc.svd_at(tc.dynamical_matrix(c), 0.0), c)
        _, lam_n, _ = tc.lro_curve(c, [0.0])
        for got in (tc.lro_parameter(fc.n_bar), lam_n[0]):
            assert abs(got - LAMBDA_N_G5_100) <= 1e-14 * LAMBDA_N_G5_100

    def test_overflowing_correlations_are_a_resonance(self):
        # a hand-built s0 = 1e-200: Y = V* S^{-1} (U^T L) is finite, but
        # Y Y^dagger overflows, and its NaN-filled normalization must not escape
        c = stable_chain(n=6)
        t = tc.svd_at(tc.dynamical_matrix(c), 0.0)
        s = t.s.copy()
        s[0] = 1e-200
        tiny = SvdTriple(omega=t.omega, u=t.u, s=s, v=t.v)
        for correlate in (tc.freq_correlations, tc.rank1_approximation):
            with pytest.raises(tc.ResonanceError, match="overflows the doubles"):
                correlate(tiny, c)


@given(
    gamma=st.floats(2.6, 8.0, allow_nan=False),
    omega=st.floats(-2.0, 2.0, allow_nan=False),
    g_c=st.floats(0.1, 1.2, allow_nan=False),
    n=st.integers(3, 10),
)
@settings(max_examples=15, deadline=None)
def test_normalized_entries_are_correlation_coefficients(gamma, omega, g_c, n):
    c = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma, g_c=g_c))
    if not tc.is_dynamically_stable(tc.dynamical_matrix(c)):
        return
    fc = tc.freq_correlations(tc.svd_at(tc.dynamical_matrix(c), omega), c)
    assert np.nanmax(np.abs(fc.n_bar)) <= 1 + 1e-9
    np.testing.assert_allclose(np.diag(fc.n_bar).real, 1.0, atol=1e-12)


@pytest.mark.parametrize("omega", [0.0, -0.32, 0.5])
@pytest.mark.parametrize("make", [
    lambda: stable_chain(n=40, gamma=5.0),
    lambda: tc.build_model_ii_full(tc.ModelIIParams(n_cells=15, gamma=3.0)),
    lambda: tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=30, gamma=3.0)),
], ids=["symmetric", "dimer", "effective"])
def test_freq_correlations_match_singular_basis_form(make, omega):
    # the Gram form Y Y^dagger against Vp* Sigma (Vp, Vh)^T on the same
    # triple; the effective model's noise matrix is not diagonal
    c = make()
    t = tc.svd_at(tc.dynamical_matrix(c), omega)
    fc = tc.freq_correlations(t, c)
    for got, want in zip((fc.n_mat, fc.m_mat), sigma_oracle(t, c)):
        assert np.linalg.norm(got - want) < 1e-13 * np.linalg.norm(want)


class TestRank1Approximation:
    def test_topological_accuracy(self):
        c = stable_chain(n=40, gamma=5.0)
        t = tc.svd_at(tc.dynamical_matrix(c), 0.0)
        full = tc.freq_correlations(t, c)
        r1 = tc.rank1_approximation(t, c)
        rel = np.linalg.norm(full.n_mat - r1.n_mat) / np.linalg.norm(full.n_mat)
        assert rel < 0.05

    def test_trivial_phase_warns_and_fails(self):
        c = stable_chain(n=40, gamma=8.0)
        t = tc.svd_at(tc.dynamical_matrix(c), 0.0)
        full = tc.freq_correlations(t, c)
        with pytest.warns(UserWarning, match="rank-1"):
            r1 = tc.rank1_approximation(t, c)
        rel = np.linalg.norm(full.n_mat - r1.n_mat) / np.linalg.norm(full.n_mat)
        assert rel > 0.5

    def test_exact_for_rank1_noise(self):
        # noise feeding only the smallest singular channel: the approximation
        # reproduces the full contraction identically
        n = 2
        u = np.eye(4, dtype=complex)
        v = np.eye(4, dtype=complex)
        s = np.array([0.1, 1.0, 1.3, 2.0])
        t = SvdTriple(omega=0.0, u=u, s=s, v=v)
        c = tc.CouplingSet(
            j_mat=np.zeros((n, n), dtype=complex),
            k_mat=np.zeros((n, n), dtype=complex),
            gamma_mat=np.zeros((n, n)),
            p_mat=np.diag([0.7, 0.0]),
        )
        n_full, m_full = sigma_oracle(t, c)
        r1 = tc.rank1_approximation(t, c)
        assert np.linalg.norm(n_full - r1.n_mat) < 1e-12
        assert np.linalg.norm(m_full - r1.m_mat) < 1e-12


class TestEqualTime:
    def test_vacuum(self):
        c = tc.build_model_i(tc.ModelIParams(
            n_sites=4, j=0.5, g_s=0.0, g_c=0.0, gamma=2.0
        ))
        et = tc.equal_time(c)
        assert np.linalg.norm(et.n_mat) < 1e-10
        assert np.linalg.norm(et.m_mat) < 1e-10

    @pytest.mark.parametrize("make", [
        lambda: stable_chain(n=3, gamma=5.0),
        lambda: stable_chain(n=4, gamma=3.0, g_c=0.4),
        lambda: tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=4, gamma=4.0)),
        lambda: tc.build_model_ii_full(tc.ModelIIParams(n_cells=2, gamma=3.75)),
    ], ids=["tiny", "detuned", "with_gain", "dimerized"])
    def test_matches_moment_equations(self, make):
        c = make()
        n_ref, m_ref, cmat = steady_state_moments(c)
        assert commutation_residual(cmat) < 1e-10
        et = tc.equal_time(c, QuadratureSpec(rel_tol=1e-8))
        assert np.linalg.norm(et.n_mat - n_ref) < 1e-6 * np.linalg.norm(n_ref)
        m_scale = max(np.linalg.norm(m_ref), np.linalg.norm(n_ref))
        assert np.linalg.norm(et.m_mat - m_ref) < 1e-6 * m_scale

    def test_correlation_matrix_physical(self):
        c = stable_chain(n=6, gamma=5.0)
        et = tc.equal_time(c)
        cm = et.correlation_matrix
        vals = np.linalg.eigvalsh(0.5 * (cm + cm.conj().T))
        assert vals[0] > -1e-8 * max(vals[-1], 1.0)

    def test_refinement_consistency(self):
        c = stable_chain(n=6, gamma=4.0)
        coarse = tc.equal_time(c, QuadratureSpec(rel_tol=1e-5))
        fine = tc.equal_time(c, QuadratureSpec(rel_tol=5e-6))
        diff = np.linalg.norm(coarse.n_mat - fine.n_mat, "fro")
        assert diff <= max(coarse.quadrature_report.est_error, 1e-14)

    def test_gate_refuses_unstable(self):
        with pytest.raises(tc.UnstableSystemError):
            tc.equal_time(stable_chain(n=5, gamma=1.0))

    @pytest.mark.parametrize("field", ["rel_tol", "tail_tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerances_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            QuadratureSpec(**{field: value})

    @pytest.mark.parametrize("where,size", [("at a cutoff probe", 21), (r"on \[", 33)],
                             ids=["probe", "panel"])
    def test_overflowing_integrand_is_a_resonance(self, monkeypatch, where, size):
        # not a QuadratureError after bisecting NaN panels up to the limit
        overflowing_resolvent(monkeypatch, lambda omegas: omegas.size == size)
        with pytest.raises(tc.ResonanceError, match=f"integrand {where}.* overflows the doubles"):
            tc.equal_time(stable_chain(n=6))

    def test_anomalous_locked_to_normal(self):
        c = stable_chain(n=30, gamma=4.0)
        et = tc.equal_time(c)
        sl = slice(5, 25)
        assert np.max(np.abs(et.m_bar[sl, sl] - 1j * et.n_bar[sl, sl])) < 0.05


class TestKronrodRule:
    @pytest.mark.parametrize("n", [7, 16])
    def test_exact_to_degree_3n_plus_1(self, n):
        x, w = _kronrod_rule(n)
        g, wg = _gauss_rule(n)
        assert x.size == 2 * n + 1
        for degree in range(3 * n + 2):
            exact = 2 / (degree + 1) if degree % 2 == 0 else 0.0
            assert abs(w @ x**degree - exact) <= 4e-15, degree
            if degree < 2 * n:
                assert abs(wg @ g**degree - exact) <= 4e-15, degree

    @pytest.mark.parametrize("n", [7, 16])
    def test_gauss_nodes_are_the_odd_entries(self, n):
        from numpy.polynomial.legendre import leggauss

        x, _ = _kronrod_rule(n)
        g, wg = _gauss_rule(n)
        assert x[1::2].tobytes() == g.tobytes()
        assert np.all(np.diff(x) > 0)
        ref_nodes, ref_weights = leggauss(n)
        assert np.max(np.abs(g - ref_nodes)) <= 4.5e-16
        assert np.max(np.abs(wg - ref_weights)) <= 4e-15 * ref_weights.max()

    @pytest.mark.parametrize("n", [7, 16])
    def test_weights_are_positive(self, n):
        assert np.all(_kronrod_rule(n)[1] > 0)
        assert np.all(_gauss_rule(n)[1] > 0)

    def test_cached_rule_is_read_only(self):
        for arr in (*_kronrod_rule(16), *_gauss_rule(16)):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_k15_matches_quadpack(self):
        # QUADPACK qk15 (Piessens et al., 1983), to its 15 printed digits
        x, w = _kronrod_rule(7)
        assert abs(x[-1] - 0.991455371120813) <= 1e-15
        assert abs(w[-1] - 0.022935322010529) <= 1e-15
        assert x[0] == -x[-1] and w[0] == w[-1]


# 40-digit mpmath values of the integrand G*(w) D G(w)^T of
# model_ii_effective (30 cells, gamma=3) at w = 0.21, where cond(w*I - H) is
# about 7e9, from the exact inverse of the same floating-point H.
INTEGRAND_W = 0.21
INTEGRAND_TRACE = 2.8544047930543085004e19
INTEGRAND_FRO = 2.8544047929158865372e19
INTEGRAND_ENTRIES = {
    (0, 0): 2.0239931319398472309,
    (0, 30): 0.034288153525441205921 + 0.78816496369206965798j,
    (29, 29): 1.3392922316941981732e19,
    (0, 29): -1258654254.8473669339 - 3511589154.6943240653j,
}


def gram(y):
    """The integrand ``Y Y^dagger`` of stacked factors ``Y``."""
    return y @ y.conj().swapaxes(-1, -2)


def oracle_channel_integrand(c, h):
    """The folded integrand factors of a symmetric chain as the quadrature
    took them before the channel route of ``resolvent``: from one full
    SVD per node, taken independently at ``+w`` and at ``-w``,
    ``Y = V* S^{-1} U_h^T sqrt(Gamma)`` (the gauge phases of ``svd_at``
    cancel in each product), so that ``Y Y^dagger = V* Sigma
    V^T`` (symmetric chains have no gain, so no P term, and a uniform
    diagonal Gamma)."""
    n = c.n
    root_gamma = np.sqrt(np.diag(c.gamma_mat))

    def node(omega):
        t = tc.svd_at(h, omega)
        return (t.v.conj() / t.s) @ (t.u[n:].T * root_gamma)

    def factors(omegas):
        return np.stack([node(w) for w in omegas]), np.stack([node(-w) for w in omegas])

    return factors


class TestEqualTimeIntegrand:
    def test_dense_route_matches_exact_resolvent(self):
        # The banded LU resolvent reaches 2.4e-11 normwise here and 3.7e-11
        # on the worst of these values (a dense inverse: 5.5e-11 and
        # 1.6e-10); the same integrand assembled from a dense SVD (V
        # diag(1/s) U^dagger) misses them by 5.8e-7 normwise and by 1.9e-6
        # on entry (0, 30).
        c = tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=30, gamma=3.0))
        assert c.channels is None
        direct, _ = _integrand_factory(c, tc.dynamical_matrix(c))(np.array([INTEGRAND_W]))
        val = gram(direct)[0]
        assert abs(np.trace(val) - INTEGRAND_TRACE) < 1e-9 * INTEGRAND_TRACE
        assert abs(np.linalg.norm(val) - INTEGRAND_FRO) < 1e-9 * INTEGRAND_FRO
        for ij, ref in INTEGRAND_ENTRIES.items():
            assert abs(val[ij] - ref) < 1e-9 * abs(ref), ij

    @pytest.mark.parametrize("chain", [
        stable_chain(n=6, gamma=4.0),
        tc.build_model_ii_full(tc.ModelIIParams(n_cells=3, gamma=3.0)),
    ], ids=["channels", "dense"])
    def test_batch_matches_single_nodes(self, chain):
        # bit for bit: the dense route factors the nodes of a batch side by
        # side, in blocks that exchange no pivots
        integrand = _integrand_factory(chain, tc.dynamical_matrix(chain))
        omegas = np.array([-1.3, 0.0, 0.4])
        for half, batch in enumerate(integrand(omegas)):
            for w, factor in zip(omegas, batch):
                single = integrand(np.array([w]))[half][0]
                assert factor.tobytes() == single.tobytes()

    @pytest.mark.parametrize("c", [
        stable_chain(n=6, gamma=4.0),
        tc.build_model_ii_full(tc.ModelIIParams(n_cells=3, gamma=3.0)),
        tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=4, gamma=3.0)),
    ], ids=["channels", "dense", "gain"])
    def test_mirror_half_is_the_integrand_at_minus_omega(self, c):
        # G(-w) = -C G(w)* C for every generator; "gain" has P != 0
        h = tc.dynamical_matrix(c)
        integrand = _integrand_factory(c, h)
        omegas = np.array([0.0, 0.21, 0.4, 1.3, 2.9, 7.0])
        _, mirror = integrand(omegas)
        direct, _ = integrand(-omegas)
        for w, got, want in zip(omegas, gram(mirror), gram(direct)):
            # the LU resolvent at -w carries its own rounding, ~ cond * eps
            cond = np.linalg.cond(w * np.eye(2 * c.n) - h.h)
            bound = max(1e-13, 2 * cond * np.finfo(float).eps)
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want), w

    @pytest.mark.parametrize("n,panels", [(12, 20), (40, 12)])
    def test_channel_route_matches_the_per_node_oracle(self, monkeypatch, n, panels):
        c = stable_chain(n=n, gamma=5.0)
        assert c.channels is not None
        et = tc.equal_time(c)
        monkeypatch.setattr(correlations, "_integrand_factory", oracle_channel_integrand)
        ref = tc.equal_time(c)
        assert et.quadrature_report.panels == ref.quadrature_report.panels == panels
        assert et.quadrature_report.omega_max == ref.quadrature_report.omega_max
        for got, want in ((et.n_mat, ref.n_mat), (et.m_mat, ref.m_mat)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("make,panels", [
        (lambda: tc.build_model_ii_full(tc.ModelIIParams(n_cells=15, gamma=3.0)), 14),
        (lambda: tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=30, gamma=3.0)), 12),
    ], ids=["full", "effective"])
    def test_panel_decisions_unchanged(self, make, panels):
        assert tc.equal_time(make()).quadrature_report.panels == panels

    @pytest.mark.parametrize("make", [
        lambda: tc.build_model_ii_full(tc.ModelIIParams(n_cells=15, gamma=3.0)),
        lambda: stable_chain(n=40, gamma=5.0),
    ], ids=["dimer", "symmetric"])
    def test_benchmark_chains_match_the_moment_equations(self, make):
        # the two chains of the benchmark's equal-time op, at its rel_tol
        c = make()
        n_ref, m_ref, _ = steady_state_moments(c)
        et = tc.equal_time(c)
        assert np.linalg.norm(et.n_mat - n_ref) <= 1e-11 * np.linalg.norm(n_ref)
        assert np.linalg.norm(et.m_mat - m_ref) <= 1e-11 * np.linalg.norm(m_ref)

    @pytest.mark.parametrize("make,uniform", [
        (lambda: stable_chain(n=3, gamma=5.0), 824),
        (lambda: tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=4, gamma=4.0)), 824),
        (lambda: stable_chain(n=20, gamma=8.0), 957),
    ], ids=["validate_model_i", "validate_effective", "trivial"])
    def test_octave_seeds_take_fewer_evaluations(self, make, uniform):
        # ``uniform`` is what eight uniform seed panels on [0, W] evaluated
        # for the same chain at the default tolerance
        c = make()
        n_ref, m_ref, _ = steady_state_moments(c)
        et = tc.equal_time(c)
        assert et.quadrature_report.evaluations < uniform
        assert np.linalg.norm(et.n_mat - n_ref) <= 1e-12 * np.linalg.norm(n_ref)
        assert np.linalg.norm(et.m_mat - m_ref) <= 1e-12 * np.linalg.norm(m_ref)

    def test_evaluations_count_panel_nodes_and_probes(self, monkeypatch):
        sizes = []
        resolvent = correlations.resolvent

        def counted(h, omegas):
            sizes.append(np.size(omegas))
            return resolvent(h, omegas)

        monkeypatch.setattr(correlations, "resolvent", counted)
        rep = tc.equal_time(stable_chain(n=4, gamma=5.0)).quadrature_report
        panel_calls = sizes.count(33)
        probes = [size for size in sizes if size != 33]
        # 21 probes on [0, W], then one per cutoff test
        assert probes[0] == 21 and set(probes[1:]) == {1}
        assert rep.evaluations == sum(sizes) == 33 * panel_calls + sum(probes)
        # 6 octave seed panels, and two fresh halves per bisection: a forest
        # of 6 binary trees with panels / 2 leaves
        assert panel_calls == rep.panels - 6

    def test_panel_limit_is_an_error(self):
        # a dense chain (the detuning breaks the channel symmetry) and a
        # tolerance no panel can meet
        c = stable_chain(n=4, gamma=5.0, delta=0.3)
        assert c.channels is None
        with pytest.raises(tc.QuadratureError, match="within 4096 panels"):
            tc.equal_time(c, QuadratureSpec(rel_tol=1e-300))


# 40-digit mpmath values of (lambda_n, lambda_m) of model_ii_effective (30
# cells, gamma=3), from the exact inverse of the same floating-point H, at
# frequencies where cond(w*I - H) is about 7e9.  The resolvent route, by
# banded LU, is within 1.0e-12 of them (a dense inverse: 4.4e-12);
# freq_correlations(svd_at) misses them by up to 4.9e-8, because a dense
# SVD bounds its error in units of eps * s_max.
LRO_EFFECTIVE = {
    -0.32: (0.96877985997830720119, 0.96941422796652190886),
    0.0: (0.96885316657232515511, 0.96949158970782720624),
    0.08: (0.96887660823193559234, 0.96951581629022148899),
}


class TestLroCurve:
    GRID = np.linspace(-4.0, 4.0, 101)

    @staticmethod
    def per_frequency(c, omegas):
        h = tc.dynamical_matrix(c)
        fcs = [tc.freq_correlations(tc.svd_at(h, w), c) for w in omegas]
        return (np.array([tc.lro_parameter(f.n_bar) for f in fcs]),
                np.array([tc.lro_parameter(f.m_bar) for f in fcs]))

    @pytest.mark.parametrize("make,rel", [
        (lambda: stable_chain(n=40, gamma=5.0), 1e-10),
        (lambda: tc.build_model_ii_full(tc.ModelIIParams(n_cells=15, gamma=3.0)), 1e-10),
        # the dense-SVD reference is itself off by up to 4.9e-8 here (see
        # LRO_EFFECTIVE, which holds this chain to 1e-10 against exact values)
        (lambda: tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=30, gamma=3.0)), 1e-7),
    ], ids=["channels", "dense", "gain"])
    def test_matches_per_frequency_svd(self, make, rel):
        c = make()
        omegas, lam_n, lam_m = tc.lro_curve(c, self.GRID)
        np.testing.assert_array_equal(omegas, self.GRID)
        ref_n, ref_m = self.per_frequency(c, self.GRID)
        np.testing.assert_allclose(lam_n, ref_n, rtol=rel, atol=0)
        np.testing.assert_allclose(lam_m, ref_m, rtol=rel, atol=0)

    def test_gain_chain_matches_exact_values(self):
        c = tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=30, gamma=3.0))
        assert c.channels is None and np.any(np.diag(c.p_mat, 1))
        omegas, lam_n, lam_m = tc.lro_curve(c, list(LRO_EFFECTIVE))
        want = np.array(list(LRO_EFFECTIVE.values()))
        np.testing.assert_allclose(lam_n, want[:, 0], rtol=1e-10, atol=0)
        np.testing.assert_allclose(lam_m, want[:, 1], rtol=1e-10, atol=0)

    def test_resonant_frequency_loses_only_its_row(self, monkeypatch):
        c = stable_chain(n=12, gamma=5.0)
        full = tc.lro_curve(c, self.GRID)
        bad = self.GRID[40]
        real = correlations.resolvent

        def resolvent(h, omegas):
            if np.any(omegas == bad):
                raise tc.ResonanceError(f"omega={bad} is resonant")
            return real(h, omegas)

        monkeypatch.setattr(correlations, "resolvent", resolvent)
        omegas, lam_n, lam_m = tc.lro_curve(c, self.GRID)
        np.testing.assert_array_equal(omegas, np.delete(self.GRID, 40))
        for got, want in zip((lam_n, lam_m), full[1:]):
            np.testing.assert_allclose(got, np.delete(want, 40), rtol=1e-13, atol=0)

    def test_overflowing_frequency_loses_only_its_row(self, monkeypatch):
        c = stable_chain(n=12, gamma=5.0)
        full = tc.lro_curve(c, self.GRID)
        bad = self.GRID[40]
        overflowing_resolvent(monkeypatch, lambda omegas: np.any(omegas == bad))
        omegas, lam_n, lam_m = tc.lro_curve(c, self.GRID)
        np.testing.assert_array_equal(omegas, np.delete(self.GRID, 40))
        for got, want in zip((lam_n, lam_m), full[1:]):
            np.testing.assert_allclose(got, np.delete(want, 40), rtol=1e-13, atol=0)

    def test_gate_refuses_unstable_chain(self):
        with pytest.raises(tc.UnstableSystemError):
            tc.lro_curve(stable_chain(n=6, gamma=1.6), self.GRID)


def test_noise_matrix_must_be_positive_semidefinite():
    # stable (negative P only adds damping), but diag(P, Gamma) has no real
    # factor L L^T, so the Gram forms of the correlations do not exist
    base = stable_chain(n=4, gamma=5.0)
    c = tc.CouplingSet(j_mat=base.j_mat, k_mat=base.k_mat, gamma_mat=base.gamma_mat,
                       p_mat=-0.5 * np.eye(4))
    assert c.stability.stable
    with pytest.raises(ValueError, match="negative eigenvalue -0.5"):
        tc.equal_time(c)
    with pytest.raises(ValueError, match="negative eigenvalue -0.5"):
        tc.lro_curve(c, [0.0])
    t = tc.svd_at(tc.dynamical_matrix(c), 0.0)
    with pytest.raises(ValueError, match="negative eigenvalue -0.5"):
        tc.freq_correlations(t, c)
    with pytest.raises(ValueError, match="negative eigenvalue -0.5"):
        tc.rank1_approximation(t, c)


class TestLroParameter:
    def test_identity_matrix(self):
        assert tc.lro_parameter(np.eye(5)) == pytest.approx(1 / 5)

    def test_perfect_order(self):
        assert tc.lro_parameter(np.ones((7, 7))) == pytest.approx(1.0)

    def test_tracks_topological_window(self):
        c = stable_chain(n=80, gamma=5.0)
        h = tc.dynamical_matrix(c)

        def lam(w):
            fc = tc.freq_correlations(tc.svd_at(h, w), c)
            return tc.lro_parameter(fc.n_bar)

        assert lam(0.0) > 0.8
        assert lam(1.0) > 0.8
        assert lam(2.0) < 0.2


class TestLroCurvature:
    def test_quadratic(self):
        x = np.linspace(0, 2, 21)
        curv = tc.lro_curvature(x**2, dx=x[1] - x[0])
        np.testing.assert_allclose(curv, 2.0, atol=1e-8)

    def test_linear(self):
        x = np.linspace(0, 2, 11)
        curv = tc.lro_curvature(3 * x + 1, dx=x[1] - x[0])
        np.testing.assert_allclose(curv, 0.0, atol=1e-9)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            tc.lro_curvature(np.ones(4))

    def test_extremum_at_window_boundary(self):
        c = stable_chain(n=60, gamma=5.0)
        h = tc.dynamical_matrix(c)
        ws = np.linspace(0.8, 1.8, 41)
        lam = np.array([
            tc.lro_parameter(tc.freq_correlations(tc.svd_at(h, w), c).n_bar)
            for w in ws
        ])
        curv = tc.lro_curvature(lam, dx=ws[1] - ws[0])
        w_peak = ws[np.argmax(np.abs(curv[2:-2])) + 2]
        assert abs(w_peak - np.sqrt(7) / 2) < 0.1


class TestClassifyDecay:
    def test_recovers_exponential(self):
        d = np.arange(30)
        fit = tc.classify_decay(np.exp(-d / 3.0), center=0, d_max=25)
        assert fit.better == "exponential"
        assert fit.xi == pytest.approx(3.0, abs=1e-6)

    def test_recovers_gaussian(self):
        d = np.arange(30)
        fit = tc.classify_decay(np.exp(-(d**2) / 20.0), center=0, d_max=25)
        assert fit.better == "gaussian"
        assert fit.sigma2 == pytest.approx(10.0, abs=1e-6)

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            tc.classify_decay(np.ones(5), center=0, d_min=2, d_max=3)

    def test_equal_time_phases(self):
        topo = tc.equal_time(stable_chain(n=50, gamma=4.0))
        assert tc.classify_decay(np.abs(topo.n_bar[24]), center=24).better == "gaussian"
        triv = tc.equal_time(stable_chain(n=50, gamma=8.0))
        fit = tc.classify_decay(np.abs(triv.n_bar[24]), center=24)
        assert fit.better == "exponential"
        assert fit.xi < 10


def test_normalization_guard_flags_dead_sites():
    n_mat = np.diag([1.0, 0.0, 2.0]).astype(complex)
    n_bar, m_bar, excluded = normalized_forms(n_mat, n_mat)
    assert excluded == (1,)
    assert np.isnan(n_bar[1, 1])
    assert n_bar[0, 0] == 1.0
