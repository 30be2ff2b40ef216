import math

import numpy as np
import pytest

import topocorr as tc
from topocorr.analytics import PhaseRegion, k_plus, lambda_plus
from topocorr.models import dynamical_matrix
from conftest import overlap


class TestEdgeSolution:
    def test_reference_point(self):
        sol = tc.edge_solution(0.0, 5.0, n=20)
        assert sol.lambda_plus == pytest.approx(math.log(4 / 3), rel=1e-12)
        assert sol.k_plus == pytest.approx(0.0, abs=1e-15)
        assert sol.phi_u == pytest.approx(math.pi / 2, rel=1e-12)

    def test_momentum_at_finite_frequency(self):
        sol = tc.edge_solution(0.5, 5.0, n=20)
        assert sol.k_plus == pytest.approx(math.atan(1 / 3), rel=1e-12)

    def test_normalization_identity(self):
        sol = tc.edge_solution(0.3, 4.5, n=30)
        sites = np.arange(30)
        total = 2 * sol.amplitude_a**2 * np.sum(np.exp(2 * sol.lambda_plus * sites))
        assert total == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(sol.v_vector()) == pytest.approx(1.0, rel=1e-12)

    def test_outside_region_rejected(self):
        with pytest.raises(ValueError):
            tc.edge_solution(0.0, 8.0, n=10)
        with pytest.raises(ValueError):
            tc.edge_solution(2.0, 5.0, n=10)

    def test_overlap_with_numerical_vectors(self):
        c = tc.build_model_i(tc.ModelIParams(n_sites=50, gamma=5.0))
        t = tc.svd_at(dynamical_matrix(c), 0.0)
        sol = tc.edge_solution(0.0, 5.0, n=50)
        assert overlap(t.v[:, 0], sol.v_vector()) > 0.999
        assert overlap(t.u[:, 0], sol.u_vector()) > 0.999

    def test_vectors_satisfy_recursion_in_the_bulk(self):
        n = 40
        sol = tc.edge_solution(0.4, 5.0, n=n)
        c = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=5.0))
        a = 0.4 * np.eye(2 * n) - dynamical_matrix(c).h
        res = a @ sol.v_vector()
        interior = np.concatenate([res[1:n - 1], res[n + 1:2 * n - 1]])
        assert np.max(np.abs(interior)) < 1e-10


class TestLargeSize:
    """Where lambda*n passes ~355, exp(lambda*n) overflows a double."""

    def test_finite_at_large_n(self):
        sol = tc.edge_solution(0.0, 3.0, 600)
        assert math.isfinite(sol.amplitude_a)
        for vec in (sol.v_vector(), sol.u_vector()):
            assert np.all(np.isfinite(vec))
            assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)
        s0 = tc.hybridized_zero_singular_value(0.0, 3.0, 600)
        assert math.isfinite(s0) and s0 >= 0.0
        assert s0 == tc.zero_singular_value(0.0, 3.0, 600)[0]  # both underflow

    @pytest.mark.parametrize("n", [2, 5, 10, 20, 50])
    def test_agrees_with_the_direct_form_at_small_n(self, n):
        checked = 0
        for gamma in (3.0, 4.0, 5.0):
            for omega in np.linspace(-1.5, 1.5, 13):
                if tc.phase_region(omega, gamma) is not PhaseRegion.SINGLE_EDGE_TOPOLOGICAL:
                    continue
                lam = lambda_plus(omega, gamma)
                ratio = math.expm1(2 * lam) / math.expm1(2 * lam * n)
                sol = tc.edge_solution(omega, gamma, n)
                amp = math.sqrt(ratio / 2.0)
                assert sol.amplitude_a == pytest.approx(amp, rel=1e-14, abs=0)
                s0 = 2.0 * math.exp(lam * (n - 2)) * ratio
                assert tc.hybridized_zero_singular_value(omega, gamma, n) == pytest.approx(
                    s0, rel=1e-14, abs=0)
                sites = np.arange(n)
                top = amp * np.exp((1j * sol.k_plus + lam) * sites)
                np.testing.assert_allclose(sol.v_vector()[:n], top, rtol=1e-13, atol=0)
                checked += 1
        assert checked >= 20


class TestZeroSingularValue:
    def test_reference_value(self):
        fin, asy = tc.zero_singular_value(0.0, 5.0, n=20)
        assert asy == pytest.approx(2.775e-3, rel=1e-3)
        assert fin == pytest.approx(asy, rel=1e-2)
        assert fin > 0

    def test_matches_dense_svd(self):
        c = tc.build_model_i(tc.ModelIParams(n_sites=20, gamma=5.0))
        s0 = tc.svd_at(dynamical_matrix(c), 0.0).s[0]
        fin, _ = tc.zero_singular_value(0.0, 5.0, n=20)
        assert s0 == pytest.approx(fin, rel=1e-2)

    def test_monotone_exponential_in_size(self):
        vals = np.array([tc.zero_singular_value(0.0, 4.0, n)[1] for n in range(10, 60, 10)])
        ratios = vals[1:] / vals[:-1]
        # constant ratio exp(-10 lambda): faster than any polynomial decay
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)
        assert ratios[0] < 1e-2

    def test_accuracy_scales_with_localization_depth(self):
        # relative error of the hybridization value shrinks like exp(-2 lambda n):
        # quantitatively accurate only where the edge mode is deeply localized
        gamma = 5.0
        errs = []
        depths = []
        for n in (10, 20, 40):
            c = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))
            h = dynamical_matrix(c)
            for om in (0.0, 0.6, 1.0):
                s0 = tc.svd_at(h, om).s[0]
                fin = tc.hybridized_zero_singular_value(om, gamma, n)
                errs.append(abs(s0 - fin) / fin)
                depths.append(2 * lambda_plus(om, gamma) * n)
        errs, depths = np.array(errs), np.array(depths)
        deep = depths > 2 * np.log(10) * 3 / 2  # exp(-depth) < ~1e-3
        assert np.all(errs[deep] < 1e-2)
        slope = np.polyfit(-depths, np.log(errs), 1)[0]
        assert 0.7 < slope < 1.3

    @pytest.mark.parametrize("n", [10, 20, 40, 100, 200])
    def test_exact_against_channel_svd(self, n):
        # where the inverse refinement fires (s0 < 1e-12 s_max) the channel
        # SVD carries full relative accuracy; elsewhere gesvd's own floor is
        # absolute, about 1e-13 s_max
        refined = 0
        for gamma in (3.0, 4.0, 5.0):
            h = dynamical_matrix(tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma)))
            for om in np.linspace(-1.0, 1.0, 11):
                if tc.phase_region(om, gamma) is not PhaseRegion.SINGLE_EDGE_TOPOLOGICAL:
                    continue
                s = tc.svd_at(h, om).s
                fin, _ = tc.zero_singular_value(om, gamma, n)
                if s[0] < 1e-12 * s[-1]:
                    refined += 1
                    assert abs(s[0] - fin) <= 1e-12 * fin, (gamma, om)
                else:
                    assert abs(s[0] - fin) <= 1e-13 * s[-1], (gamma, om)
        if n >= 100:
            assert refined >= 10

    @pytest.mark.parametrize("n,omega", [(10, 1.2), (50, 1.3)])
    def test_in_band_branch(self, n, omega):
        # exp(-lambda) >= n/(n+1): no root below the band of B^T B
        gamma = 5.0
        assert math.exp(-lambda_plus(omega, gamma)) > n / (n + 1)
        s = tc.svd_at(dynamical_matrix(
            tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))), omega).s
        fin, _ = tc.zero_singular_value(omega, gamma, n)
        assert fin > 2.0 / (n + 1)
        assert abs(s[0] - fin) <= 1e-13 * s[-1]

    @pytest.mark.parametrize("n", [10, 50])
    def test_continuous_across_band_edge(self, n):
        # the two branches meet at exp(-lambda) = n/(n+1) with s0 = 2/(n+1)
        gamma = 5.0
        ratio = n / (n + 1)
        w_edge = math.sqrt(16 * ratio**2 - (gamma - 2) ** 2) / 2
        at_edge = tc.zero_singular_value(w_edge, gamma, n)[0]
        assert at_edge == pytest.approx(2.0 / (n + 1), rel=1e-12)
        below = tc.zero_singular_value(w_edge - 1e-7, gamma, n)[0]
        above = tc.zero_singular_value(w_edge + 1e-7, gamma, n)[0]
        # a jump between the branches would break the symmetric difference
        assert below < at_edge < above
        assert above - at_edge == pytest.approx(at_edge - below, rel=1e-3)
        h = dynamical_matrix(tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma)))
        s = tc.svd_at(h, w_edge).s
        assert abs(s[0] - at_edge) <= 1e-13 * s[-1]

    def test_domain_error(self):
        with pytest.raises(ValueError):
            tc.zero_singular_value(0.0, 8.0, n=10)
        with pytest.raises(ValueError):
            tc.hybridized_zero_singular_value(0.0, 8.0, n=10)


class TestPhaseRegion:
    @pytest.mark.parametrize("gamma,expected", [
        (1.0, PhaseRegion.BOTH_EDGES),
        (4.0, PhaseRegion.SINGLE_EDGE_TOPOLOGICAL),
        (8.0, PhaseRegion.NONE),
    ])
    def test_regions_at_zero_frequency(self, gamma, expected):
        assert tc.phase_region(0.0, gamma) is expected

    def test_window_boundary(self):
        w_star = math.sqrt(7) / 2
        assert tc.phase_region(w_star - 1e-6, 5.0) is PhaseRegion.SINGLE_EDGE_TOPOLOGICAL
        assert tc.phase_region(w_star + 1e-6, 5.0) is PhaseRegion.NONE

    def test_boundary_matches_numerical_edge_mode_onset(self):
        # the window edge from the normalizability condition coincides with
        # where the near-zero singular value detaches from the bulk; the
        # onset point converges to the analytic boundary like 1/n, reaching
        # the 0.02 window around n ~ 500
        def inside_window(gamma, n, w):
            c = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))
            t = tc.svd_at(dynamical_matrix(c), w)
            return t.s[0] < tc.singular_gap(t, 1) / 10

        for gamma in (3.0, 4.0, 5.0):
            w_star = math.sqrt(16 - (gamma - 2) ** 2) / 2
            assert inside_window(gamma, 480, w_star - 0.02)
            assert not inside_window(gamma, 480, w_star + 0.02)

    def test_edge_mode_onset_offset_shrinks_like_inverse_size(self):
        gamma = 4.0
        w_star = math.sqrt(16 - (gamma - 2) ** 2) / 2

        def onset_offset(n):
            c = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))
            h = dynamical_matrix(c)
            lo, hi = 0.5 * w_star, w_star
            for _ in range(20):
                mid = 0.5 * (lo + hi)
                t = tc.svd_at(h, mid)
                if t.s[0] < tc.singular_gap(t, 1) / 10:
                    lo = mid
                else:
                    hi = mid
            return w_star - 0.5 * (lo + hi)

        assert onset_offset(60) / onset_offset(120) == pytest.approx(2.0, abs=0.3)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            tc.phase_region(0.0, -1.0)


class TestGaussianPrediction:
    def test_equal_sites(self):
        assert tc.gaussian_prediction(7, 7) == pytest.approx(1.0)

    def test_reference_value(self):
        assert tc.gaussian_prediction(24, 30) == pytest.approx(0.714, abs=5e-4)

    def test_variance_identity(self):
        for l, j in ((5, 9), (12, 40), (3, 3)):
            val = tc.gaussian_prediction(l, j)
            pref = math.sqrt(2 * math.sqrt(l * j) / (l + j))
            assert -2 * (l + j) * math.log(val / pref) == pytest.approx((l - j) ** 2, abs=1e-9)

    def test_rejects_edge_indices(self):
        with pytest.raises(ValueError):
            tc.gaussian_prediction(0, 5)


class TestLinearizedDispersion:
    def test_expansion_at_origin(self):
        k_lin, lam = tc.linearized_dispersion(0.0, 5.0)
        assert k_lin == 0.0
        assert lam == pytest.approx(math.log(4 / 3), rel=1e-12)

    def test_small_frequency_accuracy(self):
        k_lin, lam_quad = tc.linearized_dispersion(0.1, 5.0)
        assert abs(k_plus(0.1, 5.0) - k_lin) < 1e-3
        assert abs(lambda_plus(0.1, 5.0) - lam_quad) < 1e-3

    def test_residual_scaling(self):
        # k residual is cubic, lambda residual is quartic in frequency
        ws = np.array([0.02, 0.04, 0.08, 0.16])
        rk, rl = [], []
        for w in ws:
            k_lin, lam_quad = tc.linearized_dispersion(w, 5.0)
            rk.append(abs(k_plus(w, 5.0) - k_lin))
            rl.append(abs(lambda_plus(w, 5.0) - lam_quad))
        slope_k = np.polyfit(np.log(ws), np.log(rk), 1)[0]
        slope_l = np.polyfit(np.log(ws), np.log(rl), 1)[0]
        assert slope_k == pytest.approx(3.0, abs=0.2)
        assert slope_l == pytest.approx(4.0, abs=0.2)

    def test_rejects_gapless_expansion_point(self):
        with pytest.raises(ValueError):
            tc.linearized_dispersion(0.1, 2.0)


class TestCharacteristicRoots:
    def test_symmetric_point_degenerates(self):
        b1, b2 = tc.characteristic_beta_roots(0.0, 5.0, j=1.0, g_s=1.0, g_c=1.0, channel=+1)
        assert b1 == pytest.approx(4 / 3)
        assert np.isinf(abs(b2))

    def test_left_channel_root(self):
        b1, b2 = tc.characteristic_beta_roots(0.0, 5.0, j=1.0, g_s=1.0, g_c=1.0, channel=-1)
        nonzero = b1 if abs(b1) > abs(b2) else b2
        assert nonzero == pytest.approx(-(5 + 2) / 4)

    def test_general_roots_solve_recursion(self):
        args = dict(omega=0.3, gamma=4.0, j=1.0, g_s=0.6, g_c=0.8)
        for channel in (+1, -1):
            for beta in tc.characteristic_beta_roots(channel=channel, **args):
                a = 1j * (args["j"] - channel * args["g_c"])
                b = args["omega"] + 0.5j * args["gamma"] - 1j * channel * args["g_s"]
                cc = -1j * (args["j"] + channel * args["g_c"])
                assert abs(a * beta**2 + b * beta + cc) < 1e-10

    def test_amplification_constant_roughly_frequency_independent(self):
        # the product of squared edge amplitude and the dominant noise weight
        # stays within ~10% across the topological window
        n, gamma = 50, 4.0
        c = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))
        h = dynamical_matrix(c)
        vals = []
        for w in np.linspace(-1.0, 1.0, 9):
            t = tc.svd_at(h, w)
            sig00 = tc.amplification_matrix(t, c)[0, 0].real
            amp = tc.edge_solution(w, gamma, n).amplitude_a
            lam = lambda_plus(w, gamma)
            predicted = np.exp(2 * lam) / (1 - np.exp(-2 * lam)) / 16
            vals.append(amp**2 * sig00 / predicted)
        vals = np.array(vals)
        assert np.max(np.abs(vals / vals.mean() - 1)) < 0.1
