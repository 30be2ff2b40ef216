import numpy as np
import pytest

import topocorr as tc
from topocorr.correlations import classify_decay, normalized_forms
from topocorr.disorder import DisorderSweepResult, realization_seed
from topocorr.greensvd import resolvent, svd_at
from topocorr.models import apply_disorder, dynamical_matrix, gaussian_disorder
from conftest import sigma_oracle


def test_splitmix64_reference_values():
    # first outputs of the reference generator seeded with 0 and 1
    assert tc.splitmix64(0) == 0xE220A8397B1DCDAF
    assert tc.splitmix64(1) == 0x910A2DEC89025CC1


def test_realization_seeds_unique():
    seeds = {realization_seed(42, i, r) for i in range(8) for r in range(200)}
    assert len(seeds) == 8 * 200


class TestDisorderSweep:
    def base(self, n=24, gamma=5.0):
        return tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))

    def test_zero_disorder_grid(self):
        base = self.base()
        sweep = tc.disorder_sweep(base, [0.0], n_r=5, seed=3, observable="r")
        clean = tc.r_parameter(svd_at(dynamical_matrix(base), 0.0))
        assert sweep.means[0] == pytest.approx(clean, abs=1e-12)
        assert sweep.stderrs[0] == pytest.approx(0.0, abs=1e-12)
        assert sweep.n_unstable[0] == 0

    def test_deterministic_and_thread_invariant(self):
        base = self.base()
        kw = dict(w_grid=[0.0, 0.4, 0.8], n_r=6, seed=11, observable="lambda_n")
        a = tc.disorder_sweep(base, **kw)
        b = tc.disorder_sweep(base, **kw)
        np.testing.assert_array_equal(a.means, b.means)
        c = tc.disorder_sweep(base, threads=3, **kw)
        np.testing.assert_array_equal(a.means, c.means)

    def test_lro_decreases_with_disorder(self):
        sweep = tc.disorder_sweep(
            self.base(n=40), [0.0, 1.0, 3.0], n_r=12, seed=5, observable="lambda_n"
        )
        assert sweep.means[0] > 0.9
        assert sweep.means[2] < sweep.means[0] - 0.4

    def test_unknown_observable(self):
        with pytest.raises(ValueError):
            tc.disorder_sweep(self.base(), [0.1], n_r=2, seed=1, observable="bogus")

    def test_unstable_base_rejected(self):
        bad = tc.build_model_i(tc.ModelIParams(n_sites=10, gamma=1.0))
        with pytest.raises(tc.UnstableSystemError):
            tc.disorder_sweep(bad, [0.1], n_r=2, seed=1)

    def test_no_worker_threads_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            tc.disorder_sweep(self.base(), [0.1], n_r=2, seed=1, threads=0)

    def test_clean_r_high_across_scaling_gammas(self):
        for gamma in (4.6, 5.0, 5.4):
            c = tc.build_model_i(tc.ModelIParams(n_sites=60, gamma=gamma))
            assert tc.r_parameter(svd_at(dynamical_matrix(c), 0.0)) > 0.95


class TestCriticalDisorder:
    def synthetic(self, center=1.0, width=0.1):
        w = np.linspace(0.0, 2.0, 21)
        means = 0.5 * (1 - np.tanh((w - center) / width))
        return DisorderSweepResult(
            w_grid=w, means=means, stderrs=np.zeros_like(w), n_r=100,
            seed=0, observable_name="lambda_n", n_unstable=np.zeros(21, dtype=np.int64),
        )

    def test_recovers_tanh_center(self):
        sweep = self.synthetic()
        assert tc.critical_disorder(sweep) == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("w_missing", [0.3, 1.8])
    def test_bin_without_stable_draw_rejected(self, w_missing):
        # a bin whose every draw is unstable has a NaN mean; its neighbours'
        # slopes are NaN too and must not be taken for the steepest descent
        sweep = self.synthetic()
        sweep.means[np.isclose(sweep.w_grid, w_missing)] = np.nan
        with pytest.raises(ValueError, match=f"W = {w_missing:g}"):
            tc.critical_disorder(sweep)

    def test_flat_curve_rejected(self):
        sweep = DisorderSweepResult(
            w_grid=np.linspace(0, 2, 11), means=np.full(11, 0.5),
            stderrs=np.zeros(11), n_r=10, seed=0, observable_name="r",
            n_unstable=np.zeros(11, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            tc.critical_disorder(sweep)

    def test_needs_enough_points(self):
        sweep = DisorderSweepResult(
            w_grid=np.linspace(0, 1, 5), means=np.linspace(1, 0, 5),
            stderrs=np.zeros(5), n_r=10, seed=0, observable_name="r",
            n_unstable=np.zeros(5, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            tc.critical_disorder(sweep)


class TestPerturbativeStructure:
    def test_mean_zero_mode_shift_is_second_order(self):
        # linear-order corrections average away; the surviving mean shift
        # grows like the disorder variance
        n, gamma = 30, 5.0
        base = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))
        t0 = svd_at(dynamical_matrix(base), 0.0)
        gap = t0.s[1] - t0.s[0]
        ws = np.array([0.02, 0.04, 0.08, 0.16]) * np.sqrt(gap)
        means = []
        for iw, w in enumerate(ws):
            shifts = [
                svd_at(dynamical_matrix(apply_disorder(
                    base, gaussian_disorder(n, w, realization_seed(99, iw, r))
                )), 0.0).s[0] - t0.s[0]
                for r in range(200)
            ]
            means.append(abs(np.mean(shifts)))
        slope = np.polyfit(np.log(ws), np.log(means), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_weyl_bound_per_realization(self):
        n, gamma = 60, 5.0
        base = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))
        t0 = svd_at(dynamical_matrix(base), 0.0)
        for r in range(20):
            real = gaussian_disorder(n, 0.2, realization_seed(7, 0, r))
            t1 = svd_at(dynamical_matrix(apply_disorder(base, real)), 0.0)
            bound = np.max(np.abs(real.deltas))
            assert np.max(np.abs(t1.s - t0.s)) <= bound + 1e-10
            # with the zero mode pinned, the gap inherits the one-sided bound
            gap_shift = abs(tc.singular_gap(t1, 1) - tc.singular_gap(t0, 1))
            assert gap_shift <= bound + 1e-10

    def test_low_disorder_decay_slower_than_any_exponential(self):
        n, gamma = 60, 5.0
        base = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))
        gap = tc.singular_gap(svd_at(dynamical_matrix(base), 0.0), 1)
        w_c = 2.2 * np.sqrt(gap)

        def avg_profile(w, n_r=20):
            acc = np.zeros(n)
            used = 0
            for r in range(n_r):
                cc = apply_disorder(base, gaussian_disorder(n, w, realization_seed(5, int(w * 100), r)))
                h = dynamical_matrix(cc)
                if not tc.is_dynamically_stable(h):
                    continue
                nm, _ = sigma_oracle(svd_at(h, 0.0), cc)
                nb, _, _ = normalized_forms(nm, nm)
                acc += np.abs(nb[10])
                used += 1
            return acc / used

        low = avg_profile(0.4 * w_c)
        high = avg_profile(1.4 * w_c)
        fit_high = classify_decay(high, center=10, d_max=40)
        assert fit_high.better == "exponential"
        # exponential extrapolation of the disordered phase falls orders of
        # magnitude below the low-disorder plateau
        extrapolated = fit_high.amp_exp * np.exp(-40 / fit_high.xi)
        assert low[50] > 10 * extrapolated
        # log-profile in the low-disorder regime is convex (no straight-line
        # exponential fits it from above)
        d = np.arange(2, 41)
        quad_coef = np.polyfit(d, np.log(low[10 + d]), 2)[0]
        assert quad_coef > -1e-4


@pytest.fixture(scope="module")
def g0(model_i_g5_100):
    return resolvent(dynamical_matrix(model_i_g5_100), [0.0])[0]


class TestBornRenormalization:

    def test_zero_disorder_vanishes(self, g0):
        assert np.linalg.norm(tc.born_self_energy(g0, 0.0)) == 0.0

    def test_block_structure(self, g0):
        m = tc.born_self_energy(g0, 0.5)
        n = g0.shape[0] // 2
        np.testing.assert_allclose(np.diag(m[:n, :n]), 0.25 * np.diag(g0[:n, :n]))
        np.testing.assert_allclose(np.diag(m[:n, n:]), -0.25 * np.diag(g0[:n, n:]))
        off = m - np.diag(np.diag(m)) \
            - np.diag(np.diag(m, n), n) - np.diag(np.diag(m, -n), -n)
        assert np.linalg.norm(off) == 0.0

    def test_bulk_diagonal_homogeneous(self, g0):
        bulk = np.diag(g0)[20:80]
        assert np.max(np.abs(bulk - bulk.mean())) < 1e-3

    def test_rank1_blocks_locked_by_symmetry(self, model_i_g5_100):
        # the topological mode's own resolvent weight has hole block exactly
        # i times the particle block
        t = svd_at(dynamical_matrix(model_i_g5_100), 0.0)
        g1 = np.outer(t.v[:, 0], t.u[:, 0].conj()) / t.s[0]
        n = model_i_g5_100.n
        ratio = np.diag(g1[:n, n:])[n // 2] / np.diag(g1[:n, :n])[n // 2]
        assert min(abs(ratio - 1j), abs(ratio + 1j)) < 1e-2
        # and the rank-1 diagonal sits at the closed-form value
        lam = np.log(4.0 / 3.0)
        predicted = 0.25 * np.exp(-1j * np.pi / 2) * np.exp(lam)
        assert np.diag(g1[:n, :n])[n // 2] == pytest.approx(predicted, rel=1e-2)

    def test_effective_parameters_reduce_to_bare(self, g0):
        params = tc.ModelIParams(n_sites=100, gamma=5.0)
        eff = tc.effective_parameters(g0, params, 0.0)
        assert eff.delta_eff == 0.0
        assert eff.gamma_eff == 5.0
        assert eff.g_s_eff == 1.0

    def test_loss_increases_under_renormalization(self, g0):
        params = tc.ModelIParams(n_sites=100, gamma=5.0)
        eff = tc.effective_parameters(g0, params, 0.5)
        assert np.imag(g0[50, 50]) < 0
        assert eff.gamma_eff > params.gamma

    def test_requires_symmetric_regime(self, g0):
        with pytest.raises(ValueError):
            tc.effective_parameters(g0, tc.ModelIParams(n_sites=100, gamma=5.0, delta=0.3), 0.1)

    def test_rejects_a_resolvent_of_another_size(self, g0):
        with pytest.raises(ValueError, match="shape"):
            tc.effective_parameters(g0, tc.ModelIParams(n_sites=50, gamma=5.0), 0.1)
        with pytest.raises(ValueError, match="shape"):
            tc.effective_parameters(g0[:100], tc.ModelIParams(n_sites=100, gamma=5.0), 0.1)

    @pytest.mark.parametrize("n,gamma", [(50, 4.0), (100, 4.0), (100, 5.0)])
    def test_born_inputs_match_the_closed_form(self, n, gamma):
        # the channels B+- are bidiagonal Toeplitz, so G+- = B+-^{-1} are
        # triangular Toeplitz with diagonal 1/d+- for d+- = w + i kappa+-,
        # kappa+- = gamma/2 -+ g_s; at gamma = 4 the resolvent norm reaches
        # 1e29 and the topological singular value 1e-15.  The sites checked
        # are the middle third that effective_parameters reads; resolvent is
        # accurate normwise, and the diagonal at the first site of the n=100,
        # gamma=5 chain is off by 3e-4 relative.
        w, omega = 0.5, 0.0
        params = tc.ModelIParams(n_sites=n, gamma=gamma)
        c = tc.build_model_i(params)
        _, g_s, _ = c.channels
        inv_plus = 1 / (omega + 1j * (gamma / 2 - g_s))
        inv_minus = 1 / (omega + 1j * (gamma / 2 + g_s))
        g_ii = (inv_plus + inv_minus) / 2
        gbar_ii = -1j * (inv_plus - inv_minus) / 2
        g = resolvent(dynamical_matrix(c), [omega])[0]
        m = tc.born_self_energy(g, w)
        bulk = slice(n // 3, 2 * n // 3)
        for got, want in ((m[:n, :n], w**2 * g_ii), (m[:n, n:], -w**2 * gbar_ii),
                          (m[n:, :n], w**2 * gbar_ii), (m[n:, n:], w**2 * g_ii)):
            assert np.max(np.abs(np.diag(got)[bulk] - want)) <= 1e-13 * abs(want)
        eff = tc.effective_parameters(g, params, w)
        # Re G_ii vanishes at omega = 0, so delta_eff is measured against |G_ii|
        assert abs(eff.delta_eff - w**2 * g_ii.real) <= 1e-13 * w**2 * abs(g_ii)
        for got, want in ((eff.gamma_eff, gamma - 2 * w**2 * g_ii.imag),
                          (eff.g_s_eff, g_s - w**2 * gbar_ii)):
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_renormalized_r_tracks_ensemble_near_transition(self):
        # the effective parameters push the chain toward the transition the
        # same way the averaged ensemble moves
        n, gamma, w = 60, 5.6, 0.5
        base = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))
        g0 = resolvent(dynamical_matrix(base), [0.0])[0]
        eff = tc.effective_parameters(g0, tc.ModelIParams(n_sites=n, gamma=gamma), w)
        c_eff = tc.build_model_i(tc.ModelIParams(
            n_sites=n, gamma=eff.gamma_eff, delta=eff.delta_eff,
            g_s=float(np.real(eff.g_s_eff)),
        ))
        r_eff = tc.r_parameter(svd_at(dynamical_matrix(c_eff), 0.0))
        sweep = tc.disorder_sweep(base, [w], n_r=120, seed=21, observable="r")
        assert abs(r_eff - sweep.means[0]) < 0.07
