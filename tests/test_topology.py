import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topocorr as tc
from topocorr import cli, models, topology
from topocorr.topology import WindingArray


def model_i(gamma, n=2):
    return tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))


def effective_ii(gamma, g_c_prime=3.0, gamma_prime=30.0, n=2):
    return tc.adiabatic_eliminate(tc.ModelIIParams(
        n_cells=n, g_c_prime=g_c_prime, gamma_prime=gamma_prime, gamma=gamma
    ))


class TestWindingNumber:
    @pytest.mark.parametrize("gamma,expected", [(4.0, 1), (8.0, 0), (1.6, 0)])
    def test_homogeneous_chain(self, gamma, expected):
        assert tc.winding_number(model_i(gamma), 0.0) == expected

    def test_far_detuned_is_trivial(self):
        assert tc.winding_number(model_i(4.0), 100.0) == 0

    def test_collective_gain_doubles_winding(self):
        assert tc.winding_number(effective_ii(3.0), 0.0) == 2

    def test_inner_window_of_weak_loss_phase(self):
        assert tc.winding_number(model_i(1.6), 1.4) == 1

    def test_requires_translational_invariance(self):
        base = model_i(4.0, n=4)
        dis = tc.apply_disorder(base, tc.gaussian_disorder(4, 0.1, 5))
        with pytest.raises(ValueError):
            tc.winding_number(dis, 0.0)

    def test_even_in_frequency(self):
        c = effective_ii(4.0)
        for w in (0.3, 1.0, 1.5, 2.5):
            assert tc.winding_number(c, w) == tc.winding_number(c, -w)

    def test_stable_under_grid_doubling(self):
        c = model_i(4.0)
        assert tc.winding_number(c, 0.2, n_k=64) == tc.winding_number(c, 0.2, n_k=2048)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            tc.winding_number(model_i(4.0), 0.0, n_k=16)


class TestWindingArray:
    def test_weak_loss_alternation(self):
        arr = tc.winding_array(model_i(1.6))
        assert arr.nus == (0, 1, 0, 1, 0)
        assert arr.stable

    def test_single_window(self):
        arr = tc.winding_array(model_i(4.0))
        assert arr.nus == (0, 1, 0)
        # closings at the analytic gap-closure frequencies
        np.testing.assert_allclose(arr.closings, [-np.sqrt(3), np.sqrt(3)], atol=5e-4)

    def test_trivial(self):
        arr = tc.winding_array(model_i(8.0))
        assert arr.nus == (0,)
        assert arr.closings == ()

    def test_reflection_symmetry(self):
        arr = tc.winding_array(model_i(1.6))
        assert arr.nus == arr.nus[::-1]
        np.testing.assert_allclose(arr.closings, sorted(-c for c in arr.closings), atol=1e-3)

    def test_rejects_too_small_window(self):
        with pytest.raises(ValueError):
            tc.winding_array(model_i(4.0), omega_max=1.0, n_omega=51)

    def test_to_json_is_the_cli_file_body(self, tmp_path):
        assert cli.main([
            "winding", "--model", "model_i", "--gamma", "4.0", "--n-sites", "2",
            "--omega-count", "201", "--out", str(tmp_path),
        ]) == cli.EXIT_OK
        header, body = (tmp_path / "winding.json").read_text().splitlines()
        assert header.startswith("# topocorr")
        assert body == tc.winding_array(model_i(4.0), n_omega=201).to_json()

    def test_length_consistency_enforced(self):
        with pytest.raises(ValueError):
            WindingArray(closings=(0.0,), nus=(0,), stable=True)


def model_ii_full(gamma, n=4):
    return tc.build_model_ii_full(tc.ModelIIParams(n_cells=n, gamma=gamma))


def grid(n_k):
    return np.linspace(-np.pi, np.pi, n_k, endpoint=False)


def oracle_winding_number(c):
    """Reference per-frequency winding number: every call takes
    det(w*I - H(k)) over the whole grid of a directly assembled Bloch batch,
    with the doubling rule of :func:`topology.winding_number`; it takes no
    strided view and reuses no determinant.  The batch is built once per
    grid size to keep the oracle affordable; ``bloch_matrix`` is
    deterministic, so its bits are those of a rebuild."""
    batches = {}

    def winding_number(chain, omega, n_k=256):
        assert chain is c
        while n_k <= topology._MAX_NK:
            if n_k not in batches:
                batches[n_k] = tc.bloch_matrix(c, grid(n_k))
            mats = batches[n_k]
            dets = np.linalg.det(omega * np.eye(mats.shape[-1]) - mats)
            if np.min(np.abs(dets)) < topology.DET_CLOSING_TOL:
                raise tc.GapClosingError(f"gap closing at omega={omega}")
            increments = np.angle(np.roll(dets, -1) / dets)
            total = increments.sum() / (2 * np.pi)
            if (np.max(np.abs(increments)) < np.pi / 2
                    and abs(total - round(total)) < topology._PHASE_INTEGER_TOL):
                return int(round(total))
            n_k *= 2
        raise tc.GapClosingError(f"winding at omega={omega} did not converge")

    return winding_number


def outcome(c, scan=None, **kw):
    """JSON of ``winding_array(c, **kw)``, or the error it raises; ``scan``
    replaces the per-frequency winding number."""
    with pytest.MonkeyPatch.context() as mp:
        if scan is not None:
            mp.setattr(topology, "winding_number", scan)
        try:
            return topology.winding_array(c, **kw).to_json()
        except (ValueError, tc.GapClosingError) as exc:
            return f"{type(exc).__name__}: {exc}"


CRITERION_2_CHAINS = {
    **{f"model_i-{g}": (lambda g=g: model_i(g)) for g in (1.6, 4.0, 8.0)},
    **{f"effective-{gp}": (lambda gp=gp: effective_ii(4.0, gp, 10 * gp))
       for gp in (2.0, 2.5, 3.0, 5.0)},
    "model_ii_full-4": lambda: model_ii_full(3.0),
}


class TestSharedBlochGrid:
    """The scan evaluates the chain's determinant polynomial and reuses the
    coarse determinants; the arrays stay those of the per-call LU scan, bit
    for bit."""

    @pytest.mark.parametrize("make", CRITERION_2_CHAINS.values(), ids=CRITERION_2_CHAINS)
    def test_arrays_match_the_per_call_scan(self, make):
        c = make()
        expected = outcome(c, oracle_winding_number(c))
        assert outcome(c) == expected
        assert expected.startswith("{")

    @given(gamma=st.floats(2.0, 6.0), g_c_prime=st.floats(1.5, 5.0),
           gamma_prime=st.floats(15.0, 50.0))
    @settings(max_examples=6, deadline=None)
    def test_arrays_match_the_per_call_scan_on_a_sweep(self, gamma, g_c_prime, gamma_prime):
        c = effective_ii(gamma, g_c_prime, gamma_prime)
        expected = outcome(c, oracle_winding_number(c), n_omega=101)
        assert outcome(c, n_omega=101) == expected

    @given(gamma=st.floats(2.0, 6.0), g_c_prime=st.floats(1.5, 5.0),
           gamma_prime=st.floats(15.0, 50.0))
    @settings(max_examples=6, deadline=None)
    def test_full_dimer_arrays_match_the_per_call_scan_on_a_sweep(self, gamma, g_c_prime,
                                                                  gamma_prime):
        c = tc.build_model_ii_full(tc.ModelIIParams(
            n_cells=2, gamma=gamma, g_c_prime=g_c_prime, gamma_prime=gamma_prime))
        expected = outcome(c, oracle_winding_number(c), n_omega=101)
        assert outcome(c, n_omega=101) == expected

    def test_each_k_point_is_assembled_once(self, monkeypatch):
        sizes = []
        real = models.bloch_matrix

        def counting(c, k):
            sizes.append(np.size(k))
            return real(c, k)

        monkeypatch.setattr(models, "bloch_matrix", counting)
        for make in (lambda: model_i(1.6), lambda: model_ii_full(3.0)):
            c = make()
            tc.winding_array(c, n_omega=101)
            tc.winding_number(c, 0.0)
        # one build per chain, at the 2D + 1 samples of its determinant
        # polynomial (D = 2 * unit cell * largest displacement); none per k-point
        assert sizes == [5, 9]

    def test_coarse_determinants_are_reused(self):
        c = model_ii_full(3.0)
        coarse = topology._bloch_determinants(c, 0.7, 256)
        fine = topology._bloch_determinants(c, 0.7, 512, coarse)
        assert fine.tobytes() == topology._bloch_determinants(c, 0.7, 512).tobytes()


def random_cell_blocks(unit_cell, reach, seed):
    """Cell blocks of a generic chain: every block couples every pair of
    sites, out to displacement ``reach``, with the Hermitian, symmetric and
    real-symmetric pairings a coupling set requires."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(real=False):
        x = rng.standard_normal((unit_cell, unit_cell))
        return x if real else x + 1j * rng.standard_normal((unit_cell, unit_cell))

    blocks = {}
    for d in range(reach + 1):
        jd, kd, gd, pd = draw(), draw(), draw(True), draw(True)
        if d == 0:
            jd, kd, gd, pd = jd + jd.conj().T, kd + kd.T, gd + gd.T, pd + pd.T
        blocks[d] = (jd, kd, gd, pd)
        blocks[-d] = (jd.conj().T, kd.T, gd.T, pd.T)
    return blocks


DET_CHAINS = {
    "model_i": lambda: model_i(4.0),
    "model_ii_full": lambda: model_ii_full(3.0),
    "model_ii_effective": lambda: effective_ii(3.0),
    "cell3-reach2": lambda: models._chain(random_cell_blocks(3, 2, 11), 3, 5),
}


class TestBlochDeterminants:
    """``_bloch_determinants`` evaluates the chain's determinant polynomial;
    it must agree with the LU determinant of the assembled Bloch matrices."""

    @pytest.mark.parametrize("make", DET_CHAINS.values(), ids=DET_CHAINS)
    @pytest.mark.parametrize("n_k", [64, 256, 1000])
    def test_agrees_with_the_lu_determinant(self, make, n_k):
        c = make()
        mats = tc.bloch_matrix(c, grid(n_k))
        eye = np.eye(mats.shape[-1])
        for omega in np.linspace(-4.0, 4.0, 17):
            lu = np.linalg.det(omega * eye - mats)
            dets = topology._bloch_determinants(c, omega, n_k)
            assert np.max(np.abs(dets - lu)) <= 1e-12 * np.max(np.abs(lu))

    def test_table_reaches_the_degree_bound(self):
        # unit cell 3 and |d| <= 2: degree 2 * 3 * 2 = 12 in z and 6 in omega
        table = DET_CHAINS["cell3-reach2"]().bloch_det
        assert table.shape == (25, 7)
        assert np.min(np.abs(table[[0, -1], -1])) > 1e-3 * np.max(np.abs(table))
        # the leading omega**6 coefficient is z**0 alone
        np.testing.assert_allclose(table[:, 0], np.eye(25)[12], rtol=0, atol=1e-15)

    def test_table_is_computed_once_per_chain(self):
        c = model_ii_full(3.0)
        assert c.bloch_det is c.bloch_det
        assert not c.bloch_det.flags.writeable
        with pytest.raises(ValueError):
            tc.apply_disorder(model_i(4.0, n=4), tc.gaussian_disorder(4, 0.1, 5)).bloch_det


class TestScanArguments:
    def test_grid_beyond_the_largest_is_rejected(self):
        with pytest.raises(ValueError, match="n_k must be at most"):
            tc.winding_number(model_i(4.0), 0.0, n_k=1_000_000)

    @pytest.mark.parametrize("refine_tol", [0.0, -1.0, float("nan")])
    def test_non_positive_refine_tol_is_rejected(self, refine_tol):
        with pytest.raises(ValueError, match="refine_tol must be positive"):
            tc.winding_array(model_i(4.0), n_omega=11, refine_tol=refine_tol)


def failing_near(points, half_width):
    """``winding_number`` that raises GapClosingError within ``half_width``
    of any of ``points``, and records every frequency it is asked for."""
    real = topology.winding_number
    asked = []

    def scan(c, omega, n_k=256):
        asked.append(omega)
        if any(abs(omega - p) <= half_width for p in points):
            raise tc.GapClosingError(f"gap closing at omega={omega}")
        return real(c, omega, n_k)

    return scan, asked


class TestNudgedRetry:
    # 101-point grid on [-4, 4]: spacing 0.08, nudge 8e-5; 0.0 is a grid point
    NUDGE = 8e-5

    def test_mirrored_nudge_when_the_first_fails(self):
        c = model_i(4.0)
        scan, asked = failing_near([0.0, self.NUDGE], 1e-9)
        assert outcome(c, scan, n_omega=101) == outcome(c, n_omega=101)
        assert any(abs(w + self.NUDGE) < 1e-9 for w in asked)

    def test_both_nudges_failing_is_a_gap_closing(self):
        scan, _ = failing_near([0.0], 1e-3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topology, "winding_number", scan)
            with pytest.raises(tc.GapClosingError) as err:
                topology.winding_array(model_i(4.0), n_omega=101)
        msg = str(err.value)
        nudge = (np.linspace(-4.0, 4.0, 101)[1] + 4.0) * 1e-3
        assert msg.startswith("gap closing at grid frequency omega=0.0")
        assert f"both nudges omega={nudge} and omega={-nudge}" in msg


class TestTopologicalEquivalence:
    def test_same_values_different_closings(self):
        a = WindingArray(closings=(-1.0, 1.0), nus=(0, 1, 0), stable=True)
        b = WindingArray(closings=(-2.0, 2.0), nus=(0, 1, 0), stable=True)
        assert tc.topologically_equivalent(a, b)

    def test_dimension_mismatch(self):
        a = WindingArray(closings=(-1.0, 1.0), nus=(0, 1, 0), stable=True)
        b = WindingArray(closings=(-2.0, -1.0, 1.0, 2.0), nus=(0, 1, 0, 1, 0), stable=True)
        assert not tc.topologically_equivalent(a, b)

    def test_trivial_pair(self):
        a = WindingArray(closings=(), nus=(0,), stable=True)
        assert tc.topologically_equivalent(a, a)


class TestDeformationBound:
    def test_zero_deformation(self):
        h = tc.dynamical_matrix(model_i(4.0, n=10))
        assert tc.deformation_gap_bound(h, h) == 0.0

    def test_damping_shift(self):
        h1 = tc.dynamical_matrix(model_i(4.0, n=40))
        h2 = tc.dynamical_matrix(model_i(4.1, n=40))
        bound = tc.deformation_gap_bound(h1, h2)
        assert bound == pytest.approx(0.05, rel=1e-12)
        t1 = tc.svd_at(h1, 0.0)
        t2 = tc.svd_at(h2, 0.0)
        # the near-zero value is topologically pinned, so the gap moves by
        # no more than the deformation norm here
        gap_shift = abs(tc.singular_gap(t2, 1) - tc.singular_gap(t1, 1))
        assert gap_shift <= bound + 1e-12

    def test_dimension_mismatch_rejected(self):
        h1 = tc.dynamical_matrix(model_i(4.0, n=4))
        h2 = tc.dynamical_matrix(model_i(4.0, n=5))
        with pytest.raises(ValueError):
            tc.deformation_gap_bound(h1, h2)


@given(seed=st.integers(0, 2**32 - 1), norm=st.floats(1e-4, 0.1))
@settings(max_examples=40, deadline=None)
def test_weyl_bound_random_perturbations(seed, norm):
    rng = np.random.Generator(np.random.PCG64(seed))
    h1 = tc.dynamical_matrix(model_i(4.0, n=10))
    e = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    e *= norm / np.linalg.norm(e, 2)
    s1 = np.sort(np.linalg.svd(-h1.h, compute_uv=False))
    s2 = np.sort(np.linalg.svd(-h1.h - e, compute_uv=False))
    # every singular value moves by at most the perturbation norm, hence any
    # gap by at most twice that
    assert np.max(np.abs(s2 - s1)) <= norm + 1e-10
    assert abs((s2[1] - s2[0]) - (s1[1] - s1[0])) <= 2 * norm + 1e-10


class TestEdgeModeCount:
    def test_single_mode(self, model_i_topo_50):
        t = tc.svd_at(tc.dynamical_matrix(model_i_topo_50), 0.0)
        assert tc.count_edge_modes_obc(t, 1) == 1

    def test_trivial_counts_none(self):
        c = tc.build_model_i(tc.ModelIParams(n_sites=50, gamma=8.0))
        t = tc.svd_at(tc.dynamical_matrix(c), 0.0)
        assert tc.count_edge_modes_obc(t, 0) == 0

    def test_two_modes(self, effective_ii_g3):
        t = tc.svd_at(tc.dynamical_matrix(effective_ii_g3), 0.0)
        assert tc.count_edge_modes_obc(t, 2) == 2

    @pytest.mark.parametrize("nu_abs", [-1, 10, 25])
    def test_nu_abs_outside_the_spectrum_rejected(self, nu_abs):
        t = tc.svd_at(tc.dynamical_matrix(model_i(4.0, n=5)), 0.0)
        assert t.s.size == 10
        with pytest.raises(ValueError, match="nu_abs"):
            tc.count_edge_modes_obc(t, nu_abs)
