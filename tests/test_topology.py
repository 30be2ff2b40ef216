import bisect
import json
from dataclasses import asdict

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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
        arr = tc.winding_array(model_i(4.0), n_omega=201)
        assert body == json.dumps(asdict(arr), sort_keys=True)

    def test_length_consistency_enforced(self):
        with pytest.raises(ValueError):
            WindingArray(closings=(0.0,), nus=(0,), stable=True)


def model_ii_full(gamma, n=4):
    return tc.build_model_ii_full(tc.ModelIIParams(n_cells=n, gamma=gamma))


def grid(n_k):
    return np.linspace(-np.pi, np.pi, n_k, endpoint=False)


def oracle_winding_number(c):
    """Reference per-frequency winding number: one pass over the LU
    determinants of a directly assembled Bloch batch, with the acceptance
    rule of :func:`topology.winding_number`; None wherever that pass
    certifies no winding.  The batch is built once to keep the oracle
    affordable; ``bloch_matrix`` is deterministic, so its bits are those of
    a rebuild."""
    mats = tc.bloch_matrix(c, grid(256))
    eye = np.eye(mats.shape[-1])

    def winding_number(omega):
        dets = np.linalg.det(omega * eye - mats)
        if np.min(np.abs(dets)) < topology.DET_CLOSING_TOL:
            return None
        increments = np.angle(np.roll(dets, -1) / dets)
        total = increments.sum() / (2 * np.pi)
        if (np.max(np.abs(increments)) < np.pi / 2
                and abs(total - round(total)) < topology._PHASE_INTEGER_TOL):
            return int(round(total))
        return None

    return winding_number


CRITERION_2_CHAINS = {
    **{f"model_i-{g}": (lambda g=g: model_i(g)) for g in (1.6, 4.0, 8.0)},
    **{f"effective-{gp}": (lambda gp=gp: effective_ii(4.0, gp, 10 * gp))
       for gp in (2.0, 2.5, 3.0, 5.0)},
    "model_ii_full-4": lambda: model_ii_full(3.0),
}


def mp_winding(c, omega):
    """Independent winding number at ``omega``: the zeros of ``z**D *
    det(w*I - H(z))`` inside ``|z| < 1``, less ``D``, from 40-digit mpmath
    roots of the chain's determinant table evaluated at ``omega`` in mpmath
    arithmetic (``np.roots`` plays no part)."""
    with mpmath.workdps(40):
        w = mpmath.mpf(omega)
        coef = [mpmath.polyval([mpmath.mpc(a) for a in row], w) for row in c.bloch_det]
        deg = len(coef) // 2
        at_zero = 0
        while coef and coef[0] == 0:
            coef.pop(0)
            at_zero += 1
        while coef[-1] == 0:
            coef.pop()
        roots = mpmath.polyroots(coef[::-1], maxsteps=200, extraprec=100)
        return at_zero + sum(abs(r) < 1 for r in roots) - deg


def check_against_mpmath(c, closings, refine_tol=1e-4):
    """Each closing has a crossing within ``refine_tol/2``: the mpmath
    winding differs on its two sides."""
    for w in closings:
        assert mp_winding(c, w - refine_tol / 2) != mp_winding(c, w + refine_tol / 2), w


def checked_array(c, n_omega=601):
    """``winding_array(c, n_omega=n_omega)``, once the winding it gives every
    grid frequency has been checked: equal to the LU pass where that pass
    certifies a winding, and to the mpmath winding where the two differ."""
    arr = topology.winding_array(c, n_omega=n_omega)
    scan = oracle_winding_number(c)
    for w in np.linspace(-4.0, 4.0, n_omega):
        nu = arr.nus[bisect.bisect(arr.closings, w)]
        if scan(w) != nu:
            assert mp_winding(c, w) == nu, w
    return arr


class TestSharedBlochGrid:
    """The array reads every grid frequency and every bisection midpoint by
    the zero count of the chain's determinant polynomial.  Its winding at
    each grid frequency is checked against the per-call LU scan, or against
    an independent mpmath count where the two differ, and each closing
    against an mpmath crossing."""

    @pytest.mark.parametrize("make", CRITERION_2_CHAINS.values(), ids=CRITERION_2_CHAINS)
    def test_arrays_match_the_per_call_scan(self, make):
        c = make()
        check_against_mpmath(c, checked_array(c).closings)

    @given(gamma=st.floats(2.0, 6.0), g_c_prime=st.floats(1.5, 5.0),
           gamma_prime=st.floats(15.0, 50.0))
    @settings(max_examples=6, deadline=None)
    # a zero pair crosses |z| = 1 together (nu 2 -> 0); bisecting on the
    # k-grid scan put the closings at +-1.6347, 0.0011 from the crossing
    @example(gamma=2.0, g_c_prime=3.0, gamma_prime=15.0)
    # a crossing at -1.99998 lies 2e-5 from the grid point -2.0, where the
    # determinant all but vanishes on the k-grid
    @example(gamma=4.0625, g_c_prime=2.8359375, gamma_prime=15.15625)
    def test_arrays_match_the_per_call_scan_on_a_sweep(self, gamma, g_c_prime, gamma_prime):
        c = effective_ii(gamma, g_c_prime, gamma_prime)
        check_against_mpmath(c, checked_array(c, n_omega=101).closings)

    @given(gamma=st.floats(2.0, 6.0), g_c_prime=st.floats(1.5, 5.0),
           gamma_prime=st.floats(15.0, 50.0))
    @settings(max_examples=6, deadline=None)
    # as above; the k-grid bisection put the closings at +-1.4604, 0.0032 off
    @example(gamma=2.0, g_c_prime=3.0, gamma_prime=15.0)
    def test_full_dimer_arrays_match_the_per_call_scan_on_a_sweep(self, gamma, g_c_prime,
                                                                  gamma_prime):
        c = tc.build_model_ii_full(tc.ModelIIParams(
            n_cells=2, gamma=gamma, g_c_prime=g_c_prime, gamma_prime=gamma_prime))
        check_against_mpmath(c, checked_array(c, n_omega=101).closings)

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


# Chains whose k-grid scan accepts a wrong winding number at n_k = 256: a
# zero of z^D det(w*I - H(z)) sits within 0.006 of the unit circle.  Each
# entry: a frequency of the 101-point grid, the scan's winding there, the
# zero count's, and the positive closings, from 40-digit mpmath
# crossings.  40-digit mpmath roots give the count's value: at w = +-1.76 the
# first chain's zeros have |z| = 0.994800 and 0.996708 (nu = 2), at
# w = +-1.68 the second's have |z| = 1.000049 and 1.009104 (nu = 0).
SCAN_MISSES = {
    "near-double-zero": (dict(gamma=3.53886118150175, g_c_prime=4.485357506771523,
                              gamma_prime=24.450562360566302), -1.76, 1, 2,
                         (1.771101, 1.775884)),
    "outer-closing": (dict(gamma=1.1784013938679807, g_c_prime=3.059555281085481,
                           gamma_prime=28.648241013011564), -1.68, 1, 0,
                      (1.659564, 1.679892)),
}


class TestZeroCount:
    """The array takes the winding from the zeros of the determinant
    polynomial inside the unit circle (argument principle), not from a
    k-grid."""

    @pytest.mark.parametrize("make", CRITERION_2_CHAINS.values(), ids=CRITERION_2_CHAINS)
    def test_agrees_with_the_scan_on_the_grid(self, make):
        c = make()
        for w in np.linspace(-4.0, 4.0, 101):
            try:
                nu = tc.winding_number(c, w)
            except tc.GapClosingError:
                continue
            assert topology._zero_count(c, w) == nu, w

    def test_bisection_scans_no_k_grid(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("k-grid scanned")

        monkeypatch.setattr(topology, "winding_number", no_scan)
        monkeypatch.setattr(topology, "_bloch_determinants", no_scan)
        arr = topology.winding_array(model_i(1.6), n_omega=101)
        assert len(arr.closings) == 4

    @pytest.mark.parametrize("gamma", [1.1, 1.6, 2.5, 3.0, 4.0, 5.0, 5.5])
    def test_model_i_closings_match_the_gap_closure_frequencies(self, gamma):
        # the channel with damping kappa = gamma/2 -+ g_s closes its gap at
        # w = +-sqrt(4J^2 - kappa^2) wherever |kappa| < 2J (J = g_s = 1);
        # gamma = 1.2, whose kappa_- closing sits on a grid point, is in
        # test_grid_point_on_a_closing
        exact = sorted(sign * np.sqrt(4.0 - kappa**2)
                       for kappa in (gamma / 2 - 1, gamma / 2 + 1) if abs(kappa) < 2
                       for sign in (-1, 1))
        arr = tc.winding_array(model_i(gamma), refine_tol=1e-4)
        assert len(arr.closings) == len(exact)
        np.testing.assert_allclose(arr.closings, exact, rtol=0, atol=0.5e-4)

    @pytest.mark.parametrize("params,omega,scan,count,exact", SCAN_MISSES.values(),
                             ids=SCAN_MISSES)
    def test_scan_miss_chain_returns_the_exact_array(self, params, omega, scan, count, exact):
        c = effective_ii(**params)
        # the k-grid pass certifies a wrong winding where the count is right
        assert tc.winding_number(c, omega) == scan
        assert topology._zero_count(c, omega) == mp_winding(c, omega) == count
        arr = tc.winding_array(c)
        assert arr.nus == (0, 1, 2, 1, 0)
        np.testing.assert_allclose(arr.closings, [-exact[1], -exact[0], *exact],
                                   rtol=0, atol=5e-5)
        check_against_mpmath(c, arr.closings)

    def test_scan_miss_chain_is_an_exit_0(self, tmp_path):
        params, *_ = SCAN_MISSES["near-double-zero"]
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text(
            "model: model_ii_effective\n"
            f"params: {{n_sites: 2, gamma: {params['gamma']!r}, "
            f"g_c_prime: {params['g_c_prime']!r}, gamma_prime: {params['gamma_prime']!r}}}\n"
        )
        assert cli.main(["winding", "--config", str(cfgfile), "--out", str(tmp_path)]) \
            == cli.EXIT_OK
        arr = json.loads((tmp_path / "winding.json").read_text().splitlines()[1])
        assert arr["nus"] == [0, 1, 2, 1, 0]

    def test_grid_point_on_a_closing(self):
        # model_i(1.2) closes at +-1.2 = +-sqrt(4 - 1.6^2), a point of the
        # default 601-point grid; the zero count finds a zero on the unit
        # circle there, so both points drop out and the neighbours bracket
        # the closing
        c = model_i(1.2)
        grid = np.linspace(-4.0, 4.0, 601)
        for w in (grid[210], grid[390]):
            assert abs(abs(w) - 1.2) < 1e-12
            assert topology._zero_count(c, w) is None
        arr = tc.winding_array(c)
        assert arr.nus == (0, 1, 0, 1, 0)
        exact = [-np.sqrt(4 - 0.4**2), -1.2, 1.2, np.sqrt(4 - 0.4**2)]
        np.testing.assert_allclose(arr.closings, exact, rtol=0, atol=0.5e-4)
        for lo, hi in ((0, 3), (1, 2)):
            assert abs(arr.closings[lo] + arr.closings[hi]) < 1e-12
        check_against_mpmath(c, arr.closings)

    @pytest.mark.parametrize("gamma,nus", [(6.0, (0,)), (2.0, (0, 1, 0))])
    def test_touch_at_zero_adds_no_window(self, gamma, nus):
        # at gamma = 6 (kappa_- = 2J) and gamma = 2 (kappa_+ = 2J) a zero
        # touches |z| = 1 at w = 0 alone; the winding is the same on both
        # sides, so the grid point 0 drops out without a closing
        c = model_i(gamma)
        assert topology._zero_count(c, 0.0) is None
        assert mp_winding(c, -1e-3) == mp_winding(c, 1e-3)
        arr = tc.winding_array(c)
        assert arr.nus == nus
        check_against_mpmath(c, arr.closings)


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

    @pytest.mark.parametrize("kwargs,name", [
        ({"n_omega": 0}, "n_omega"), ({"n_omega": 1}, "n_omega"),
        ({"omega_max": -4.0}, "omega_max"), ({"omega_max": 0.0}, "omega_max"),
        ({"omega_max": float("inf")}, "omega_max"), ({"omega_max": float("nan")}, "omega_max"),
    ])
    def test_bad_grid_is_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            tc.winding_array(model_i(4.0), **{"n_omega": 11, **kwargs})


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
