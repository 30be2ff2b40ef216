import numpy as np
import pytest
import scipy.linalg
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

import topocorr as tc
from topocorr import greensvd
from topocorr.models import symmetric_channels


def pure_loss_chain(n=4, gamma=2.0):
    return tc.build_model_i(tc.ModelIParams(
        n_sites=n, j=0.0, g_s=0.0, g_c=0.0, gamma=gamma
    ))


def oracle_channel_svd(omega, j, g_s, gamma, n):
    """The full 2n SVD assembled from the two channels' SVDs at one frequency."""
    (up, sp, vp), (um, sm, vm) = [
        tuple(x[0] for x in channel)
        for channel in greensvd._channel_svd(np.array([omega]), j, g_s, gamma, n)
    ]
    s = np.concatenate([sp, sm])
    u = np.zeros((2 * n, 2 * n), dtype=complex)
    v = np.zeros((2 * n, 2 * n), dtype=complex)
    r = 1.0 / np.sqrt(2.0)
    u[:n, :n] = r * up
    u[n:, :n] = 1j * r * up
    u[:n, n:] = r * um
    u[n:, n:] = -1j * r * um
    v[:n, :n] = r * vp
    v[n:, :n] = 1j * r * vp
    v[:n, n:] = r * vm
    v[n:, n:] = -1j * r * vm
    order = np.argsort(s, kind="stable")
    return u[:, order], s[order], v[:, order]


def channel_matrices(omega, j, g_s, gamma, n):
    """B+ (lower) and B- (upper) bidiagonal Toeplitz, as ``_channel_svd``
    decomposes them."""
    eye, sub = np.eye(n), np.eye(n, k=-1)
    plus = (omega + 1j * (gamma / 2 - g_s)) * eye - 2j * j * sub
    minus = (omega + 1j * (gamma / 2 + g_s)) * eye + 2j * j * sub.T
    return plus, minus


def count_refinements(monkeypatch):
    """Count the calls of the channel inverse refinement."""
    calls = []
    original = greensvd._smallest_triple_via_inverse

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(greensvd, "_smallest_triple_via_inverse", counted)
    return calls


class TestChannelVerdict:
    def test_decided_once_per_chain(self, model_i_topo_50):
        c = model_i_topo_50
        assert c.channels == symmetric_channels(c) == (1.0, 1.0, 4.0)
        assert "channels" in vars(c)  # cached on the chain

    @pytest.mark.parametrize("chain", [
        tc.build_model_i(tc.ModelIParams(n_sites=6, phi=1.2, gamma=4.0)),
        tc.build_model_i(tc.ModelIParams(n_sites=6, g_c=0.5, gamma=4.0)),
        tc.build_model_i(tc.ModelIParams(n_sites=6, delta=0.1, gamma=4.0)),
        tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=6, gamma=3.0)),
        tc.build_model_ii_full(tc.ModelIIParams(n_cells=3, gamma=3.0)),
        tc.apply_disorder(tc.build_model_i(tc.ModelIParams(n_sites=6, gamma=4.0)),
                          tc.gaussian_disorder(6, 0.3, 1)),
    ], ids=["phase", "pairing", "detuning", "gain", "dimer", "disorder"])
    def test_other_chains_take_the_dense_route(self, chain):
        assert chain.channels is None


class TestChannelSvd:
    # n=40, gamma=3: the inverse refinement fires on the plus channel for
    # |w| < 0.87 or so, and not elsewhere
    CHAIN = tc.build_model_i(tc.ModelIParams(n_sites=40, gamma=3.0))
    OMEGAS = np.array([-3.1, -1.2, -0.4, 0.0, 1e-3, 0.21, 0.5, 1.3, 2.7, 6.0])

    def test_batch_matches_single_frequencies_bit_for_bit(self, monkeypatch):
        calls = count_refinements(monkeypatch)
        batch = greensvd._channel_svd(self.OMEGAS, *self.CHAIN.channels, 40)
        assert len(calls) == 5
        for i in range(self.OMEGAS.size):
            single = greensvd._channel_svd(self.OMEGAS[i:i + 1], *self.CHAIN.channels, 40)
            for channel, ref in zip(batch, single):
                for got, want in zip(channel, ref):
                    np.testing.assert_array_equal(got[i], want[0])

    @pytest.mark.parametrize("scalar", [float, np.float64], ids=["python", "numpy"])
    def test_svd_at_matches_the_per_frequency_assembly_bit_for_bit(self, scalar):
        h = tc.dynamical_matrix(self.CHAIN)
        for w in self.OMEGAS:
            w = scalar(w)
            u, s, v = oracle_channel_svd(w, *self.CHAIN.channels, 40)
            t = tc.svd_at(h, w)
            u, v = greensvd._fix_gauge(u, v)
            np.testing.assert_array_equal(t.s, s)
            np.testing.assert_array_equal(t.u, u)
            np.testing.assert_array_equal(t.v, v)

    def test_scalar_type_does_not_change_the_bits(self):
        # Python and NumPy complex division round differently, and the
        # inverse refinement raises the ratio to the n-th power; at gamma=2.5
        # it fires at 197 of these 401 frequencies, and the two divisions
        # give different last bits at 57 of them
        h = tc.dynamical_matrix(tc.build_model_i(tc.ModelIParams(n_sites=40, gamma=2.5)))
        for w in np.linspace(-2.0, 2.0, 401):
            a, b = tc.svd_at(h, float(w)), tc.svd_at(h, w)
            for x, y in ((a.s, b.s), (a.u, b.u), (a.v, b.v)):
                np.testing.assert_array_equal(x, y)


# Channel singular values s[0], s[1], s[n // 2] and s[n - 1] of model_i at
# (n, gamma, omega), from a 50-digit mpmath SVD of each bidiagonal channel
# (J = 1, g_s = 1; the diagonal moduli are the doubles _channel_svd forms).
# The mpmath SVD and the 50-digit roots of the secular equation agree to
# 2e-26 relative, and to 3e-29 at s0 = 1.55e-24.  A dense dgesvd of the
# channel puts s0 4.1e-10 off at (40, 3, 1.3) and 5.4e-11 off at (100, 4, 1.5).
MPMATH_CHANNEL_VALUES = {
    # refined through the inverse: s0 = 1.6e-24, 7.6e-26 and 1.5e-18
    (40, 3.0, 0.0): ((1.5509636485369269e-24, 1.5020882425435835, 2.06451705655024,
                      2.4987788618921156),
                     (0.5239376117313216, 0.5911434068192777, 3.2358366302274972,
                      4.496666736576198)),
    (40, 3.0, 0.5): ((1.5178830414797103e-18, 1.2963542760278017, 2.12696089054084,
                      2.705516715523981),
                     (0.5721282823730477, 0.6360864650832692, 3.2752638374791334,
                      4.546148279080887)),
    (100, 4.0, 0.5): ((7.599828328483148e-26, 0.8832483912443225, 2.296245169236495,
                       3.1176826273296063),
                      (1.04409890748317, 1.0522098181511181, 3.656431881245968,
                       5.040792981554899)),
    # edge branch, not refined
    (40, 3.0, 1.3): ((5.341607792068307e-07, 0.6228347529276728, 2.4543913874435646,
                      3.3903580409728415),
                     (0.835649505761371, 0.8873111815016916, 3.4934628212228698,
                      4.8142964887738104)),
    (100, 4.0, 1.5): ((1.1619829557221088e-05, 0.20778898216626257, 2.702343919428575,
                       3.8023121653626495),
                      (1.3564278297064092, 1.36338065443958, 3.9227019625934885,
                       5.353491369579789)),
    # in the band, just above where the branches meet
    (40, 3.0, 1.9): ((0.05604506299094641, 0.22563051563991166, 2.830317405782126,
                      3.9617062171569337),
                     (1.1548459299586202, 1.1981671366841546, 3.764257719826326,
                      5.136408408889828)),
    (100, 4.0, 1.8): ((0.07703599743184422, 0.12090150210546081, 2.8819352965051124,
                       4.058630411167491),
                      (1.500769658363916, 1.5073448344200922, 4.047967954459795,
                       5.497951095519255)),
    # bulk
    (40, 3.0, 2.7): ((0.7647477076534813, 0.8190386227671433, 3.4342835206606463,
                      4.742438567821738),
                     (1.69177582252391, 1.727559928941941, 4.234065913783008,
                      5.675804526629822)),
    (100, 4.0, 3.0): ((1.1648197577723074, 1.1724125051706744, 3.7585175122122907,
                       5.1616804274019055),
                      (2.2444382980140123, 2.2498211213995845, 4.710653645484683,
                       6.2419789703057305)),
}


class TestClosedFormChannelSvd:
    @pytest.mark.parametrize("n,gamma,omega", list(MPMATH_CHANNEL_VALUES))
    def test_values_match_mpmath(self, n, gamma, omega):
        c = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))
        channels = greensvd._channel_svd(np.array([omega]), *c.channels, n)
        for (_, s, _), want in zip(channels, MPMATH_CHANNEL_VALUES[n, gamma, omega]):
            got = s[0, [0, 1, n // 2, n - 1]]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [40, 100])
    def test_smallest_value_matches_the_secular_root(self, n):
        # zero_singular_value solves the same secular equation, from its own
        # lambda(omega, gamma); refined nodes take the inverse's value
        for gamma in (3.0, 4.0, 5.0):
            c = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))
            omegas = np.array([w for w in np.linspace(-1.9, 1.9, 39)
                               if tc.phase_region(w, gamma)
                               is tc.PhaseRegion.SINGLE_EDGE_TOPOLOGICAL])
            (_, s, _), _ = greensvd._channel_svd(omegas, *c.channels, n)
            want = [tc.zero_singular_value(w, gamma, n)[0] for w in omegas]
            np.testing.assert_allclose(s[:, 0], want, rtol=1e-13, atol=0)

    @given(
        n=st.integers(1, 120),
        kappa_plus=st.floats(0.05, 4.0),
        kappa_minus=st.floats(0.05, 6.0),
        j=st.floats(0.0, 3.0),
        omegas=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_and_orthogonality(self, n, kappa_plus, kappa_minus, j, omegas):
        gamma, g_s = kappa_plus + kappa_minus, (kappa_minus - kappa_plus) / 2
        omegas = np.array(omegas)
        channels = greensvd._channel_svd(omegas, j, g_s, gamma, n)
        eye = np.eye(n)
        for i, w in enumerate(omegas):
            for (u, s, v), b in zip(channels, channel_matrices(w, j, g_s, gamma, n)):
                u, s, v = u[i], s[i], v[i]
                assert np.all(np.diff(s) >= 0)
                scale = np.abs(b).max()
                assert np.abs((u * s) @ v.conj().T - b).max() <= 1e-13 * n * scale
                assert np.abs(u.conj().T @ u - eye).max() <= 1e-13 * n
                assert np.abs(v.conj().T @ v - eye).max() <= 1e-13 * n

    def test_uncoupled_channels_are_exactly_diagonal(self):
        # J = 0: each channel is diagonal, and its values are the moduli
        omegas = np.array([-1.5, 0.0, 0.7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            channels = greensvd._channel_svd(omegas, 0.0, 0.5, 2.0, 4)
        for (u, s, v), kappa in zip(channels, (0.5, 1.5)):
            np.testing.assert_array_equal(s, np.repeat(np.hypot(omegas, kappa)[:, None], 4, 1))
            for i, w in enumerate(omegas):
                np.testing.assert_allclose((u[i] * s[i]) @ v[i].conj().T,
                                           (w + 1j * kappa) * np.eye(4), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("j", [1.0, 0.0], ids=["coupled", "uncoupled"])
    def test_zero_diagonal_is_a_resonance(self, j):
        # gamma/2 = g_s: the plus channel's diagonal vanishes at w = 0
        h = tc.dynamical_matrix(tc.build_model_i(tc.ModelIParams(
            n_sites=6, j=j, g_s=1.0, g_c=j, gamma=2.0)))
        assert h.source.channels is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tc.ResonanceError, match="zero diagonal"):
                tc.svd_at(h, 0.0)
            with pytest.raises(tc.ResonanceError, match="zero diagonal"):
                tc.resolvent(h, np.array([1.0, 0.0]))
            assert tc.svd_at(h, 1e-3).s[0] > 0


class TestInverseRefinement:
    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
    def test_inverse_is_scipy_toeplitz_bit_for_bit(self, monkeypatch, lower):
        # model_i n=100, gamma=4, w=0.5 is refined through the inverse
        calls = count_refinements(monkeypatch)
        tc.svd_at(tc.dynamical_matrix(tc.build_model_i(tc.ModelIParams(n_sites=100, gamma=4.0))),
                  0.5)
        assert len(calls) == 1
        n, diag, offdiag, _ = calls[0]
        monkeypatch.undo()
        built = []
        svd = np.linalg.svd

        def recorded(a):
            built.append(a)
            return svd(a)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        triple = greensvd._smallest_triple_via_inverse(n, diag, offdiag, lower)
        monkeypatch.undo()
        col = (-offdiag / diag) ** np.arange(n) / diag
        first = np.zeros(n, dtype=complex)
        first[0] = col[0]
        want = scipy.linalg.toeplitz(col, first) if lower else scipy.linalg.toeplitz(first, col)
        (inv,) = built
        assert inv.dtype == want.dtype
        np.testing.assert_array_equal(inv, want)
        u, s, vh = svd(want)
        for got, expected in zip(triple, (1.0 / s[0], vh[0].conj(), u[:, 0])):
            np.testing.assert_array_equal(got, expected)


class TestSvdAt:
    def test_pure_loss_isotropic(self):
        t = tc.svd_at(tc.dynamical_matrix(pure_loss_chain()), 0.0)
        np.testing.assert_allclose(t.s, 1.0, atol=1e-14)

    def test_reconstruction_and_unitarity(self, model_i_topo_50):
        h = tc.dynamical_matrix(model_i_topo_50)
        t = tc.svd_at(h, 0.7)
        a = 0.7 * np.eye(100) - h.h
        assert np.linalg.norm(t.u @ np.diag(t.s) @ t.v.conj().T - a, "fro") \
            < 1e-10 * np.linalg.norm(a, "fro")
        assert np.linalg.norm(t.u.conj().T @ t.u - np.eye(100)) < 1e-10
        assert np.linalg.norm(t.v.conj().T @ t.v - np.eye(100)) < 1e-10
        assert np.all(np.diff(t.s) >= 0)

    def test_channel_and_dense_paths_agree(self, model_i_topo_50):
        h = tc.dynamical_matrix(model_i_topo_50)
        assert symmetric_channels(model_i_topo_50) is not None
        t_fast = tc.svd_at(h, 0.9)
        s_dense = np.sort(np.linalg.svd(0.9 * np.eye(100) - h.h, compute_uv=False))
        np.testing.assert_allclose(t_fast.s, s_dense, atol=1e-11)

    def test_small_s0_at_symmetric_point(self):
        c = tc.build_model_i(tc.ModelIParams(n_sites=20, gamma=5.0))
        t = tc.svd_at(tc.dynamical_matrix(c), 0.0)
        assert t.s[0] == pytest.approx(2.775e-3, rel=1e-2)

    def test_channel_value_below_the_refinement_raises(self):
        # the exact s0 is 2.02e-289, beyond what the channel refinement can
        # represent; gesvd alone would report its noise floor
        c = tc.build_model_i(tc.ModelIParams(n_sites=320, gamma=2.5))
        with pytest.raises(tc.ResonanceError, match="numerically resonant"):
            tc.svd_at(tc.dynamical_matrix(c), 0.0)

    def test_phase_gauge_deterministic(self, model_i_topo_50):
        h = tc.dynamical_matrix(model_i_topo_50)
        t1 = tc.svd_at(h, 0.4)
        t2 = tc.svd_at(h, 0.4)
        np.testing.assert_array_equal(t1.v, t2.v)
        # anchoring component real positive
        mags = np.abs(t1.v)
        anchors = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
        vals = t1.v[anchors, np.arange(100)]
        assert np.all(vals.real > 0)
        assert np.max(np.abs(vals.imag)) < 1e-12

    def test_even_in_frequency(self, model_i_topo_50):
        h = tc.dynamical_matrix(model_i_topo_50)
        for w in (0.3, 1.7):
            np.testing.assert_allclose(
                tc.svd_at(h, w).s, tc.svd_at(h, -w).s, atol=1e-10
            )


@given(
    omega=st.floats(-3, 3, allow_nan=False),
    gamma=st.floats(0.0, 8.0, allow_nan=False),
    g_c=st.floats(-1.5, 1.5, allow_nan=False),
    n=st.integers(2, 8),
)
@settings(max_examples=20, deadline=None)
@example(omega=0.0, gamma=2.0, g_c=1.0, n=2)
def test_svd_invariants_generic(omega, gamma, g_c, n):
    c = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma, g_c=g_c))
    h = tc.dynamical_matrix(c)
    if c.channels is not None and omega == 0 and gamma / 2 == c.channels[1]:
        # the plus channel's diagonal w + i(gamma/2 - g_s) is exactly zero
        with pytest.raises(tc.ResonanceError):
            tc.svd_at(h, omega)
        return
    t = tc.svd_at(h, omega)
    a = omega * np.eye(2 * n) - h.h
    scale = max(np.linalg.norm(a, "fro"), 1.0)
    assert np.linalg.norm(t.u @ np.diag(t.s) @ t.v.conj().T - a, "fro") < 1e-10 * scale
    assert np.linalg.norm(t.v.conj().T @ t.v - np.eye(2 * n)) < 1e-10
    assert np.all(np.diff(t.s) >= 0)
    np.testing.assert_allclose(tc.svd_at(h, -omega).s, t.s, atol=1e-10)


def test_hole_blocks_proportional_at_symmetric_point():
    # any pairing/hopping ratio keeps the symmetry as long as delta=0, phi=pi/2
    c = tc.build_model_i(tc.ModelIParams(n_sites=10, j=1.0, g_s=0.5, g_c=0.8, gamma=5.0))
    t = tc.svd_at(tc.dynamical_matrix(c), 0.3)
    gaps = np.diff(t.s)
    for col in range(20):
        isolated = (col == 0 or gaps[col - 1] > 1e-6) and (col == 19 or gaps[col] > 1e-6)
        if not isolated:
            continue
        vp, vh = t.v[:10, col], t.v[10:, col]
        res = min(np.linalg.norm(vh - 1j * vp), np.linalg.norm(vh + 1j * vp))
        assert res < 1e-8


class TestGreenFunction:
    def test_pure_loss_inverse(self):
        g = tc.resolvent(tc.dynamical_matrix(pure_loss_chain()), [0.0])[0]
        np.testing.assert_allclose(g, -1j * np.eye(8), atol=1e-14)

    def test_residual(self):
        c = tc.build_model_i(tc.ModelIParams(n_sites=60, gamma=5.0))
        h = tc.dynamical_matrix(c)
        g = tc.resolvent(h, [0.7])[0]
        a = 0.7 * np.eye(120) - h.h
        assert np.linalg.norm(a @ g - np.eye(120), "fro") < 1e-8

    def test_phs_block_relations(self):
        c = tc.build_model_i(tc.ModelIParams(n_sites=30, gamma=5.0))
        gp, gm = tc.resolvent(tc.dynamical_matrix(c), [0.3, -0.3])
        n = 30
        # G'(w) = -G(-w)* and Gbar'(w) = -Gbar(-w)*
        assert np.linalg.norm(gp[n:, n:] + gm[:n, :n].conj()) < 1e-8
        assert np.linalg.norm(gp[n:, :n] + gm[:n, n:].conj()) < 1e-8

    def test_collective_mode_identity(self):
        c = tc.build_model_i(tc.ModelIParams(n_sites=30, gamma=5.0))
        h = tc.dynamical_matrix(c)
        t = tc.svd_at(h, 0.5)
        g = tc.resolvent(h, [0.5])[0]
        target = np.diag(1.0 / t.s)
        res = np.linalg.norm(t.v.conj().T @ g @ t.u - target, "fro")
        assert res < 1e-9 * np.linalg.norm(target, "fro")


class TestResolvent:
    OMEGAS = np.array([-2.0, -0.3, 0.0, 0.21, 1.5])

    @pytest.mark.parametrize("chain", [
        tc.build_model_ii_full(tc.ModelIIParams(n_cells=5, gamma=3.0)),
        tc.build_model_i(tc.ModelIParams(n_sites=12, gamma=5.0)),
    ], ids=["dense", "channels"])
    def test_residual(self, chain):
        h = tc.dynamical_matrix(chain)
        g = tc.resolvent(h, self.OMEGAS)
        assert g.shape == (self.OMEGAS.size, 2 * h.n, 2 * h.n)
        eye = np.eye(2 * h.n)
        for w, gw in zip(self.OMEGAS, g):
            assert np.linalg.norm((w * eye - h.h) @ gw - eye) < 1e-12

    def test_matches_the_svd_identity(self):
        h = tc.dynamical_matrix(tc.build_model_i(tc.ModelIParams(n_sites=12, gamma=5.0)))
        for w, gw in zip(self.OMEGAS, tc.resolvent(h, self.OMEGAS)):
            t = tc.svd_at(h, w)
            ref = (t.v / t.s) @ t.u.conj().T
            assert np.linalg.norm(gw - ref) < 1e-10 * np.linalg.norm(ref)

    def test_channel_route_matches_the_closed_form_inverse(self, monkeypatch):
        # w*I - H = T diag(B+, B-) T^dagger, where B+ is lower and B- upper
        # bidiagonal Toeplitz with diagonal a = w + i kappa and off-diagonal
        # b; the inverse of each is triangular Toeplitz, (-b)^m / a^(m+1)
        n, gamma, w = 100, 4.0, 0.5
        c = tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=gamma))
        j, g_s, _ = c.channels
        m = np.subtract.outer(np.arange(n), np.arange(n))

        def lower_inverse(a, b):
            return np.where(m >= 0, (-b) ** np.abs(m) / a ** (np.abs(m) + 1), 0)

        g_plus = lower_inverse(w + 1j * (gamma / 2 - g_s), -2j * j)
        g_minus = lower_inverse(w + 1j * (gamma / 2 + g_s), 2j * j).T
        eye = np.eye(n)
        t = np.block([[eye, eye], [1j * eye, -1j * eye]]) / np.sqrt(2)
        zero = np.zeros((n, n))
        exact = t @ np.block([[g_plus, zero], [zero, g_minus]]) @ t.conj().T
        assert np.max(np.abs(exact)) > 1e20

        calls = count_refinements(monkeypatch)
        g = tc.resolvent(tc.dynamical_matrix(c), np.array([w]))[0]
        assert len(calls) == 1  # the plus channel's smallest value is refined
        assert np.linalg.norm(g - exact) < 1e-12 * np.linalg.norm(exact)

    def test_singular_shift_is_a_resonance(self):
        # no hopping, pumping or loss: H = 0, so w = 0 is exactly singular
        h = tc.dynamical_matrix(pure_loss_chain(n=3, gamma=0.0))
        with pytest.raises(tc.ResonanceError):
            tc.resolvent(h, np.array([1.0, 0.0]))


class TestSingularValues:
    # the channel chain and frequencies of TestChannelSvd: 5 of the 10 nodes
    # are refined through the inverse in svd_at
    CHANNEL = TestChannelSvd.CHAIN
    OMEGAS = TestChannelSvd.OMEGAS
    # no channels; at 3 of these 11 frequencies one value lies below
    # 1e-10 s_max and is refined from the determinant
    DENSE = tc.build_model_i(tc.ModelIParams(n_sites=50, delta=0.05, gamma=4.5))

    def test_channel_values_are_the_closed_form(self, monkeypatch):
        h = tc.dynamical_matrix(self.CHANNEL)
        calls = count_refinements(monkeypatch)
        got = tc.singular_values(h, self.OMEGAS)
        assert calls == []
        assert got.shape == (self.OMEGAS.size, 80)
        refined = 0
        for w, s in zip(self.OMEGAS, got):
            want = tc.svd_at(h, w).s
            if len(calls) > refined:
                refined = len(calls)
                np.testing.assert_allclose(s, want, rtol=1e-13, atol=0)
            else:
                np.testing.assert_array_equal(s, want)
        assert refined == 5

    def test_refined_node_is_closer_to_mpmath(self):
        # the 50-digit s0 of MPMATH_CHANNEL_VALUES at a node svd_at refines
        exact = MPMATH_CHANNEL_VALUES[100, 4.0, 0.5][0][0]
        h = tc.dynamical_matrix(tc.build_model_i(tc.ModelIParams(n_sites=100, gamma=4.0)))
        new = tc.singular_values(h, [0.5])[0, 0]
        old = tc.svd_at(h, 0.5).s[0]
        assert abs(new - exact) < abs(old - exact)
        assert abs(new - exact) < 1e-14 * exact

    def test_dense_values_match_svd_at(self, monkeypatch):
        h = tc.dynamical_matrix(self.DENSE)
        assert self.DENSE.channels is None
        calls = []
        original = greensvd._det_refined_smallest
        monkeypatch.setattr(greensvd, "_det_refined_smallest",
                            lambda *args: calls.append(args) or original(*args))
        omegas = np.linspace(-1.0, 1.0, 11)
        got = tc.singular_values(h, omegas)
        assert len(calls) == 3
        for w, s in zip(omegas, got):
            want = tc.svd_at(h, w).s
            assert np.all(np.diff(s) >= 0)
            assert np.abs(s - want).max() <= 1e-13 * want[-1]
            assert abs(s[0] - want[0]) <= 1e-12 * want[0]

    @pytest.mark.parametrize("values, refined", [
        ([1e-13, 1e-3, 1.0, 2.0], True),
        ([1e-13, 1e-12, 1.0, 2.0], False),
    ], ids=["lone", "pair"])
    def test_both_dense_routes_refine_only_a_lone_small_value(self, values, refined,
                                                              monkeypatch):
        rng = np.random.default_rng(7)
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        a = (q1 * values) @ q2
        calls = []
        original = greensvd._det_refined_smallest
        monkeypatch.setattr(greensvd, "_det_refined_smallest",
                            lambda *args: calls.append(args) or original(*args))
        s_full = greensvd._dense_svd_ascending(a)[1]
        s_values = greensvd._dense_values(a[None])[0]
        # one call per route where s0 is the lone value below 1e-10 s_max
        assert len(calls) == (2 if refined else 0)
        # the rounding of ``a`` itself moves s0 by about eps ||a||
        for s in (s_full, s_values):
            np.testing.assert_allclose(s, values, rtol=1e-2)

    @pytest.mark.parametrize("route", ["channel", "dense"])
    def test_chunk_size_does_not_change_the_bits(self, route, monkeypatch):
        h = tc.dynamical_matrix(self.CHANNEL if route == "channel" else self.DENSE)
        omegas = np.linspace(-2.0, 2.0, 37)
        whole = tc.singular_values(h, omegas)
        monkeypatch.setattr(greensvd, "_CHUNK", 5)
        np.testing.assert_array_equal(tc.singular_values(h, omegas), whole)

    def test_zero_channel_diagonal_is_a_resonance(self):
        h = tc.dynamical_matrix(tc.build_model_i(tc.ModelIParams(n_sites=6, gamma=2.0)))
        with pytest.raises(tc.ResonanceError, match="zero diagonal"):
            tc.singular_values(h, [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("route", ["channel", "dense"])
    def test_non_finite_frequency(self, route, bad):
        h = tc.dynamical_matrix(self.CHANNEL if route == "channel" else self.DENSE)
        with pytest.raises(ValueError, match="finite"):
            tc.singular_values(h, [0.0, bad])

    @pytest.mark.parametrize("n", [350, 400], ids=["subnormal", "zero"])
    def test_underflowing_value_is_a_resonance(self, n):
        # s0 is about 2 * 8^-n at gamma = 2.5, w = 0: 1.9e-298 at n = 330,
        # but below the normal doubles at n = 350 and zero at n = 400
        h = tc.dynamical_matrix(tc.build_model_i(tc.ModelIParams(n_sites=n, gamma=2.5)))
        with pytest.raises(tc.ResonanceError, match="below the normal doubles"):
            tc.singular_values(h, [1.0, 0.0])


class TestAmplificationMatrix:
    def test_hermitian_psd_no_gain(self, model_i_topo_50):
        t = tc.svd_at(tc.dynamical_matrix(model_i_topo_50), 0.3)
        sig = tc.amplification_matrix(t, model_i_topo_50)
        assert np.linalg.norm(sig - sig.conj().T) < 1e-10 * np.linalg.norm(sig)
        vals = np.linalg.eigvalsh(sig)
        assert vals[0] > -1e-8 * max(vals[-1], 1.0)

    def test_topological_dominance(self, model_i_g5_100):
        t = tc.svd_at(tc.dynamical_matrix(model_i_g5_100), 0.0)
        sig = tc.amplification_matrix(t, model_i_g5_100)
        assert sig[0, 0].real / sig[1, 1].real > 1e3

    def test_linearity_in_rates(self):
        c = tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=6, gamma=4.0))
        t = tc.svd_at(tc.dynamical_matrix(c), 0.2)
        doubled = tc.CouplingSet(
            j_mat=c.j_mat, k_mat=c.k_mat, gamma_mat=2 * c.gamma_mat,
            p_mat=2 * c.p_mat, unit_cell=c.unit_cell,
        )
        np.testing.assert_allclose(
            tc.amplification_matrix(t, doubled),
            2 * tc.amplification_matrix(t, c),
            rtol=1e-12,
        )


class TestHermitize:
    def test_eigen_svd_duality(self):
        c = tc.build_model_i(tc.ModelIParams(n_sites=20, gamma=4.0))
        h = tc.dynamical_matrix(c)
        t = tc.svd_at(h, 0.6)
        eig = np.sort(np.linalg.eigvalsh(tc.hermitize(h, 0.6)))
        np.testing.assert_allclose(eig, np.sort(np.concatenate([t.s, -t.s])), atol=1e-10)

    def test_pure_loss_spectrum(self):
        h = tc.dynamical_matrix(pure_loss_chain(n=3))
        eig = np.linalg.eigvalsh(tc.hermitize(h, 0.0))
        np.testing.assert_allclose(np.abs(eig), 1.0, atol=1e-14)
        assert eig.size == 12

    def test_chiral_symmetry_exact(self):
        h = tc.dynamical_matrix(tc.build_model_i(tc.ModelIParams(n_sites=5, gamma=3.0)))
        big = tc.hermitize(h, 0.4)
        sz = np.diag(np.concatenate([np.ones(10), -np.ones(10)]))
        assert np.linalg.norm(sz @ big @ sz + big) == 0.0


class TestSpectralScalars:
    def test_singular_gap_definition(self):
        t = tc.svd_at(tc.dynamical_matrix(pure_loss_chain()), 0.5)
        assert tc.singular_gap(t, 0) == pytest.approx(t.s[0])
        assert tc.singular_gap(t, 1) == pytest.approx(t.s[1] - t.s[0])
        with pytest.raises(ValueError):
            tc.singular_gap(t, 99)

    def test_gap_visibly_open_in_topological_phase(self, model_i_topo_50):
        t = tc.svd_at(tc.dynamical_matrix(model_i_topo_50), 0.0)
        assert tc.singular_gap(t, 1) > 0.5

    def test_two_near_zero_values_with_collective_gain(self, effective_ii_g3):
        t = tc.svd_at(tc.dynamical_matrix(effective_ii_g3), 0.0)
        gap = tc.singular_gap(t, 2)
        assert gap > 0.05
        assert t.s[1] < gap / 10

    def test_r_parameter(self, model_i_g5_100, model_i_trivial_100):
        t = tc.svd_at(tc.dynamical_matrix(model_i_g5_100), 0.0)
        assert tc.r_parameter(t) > 0.99
        t8 = tc.svd_at(tc.dynamical_matrix(model_i_trivial_100), 0.0)
        assert tc.r_parameter(t8) < 0.2

    def test_r_parameter_degenerate(self):
        t = tc.svd_at(tc.dynamical_matrix(pure_loss_chain()), 0.0)
        assert tc.r_parameter(t) == pytest.approx(0.0, abs=1e-12)
