"""SVD of the shifted dynamical matrix, Green's functions, and spectral scalars.

All frequency-domain quantities descend from the factorization
``w*I - H = U S V^dagger`` with singular values stored ascending, so
``s[0]`` is always the candidate topological zero.  The Green's function is
``V diag(1/s) U^dagger`` and the amplification matrix contracts the bath
moments with the left singular vectors.  Paths that need ``G`` alone can
take :func:`resolvent`, which returns it for many frequencies at once.

For the symmetric chain (pure imaginary uniform hopping matching the
off-diagonal pairing, zero detuning, uniform loss, no gain) the shifted
matrix splits into two bidiagonal channels,
``w*I - H = T diag(B+, B-) T^dagger`` with
``T = [[I, I], [iI, -iI]]/sqrt(2)``.  The chain records this once
(``CouplingSet.channels``), and both ``factorize`` and ``resolvent`` then
route through phase-rescaled real bidiagonal SVDs of the channels, batched
over frequencies, which resolve the exponentially small topological
singular value to full relative accuracy; the generic dense SVD only bounds
its error in units of ``eps * s_max``.  A channel value too small for that
refinement to represent raises :class:`ResonanceError`.  Other chains take
the refined dense SVD in ``factorize`` and a batched LU solve in
``resolvent``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .models import CouplingSet, DynamicalMatrix

RESONANCE_TOL = 1e-14
_GAUGE_ANCHOR_REL = 1e-8
_INVERSE_REFINE_REL = 1e-12


class ResonanceError(RuntimeError):
    """The frequency sits on a resonance: a singular value is numerically zero."""


@dataclass(frozen=True)
class SvdTriple:
    """Full SVD of ``w*I - H`` at one frequency, singular values ascending."""

    omega: float
    u: NDArray[np.complex128]
    s: NDArray[np.float64]
    v: NDArray[np.complex128]

    @property
    def n(self) -> int:
        return self.s.size // 2

    @property
    def u_particle(self):
        return self.u[: self.n]

    @property
    def u_hole(self):
        return self.u[self.n:]

    @property
    def v_particle(self):
        return self.v[: self.n]

    @property
    def v_hole(self):
        return self.v[self.n:]


@dataclass(frozen=True)
class GreenFunction:
    """Resolvent ``(w*I - H)^{-1}`` with its four site-space blocks."""

    omega: float
    g_full: NDArray[np.complex128]

    @property
    def n(self) -> int:
        return self.g_full.shape[0] // 2

    @property
    def g(self):
        return self.g_full[: self.n, : self.n]

    @property
    def g_bar(self):
        return self.g_full[: self.n, self.n:]

    @property
    def g_bar_prime(self):
        return self.g_full[self.n:, : self.n]

    @property
    def g_prime(self):
        return self.g_full[self.n:, self.n:]


@functools.cache
def _gesvd_lwork(n):
    """Optimal ``dgesvd`` workspace for an ``n x n`` matrix, queried once per n."""
    work, _ = scipy.linalg.lapack.dgesvd_lwork(n, n)
    return int(work)


def _bidiagonal_svd(n, diags, offdiag, lower):
    """SVDs of bidiagonal Toeplitz matrices, one per entry of ``diags``, via
    their real phase-equivalent forms.

    Factoring out site-dependent phases leaves a nonnegative real bidiagonal
    matrix.  The QR-iteration driver (gesvd) computes bidiagonal singular
    values to high relative accuracy, which the divide-and-conquer default
    does not; the exponentially small topological value needs the former.
    A smallest value below the reach of :func:`_smallest_triple_via_inverse`
    is numerically zero and raises :class:`ResonanceError`.  Returns the
    stacked ``(u, s, v)``, values ascending along the last axis of ``s``.
    """
    diag_arr = np.asarray(diags, dtype=complex)
    # np.hypot is the modulus Python's abs(complex) computes, bit for bit
    mods = np.hypot(diag_arr.real, diag_arr.imag)
    if not np.all(np.isfinite(mods)):
        raise ValueError("frequencies must be finite")
    k = mods.size
    diag_idx = np.arange(n)
    br = np.zeros((k, n, n))
    br[:, diag_idx, diag_idx] = mods[:, None]
    if lower:
        br[:, diag_idx[1:], diag_idx[:-1]] = abs(offdiag)
    else:
        br[:, diag_idx[:-1], diag_idx[1:]] = abs(offdiag)
    lwork = _gesvd_lwork(n)
    ur = np.empty((k, n, n))
    s = np.empty((k, n))
    vtr = np.empty((k, n, n))
    for i in range(k):
        ur[i], s[i], vtr[i], info = scipy.linalg.lapack.dgesvd(br[i], lwork=lwork)
        if info > 0:
            raise np.linalg.LinAlgError("SVD did not converge")
    s = s[:, ::-1].copy()
    ur = ur[:, :, ::-1]
    vtr = vtr[:, ::-1]
    refined = []
    for i in np.nonzero(s[:, 0] < _INVERSE_REFINE_REL * s[:, -1])[0]:
        # one scalar type whatever the caller passed: Python and NumPy complex
        # division round differently, and the inverse raises the ratio to the
        # n-th power
        diag = complex(diags[i])
        s0, u0, v0 = _smallest_triple_via_inverse(n, diag, offdiag, lower)
        if s0 is None:
            raise ResonanceError(
                f"omega={diag.real} is numerically resonant: the smallest singular "
                f"value of a {n}-site channel is below what its refinement resolves"
            )
        s[i, 0] = s0
        refined.append((i, u0, v0))
    angles = np.angle(diag_arr)[:, None]
    step = np.angle(offdiag) - angles
    theta = (diag_idx * step) if lower else (-diag_idx * step)
    phi = angles - theta
    u = np.exp(1j * theta)[:, :, None] * ur
    v = vtr.swapaxes(-1, -2) * np.exp(-1j * phi)[:, :, None]
    # the refined vectors come from the complex inverse, phases included
    for i, u0, v0 in refined:
        u[i, :, 0] = u0
        v[i, :, 0] = v0
    return u, s, v


def _smallest_triple_via_inverse(n, diag, offdiag, lower):
    """Smallest singular triple of a bidiagonal Toeplitz matrix, via its
    explicit triangular Toeplitz inverse.

    Deflation thresholds floor QR-iteration singular values near
    ``eps * s_max``; the largest singular value of the inverse carries full
    relative accuracy instead.  Returns ``None`` when the inverse would
    overflow.
    """
    ratio = -offdiag / diag
    log_biggest = n * np.log(max(abs(ratio), 1.0)) - np.log(abs(diag))
    if log_biggest > 650.0:
        return None, None, None
    col = ratio ** np.arange(n) / diag
    first = np.zeros(n, dtype=complex)
    first[0] = col[0]
    inv = scipy.linalg.toeplitz(col, first) if lower else scipy.linalg.toeplitz(first, col)
    u_inv, s_inv, vh_inv = np.linalg.svd(inv)
    # B = V Sigma^{-1} U+ when B^{-1} = U Sigma V+, so the smallest triple of
    # B is (1/sigma_max, V[:, 0], U[:, 0]).
    return 1.0 / s_inv[0], vh_inv[0].conj(), u_inv[:, 0]


def _channel_svd(omegas, j, g_s, gamma, n):
    """Phase-restored SVDs of the two bidiagonal symmetry channels, stacked
    over a 1-D array of frequencies: ``((u+, s+, v+), (u-, s-, v-))``."""
    # eta = +1 sector (hole block = +i particle block): lower bidiagonal
    plus = _bidiagonal_svd(n, [w + 1j * (gamma / 2 - g_s) for w in omegas], -2j * j,
                           lower=True)
    # eta = -1 sector: upper bidiagonal
    minus = _bidiagonal_svd(n, [w + 1j * (gamma / 2 + g_s) for w in omegas], 2j * j,
                            lower=False)
    return plus, minus


def _channel_triple(plus, minus):
    """The full 2n SVD, values ascending, from one frequency's channel SVDs:
    ``w*I - H = T diag(B+, B-) T^dagger`` with ``T = [[I, I], [iI, -iI]]/sqrt(2)``."""
    up, sp, vp = plus
    um, sm, vm = minus
    n = sp.size
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


_DENSE_FLOOR_REL = 1e-10


def _det_refined_smallest(a, s):
    """Recover the smallest singular value of ``a`` from its determinant.

    Dense SVD floors tiny singular values at ``~eps * s_max``; the product
    of ALL singular values equals ``|det a|``, and both the LU
    log-determinant and every bulk singular value carry full relative
    accuracy, so dividing them out reconstructs the lone tiny value.  Only
    valid when exactly one singular value sits below the noise floor.
    """
    _, logdet = np.linalg.slogdet(a)
    if not np.isfinite(logdet):
        return None
    log_s0 = logdet - float(np.sum(np.log(s[1:])))
    if log_s0 > 700.0:
        return None
    return float(np.exp(log_s0))


def _dense_svd_ascending(a):
    """Dense SVD sorted ascending, with the single-tiny-value refinement."""
    u, s, vh = np.linalg.svd(a)
    order = np.argsort(s, kind="stable")
    u, s, v = u[:, order], s[order], vh.conj().T[:, order]
    if s[0] < _DENSE_FLOOR_REL * s[-1] and s[1] > _DENSE_FLOOR_REL * s[-1]:
        refined = _det_refined_smallest(a, s)
        if refined is not None and refined < s[1]:
            s = s.copy()
            s[0] = refined
    return u, s, v


def _fix_gauge(u, v):
    """Rotate each singular-vector pair so the anchoring component of the
    right vector (first component above 1e-8 of the column max) is real
    positive."""
    mags = np.abs(v)
    anchors = np.argmax(mags > _GAUGE_ANCHOR_REL * mags.max(axis=0), axis=0)
    phases = np.exp(-1j * np.angle(v[anchors, np.arange(v.shape[1])]))
    return u * phases, v * phases


def factorize(h: DynamicalMatrix, omega: float):
    """``(u, s, v)`` with ``omega*I - H = u diag(s) v^dagger``, ``s`` ascending.

    Takes the two-channel route when the chain has symmetric channels
    (``CouplingSet.channels``) and the refined dense SVD otherwise.  The
    phase gauge is left as the factorization returns it.
    """
    channels = h.source.channels
    if channels is not None:
        (up, sp, vp), (um, sm, vm) = _channel_svd([omega], *channels, h.n)
        return _channel_triple((up[0], sp[0], vp[0]), (um[0], sm[0], vm[0]))
    try:
        return _dense_svd_ascending(omega * np.eye(2 * h.n) - h.h)
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(f"SVD failed to converge at omega={omega}") from exc


def resolvent(h: DynamicalMatrix, omegas) -> NDArray[np.complex128]:
    """Stacked resolvents ``(w*I - H)^{-1}`` for a 1-D array of frequencies.

    For paths that need only ``G`` and not the full singular basis.  The
    route follows the chain, as in :func:`factorize`.  On symmetric chains
    ``G = T diag(G+, G-) T^dagger`` with ``G+- = V+- S+-^{-1} U+-^dagger``
    from the channel SVDs, which carry the exponentially small topological
    value to full relative accuracy.  Elsewhere one batched LU solve against
    the identity, which where ``w*I - H`` is ill-conditioned stays closer to
    the exact inverse than ``V diag(1/s) U^dagger`` assembled from a dense
    SVD (checked against 40-digit values in the tests).  An exactly singular
    shifted matrix raises :class:`ResonanceError`.
    """
    omegas = np.asarray(omegas, dtype=float)
    channels = h.source.channels
    if channels is not None:
        return _channel_resolvent(omegas, channels, h.n)
    shifted = omegas[:, None, None] * np.eye(2 * h.n) - h.h
    try:
        return np.linalg.inv(shifted)
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(
            f"omega in [{omegas.min()}, {omegas.max()}] is resonant: "
            f"w*I - H is singular"
        ) from exc


def _channel_resolvent(omegas, channels, n):
    """``T diag(G+, G-) T^dagger`` for every frequency, from one batched
    channel SVD."""
    halves = []
    for u, s, v in _channel_svd(omegas, *channels, n):
        # an all-zero channel passes the refinement test, so check every node
        if not np.all(s[:, 0] > 0):
            raise ResonanceError(
                f"omega in [{omegas.min()}, {omegas.max()}] is resonant: "
                f"a symmetry channel of w*I - H is singular"
            )
        halves.append((v / s[:, None, :]) @ u.conj().swapaxes(-1, -2))
    g_plus, g_minus = halves
    # with T = [[I, I], [iI, -iI]]/sqrt(2), G = [[E, -O], [O, E]] for
    # E = (G+ + G-)/2 and O = i(G+ - G-)/2
    g = np.empty((omegas.size, 2 * n, 2 * n), dtype=complex)
    g[:, :n, :n] = g[:, n:, n:] = 0.5 * (g_plus + g_minus)
    g[:, n:, :n] = odd = 0.5j * (g_plus - g_minus)
    g[:, :n, n:] = -odd
    return g


def svd_at(h: DynamicalMatrix, omega: float) -> SvdTriple:
    """Full SVD of ``omega*I - H`` with ascending singular values.

    The phase gauge of each singular-vector pair is fixed deterministically
    (see :func:`_fix_gauge`); comparisons against analytic vectors should
    still use overlap magnitudes since degenerate subspaces remain free.
    """
    u, s, v = factorize(h, omega)
    u, v = _fix_gauge(u, v)
    return SvdTriple(omega=float(omega), u=u, s=s, v=v)


def green_function(t: SvdTriple) -> GreenFunction:
    """Resolvent from the SVD: ``V diag(1/s) U^dagger``.

    Raises :class:`ResonanceError` if any singular value sits below the
    resonance threshold; exponentially small topological values above it
    are legitimate and simply produce large amplification.
    """
    if t.s[0] < RESONANCE_TOL:
        raise ResonanceError(
            f"omega={t.omega} is numerically resonant (s0={t.s[0]:.3e})"
        )
    g_full = (t.v / t.s) @ t.u.conj().T
    return GreenFunction(omega=t.omega, g_full=g_full)


def amplification_matrix(t: SvdTriple, c: CouplingSet) -> NDArray[np.complex128]:
    """Noise-channel weight matrix in the singular basis.

    ``Sigma = S^{-1} (U_p^T P U_p^* + U_h^T Gamma U_h^*) S^{-1}``; Hermitian
    positive semidefinite whenever the bath matrices are.
    """
    if t.s[0] <= 0:
        raise ResonanceError("amplification matrix undefined at a resonance")
    core = (
        t.u_particle.T @ c.p_mat @ t.u_particle.conj()
        + t.u_hole.T @ c.gamma_mat @ t.u_hole.conj()
    )
    return core / np.outer(t.s, t.s)


def hermitize(h: DynamicalMatrix, omega: float) -> NDArray[np.complex128]:
    """Chirally symmetric doubling whose eigensystem is the SVD of w*I - H."""
    n2 = h.h.shape[0]
    a = omega * np.eye(n2) - h.h
    out = np.zeros((2 * n2, 2 * n2), dtype=complex)
    out[:n2, n2:] = a
    out[n2:, :n2] = a.conj().T
    return out


def singular_gap(t: SvdTriple, n_edge: int) -> float:
    """Gap separating the ``n_edge`` near-zero values from the bulk.

    For ``n_edge = 0`` (no edge modes expected) the smallest singular value
    itself is returned as the bulk floor.
    """
    if not 0 <= n_edge < t.s.size:
        raise ValueError(f"n_edge={n_edge} out of range for {t.s.size} values")
    if n_edge == 0:
        return float(t.s[0])
    return float(t.s[n_edge] - t.s[n_edge - 1])


def r_parameter(t: SvdTriple) -> float:
    """Spacing ratio (s1 - s0)/(s1 + s0) of the two smallest singular values."""
    s0, s1 = t.s[0], t.s[1]
    if s0 + s1 <= 0:
        raise ValueError("degenerate all-zero singular spectrum")
    return float((s1 - s0) / (s1 + s0))
