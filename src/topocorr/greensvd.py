"""SVD of the shifted dynamical matrix, its resolvent, and spectral scalars.

Each frequency-domain quantity has one entry point.  :func:`svd_at` returns
the triple of ``w*I - H = U S V^dagger``, singular values stored ascending
so ``s[0]`` is always the candidate topological zero, and the
amplification matrix contracts the bath moments with its left singular
vectors.  :func:`resolvent` returns ``G = (w*I - H)^{-1}`` for many
frequencies at once, and :func:`singular_values` returns the values alone
(the OBC spectrum), batched the same way and with no vectors.  The identity
``G = V diag(1/s) U^dagger`` is not a second route to ``G``: ``validate``
checks it, the resolvent against the triple.

For the symmetric chain (pure imaginary uniform hopping matching the
off-diagonal pairing, zero detuning, uniform loss, no gain) the shifted
matrix splits into two bidiagonal channels,
``w*I - H = T diag(B+, B-) T^dagger`` with
``T = [[I, I], [iI, -iI]]/sqrt(2)``.  The chain records this once
(``CouplingSet.channels``), and both ``svd_at`` and ``resolvent`` then
route through phase-rescaled real bidiagonal Toeplitz SVDs of the channels.
Those have a closed form, the roots of one secular equation (Yueh, Appl.
Math. E-Notes 5, 66 (2005)), solved for every mode of every frequency of a
batch at once; it resolves the exponentially small topological singular
value to full relative accuracy, where the generic dense SVD only bounds
its error in units of ``eps * s_max``.  In ``svd_at`` and ``resolvent``
values below ``1e-12 s_max`` still take their triple from the explicit
inverse, and one too small for that refinement to represent raises
:class:`ResonanceError`; ``singular_values`` keeps the closed-form values
and raises only for one below the normal doubles.  Other chains take the
refined dense SVD in ``svd_at`` and a batched values-only SVD in
``singular_values``.  Their ``resolvent`` is a banded LU solve: in
site-major order, ``(p_0, h_0, p_1, h_1, ...)``, the generator of a chain
coupling sites out to distance ``R`` has bandwidth ``2R + 1``
(``CouplingSet.bands``), so a frequency costs ``O(n^2 R)`` instead of the
``O(n^3)`` of a dense inverse, and several frequencies share one LAPACK
call without changing a bit of any result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .analytics import edge_exponent, secular_angles
from .models import CouplingSet, DynamicalMatrix

_GAUGE_ANCHOR_REL = 1e-8
_INVERSE_REFINE_REL = 1e-12
# frequencies per batch of singular_values, as correlations.PANEL_NODES
_CHUNK = 32
# rows of the stacked band matrix that one zgbsv call factors: enough that
# a chain of a few sites takes a whole 32-node panel in one call
_BAND_ROWS = 256


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


def _toeplitz_values(a, b, n):
    """Closed-form singular values of real lower bidiagonal Toeplitz matrices
    with diagonals ``a > 0`` (a 1-D array) and off-diagonal ``b >= eps * a``.

    With ``ratio = a/b``, mode ``j`` has the angle ``theta_j`` of
    :func:`~topocorr.analytics.secular_angles` and the value ``sigma_j^2 =
    (a - b)^2 + 4ab sin^2(theta_j/2)``.  Below the band (``ratio <
    n/(n+1)``) mode 1 takes ``theta = i mu`` with ``mu`` from
    :func:`~topocorr.analytics.edge_exponent` and the value ``b sinh(mu) /
    sinh((n+1) mu)``.  The entries of a bidiagonal matrix determine its
    singular values to high relative accuracy (Demmel & Kahan, SIAM J. Sci.
    Stat. Comput. 11, 873 (1990)), and these formulas keep it: the
    exponentially small value underflows only where it is below the doubles.
    Returns ``(s, theta, edge, mu)``: the values ascending, stacked over
    ``a``, the angles, and the rows whose mode 1 lies below the band with
    their exponents (a column).
    """
    ratio = a / b
    theta = secular_angles(ratio[:, None], np.arange(1, n + 1), n)
    half = np.sin(0.5 * theta)
    s = np.sqrt((a - b)[:, None] ** 2 + (4.0 * b) * a[:, None] * half * half)
    edge = np.flatnonzero(ratio < n / (n + 1))
    mu = edge_exponent(-np.log(np.maximum(ratio[edge], np.finfo(float).tiny)), n)
    # a root rounded onto the meeting point keeps the limit above
    edge, mu = edge[mu > 0], mu[mu > 0, None]
    s[edge, 0] = (b * np.exp(-n * mu) * np.expm1(-2 * mu) / np.expm1(-2 * (n + 1) * mu))[:, 0]
    return s, theta, edge, mu


def _toeplitz_svd(a, b, n):
    """Closed-form SVDs of the matrices of :func:`_toeplitz_values`.

    For sites ``k = 1..n``, mode ``j`` has the vectors ``v_k ~ (-1)^k
    sin(k theta_j)`` and ``u_k ~ (-1)^(k+j-1) sin((n+1-k) theta_j)``: ``u``
    is ``v`` reversed, up to a sign, never the cancelling ``B v / sigma``.
    Below the band mode 1's vector is the ``sinh`` form, taken in log space.
    Returns ``(u, s, v)`` stacked over ``a``, values ascending, vectors in
    the columns.
    """
    s, theta, edge, mu = _toeplitz_values(a, b, n)
    sites = np.arange(1, n + 1)
    signs = np.where(sites % 2 == 0, 1.0, -1.0)
    # rows are modes here, so each norm sums one contiguous row
    v = signs * np.sin(theta[:, :, None] * sites)
    # where the two branches meet, theta = 0 and sin(k theta)/theta -> k
    v[theta[:, 0] == 0, 0] = signs * sites
    # sinh(k mu) over exp(n mu)
    v[edge, 0] = signs * np.exp((sites - n) * mu) * -np.expm1(-2 * sites * mu)
    v /= np.sqrt(np.sum(v * v, axis=-1))[:, :, None]
    u = v[:, :, ::-1] * (signs * signs[-1])[:, None]
    return u.swapaxes(-1, -2), s, v.swapaxes(-1, -2)


def _coupled_channels(n, mods, b):
    """Which of the lower bidiagonal matrices with diagonals ``mods`` and
    off-diagonal ``b >= 0`` are coupled.

    An off-diagonal below the rounding of a diagonal leaves that matrix
    diagonal to working precision: its values are the diagonal and its SVD
    is the identity.  A zero diagonal is exactly singular and raises
    :class:`ResonanceError`.
    """
    if not np.all(np.isfinite(mods)):
        raise ValueError("frequencies must be finite")
    if not np.all(mods > 0):
        raise ResonanceError(
            f"a {n}-site symmetry channel has a zero diagonal: w*I - H is singular"
        )
    return b >= np.finfo(float).eps * mods


def _real_bidiagonal_values(n, mods, b):
    """Singular values of :func:`_real_bidiagonal_svd`'s matrices, without
    vectors."""
    coupled = _coupled_channels(n, mods, b)
    s = np.repeat(mods[:, None], n, axis=1)
    if coupled.any():
        s[coupled] = _toeplitz_values(mods[coupled], b, n)[0]
    return s


def _real_bidiagonal_svd(n, mods, b):
    """:func:`_toeplitz_svd` of the lower bidiagonal matrices with diagonals
    ``mods`` and off-diagonal ``b >= 0``, the uncoupled ones (see
    :func:`_coupled_channels`) with identity vectors."""
    coupled = _coupled_channels(n, mods, b)
    if coupled.all():
        return _toeplitz_svd(mods, b, n)
    ur = np.broadcast_to(np.eye(n), (mods.size, n, n)).copy()
    s = np.repeat(mods[:, None], n, axis=1)
    vr = ur.copy()
    if coupled.any():
        ur[coupled], s[coupled], vr[coupled] = _toeplitz_svd(mods[coupled], b, n)
    return ur, s, vr


def _bidiagonal_svd(n, diags, offdiag, lower, real):
    """SVDs of bidiagonal Toeplitz matrices, one per entry of ``diags``, from
    the SVDs ``real = (ur, s, vr)`` of their real lower bidiagonal forms
    (:func:`_real_bidiagonal_svd`).

    Factoring out site-dependent phases leaves a nonnegative real bidiagonal
    matrix; the upper bidiagonal form is the transpose of the lower one,
    with ``u`` and ``v`` swapped.  The smallest value is refined through the
    inverse where it falls below ``_INVERSE_REFINE_REL`` of the largest, and
    one below the reach of :func:`_smallest_triple_via_inverse` raises
    :class:`ResonanceError`.  Returns the stacked ``(u, s, v)``, values
    ascending along the last axis of ``s``.
    """
    ur, s, vr = real if lower else (real[2], real[1], real[0])
    s = s.copy()
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
    angles = np.angle(diags)[:, None]
    step = np.angle(offdiag) - angles
    sites = np.arange(n)
    theta = (sites * step) if lower else (-sites * step)
    phi = angles - theta
    u = np.exp(1j * theta)[:, :, None] * ur
    v = vr * np.exp(-1j * phi)[:, :, None]
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
    # entry (i, j) of the lower inverse is col[i - j]; the upper one is its transpose
    toeplitz = col[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
    inv = np.tril(toeplitz) if lower else np.triu(toeplitz)
    u_inv, s_inv, vh_inv = np.linalg.svd(inv)
    # B = V Sigma^{-1} U+ when B^{-1} = U Sigma V+, so the smallest triple of
    # B is (1/sigma_max, V[:, 0], U[:, 0]).
    return 1.0 / s_inv[0], vh_inv[0].conj(), u_inv[:, 0]


def _channel_diagonals(omegas, g_s, gamma):
    """Diagonals of both symmetry channels over a 1-D array of frequencies:
    the eta = +1 sector (hole block = +i particle block, lower bidiagonal),
    then the eta = -1 sector (upper bidiagonal)."""
    omegas = np.asarray(omegas, dtype=float)
    return np.concatenate([omegas + 1j * (gamma / 2 - g_s), omegas + 1j * (gamma / 2 + g_s)])


def _channel_svd(omegas, j, g_s, gamma, n):
    """Phase-restored SVDs of the two bidiagonal symmetry channels, stacked
    over a 1-D array of frequencies: ``((u+, s+, v+), (u-, s-, v-))``.

    Both channels share the off-diagonal modulus ``2|J|``, so one closed-form
    solve serves both.
    """
    k = len(omegas)
    diags = _channel_diagonals(omegas, g_s, gamma)
    # np.hypot is the modulus Python's abs(complex) computes, bit for bit
    ur, s, vr = _real_bidiagonal_svd(n, np.hypot(diags.real, diags.imag), abs(2j * j))
    plus = _bidiagonal_svd(n, diags[:k], -2j * j, True, (ur[:k], s[:k], vr[:k]))
    minus = _bidiagonal_svd(n, diags[k:], 2j * j, False, (ur[k:], s[k:], vr[k:]))
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


def _refine_lone_value(a, s):
    """Refine ``s[0]`` of ``a``'s ascending singular values ``s`` in place by
    :func:`_det_refined_smallest` where it is the lone value below
    ``_DENSE_FLOOR_REL`` of the largest; keep the result only below ``s[1]``."""
    floor = _DENSE_FLOOR_REL * s[-1]
    if s[0] < floor < s[1]:
        refined = _det_refined_smallest(a, s)
        if refined is not None and refined < s[1]:
            s[0] = refined


def _dense_svd_ascending(a):
    """Dense SVD sorted ascending, with the single-tiny-value refinement."""
    u, s, vh = np.linalg.svd(a)
    order = np.argsort(s, kind="stable")
    u, s, v = u[:, order], s[order], vh.conj().T[:, order]
    _refine_lone_value(a, s)
    return u, s, v


def _fix_gauge(u, v):
    """Rotate each singular-vector pair so the anchoring component of the
    right vector (first component above 1e-8 of the column max) is real
    positive."""
    mags = np.abs(v)
    anchors = np.argmax(mags > _GAUGE_ANCHOR_REL * mags.max(axis=0), axis=0)
    phases = np.exp(-1j * np.angle(v[anchors, np.arange(v.shape[1])]))
    return u * phases, v * phases


def resolvent(h: DynamicalMatrix, omegas) -> NDArray[np.complex128]:
    """Stacked resolvents ``(w*I - H)^{-1}`` for a 1-D array of frequencies.

    For paths that need only ``G`` and not the full singular basis.  The
    route follows the chain, as in :func:`svd_at`.  On symmetric chains
    ``G = T diag(G+, G-) T^dagger`` with ``G+- = V+- S+-^{-1} U+-^dagger``
    from the channel SVDs, which carry the exponentially small topological
    value to full relative accuracy.  Elsewhere ``(w*I - H) G = I`` is
    solved by banded LU with partial pivoting (LAPACK ``zgbsv``) in the
    site-major order of ``CouplingSet.bands``, which where ``w*I - H`` is
    ill-conditioned stays closer to the exact inverse than ``V diag(1/s)
    U^dagger`` assembled from a dense SVD (checked against 40-digit values
    in the tests).  See :func:`_banded_resolvent` for how frequencies share
    a call.  An exactly singular shifted matrix raises
    :class:`ResonanceError`, and a non-finite frequency ``ValueError``.
    """
    omegas = np.asarray(omegas, dtype=float)
    if not np.all(np.isfinite(omegas)):
        raise ValueError("frequencies must be finite")
    channels = h.source.channels
    if channels is not None:
        return _channel_resolvent(omegas, channels, h.n)
    return _banded_resolvent(omegas, h.source.bands)


def _banded_resolvent(omegas, bands):
    """``(w*I - H)^{-1}`` for every frequency by banded LU, ``zgbsv``.

    Each call solves for several frequencies at once, about ``_BAND_ROWS``
    rows: their shifted matrices, one block each, form a block-diagonal
    band whose entries between consecutive blocks are zero.  Partial
    pivoting then never takes a row from another block, and an update from
    one block adds only zeros to the next, so each ``G`` is the one a call
    of its own would give, bit for bit.  The right-hand side of a block is
    the identity with its rows in site-major order, and the solution's rows
    are put back in the generator's order.
    """
    from scipy.linalg.lapack import zgbsv

    order, kl, ku = bands.order, bands.kl, bands.ku
    dim, depth = order.size, bands.band.shape[0]
    group = max(1, _BAND_ROWS // dim)
    g = np.empty((omegas.size, dim, dim), dtype=complex)
    for start in range(0, omegas.size, group):
        batch = omegas[start:start + group]
        # both operands column-major, as LAPACK reads them: block by block
        # along the columns, the band and the identity's site-major rows
        ab = np.empty((batch.size, dim, depth), dtype=complex)
        ab[:] = bands.band.T
        ab[:, :, kl + ku] += batch[:, None]
        rhs = np.zeros((dim, batch.size, dim), dtype=complex)
        rhs[order, :, np.arange(dim)] = 1.0
        *_, x, info = zgbsv(kl, ku, ab.reshape(-1, depth).T, rhs.reshape(dim, -1).T,
                            overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise ResonanceError(
                f"omega={batch[(info - 1) // dim]} is resonant: w*I - H is singular"
            )
        g[start:start + batch.size, order] = x.T.reshape(dim, batch.size, dim).transpose(1, 2, 0)
    return g


def singular_values(h: DynamicalMatrix, omegas) -> NDArray[np.float64]:
    """Singular values of ``w*I - H`` for a 1-D array of frequencies, one
    ascending row of ``2n`` per frequency, without vectors.

    For paths that write the spectrum alone.  The frequencies are taken in
    batches of ``_CHUNK``, so peak memory stays near one batch, and the
    route follows the chain, as in :func:`resolvent`.  On symmetric chains
    the values are the closed form of the channels (:func:`_toeplitz_values`)
    everywhere: it is more accurate than the inverse refinement ``svd_at``
    applies to small values, so they differ from ``svd_at``'s only there, at
    the level of its rounding.  Other chains take one batched dense SVD per
    batch, with the determinant refinement of a lone value below
    ``_DENSE_FLOOR_REL`` of the largest.  A zero channel diagonal, a failed
    SVD, or a smallest value below the normal doubles raises
    :class:`ResonanceError`; a non-finite frequency raises ``ValueError``.
    """
    omegas = np.asarray(omegas, dtype=float)
    if not np.all(np.isfinite(omegas)):
        raise ValueError("frequencies must be finite")
    out = np.empty((omegas.size, 2 * h.n))
    for start in range(0, omegas.size, _CHUNK):
        batch = omegas[start:start + _CHUNK]
        s = out[start:start + batch.size]
        if h.source.channels is not None:
            j, g_s, gamma = h.source.channels
            diags = _channel_diagonals(batch, g_s, gamma)
            vals = _real_bidiagonal_values(h.n, np.hypot(diags.real, diags.imag), abs(2j * j))
            s[:] = np.sort(np.concatenate([vals[:batch.size], vals[batch.size:]], axis=1))
        else:
            try:
                s[:] = _dense_values(batch[:, None, None] * np.eye(2 * h.n) - h.h)
            except np.linalg.LinAlgError as exc:
                raise ResonanceError(
                    f"SVD failed to converge for omega in [{batch.min()}, {batch.max()}]"
                ) from exc
        tiny = np.flatnonzero(~(s[:, 0] >= np.finfo(float).tiny))
        if tiny.size:
            raise ResonanceError(
                f"omega={batch[tiny[0]]} is numerically resonant: the smallest "
                f"singular value is below the normal doubles"
            )
    return out


def _dense_values(shifted):
    """Ascending singular values of stacked dense matrices, by :func:`_refine_lone_value`."""
    s = np.linalg.svd(shifted, compute_uv=False)[:, ::-1]
    for a, row in zip(shifted, s):
        _refine_lone_value(a, row)
    return s


def _channel_resolvent(omegas, channels, n):
    """``T diag(G+, G-) T^dagger`` for every frequency, from one batched
    channel SVD."""
    def inverse(u, s, v):
        # an all-zero channel passes the refinement test, so check every node
        if not np.all(s[:, 0] > 0):
            raise ResonanceError(
                f"omega in [{omegas.min()}, {omegas.max()}] is resonant: "
                f"a symmetry channel of w*I - H is singular"
            )
        # u and v are this call's own, so V S^{-1} U^dagger needs no temporaries
        v /= s[:, None, :]
        return v @ np.conjugate(u, out=u).swapaxes(-1, -2)

    g_plus, g_minus = [inverse(*svd) for svd in _channel_svd(omegas, *channels, n)]
    # with T = [[I, I], [iI, -iI]]/sqrt(2), G = [[E, -O], [O, E]] for
    # E = (G+ + G-)/2 and O = i(G+ - G-)/2, written in place
    g = np.empty((omegas.size, 2 * n, 2 * n), dtype=complex)
    even, odd = g[:, :n, :n], g[:, n:, :n]
    np.multiply(np.add(g_plus, g_minus, out=even), 0.5, out=even)
    np.multiply(np.subtract(g_plus, g_minus, out=odd), 0.5j, out=odd)
    g[:, n:, n:] = even
    np.negative(odd, out=g[:, :n, n:])
    return g


def svd_at(h: DynamicalMatrix, omega: float) -> SvdTriple:
    """Full SVD of ``omega*I - H`` with ascending singular values.

    Takes the two-channel route when the chain has symmetric channels
    (``CouplingSet.channels``) and the refined dense SVD otherwise.  The
    phase gauge of each singular-vector pair is fixed deterministically
    (see :func:`_fix_gauge`); comparisons against analytic vectors should
    still use overlap magnitudes since degenerate subspaces remain free.
    """
    channels = h.source.channels
    if channels is not None:
        (up, sp, vp), (um, sm, vm) = _channel_svd([omega], *channels, h.n)
        u, s, v = _channel_triple((up[0], sp[0], vp[0]), (um[0], sm[0], vm[0]))
    else:
        try:
            u, s, v = _dense_svd_ascending(omega * np.eye(2 * h.n) - h.h)
        except np.linalg.LinAlgError as exc:
            raise ResonanceError(f"SVD failed to converge at omega={omega}") from exc
    u, v = _fix_gauge(u, v)
    return SvdTriple(omega=float(omega), u=u, s=s, v=v)


def amplification_matrix(t: SvdTriple, c: CouplingSet) -> NDArray[np.complex128]:
    """Noise-channel weight matrix in the singular basis.

    ``Sigma = S^{-1} (U_p^T P U_p^* + U_h^T Gamma U_h^*) S^{-1}``; Hermitian
    positive semidefinite whenever the bath matrices are.
    """
    if t.s[0] <= 0:
        raise ResonanceError("amplification matrix undefined at a resonance")
    u_p, u_h = t.u[: t.n], t.u[t.n:]
    core = u_p.T @ c.p_mat @ u_p.conj() + u_h.T @ c.gamma_mat @ u_h.conj()
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
