"""Chain models: coupling matrices, dynamical matrices, disorder, Bloch forms.

A quadratic Liouvillian on ``n`` bosonic sites is fully specified by four
matrices: a Hermitian hopping matrix ``j_mat``, a symmetric pairing matrix
``k_mat``, and real symmetric loss/gain rate matrices ``gamma_mat`` and
``p_mat``.  The non-Hermitian dynamical matrix assembled from them drives
the linear Langevin dynamics of the ``2n`` mode operators in the doubled
(particle, hole) representation.

A translationally invariant chain is described once, by its cell blocks
(``CouplingSet.cell_blocks``): the builders state only those, and
:func:`_tile` lays them out on the open chain, or on the ring for
:func:`pbc_dynamical_matrix`.  Every generator, in real space or at a
wavevector, is assembled by the one function :func:`_generator`.

Every fact of a chain lives on the chain, decided once, on first use: its
stability (``CouplingSet.stability``), decided in real arithmetic on the
(x, p) quadrature form built from its blocks (:func:`real_form`),
with a norm certificate when the eigensolve is inconclusive
(:func:`is_dynamically_stable`); its imaginary-gauge bound
(``CouplingSet.gauge``, :func:`imaginary_gauge`), which on-site disorder
draws inherit along with a stable verdict; its symmetric-channel structure
(``CouplingSet.channels``, :func:`symmetric_channels`); and the
coefficient table of its Bloch determinant (``CouplingSet.bloch_det``,
:func:`bloch_det_coefficients`), which the winding scan evaluates; and the
band form of its generator in site-major order (``CouplingSet.bands``,
:func:`band_form`), which the dense resolvent factors.  Chains are treated
as immutable: a cached fact is never recomputed.

Hopping phase convention: the sub-diagonal carries the phase factor,
``j_mat[i+1, i] = J * exp(1j * phi)``.  The Fourier sign in
:func:`bloch_matrix` uses ``exp(+1j * k * d)`` for a displacement ``d`` of
unit cells; with this pairing the topological phase of the symmetric chain
carries positive winding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy
from numpy.typing import NDArray

HERMITICITY_TOL = 1e-12

ComplexMatrix = NDArray[np.complex128]


class UnstableSystemError(RuntimeError):
    """The dynamical matrix has a non-decaying mode; no steady state exists."""


@dataclass(frozen=True)
class ModelIParams:
    """Parameters of the homogeneous dissipative chain (single-site unit cell)."""

    n_sites: int
    j: float = 1.0
    g_s: float = 1.0
    g_c: float = 1.0
    delta: float = 0.0
    phi: float = math.pi / 2
    gamma: float = 0.0

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")

    @property
    def symmetric_regime(self) -> bool:
        """True at the high-symmetry point J = g_s = g_c, delta = 0, phi = pi/2."""
        return (
            self.j == self.g_s == self.g_c
            and self.delta == 0.0
            and abs(self.phi - math.pi / 2) < 1e-15
        )


@dataclass(frozen=True)
class ModelIIParams:
    """Parameters of the dimerized chain with lossy auxiliary sites.

    Even sites form the main chain (decay ``gamma``); odd sites are
    auxiliaries with decay ``gamma_prime`` coupled to their neighbours by
    the parametric amplitude ``g_c_prime``.
    """

    n_cells: int
    j: float = 1.0
    g_s: float = 0.1
    g_c: float = 0.1
    g_c_prime: float = 3.0
    delta: float = 0.0
    phi: float = math.pi / 2
    gamma: float = 0.0
    gamma_prime: float = 30.0

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {self.n_cells}")
        if self.gamma < 0 or self.gamma_prime < 0:
            raise ValueError("decay rates must be nonnegative")

    def adiabatic_validity(self, ratio_threshold: float = 5.0) -> bool:
        """Whether the auxiliary decay dominates the coupling to it."""
        if self.g_c_prime == 0:
            return True
        return self.gamma_prime / abs(self.g_c_prime) >= ratio_threshold


@dataclass(frozen=True)
class CouplingSet:
    """The four matrices defining a quadratic Liouvillian on ``n`` sites.

    ``cell_blocks`` holds the couplings organized by unit-cell displacement
    for translationally invariant chains: a mapping ``d -> (J_d, K_d, G_d,
    P_d)`` of ``unit_cell x unit_cell`` blocks with ``X_d[a, b] =
    X[M*(m+d)+a, M*m+b]`` independent of the cell index ``m``.
    """

    j_mat: ComplexMatrix
    k_mat: ComplexMatrix
    gamma_mat: NDArray[np.float64]
    p_mat: NDArray[np.float64]
    unit_cell: int = 1
    cell_blocks: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        j, k = np.asarray(self.j_mat), np.asarray(self.k_mat)
        if np.linalg.norm(j - j.conj().T, np.inf) > HERMITICITY_TOL:
            raise ValueError("j_mat must be Hermitian")
        if np.linalg.norm(k - k.T, np.inf) > HERMITICITY_TOL:
            raise ValueError("k_mat must be symmetric")
        for name in ("gamma_mat", "p_mat"):
            m = np.asarray(getattr(self, name))
            if np.iscomplexobj(m) and np.abs(m.imag).max() > HERMITICITY_TOL:
                raise ValueError(f"{name} must be real")
            if np.linalg.norm(m - m.T, np.inf) > HERMITICITY_TOL:
                raise ValueError(f"{name} must be symmetric")

    @property
    def n(self) -> int:
        return self.j_mat.shape[0]

    @property
    def translationally_invariant(self) -> bool:
        """Whether the chain is described by its cell blocks."""
        return self.cell_blocks is not None

    @property
    def noise_matrix(self) -> NDArray[np.float64]:
        """Block-diagonal bath moment matrix diag(P, Gamma)."""
        n = self.n
        out = np.zeros((2 * n, 2 * n), dtype=np.result_type(self.p_mat, self.gamma_mat))
        out[:n, :n] = self.p_mat
        out[n:, n:] = self.gamma_mat
        return out

    @cached_property
    def stability(self) -> StabilityVerdict:
        """Whether every mode of this chain decays, decided once; see
        :func:`is_dynamically_stable`."""
        return _decide(real_form(self))

    @cached_property
    def gauge(self) -> Gauge:
        """The imaginary-gauge bound on this chain's growth rates, searched
        once; see :func:`imaginary_gauge`."""
        return imaginary_gauge(self)

    @cached_property
    def channels(self) -> tuple[float, float, float] | None:
        """The symmetric-channel verdict of this chain, decided once; see
        :func:`symmetric_channels`."""
        return symmetric_channels(self)

    @cached_property
    def bloch_det(self) -> ComplexMatrix:
        """The coefficient table of ``det(w*I - H(k))``, computed once; see
        :func:`bloch_det_coefficients`."""
        return bloch_det_coefficients(self)

    @cached_property
    def bands(self) -> Bands:
        """The site-major band form of this chain's generator, built once;
        see :func:`band_form`."""
        return band_form(self)


@dataclass(frozen=True)
class DynamicalMatrix:
    """Non-Hermitian generator of the linear mode dynamics, with provenance."""

    h: ComplexMatrix
    source: CouplingSet

    @property
    def n(self) -> int:
        return self.h.shape[0] // 2


@dataclass(frozen=True)
class DisorderRealization:
    """One draw of Gaussian on-site energy offsets."""

    deltas: NDArray[np.float64]
    seed: int
    w: float


def gaussian_disorder(n: int, w: float, seed: int) -> DisorderRealization:
    """Draw ``n`` on-site offsets from N(0, w^2) with a PCG64 stream.

    The stream is keyed only by ``seed`` so that a realization is exactly
    reproducible across runs and platforms.
    """
    if w < 0:
        raise ValueError("disorder strength must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    return DisorderRealization(deltas=w * rng.standard_normal(n), seed=seed, w=w)


def _tile(cell_blocks, unit_cell, n_cells, periodic):
    """Real-space ``(J, K, Gamma, P)`` of ``n_cells`` cells from cell blocks.

    Block ``X_d`` couples cell ``m`` to cell ``m + d``.  On the open chain
    the couplings that fall off an end are dropped; with ``periodic`` they
    wrap around the ring.  ``Gamma`` and ``P`` are real.
    """
    m, cells = unit_cell, np.arange(n_cells)
    mats = [np.zeros((n_cells, m, n_cells, m), dtype=complex) for _ in range(2)]
    mats += [np.zeros((n_cells, m, n_cells, m)) for _ in range(2)]
    for d, (jd, kd, gd, pd) in cell_blocks.items():
        rows = cells + d
        if periodic:
            rows %= n_cells
        keep = (rows >= 0) & (rows < n_cells)
        for x, blk in zip(mats, (jd, kd, gd.real, pd.real)):
            x[rows[keep], :, cells[keep], :] += blk
    return tuple(x.reshape(m * n_cells, m * n_cells) for x in mats)


def _chain(cell_blocks, unit_cell, n_cells) -> CouplingSet:
    j_mat, k_mat, g_mat, p_mat = _tile(cell_blocks, unit_cell, n_cells, periodic=False)
    return CouplingSet(
        j_mat=j_mat, k_mat=k_mat, gamma_mat=g_mat, p_mat=p_mat,
        unit_cell=unit_cell, cell_blocks=cell_blocks,
    )


def _chain_cell_blocks(j, g_s, g_c, delta, phi, gamma, p=0.0):
    one = lambda x: np.array([[x]], dtype=complex)
    return {
        0: (one(delta), one(g_s), one(gamma), one(2 * p)),
        1: (one(j * np.exp(1j * phi)), one(g_c), one(0), one(p)),
        -1: (one(j * np.exp(-1j * phi)), one(g_c), one(0), one(p)),
    }


def build_model_i(params: ModelIParams) -> CouplingSet:
    """Homogeneous chain: complex nearest-neighbour hopping, on-site and
    nearest-neighbour pairing, uniform local loss, no gain.  Open boundary.
    """
    blocks = _chain_cell_blocks(
        params.j, params.g_s, params.g_c, params.delta, params.phi, params.gamma
    )
    return _chain(blocks, 1, params.n_sites)


def build_model_ii_full(params: ModelIIParams) -> CouplingSet:
    """Dimerized chain on ``2 n_cells`` sites.

    Even sites carry the on-site energy, distance-2 phase hopping, on-site
    and distance-2 pairing, and decay ``gamma``; odd auxiliary sites decay
    at ``gamma_prime`` and couple to both neighbours through
    ``g_c_prime``.
    """
    hop = params.j * np.exp(1j * params.phi)
    z = np.zeros((2, 2), dtype=complex)
    d0_j = np.diag([params.delta, 0.0]).astype(complex)
    d0_k = np.array([[params.g_s, params.g_c_prime], [params.g_c_prime, 0]], dtype=complex)
    d0_g = np.diag([params.gamma, params.gamma_prime]).astype(complex)
    d1_j = z.copy(); d1_j[0, 0] = hop
    d1_k = z.copy(); d1_k[0, 0] = params.g_c; d1_k[0, 1] = params.g_c_prime
    cell_blocks = {
        0: (d0_j, d0_k, d0_g, z),
        1: (d1_j, d1_k, z, z),
        -1: (d1_j.conj().T, d1_k.T, z, z),
    }
    return _chain(cell_blocks, 2, params.n_cells)


def adiabatic_eliminate(params: ModelIIParams, edge_correction: bool = False) -> CouplingSet:
    """Integrate out the fast auxiliary sites, producing collective gain.

    Each auxiliary, decaying at ``gamma_prime``, mediates incoherent pumping
    of the two main sites it couples to.  In the rate normalization used by
    ``p_mat`` the local gain contributed per adjacent auxiliary is
    ``q = 4 g_c_prime**2 / gamma_prime``, so the effective chain (even sites
    relabelled ``2m -> m``, distance-2 couplings becoming nearest-neighbour)
    carries ``p_mat`` with diagonal ``2q`` and first off-diagonal ``q``.

    With ``edge_correction=True`` the first site keeps only the single-``q``
    local gain it actually receives on the open chain, whose leftmost site
    has one auxiliary neighbour instead of two.  This breaks translational
    invariance and is meant for quantitative comparison against the full
    chain; the default uniform form is the translationally invariant
    generator used for topology.
    """
    if params.gamma_prime == 0:
        raise ValueError("adiabatic elimination is singular at gamma_prime = 0")
    q = 4.0 * params.g_c_prime**2 / params.gamma_prime
    blocks = _chain_cell_blocks(
        params.j, params.g_s, params.g_c, params.delta, params.phi, params.gamma, p=q
    )
    if not edge_correction:
        return _chain(blocks, 1, params.n_cells)
    j_mat, k_mat, g_mat, p_mat = _tile(blocks, 1, params.n_cells, periodic=False)
    p_mat[0, 0] = q
    return CouplingSet(j_mat=j_mat, k_mat=k_mat, gamma_mat=g_mat, p_mat=p_mat)


def symmetric_channels(c: CouplingSet) -> tuple[float, float, float] | None:
    """``(J, g_s, gamma)`` if the chain splits into two bidiagonal channels.

    That is the chain :func:`build_model_i` builds with pure imaginary
    hopping ``iJ`` equal to the off-diagonal pairing, zero detuning, uniform
    loss and no gain; anything else gives ``None``.
    """
    n = c.n
    if n < 2 or c.unit_cell != 1:
        return None
    if np.any(c.p_mat != 0):
        return None
    gam = c.gamma_mat[0, 0]
    if not np.allclose(c.gamma_mat, gam * np.eye(n), atol=1e-14):
        return None
    if np.any(np.abs(np.diag(c.j_mat)) > 1e-14):
        return None
    hop = c.j_mat[1, 0]
    if abs(hop.real) > 1e-14:
        return None
    j = hop.imag
    g_s = c.k_mat[0, 0]
    g_c = c.k_mat[1, 0]
    if abs(g_c - j) > 1e-14 or abs(g_s.imag) > 1e-14 or abs(g_c.imag) > 1e-14:
        return None
    # Only the couplings are compared (the uniform loss was checked above),
    # so the expected chain is built lossless and its construction cannot
    # fail.  exp(1j*pi/2) carries ~1e-16 real dirt, so compare with a
    # tolerance far below any physical scale but above that dirt.
    expect = build_model_i(ModelIParams(n_sites=n, j=j, g_s=g_s, g_c=g_c))
    if np.linalg.norm(c.j_mat - expect.j_mat, np.inf) > 1e-13:
        return None
    if np.linalg.norm(c.k_mat - expect.k_mat, np.inf) > 1e-13:
        return None
    return float(j), float(g_s.real), float(gam)


def apply_disorder(base: CouplingSet, realization: DisorderRealization) -> CouplingSet:
    """Shift the on-site energies by one disorder draw.

    Only the diagonal of ``j_mat`` changes; the result is no longer
    translationally invariant.  The draw adds ``diag(delta, -delta)`` to the
    generator, which is Hermitian and commutes with the gauge, so the draw
    has the base's ``gauge`` bit for bit (see :func:`imaginary_gauge`).  It
    carries that gauge, and when the gauge is certified, the verdict
    ``StabilityVerdict(True, "gauge")`` with no eigensolve of its own.
    """
    deltas = np.asarray(realization.deltas, dtype=float)
    if deltas.shape != (base.n,):
        raise ValueError(
            f"disorder length {deltas.shape} does not match {base.n} sites"
        )
    j_mat = base.j_mat.copy()
    j_mat[np.arange(base.n), np.arange(base.n)] += deltas
    draw = replace(base, j_mat=j_mat, cell_blocks=None)
    # seed the draw's cached facts
    vars(draw)["gauge"] = base.gauge
    if base.gauge.certified:
        vars(draw)["stability"] = StabilityVerdict(True, "gauge")
    return draw


def _rates(gamma, p):
    """The diagonal block ``D = i(P - Gamma)/2`` of the generator."""
    return 0.5j * (p - gamma)


def _generator(j, k, d, hole=None):
    """The generator layout ``[[J + D, K], [-K*, -J* + D]]``.

    Works over any leading batch axes.  In real space the hole row holds
    the conjugates of ``J`` and ``K`` themselves; a Bloch form passes
    ``hole = (J(-k), K(-k))``, whose conjugates fill it instead.
    """
    j_h, k_h = (j, k) if hole is None else hole
    n = j.shape[-1]
    out = np.empty(j.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = j + d
    out[..., :n, n:] = k
    out[..., n:, :n] = -k_h.conj()
    out[..., n:, n:] = -j_h.conj() + d
    return out


def dynamical_matrix(c: CouplingSet) -> DynamicalMatrix:
    """Assemble the 2n x 2n non-Hermitian dynamical matrix.

    Blocks: ``[[J + i(P-Gamma)/2, K], [-K*, -J* + i(P-Gamma)/2]]``.
    """
    h = _generator(c.j_mat, c.k_mat, _rates(c.gamma_mat, c.p_mat))
    return DynamicalMatrix(h=h, source=c)


@dataclass(frozen=True)
class Bands:
    """A chain's generator as a band matrix, in LAPACK ``gbsv`` storage.

    In site-major order, ``(p_0, h_0, p_1, h_1, ...)``, a chain whose sites
    couple out to distance ``R`` has a generator of bandwidth ``2R + 1`` on
    each side.  ``order`` lists the generator's rows in that order, ``kl``
    and ``ku`` are the lower and upper bandwidths of the permuted matrix,
    and ``band`` stores ``-H`` permuted: entry ``(i, j)`` in row ``kl + ku
    + i - j`` of column ``j``, below ``kl`` rows that ``gbsv`` fills in.
    """

    order: NDArray[np.intp]
    kl: int
    ku: int
    band: ComplexMatrix


def band_form(c: CouplingSet) -> Bands:
    """The :class:`Bands` of a chain, read off the nonzeros of its generator.

    Every entry of ``band`` off the matrix is zero, and so is every
    structural zero inside it: ``0.0 - H`` writes no negative zero.  An
    uncoupled chain has ``kl = ku = 0``.
    """
    dim = 2 * c.n
    order = np.arange(dim).reshape(2, c.n).T.ravel()
    a = 0.0 - dynamical_matrix(c).h[np.ix_(order, order)]
    below = np.subtract(*np.nonzero(a))
    kl, ku = int(below.max(initial=0)), int(-below.min(initial=0))
    # row of the matrix at each (diagonal offset, column) of the band
    rows = np.arange(-ku, kl + 1)[:, None] + np.arange(dim)
    d, j = np.nonzero((rows >= 0) & (rows < dim))
    band = np.zeros((2 * kl + ku + 1, dim), dtype=complex)
    band[kl + d, j] = a[rows[d, j], j]
    band.flags.writeable = False
    order.flags.writeable = False
    return Bands(order=order, kl=kl, ku=ku, band=band)


def real_form(c: CouplingSet) -> NDArray[np.float64]:
    """The chain's generator in the real (x, p) quadrature basis,
    ``A = -i T H T^dagger``.

    ``T = [[I, I], [-iI, iI]]/sqrt(2)`` is unitary, so ``A`` has the
    eigenvalues of ``H`` (:func:`dynamical_matrix`) times ``-i``
    (``Re eig A = Im eig H``) and the same operator norms of its propagator.
    With ``A1 = J + i(P - Gamma)/2`` it is, block by block, ``[[Im A1 +
    Im K, Re A1 - Re K], [-Re A1 - Re K, Im A1 - Im K]]``: real, built from
    the chain's blocks with no matrix product.
    """
    n = c.n
    a1, k = c.j_mat + _rates(c.gamma_mat, c.p_mat), c.k_mat
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = a1.imag + k.imag
    out[:n, n:] = a1.real - k.real
    out[n:, :n] = -a1.real - k.real
    out[n:, n:] = a1.imag - k.imag
    return out


def particle_hole_conjugation(n: int) -> NDArray[np.float64]:
    """The block-swap matrix C exchanging particle and hole sectors."""
    return np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(n))


def phs_residual(h: DynamicalMatrix) -> float:
    """Norm of C H* C + H; zero for any quadratic-Liouvillian generator."""
    c = particle_hole_conjugation(h.n)
    return float(np.linalg.norm(c @ h.h.conj() @ c + h.h, np.inf))


def _require_cells(c: CouplingSet, what: str) -> None:
    if not c.translationally_invariant:
        raise ValueError(f"{what} requires a translationally invariant chain")


def bloch_matrix(c: CouplingSet, k) -> ComplexMatrix:
    """Momentum-space dynamical matrix of the periodic chain at wavevector k.

    Returns the ``2M x 2M`` block (M = unit cell size) obtained by the
    unitary plane-wave transform applied identically to particle and hole
    sectors, so that ``det(w - H_pbc) = prod_m det(w - H(k_m))`` over
    ``k_m = 2 pi m / n_cells``.  An array of wavevectors gives a stack of
    shape ``k.shape + (2M, 2M)``.
    """
    _require_cells(c, "bloch_matrix")
    ks = np.asarray(k, dtype=float)[..., None, None]
    plus, minus = [0, 0, 0], [0, 0]
    for d, (jd, kd, gd, pd) in c.cell_blocks.items():
        w = np.exp(1j * ks * d)
        plus = [acc + x * w for acc, x in zip(plus, (jd, kd, _rates(gd, pd)))]
        minus = [acc + x / w for acc, x in zip(minus, (jd, kd))]
    return _generator(*plus, hole=minus)


def bloch_det_coefficients(c: CouplingSet) -> ComplexMatrix:
    """``det(w*I - H(k))`` as a Laurent polynomial in ``z = exp(1j*k)``.

    With unit cell ``M`` and largest cell displacement ``R``, every entry of
    :func:`bloch_matrix` is a Laurent polynomial in ``z`` of degrees
    ``-R..R``, so the determinant has degrees ``-D..D``, ``D = 2*M*R``, and
    each of its coefficients is a polynomial of degree ``2M`` in ``w``.
    Returns the ``(2D+1, 2M+1)`` table ``P`` with

        ``det(w*I - H(k)) = sum_{p,j} P[p, j] * w**(2M - j) * z**(p - D)``.

    The characteristic polynomial is taken at ``2D+1`` equispaced
    wavevectors (one :func:`bloch_matrix` call, one small eigensolve per
    wavevector); as the degrees lie in ``-D..D``, a DFT over the samples
    gives the ``z`` coefficients without aliasing.
    """
    _require_cells(c, "bloch_det_coefficients")
    size = 2 * c.unit_cell
    deg = size * max(abs(d) for d in c.cell_blocks)
    n_s = 2 * deg + 1
    roots = np.linalg.eigvals(bloch_matrix(c, 2 * np.pi * np.arange(n_s) / n_s))
    # row s: the coefficients of prod_j (w - roots[s, j]), highest power first
    charpoly = np.zeros((n_s, size + 1), dtype=complex)
    charpoly[:, 0] = 1.0
    for j in range(size):
        charpoly[:, 1:j + 2] -= roots[:, j:j + 1] * charpoly[:, :j + 1]
    table = np.fft.fftshift(np.fft.fft(charpoly, axis=0), axes=0) / n_s
    table.flags.writeable = False
    return table


def pbc_dynamical_matrix(c: CouplingSet) -> ComplexMatrix:
    """Real-space dynamical matrix with periodic wraparound couplings."""
    _require_cells(c, "periodic closure")
    j_mat, k_mat, g_mat, p_mat = _tile(
        c.cell_blocks, c.unit_cell, c.n // c.unit_cell, periodic=True
    )
    return _generator(j_mat, k_mat, _rates(g_mat, p_mat))


# ---------------------------------------------------------------------------
# Stability gate

STABILITY_TOL = 1e-10


@dataclass(frozen=True)
class StabilityVerdict:
    """How a chain's stability was decided.

    ``route`` is ``"eigensolve"`` when the dense eigensolve showed decay,
    and ``"certificate"`` when the norm certificate of
    :func:`_certified_decay` gave the verdict; ``doublings`` counts the
    certificate's squarings (0 on the other routes).  ``"gauge"`` marks a
    disorder draw (:func:`apply_disorder`) of a chain whose imaginary gauge
    is certified (:class:`Gauge`): every mode decays, proven once for all
    on-site draws of that chain, with no eigensolve of the draw.
    """

    stable: bool
    route: str
    doublings: int = 0


_MAX_DOUBLINGS = 24


def _certified_decay(a) -> StabilityVerdict:
    """Certify spectral decay from operator norms of powers of the propagator.

    The propagator is ``P = exp(A)`` for the real (x, p) form ``A`` (see
    :func:`real_form`); it has the norms of ``exp(-iH)``.  ``||P^m|| < 1``
    for any m bounds the spectral radius of P below one and hence every
    mode's growth rate below zero, regardless of how defective the
    generator is.  Powers are accumulated by repeated squaring with norm
    scaling so transient amplification cannot overflow.
    """
    p = scipy.linalg.expm(a)
    log_norm = 0.0
    for doubling in range(_MAX_DOUBLINGS):
        nrm = np.linalg.norm(p, 2)
        log_norm += math.log(nrm) if nrm > 0 else -math.inf
        if log_norm < 0:
            return StabilityVerdict(True, "certificate", doubling)
        p = (p / nrm) @ (p / nrm)
        log_norm += log_norm
    return StabilityVerdict(False, "certificate", _MAX_DOUBLINGS)


def _decide(a) -> StabilityVerdict:
    """The stability verdict of a chain's real form ``a``.

    A real eigensolve reports decay when ``Re eig < -STABILITY_TOL``, and
    its verdict is then accepted.  When it does not, the norm certificate
    of :func:`_certified_decay` gets the final word: eigenvalues of these
    chains are so ill-conditioned that the dense eigensolve routinely
    reports spurious growth for perfectly stable systems.
    """
    rate = float(np.max(np.linalg.eigvals(a).real))
    if rate < -STABILITY_TOL:
        return StabilityVerdict(True, "eigensolve")
    return _certified_decay(a)


@dataclass(frozen=True)
class Gauge:
    """A bound on every growth rate of a chain in an imaginary gauge.

    The gauge ``S = diag(r^i)`` scales both quadratures of site ``i``
    (Hatano & Nelson, PRL 77, 570 (1996)).  ``alpha`` is the largest
    eigenvalue of the symmetric part of ``S A S^-1`` for the real form ``A``
    (:func:`real_form`): the numerical abscissa of a matrix similar to
    ``A``, and so an upper bound on every mode's growth rate.  ``margin``
    bounds the rounding in forming that matrix and in its eigensolve, so a
    ``certified`` gauge proves that every mode decays.
    """

    r: float
    alpha: float
    margin: float

    @property
    def certified(self) -> bool:
        return self.alpha + self.margin < 0


_GAUGE_LOG_R = (-2.0, 2.0)
_GAUGE_EVALUATIONS = 16
_GOLDEN = (math.sqrt(5) - 1) / 2


def imaginary_gauge(c: CouplingSet) -> Gauge:
    """The gauge of least numerical abscissa over ``log r`` in
    ``_GAUGE_LOG_R``, by a golden-section search of ``_GAUGE_EVALUATIONS``
    abscissas.

    With ``G = [r^(i-j)]``, ``sym(Y) = Y + Y^T`` and ``anti(Y) = Y - Y^T``,
    the symmetric part of ``S A S^-1`` has the blocks ``sym(X11 o G)/2``,
    ``sym(X22 o G)/2`` and ``(anti(Re J o G) - sym(Re K o G))/2`` off the
    diagonal, where ``X11`` and ``X22`` are the diagonal blocks of ``A``.
    ``G`` is formed entrywise and only where the chain couples, since
    ``S`` itself underflows at large ``n``.  The on-site energies, the
    diagonal of ``Re J``, enter only through ``anti``, whose diagonal is
    exactly zero: an on-site disorder draw has the same abscissas bit for
    bit.  Sites are interleaved, ``(x_0, p_0, x_1, p_1, ...)``, so each
    abscissa is a banded eigensolve of bandwidth ``2R + 1`` for a coupling
    range of ``R`` sites.  If one of them does not converge, the gauge is
    uncertified (``alpha = inf``), and disorder draws keep the gate.
    """
    n = c.n
    im_a1, im_k = (c.j_mat + _rates(c.gamma_mat, c.p_mat)).imag, c.k_mat.imag
    parts = (im_a1 + im_k, im_a1 - im_k, c.j_mat.real, c.k_mat.real)
    site = np.arange(n)
    dist = site[:, None] - site[None, :]
    support = np.logical_or.reduce([x != 0 for x in parts]) | (dist == 0)
    support |= support.T
    dist_on = dist[support]
    width = 2 * int(np.abs(dist_on).max()) + 1
    dim = 2 * n
    band_col = np.arange(dim)
    # lower band storage; the entries past the end are padding LAPACK skips
    band_row = np.minimum(np.arange(width + 1)[:, None] + band_col, dim - 1)

    def gauged(t):
        g = np.zeros((n, n))
        g[support] = np.exp(t * dist_on)
        return [x * g for x in parts]

    def abscissa(t):
        x11, x22, re_j, re_k = gauged(t)
        m = np.empty((n, 2, n, 2))
        m[:, 0, :, 0] = x11 + x11.T
        m[:, 1, :, 1] = x22 + x22.T
        m[:, 0, :, 1] = (re_j - re_j.T) - (re_k + re_k.T)
        m[:, 1, :, 0] = m[:, 0, :, 1].T
        band = 0.5 * m.reshape(dim, dim)[band_row, band_col]
        top = scipy.linalg.eigvals_banded(
            band, lower=True, select="i", select_range=(dim - 1, dim - 1)
        )
        return float(top[0])

    lo, hi = _GAUGE_LOG_R
    a, b = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    try:
        fa, fb = abscissa(a), abscissa(b)
        for _ in range(_GAUGE_EVALUATIONS - 2):
            if fa <= fb:
                hi, b, fb = b, a, fa
                a = hi - _GOLDEN * (hi - lo)
                fa = abscissa(a)
            else:
                lo, a, fa = a, b, fb
                b = lo + _GOLDEN * (hi - lo)
                fb = abscissa(b)
    except np.linalg.LinAlgError:
        # an eigensolve that does not converge bounds nothing: no certificate
        return Gauge(r=1.0, alpha=math.inf, margin=0.0)
    t, alpha = (a, fa) if fa <= fb else (b, fb)
    # Each entry is a sum of terms |x_ij| r^(i-j) rounded to a few ulps, and
    # the banded eigensolve is backward stable; the Frobenius norm of those
    # terms bounds both errors.  Re J's diagonal cancels without rounding, so
    # it is left out, and every on-site draw gets the same margin.
    x11, x22, re_j, re_k = gauged(t)
    np.fill_diagonal(re_j, 0.0)
    scale = sum(float(np.linalg.norm(x)) for x in (x11, x22, 2 * re_j, 2 * re_k))
    margin = 16 * dim * float(np.finfo(float).eps) * scale
    return Gauge(r=math.exp(t), alpha=alpha, margin=margin)


def is_dynamically_stable(h: DynamicalMatrix) -> bool:
    """Whether every mode of the dynamical matrix decays.

    Reads the verdict of the source chain (``CouplingSet.stability``),
    decided once per chain: a real eigensolve of :func:`real_form`, with the
    norm certificate of :func:`_certified_decay` when the eigensolve does
    not show decay.
    """
    return h.source.stability.stable


def assert_stable(h: CouplingSet | DynamicalMatrix, context: str = "") -> None:
    """Raise :class:`UnstableSystemError` unless the dynamics decays.

    A chain's own verdict is read directly; a generator's goes through
    :func:`is_dynamically_stable`.
    """
    stable = h.stability.stable if isinstance(h, CouplingSet) else is_dynamically_stable(h)
    if not stable:
        where = f" ({context})" if context else ""
        raise UnstableSystemError(
            f"dynamical matrix has a non-decaying mode{where}; "
            "steady-state quantities are undefined"
        )
