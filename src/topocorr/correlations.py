"""Two-point correlations: frequency-resolved, equal-time, and their diagnostics.

Every correlation here is a block of ``I(w) = G* D G^T``, with the
resolvent ``G = (w*I - H)^{-1}`` and the noise matrix ``D = diag(P, Gamma)
= L L^T`` (:func:`_noise_factor`): with ``Y = G* L``, ``I = Y Y^dagger``,
and the normal and anomalous matrices ``N(w)``, ``M(w)`` are its first
``n`` rows.  :func:`freq_correlations` takes ``Y = V* S^{-1} (U^T L)`` from
an SVD triple, which makes ``N = Vp* Sigma Vp^T`` and ``M = Vp* Sigma
Vh^T`` with ``Sigma`` the amplification matrix (checked by ``validate``);
:func:`lro_curve` takes ``Y`` from batched resolvents.  Equal-time matrices
integrate ``I`` over all frequencies with an adaptive composite
Gauss-Legendre rule plus an analytic large-frequency tail.  Every generator
obeys ``C H* C = -H`` with ``C`` the particle-hole block swap, so for real
``w`` ``G(-w) = -C G(w)* C`` and ``I(-w)`` follows from the same resolvent;
the rule therefore integrates ``I(w) + I(-w)`` over ``[0, W]``.  Every
chain evaluates both halves with one :func:`resolvent` call per panel: a
batched LU solve, or on symmetric chains the batched bidiagonal channel
SVDs, which resolve the exponentially small topological singular value to
full relative accuracy.  The weighted factors of a panel's nodes, side by
side, give the panel's integral as one Gram product.
``QuadratureReport.panels`` counts panels of ``[-W, W]``, two per folded
panel, and a refinement that would need more than ``MAX_PANELS`` of them
raises :class:`QuadratureError`.

Normalization divides every entry by the geometric mean of the
corresponding diagonal occupations, so normalized diagonals are exactly one
and off-diagonals are correlation coefficients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.typing import NDArray
import scipy

from .models import CouplingSet, DynamicalMatrix, assert_stable, dynamical_matrix
from .greensvd import ResonanceError, SvdTriple, resolvent

ZERO_OCCUPATION_TOL = 1e-14
RANK1_VALIDITY_RATIO = 0.1
PANEL_NODES = 32
MAX_PANELS = 4096
_NOISE_PSD_MARGIN = 16


class QuadratureError(RuntimeError):
    """The equal-time quadrature cannot reach its tolerance within ``MAX_PANELS``."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the equal-time frequency integral.

    ``rel_tol`` is the relative accuracy each panel is refined to, and
    ``tail_tol`` the integrand level, relative to its peak, at which the
    automatic cutoff ``W`` is placed.  Both must be finite and positive.
    Each panel has ``PANEL_NODES`` Gauss-Legendre nodes; a refinement that
    would need more than ``MAX_PANELS`` panels raises :class:`QuadratureError`.
    """

    rel_tol: float = 1e-6
    tail_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rel_tol", "tail_tol"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be finite and positive, got {val}")


@dataclass(frozen=True)
class QuadratureReport:
    omega_max: float
    panels: int
    est_error: float


@dataclass(frozen=True)
class FreqCorrelations:
    """Normal/anomalous correlation matrices at one frequency."""

    omega: float
    n_mat: NDArray[np.complex128]
    m_mat: NDArray[np.complex128]
    n_bar: NDArray[np.complex128]
    m_bar: NDArray[np.complex128]
    excluded_sites: tuple[int, ...] = ()


@dataclass(frozen=True)
class EqualTimeCorrelations:
    """Frequency-integrated correlation matrices with the quadrature record."""

    n_mat: NDArray[np.complex128]
    m_mat: NDArray[np.complex128]
    n_bar: NDArray[np.complex128]
    m_bar: NDArray[np.complex128]
    quadrature_report: QuadratureReport
    excluded_sites: tuple[int, ...] = ()

    @property
    def correlation_matrix(self) -> NDArray[np.complex128]:
        """Full doubled matrix [[N, M], [M*, N^T + I]]."""
        n = self.n_mat.shape[0]
        return np.block([
            [self.n_mat, self.m_mat],
            [self.m_mat.conj(), self.n_mat.T + np.eye(n)],
        ])


@dataclass(frozen=True)
class DecayFit:
    """Least-squares comparison of exponential vs Gaussian spatial decay."""

    xi: float
    sigma2: float
    residual_exp: float
    residual_gauss: float
    better: str
    amp_exp: float = field(default=float("nan"))
    amp_gauss: float = field(default=float("nan"))


def _normalized(n_mat, m_mat):
    """N-bar and M-bar of one matrix pair or of stacks of them, with the
    mask of the sites whose occupation vanishes (their rows and columns are
    NaN)."""
    diag = np.real(np.diagonal(n_mat, axis1=-2, axis2=-1)).copy()
    dead = diag < ZERO_OCCUPATION_TOL
    diag[dead] = np.nan
    scale = np.sqrt(diag[..., :, None] * diag[..., None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        n_bar = n_mat / scale
        m_bar = m_mat / scale
    idx = np.arange(diag.shape[-1])
    n_bar[..., idx, idx] = np.where(np.isnan(diag), np.nan, 1.0)
    return n_bar, m_bar, dead


def normalized_forms(n_mat, m_mat):
    """Normalized matrices and the sites excluded for vanishing occupation."""
    n_bar, m_bar, dead = _normalized(n_mat, m_mat)
    return n_bar, m_bar, tuple(int(i) for i in np.flatnonzero(dead))


def _noise_factor(c: CouplingSet):
    """``(times_l, swap)``: ``times_l(x, 0)`` is ``x L`` and ``times_l(x, 1)``
    is ``x (C L)``, with ``D = diag(P, Gamma) = L L^T``, and ``swap`` is the
    particle-hole block swap ``C`` as an index map.

    ``L`` is real, one column per positive eigenvalue of ``D``: a selection
    and scaling of columns where ``D`` is diagonal (every chain but the
    effective model's, whose gain matrix couples neighbours), otherwise
    ``L = Q sqrt(Lambda)``.  It exists only for positive semidefinite ``D``:
    an eigenvalue below the rounding margin of ``-||D||`` raises
    ``ValueError`` rather than losing the negative part.
    """
    d = c.noise_matrix
    diagonal = not np.any(d - np.diag(np.diagonal(d)))
    vals, vecs = (np.diagonal(d), None) if diagonal else np.linalg.eigh(d)
    margin = _NOISE_PSD_MARGIN * d.shape[0] * np.finfo(float).eps * np.abs(vals).max()
    if vals.min() < -margin:
        raise ValueError(
            f"the noise matrix diag(P, Gamma) has the negative eigenvalue "
            f"{vals.min():.6g}; bath rates must be positive semidefinite"
        )
    keep = np.flatnonzero(vals > 0)
    scale = np.sqrt(vals[keep])
    swap = np.roll(np.arange(2 * c.n), c.n)
    if diagonal:
        cols = (keep, swap[keep])

        def times_l(x, swapped):
            return x[..., cols[swapped]] * scale
    else:
        l_mat = vecs[:, keep] * scale
        l_mats = (l_mat, l_mat[swap])

        def times_l(x, swapped):
            return x @ l_mats[swapped]

    return times_l, swap


def _first_rows(y, n):
    """``(N, M)``, the first ``n`` rows of ``Y Y^dagger`` (``Y`` may be stacked)."""
    rows = y[..., :n, :] @ y.conj().swapaxes(-1, -2)
    return rows[..., :n], rows[..., n:]


def _from_triple(t, c, modes):
    """Correlations from ``Y = V* S^{-1} (U^T L)`` over the singular ``modes``."""
    if t.s[0] <= 0:
        raise ResonanceError("correlations undefined at a resonance")
    y = (t.v[:, modes].conj() / t.s[modes]) @ _noise_factor(c)[0](t.u.T[modes], 0)
    n_mat, m_mat = _first_rows(y, c.n)
    n_bar, m_bar, excluded = normalized_forms(n_mat, m_mat)
    return FreqCorrelations(
        omega=t.omega, n_mat=n_mat, m_mat=m_mat, n_bar=n_bar, m_bar=m_bar,
        excluded_sites=excluded,
    )


def freq_correlations(t: SvdTriple, c: CouplingSet) -> FreqCorrelations:
    """Frequency-resolved normal and anomalous correlations with normalization.

    The first ``n`` rows of ``Y Y^dagger``, ``Y = V* S^{-1} (U^T L)`` (see
    the module docstring): the paper's ``Vp* Sigma Vp^T`` and ``Vp* Sigma
    Vh^T``.  Requires a dynamically stable chain and a positive
    semidefinite noise matrix; sites whose occupation density vanishes
    (decoupled, lossless) are flagged and excluded from the normalized
    matrices rather than divided by zero.
    """
    assert_stable(c, "freq_correlations")
    return _from_triple(t, c, slice(None))


def rank1_approximation(t: SvdTriple, c: CouplingSet) -> FreqCorrelations:
    """Correlations rebuilt from the smallest singular value alone.

    :func:`freq_correlations` with ``Y`` cut to singular mode 0.  Valid deep
    in a topological phase where one singular value is strongly suppressed;
    emits a warning when ``s0/s1`` exceeds 0.1.
    """
    fc = _from_triple(t, c, slice(0, 1))
    ratio = t.s[0] / t.s[1] if t.s[1] > 0 else np.inf
    if ratio > RANK1_VALIDITY_RATIO:
        warnings.warn(
            f"rank-1 approximation unreliable: s0/s1 = {ratio:.3g} > "
            f"{RANK1_VALIDITY_RATIO}",
            stacklevel=2,
        )
    return fc


# ---------------------------------------------------------------------------
# Equal-time integration


def _gram(z):
    """``z @ z^dagger`` for a C-ordered ``z``, exactly Hermitian.

    One BLAS ``zherk`` computes one triangle, reading the transpose of ``z``
    in place: the rank-k update gives ``conj(z z^dagger)``.
    """
    upper = scipy.linalg.blas.zherk(1.0, z.T, trans=2)
    return np.triu(upper).conj() + np.triu(upper, 1).T


def _integrand_factory(c: CouplingSet, h: DynamicalMatrix):
    """Return ``factors(omegas) -> (Y(w), Y(-w))``, both stacked over the
    nodes, with the integrand ``I(+-w) = Y Y^dagger``.

    ``Y(w) = G*(w) L`` with the noise factor of :func:`_noise_factor`, whose
    check of ``D`` runs once per chain, here.  ``G`` comes from one
    :func:`resolvent` call for all nodes, which takes the chain's route:
    the bidiagonal channel SVDs on symmetric chains, the LU solve
    elsewhere.  As ``G(-w) = -C G(w)* C``, the mirror half needs no second
    resolvent: ``Y(-w) = C G(w) (C L)``.
    """
    times_l, swap = _noise_factor(c)

    def factors(omegas):
        g = resolvent(h, omegas)
        return times_l(g, 0).conj(), times_l(g, 1)[:, swap]

    return factors


def _tail_correction(h, noise, omega_max):
    """Analytic value of the integral beyond ``+-omega_max``.

    From the resolvent series ``G = I/w + H/w^2 + ...`` the symmetric tail
    contributes ``D/(pi W)`` at leading order plus the third-order moment
    term; odd orders cancel by symmetry.
    """
    hc = h.conj()
    first = noise / (np.pi * omega_max)
    third = (hc @ hc @ noise + hc @ noise @ h.T + noise @ h.T @ h.T) / (
        3 * np.pi * omega_max**3
    )
    return first + third


def _tail_next_order(h, noise, omega_max):
    norm_h = np.linalg.norm(h, 2)
    return np.linalg.norm(noise, "fro") * norm_h**4 / (5 * np.pi * omega_max**5) * 3


def _choose_omega_max(c, h, factors, quad):
    omega_max = 4.0 * max(np.max(np.abs(np.linalg.eigvals(h))), 1.0)
    # 21 nonnegative probes give the integrand at 41 points of [-W, W]; the
    # trace of I = Y Y^dagger is ||Y||_F^2
    probe = np.linspace(0.0, omega_max, 21)
    peak = max(float(np.max(np.linalg.norm(half, axis=(1, 2)) ** 2))
               for half in factors(probe))
    while float(np.linalg.norm(factors(np.array([omega_max]))[0][0]) ** 2) > (
        quad.tail_tol * peak
    ):
        omega_max *= 2.0
    # the analytic tail handles what remains; make sure its own truncation
    # error is small relative to the leading tail term
    noise = c.noise_matrix
    while _tail_next_order(h, noise, omega_max) > 0.1 * np.linalg.norm(
        _tail_correction(h, noise, omega_max), "fro"
    ):
        omega_max *= 2.0
    return omega_max


def equal_time(c: CouplingSet, quad: QuadratureSpec = QuadratureSpec()) -> EqualTimeCorrelations:
    """Equal-time correlations by adaptive frequency integration.

    The integral of ``I(w) = G*(w) D G(w)^T`` over ``[-W, W]`` is folded
    onto ``[0, W]``: composite Gauss-Legendre panels there integrate
    ``I(w) + I(-w)``, both halves from the factors ``Y`` of one resolvent
    per panel (see :func:`_integrand_factory`).  The factors of all nodes of
    a panel, each scaled by the root of its weight, side by side form one
    matrix ``Z``, and the panel's integral is the one product ``Z
    Z^dagger``.  A panel is bisected wherever the two-half refinement
    changes its integral by more than its share of the tolerance; the
    analytic resolvent-series tail covers ``|w| > W``.  The report counts
    panels of ``[-W, W]``, two per folded panel.  The chain must be
    dynamically stable for the integral to exist, and its noise matrix
    positive semidefinite.
    """
    assert_stable(c, "equal_time")
    h = dynamical_matrix(c)
    factors = _integrand_factory(c, h)
    omega_max = _choose_omega_max(c, h.h, factors, quad)
    nodes, weights = leggauss(PANEL_NODES)
    root_weights = np.sqrt(np.concatenate([weights, weights]))[:, None]

    def panel_integral(lo, hi):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        direct, mirror = factors(mid + half * nodes)
        # the columns of Z run over (node, factor column), both halves
        z = np.empty((direct.shape[1], 2 * PANEL_NODES, direct.shape[2]), dtype=complex)
        z[:, :PANEL_NODES] = direct.transpose(1, 0, 2)
        z[:, PANEL_NODES:] = mirror.transpose(1, 0, 2)
        z *= root_weights
        return half / (2 * np.pi) * _gram(z.reshape(z.shape[0], -1))

    # first pass: moderate uniform panels give an initial tolerance scale
    n_seed = 8
    edges = np.linspace(0.0, omega_max, n_seed + 1)
    worklist = [(edges[i], edges[i + 1], panel_integral(edges[i], edges[i + 1]))
                for i in range(n_seed)]
    scale = max(float(np.linalg.norm(sum(item[2] for item in worklist), "fro")), 1e-300)

    total = None
    n_accepted = 0
    est_error = 0.0
    while worklist:
        lo, hi, coarse = worklist.pop()
        mid = 0.5 * (lo + hi)
        left = panel_integral(lo, mid)
        right = panel_integral(mid, hi)
        fine = left + right
        diff = np.linalg.norm(coarse - fine, "fro")
        # Accept on a width-proportional share of the running global budget
        # (a folded panel takes the shares of its two mirrored halves) or on
        # convergence relative to the panel's own magnitude; sharply peaked
        # integrands dwarf the seed estimate, so the global scale is
        # refreshed as panels land.
        budget = max(
            quad.rel_tol * scale * (hi - lo) / omega_max,
            quad.rel_tol * np.linalg.norm(fine, "fro"),
        )
        if diff <= budget:
            total = fine if total is None else total + fine
            n_accepted += 2
            est_error += diff
            scale = max(scale, float(np.linalg.norm(total, "fro")))
        elif 2 * (n_accepted + len(worklist) + 2) >= MAX_PANELS:
            # each folded panel stands for two panels of [-W, W]
            raise QuadratureError(
                f"equal-time quadrature did not reach rel_tol={quad.rel_tol:g} within "
                f"{MAX_PANELS} panels: the panels of width {hi - lo:.3g} at "
                f"omega=+-{mid:.6g} still change by {diff:.3e} against a budget of "
                f"{budget:.3e}"
            )
        else:
            worklist.append((lo, mid, left))
            worklist.append((mid, hi, right))
    noise = c.noise_matrix
    total = total + _tail_correction(h.h, noise, omega_max)
    est_error += _tail_next_order(h.h, noise, omega_max)

    n = c.n
    n_mat = total[:n, :n]
    m_mat = total[:n, n:]
    n_bar, m_bar, excluded = normalized_forms(n_mat, m_mat)
    report = QuadratureReport(
        omega_max=omega_max, panels=2 * n_accepted, est_error=float(est_error)
    )
    return EqualTimeCorrelations(
        n_mat=n_mat, m_mat=m_mat, n_bar=n_bar, m_bar=m_bar,
        quadrature_report=report, excluded_sites=excluded,
    )


def lro_curve(c: CouplingSet, omegas) -> tuple[NDArray, NDArray, NDArray]:
    """``(omegas, lambda_n, lambda_m)``: the frequency-resolved long-range
    order of N-bar and M-bar over a grid (see :func:`lro_parameter`).

    ``N(w)`` and ``M(w)`` are the first ``n`` rows of ``I(w) = Y Y^dagger``,
    as in :func:`freq_correlations`, with ``Y`` from the batched resolvents
    of :func:`_integrand_factory` instead of an SVD.  The chain is
    gated once.  The resolvents come in batches of ``PANEL_NODES``
    frequencies, so the peak memory is that of one quadrature panel.  A
    frequency whose resolvent raises :class:`ResonanceError` is dropped from
    the returned grid; the other frequencies of its batch are redone one by
    one.
    """
    assert_stable(c, "lro_curve")
    factors = _integrand_factory(c, dynamical_matrix(c))
    n = c.n

    def lambdas(ws):
        n_bar, m_bar, _ = _normalized(*_first_rows(factors(ws)[0], n))
        return [(w, lro_parameter(nb), lro_parameter(mb))
                for w, nb, mb in zip(ws, n_bar, m_bar)]

    omegas = np.asarray(omegas, dtype=float)
    out = []
    for start in range(0, omegas.size, PANEL_NODES):
        batch = omegas[start:start + PANEL_NODES]
        try:
            out += lambdas(batch)
        except ResonanceError:
            for w in batch:
                try:
                    out += lambdas(np.array([w]))
                except ResonanceError:
                    continue
    table = np.array(out, dtype=float).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2]


# ---------------------------------------------------------------------------
# Scalar diagnostics


def lro_parameter(corr: NDArray) -> float:
    """Mean absolute entry of a normalized correlation matrix."""
    return float(np.nanmean(np.abs(corr)))


def lro_curvature(curve: NDArray, dx: float = 1.0) -> NDArray[np.float64]:
    """Second derivative of a uniformly sampled curve.

    Central differences in the interior, second-order one-sided stencils at
    the endpoints; exact for quadratics.
    """
    y = np.asarray(curve, dtype=float)
    if y.size < 5:
        raise ValueError("need at least 5 samples for curvature")
    out = np.empty_like(y)
    out[1:-1] = (y[2:] - 2 * y[1:-1] + y[:-2]) / dx**2
    out[0] = (2 * y[0] - 5 * y[1] + 4 * y[2] - y[3]) / dx**2
    out[-1] = (2 * y[-1] - 5 * y[-2] + 4 * y[-3] - y[-4]) / dx**2
    return out


def classify_decay(
    profile: NDArray, center: int, d_min: int = 2, d_max: int | None = None
) -> DecayFit:
    """Fit log-profile against exponential and Gaussian decay laws.

    ``profile`` holds positive values indexed by site; distances are taken
    from ``center``.  Both models are fit by linear least squares on the
    log: ``a - d/xi`` and ``a - d^2/(2 sigma^2)``; the model with the
    smaller residual sum wins.  Distances below ``d_min`` and above
    ``d_max`` (default half the profile length) are excluded to avoid
    boundary contamination.
    """
    p = np.asarray(profile, dtype=float)
    if d_max is None:
        d_max = max(p.size // 2, d_min + 2)
    ds, vals = [], []
    for idx in range(p.size):
        d = abs(idx - center)
        if d_min <= d <= d_max and p[idx] > 0:
            ds.append(float(d))
            vals.append(p[idx])
    if len(ds) < 4:
        raise ValueError(f"only {len(ds)} usable points in [{d_min}, {d_max}]")
    d_arr = np.array(ds)
    logv = np.log(np.array(vals))

    def linfit(x):
        a = np.vstack([np.ones_like(x), x]).T
        coef, *_ = np.linalg.lstsq(a, logv, rcond=None)
        residual = float(np.sum((a @ coef - logv) ** 2))
        return coef, residual

    (a_e, slope_e), res_e = linfit(d_arr)
    (a_g, slope_g), res_g = linfit(d_arr**2)
    xi = -1.0 / slope_e if slope_e < 0 else float("inf")
    sigma2 = -0.5 / slope_g if slope_g < 0 else float("inf")
    return DecayFit(
        xi=float(xi),
        sigma2=float(sigma2),
        residual_exp=res_e,
        residual_gauss=res_g,
        better="exponential" if res_e <= res_g else "gaussian",
        amp_exp=float(np.exp(a_e)),
        amp_gauss=float(np.exp(a_g)),
    )
