"""Disorder ensembles, critical-disorder extraction, and Born renormalization.

Ensembles draw Gaussian on-site energy offsets with per-realization seeds
derived from a base seed through a splitmix64 counter scheme, so sweeps are
bit-reproducible regardless of execution order or thread count.  Unstable
realizations are excluded and counted, never silently averaged.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .models import (
    CouplingSet,
    ModelIParams,
    apply_disorder,
    assert_stable,
    dynamical_matrix,
    gaussian_disorder,
)
from .greensvd import r_parameter, svd_at
from .correlations import freq_correlations, lro_parameter

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def realization_seed(base_seed: int, w_index: int, r_index: int) -> int:
    """Derive the per-realization stream key from the sweep coordinates."""
    return splitmix64((base_seed & _MASK64) ^ splitmix64((w_index << 32) | r_index))


@dataclass(frozen=True)
class DisorderSweepResult:
    """Ensemble means of one observable over a disorder-strength grid."""

    w_grid: NDArray[np.float64]
    means: NDArray[np.float64]
    stderrs: NDArray[np.float64]
    n_r: int
    seed: int
    observable_name: str
    n_unstable: NDArray[np.int64]


@dataclass(frozen=True)
class EffectiveParams:
    """Disorder-renormalized chain parameters from the Born self-energy."""

    delta_eff: float
    gamma_eff: float
    g_s_eff: complex


_OBSERVABLES = ("lambda_n", "r")


def _evaluate_observable(coupling: CouplingSet, observable: str, omega: float):
    if not coupling.stability.stable:
        return None
    t = svd_at(dynamical_matrix(coupling), omega)
    if observable == "r":
        return r_parameter(t)
    return lro_parameter(freq_correlations(t, coupling).n_bar)


def disorder_sweep(
    base: CouplingSet,
    w_grid,
    n_r: int,
    seed: int,
    observable: str = "lambda_n",
    omega: float = 0.0,
    threads: int = 1,
) -> DisorderSweepResult:
    """Ensemble-averaged observable over a grid of disorder strengths.

    Parameters
    ----------
    base:
        Clean chain; must be stable at zero disorder.
    w_grid:
        Disorder standard deviations to sweep.
    n_r:
        Realizations per grid point.
    seed:
        Base seed; realization ``r`` at grid index ``i`` uses the stream
        keyed by ``realization_seed(seed, i, r)``.
    observable:
        ``"lambda_n"`` (mean absolute normalized correlation at ``omega``)
        or ``"r"`` (singular-value spacing ratio at ``omega``).
    threads:
        Worker threads, at least 1, of the one pool that runs the whole
        sweep at any count; results are identical for any thread count.

    An unstable base raises :class:`UnstableSystemError`.  Unstable
    realizations are skipped and counted in ``n_unstable``; the
    ``disorder`` CLI command prints a warning when more than 10% drop out at
    some strength.  The base's imaginary gauge (``CouplingSet.gauge``) is
    searched before the workers start: when it is certified, every draw
    inherits a stable verdict and skips its own eigensolve.
    """
    if observable not in _OBSERVABLES:
        raise ValueError(f"observable must be one of {_OBSERVABLES}")
    if n_r < 1:
        raise ValueError("n_r must be at least 1")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    assert_stable(base, "disorder_sweep")
    base.gauge  # searched once, before the workers read it
    w_grid = np.asarray(w_grid, dtype=float)

    def one(job):
        i_w, r = job
        real = gaussian_disorder(base.n, w_grid[i_w], realization_seed(seed, i_w, r))
        return _evaluate_observable(apply_disorder(base, real), observable, omega)

    jobs = [(i_w, r) for i_w in range(w_grid.size) for r in range(n_r)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        vals = list(pool.map(one, jobs))
    means = np.empty(w_grid.size)
    stderrs = np.empty(w_grid.size)
    n_unstable = np.zeros(w_grid.size, dtype=np.int64)
    for i_w in range(w_grid.size):
        chunk = vals[i_w * n_r:(i_w + 1) * n_r]
        good = np.array([v for v in chunk if v is not None], dtype=float)
        n_unstable[i_w] = n_r - good.size
        if good.size == 0:
            means[i_w] = np.nan
            stderrs[i_w] = np.nan
            continue
        means[i_w] = good.mean()
        stderrs[i_w] = good.std(ddof=1) / np.sqrt(good.size) if good.size > 1 else 0.0
    return DisorderSweepResult(
        w_grid=w_grid, means=means, stderrs=stderrs, n_r=n_r, seed=seed,
        observable_name=observable, n_unstable=n_unstable,
    )


_SMOOTH_WINDOW = 3


def critical_disorder(sweep: DisorderSweepResult) -> float:
    """Disorder strength of steepest descent of the sweep observable.

    Moving-average smoothing over ``_SMOOTH_WINDOW`` grid points,
    central-difference slope, then parabolic refinement of the grid maximum
    of ``|slope|``.  A strength with no stable realization (a NaN mean)
    leaves the slope undefined around it and raises ``ValueError``.
    """
    w, y = sweep.w_grid, sweep.means
    if w.size < 7:
        raise ValueError("need at least 7 grid points to locate the transition")
    if np.isnan(y).any():
        missing = ", ".join(f"{x:g}" for x in w[np.isnan(y)])
        raise ValueError(f"no stable realization at W = {missing}")
    y = np.convolve(y, np.ones(_SMOOTH_WINDOW) / _SMOOTH_WINDOW, mode="valid")
    half = (_SMOOTH_WINDOW - 1) // 2
    w = w[half: half + y.size]
    noise_floor = max(3.0 * float(np.nanmax(sweep.stderrs)), 1e-12)
    if float(np.nanmax(y) - np.nanmin(y)) < noise_floor:
        raise ValueError("sweep is flat; no slope maximum above the noise floor")
    slope = np.abs(np.gradient(y, w))
    k = int(np.argmax(slope))
    if 0 < k < slope.size - 1:
        denom = slope[k - 1] - 2 * slope[k] + slope[k + 1]
        if denom < 0:
            shift = 0.5 * (slope[k - 1] - slope[k + 1]) / denom
            return float(w[k] + np.clip(shift, -1, 1) * (w[k] - w[k - 1]))
    return float(w[k])


def born_self_energy(g: NDArray[np.complex128], w: float) -> NDArray[np.complex128]:
    """Leading disorder-averaged self-energy from the clean resolvent.

    ``g`` is the ``2n x 2n`` resolvent at one frequency, ``resolvent(h,
    [omega])[0]``.  On-site disorder enters the particle block with ``+1``
    and the hole block with ``-1``, so the self-energy is ``W^2`` times each
    block's diagonal of ``g``, negated on the off-diagonal blocks.
    """
    n = g.shape[0] // 2
    return w**2 * g * np.kron([[1, -1], [-1, 1]], np.eye(n))


_BULK_HOMOGENEITY_TOL = 1e-2


def effective_parameters(
    g: NDArray[np.complex128], base: ModelIParams, w: float
) -> EffectiveParams:
    """Born-renormalized chain parameters for weak on-site disorder.

    ``g`` is the clean ``2n x 2n`` resolvent of ``base`` at one frequency,
    ``resolvent(h, [omega])[0]``; any other shape raises ``ValueError``.
    Uses its diagonal at a bulk site (the chain midpoint):
    ``delta_eff = delta + W^2 Re(G_ii)``, ``gamma_eff = gamma - 2 W^2
    Im(G_ii)``, ``g_s_eff = g_s - W^2 Gbar_ii``, with ``G`` the particle
    block and ``Gbar`` the particle-hole block.  Only meaningful in the
    symmetric regime where the resolvent diagonal is spatially homogeneous;
    homogeneity over the middle third of the chain is verified first.
    """
    n = base.n_sites
    if g.shape != (2 * n, 2 * n):
        raise ValueError(f"resolvent of shape {g.shape} for a {n}-site chain")
    if not base.symmetric_regime:
        raise ValueError("effective parameters are derived for the symmetric regime")
    i0 = n // 2
    bulk = np.diag(g)[n // 3: 2 * n // 3]
    spread = float(np.max(np.abs(bulk - bulk.mean())))
    if spread > _BULK_HOMOGENEITY_TOL * max(abs(bulk.mean()), 1e-30):
        raise ValueError(
            f"resolvent diagonal is not homogeneous in the bulk (spread {spread:.2e})"
        )
    g_ii = g[i0, i0]
    gbar_ii = g[i0, i0 + n]
    return EffectiveParams(
        delta_eff=float(base.delta + w**2 * g_ii.real),
        gamma_eff=float(base.gamma - 2 * w**2 * g_ii.imag),
        g_s_eff=complex(base.g_s - w**2 * gbar_ii),
    )
