"""Closed-form edge-mode solutions for the symmetric chain (units of g = 1).

At the high-symmetry point (equal hopping and pairings, zero detuning,
quarter-flux phase) the zero-mode equations of the semi-infinite chain
reduce to single-step recursions whose solutions are exponentials:

* right singular vector  ``V_l = A exp((i k + lambda) l)`` (right edge),
* left singular vector   ``U_l = exp(i phi_u) A exp(i k l) exp(lambda (n-1-l))``,

with inverse localization length ``lambda(omega)``, generalized momentum
``k(omega)``, relative phase ``phi_u = pi/2 - k``, and normalization ``A``.
These vectors, and the smallest singular value obtained by hybridizing the
two edge solutions, carry ``O(exp(-2 lambda n))`` relative error from the
semi-infinite ansatz.

The smallest singular value itself is also available exactly at finite
``n``: the ``eta = +1`` channel is a bidiagonal Toeplitz matrix ``B`` with
diagonal ``a = 2 exp(-lambda)`` and subdiagonal ``b = 2``, and ``B^T B`` is
tridiagonal Toeplitz with one perturbed corner.  Its eigenvalues are the
roots of a scalar secular equation (Yueh, Appl. Math. E-Notes 5, 66
(2005); Kulkarni, Schmidt & Tsui, Linear Algebra Appl. 297, 63 (1999)),
solved here by safeguarded Newton iteration, elementwise over arrays
(:func:`secular_angles`, :func:`edge_exponent`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class PhaseRegion(enum.Enum):
    """Edge-localization regions of the (gamma, omega) plane."""

    BOTH_EDGES = "both_edges"
    SINGLE_EDGE_TOPOLOGICAL = "single_edge_topological"
    NONE = "none"


def lambda_plus(omega: float, gamma: float) -> float:
    """Inverse localization length of the right-localized channel."""
    return -0.5 * math.log(((gamma - 2.0) ** 2 + 4.0 * omega**2) / 16.0)


def k_plus(omega: float, gamma: float) -> float:
    return math.atan2(2.0 * omega, gamma - 2.0)


def phase_region(omega: float, gamma: float) -> PhaseRegion:
    """Classify which edge solutions are normalizable.

    The two ellipse conditions ``((gamma +- 2)^2 + 4 omega^2)/16 <= 1``
    decide normalizability of the left/right channel respectively.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    right = ((gamma - 2.0) ** 2 + 4.0 * omega**2) / 16.0 < 1.0
    left = ((gamma + 2.0) ** 2 + 4.0 * omega**2) / 16.0 < 1.0
    if right and left:
        return PhaseRegion.BOTH_EDGES
    if right:
        return PhaseRegion.SINGLE_EDGE_TOPOLOGICAL
    return PhaseRegion.NONE


@dataclass(frozen=True)
class EdgeSolution:
    """Closed-form edge singular vectors at one (omega, gamma, n)."""

    lambda_plus: float
    k_plus: float
    amplitude_a: float
    phi_u: float
    n: int
    omega: float
    gamma: float

    def _log_amplitude(self) -> float:
        # log A, finite even where A itself underflows
        lam = self.lambda_plus
        return 0.5 * (math.log(0.5 * math.expm1(2 * lam)) - 2 * lam * self.n
                      - _log_one_minus_exp(2 * lam * self.n))

    def v_vector(self) -> np.ndarray:
        """Doubled right singular vector (hole block = +i particle block)."""
        sites = np.arange(self.n)
        top = np.exp(self._log_amplitude()
                     + (1j * self.k_plus + self.lambda_plus) * sites)
        return np.concatenate([top, 1j * top])

    def u_vector(self) -> np.ndarray:
        """Doubled left singular vector, localized at the opposite edge."""
        sites = np.arange(self.n)
        top = (
            np.exp(1j * self.phi_u)
            * np.exp(1j * self.k_plus * sites)
            * np.exp(self._log_amplitude() + self.lambda_plus * (self.n - 1 - sites))
        )
        return np.concatenate([top, 1j * top])


def _require_single_edge(omega: float, gamma: float) -> None:
    if phase_region(omega, gamma) is not PhaseRegion.SINGLE_EDGE_TOPOLOGICAL:
        raise ValueError(
            f"(omega={omega}, gamma={gamma}) is outside the single-edge region"
        )


def edge_solution(omega: float, gamma: float, n: int) -> EdgeSolution:
    """Closed-form quantities of the right-edge zero mode.

    Only defined inside the single-edge topological ellipse; outside it the
    exponential ansatz is not normalizable and a ``ValueError`` is raised.
    """
    _require_single_edge(omega, gamma)
    lam = lambda_plus(omega, gamma)
    k = k_plus(omega, gamma)
    # expm1(2 lam) / expm1(2 lam n), in a form that underflows instead of
    # overflowing at large lam n
    amp = math.sqrt(math.expm1(2 * lam) * _exp_ratio(2 * lam * n) / 2.0)
    return EdgeSolution(
        lambda_plus=lam,
        k_plus=k,
        amplitude_a=amp,
        phi_u=math.pi / 2 - k,
        n=n,
        omega=omega,
        gamma=gamma,
    )


_NEWTON_TOL = 1e-9


def _increasing_root(fun, lo, hi, x, active):
    """Roots of increasing functions in ``[lo, hi]``, elementwise.

    ``fun(x)`` returns the values and slopes.  Each active element takes
    Newton steps from ``x``; a step that leaves the bracket is replaced by
    bisection, and one that lands on a bracket end is kept.  An element
    stops after a Newton step shorter than ``_NEWTON_TOL`` of its position
    (Newton's quadratic convergence leaves an error below rounding once
    that step is taken), when ``f`` is zero, or when a Newton step no
    longer lowers ``|f|`` (its rounding noise).  Each element's iterates
    depend on nothing else in the batch.  Inactive elements return ``x``.
    """
    shape = active.shape
    # at least 1-d, so that arithmetic keeps returning arrays
    active = np.atleast_1d(active)
    lo, hi, x = (np.array(np.broadcast_to(y, active.shape), dtype=float) for y in (lo, hi, x))
    size = np.full(x.shape, np.inf)
    newton = np.zeros(x.shape, dtype=bool)
    for _ in range(200):
        if not active.any():
            break
        f, df = fun(x)
        last, size = size, np.abs(f)
        active &= (size < last) | ~newton
        below = f < 0
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        new = x - np.divide(f, df, out=np.full(x.shape, np.inf), where=df != 0)
        newton = (lo <= new) & (new <= hi)
        new = np.where(newton, new, 0.5 * (lo + hi))
        step = np.abs(new - x)
        x = np.where(active, new, x)
        active &= (step > _NEWTON_TOL * x) | ~newton
    return x.reshape(shape)


def secular_angles(ratio, j, n: int):
    """Angles ``theta_j`` of the in-band singular values of an ``n x n``
    bidiagonal Toeplitz matrix with diagonal ``a`` and off-diagonal ``b``,
    ``ratio = a/b``; ``ratio`` and the mode ``j`` (1..n) broadcast.

    The singular values are ``sigma_j^2 = (a - b)^2 + 4ab sin^2(theta_j/2)``,
    where ``theta_j`` solves ``ratio sin((n+1) theta) = sin(n theta)``; the
    ``j``-th root is the one in ``[(j-1) pi/n, j pi/(n+1)]``.  It is solved
    in the equivalent form ``(n+1) theta - atan2(sin theta, cos theta -
    ratio) = (j - 1) pi``, whose left side rises with slope near ``n + 1``
    and, for mode 1, subtracts no multiple of pi from a small angle.  Mode
    1 has no root in its bracket when ``ratio <= n/(n+1)`` (its value is
    then :func:`edge_exponent`'s); those elements return 0.
    """
    ratio, j = np.broadcast_arrays(np.asarray(ratio, dtype=float), np.asarray(j))
    lack = 1.0 - ratio
    offset = (j - 1) * np.pi

    def fun(x):
        half = np.sin(0.5 * x)
        fall = 2.0 * half * half  # 1 - cos(x)
        cross = lack - fall  # cos(x) - ratio, without cancellation
        sin_x = np.sin(x)
        square = sin_x * sin_x
        slope = (cross * (1.0 - fall) + square) / (cross * cross + square)
        return (n + 1) * x - np.arctan2(sin_x, cross) - offset, (n + 1) - slope

    hi = j * np.pi / (n + 1)
    active = (j > 1) | (ratio > n / (n + 1))
    # one fixed-point step down from the top of the bracket
    start = (offset + np.arctan2(np.sin(hi), lack - 2.0 * np.sin(0.5 * hi) ** 2)) / (n + 1)
    # Just inside the band, mode 1's left side is theta ((n+1) - 1/d) +
    # theta^3 (1 - d)(2 - d)/(6 d^3) + ... with d = 1 - ratio, and Newton from
    # the top would only shrink theta by a third per step; where that cubic's
    # root is below d, where the expansion holds, start there instead
    cubic = lack * np.sqrt(np.maximum(6.0 * (1.0 - (n + 1) * lack), 0.0)
                           / ((1.0 - lack) * (2.0 - lack)))
    start = np.where((j == 1) & (0 < cubic) & (cubic < lack), cubic, start)
    return _increasing_root(fun, offset / n, hi, np.where(active, start, 0.0), active)


def edge_exponent(lam, n: int):
    """The ``mu > 0`` with ``exp(-lam) sinh((n+1) mu) = sinh(n mu)``,
    elementwise in ``lam``.

    For a bidiagonal Toeplitz matrix with diagonal ``a`` and off-diagonal
    ``b``, ``lam = log(b/a)``, the smallest singular value lies below the
    band when ``lam > log(1 + 1/n)``; it is ``b sinh(mu)/sinh((n+1) mu)``
    and the root lies in ``(0, lam]``.  Elements with ``lam <= log(1 +
    1/n)`` return 0.
    """
    lam = np.asarray(lam, dtype=float)

    def fun(mu):
        # log(sinh((n+1) mu)/sinh(n mu)) - lam, increasing in mu; the ratio's
        # excess over exp(mu) is formed without cancellation, so near the
        # band (small mu) the error stays of the order of eps * lam
        short, step = np.expm1(-2 * n * mu), np.expm1(-2 * mu)
        excess = np.exp(-2 * n * mu) * step / short
        rate = -2 * n + 2 * (1 + step) / -step + 2 * n * (1 + short) / short
        return mu - lam + np.log1p(excess), 1.0 + excess / (1.0 + excess) * rate

    beyond = lam - math.log1p(1.0 / n)
    active = beyond > 0
    # Near the band (n mu < 1) the left side is about mu^2 (2n + 1)/6 -
    # beyond, and Newton from mu = lam would only halve mu per step; that
    # parabola's root starts closer.  Inactive elements idle at mu = 1, clear
    # of the pole at 0, as does the bracket's lower end at the smallest
    # normal double.
    parabola = np.sqrt(6.0 * np.maximum(beyond, 0.0) / (2 * n + 1))
    start = np.where(n * parabola < 1.0, parabola, lam)
    root = _increasing_root(fun, np.finfo(float).tiny, np.where(active, lam, 1.0),
                            np.where(active, start, 1.0), active.copy())
    return np.where(active, root, 0.0)


def _log_one_minus_exp(x: float) -> float:
    """``log(1 - exp(-x))`` for ``x > 0``, accurate for small and large x."""
    return math.log(-math.expm1(-x))


def _exp_ratio(x: float) -> float:
    """``1 / expm1(x) = exp(-x) / (1 - exp(-x))`` without overflow, x > 0."""
    return math.exp(-x) / -math.expm1(-x)


def zero_singular_value(omega: float, gamma: float, n: int) -> tuple[float, float]:
    """Smallest singular value of ``omega*I - H`` for the symmetric chain.

    Returns ``(finite_n, asymptotic)``.  ``finite_n`` is exact at finite
    ``n`` (to the double-precision root of the secular equation): the
    ``eta = +1`` channel, with diagonal ``a`` and subdiagonal ``b = 2``,
    ``a/b = exp(-lambda)``, has the lowest singular value

    * ``b sinh(mu) / sinh((n+1) mu)``, where ``mu > 0`` solves
      ``exp(-lambda) sinh((n+1) mu) = sinh(n mu)``, when
      ``exp(-lambda) < n/(n+1)`` (below the band of ``B^T B``);
    * ``sqrt((a - b)^2 + 4ab sin^2(theta/2))``, where ``theta`` in
      ``(0, pi/(n+1)]`` solves ``exp(-lambda) sin((n+1) theta) =
      sin(n theta)``, otherwise (inside the band).

    The roots come from :func:`edge_exponent` and :func:`secular_angles`,
    which the channel SVD of :mod:`topocorr.greensvd` also solves.  Both
    forms meet at ``b/(n+1)``, and the ``eta = -1`` channel's values
    lie above them throughout the single-edge region.  ``asymptotic`` is
    the thermodynamic limit ``2 (1 - exp(-2 lambda)) exp(-lambda n)``.
    """
    _require_single_edge(omega, gamma)
    lam = lambda_plus(omega, gamma)
    b = 2.0
    if lam > math.log1p(1.0 / n):
        mu = float(edge_exponent(lam, n))
        finite = b * math.exp(-n * mu) * math.expm1(-2 * mu) / math.expm1(
            -2 * (n + 1) * mu
        )
    else:
        # (a - b)^2 + 4ab sin^2(theta/2) over b^2, with 1 - a/b = -expm1(-lambda)
        ratio = math.exp(-lam)
        half = math.sin(0.5 * float(secular_angles(ratio, 1, n)))
        finite = b * math.sqrt(math.expm1(-lam) ** 2 + 4.0 * ratio * half * half)
    asymptotic = 2.0 * (1.0 - math.exp(-2 * lam)) * math.exp(-lam * n)
    return finite, asymptotic


def hybridized_zero_singular_value(omega: float, gamma: float, n: int) -> float:
    """Smallest singular value from edge-mode hybridization.

    ``2 exp(lambda (n-2)) (exp(2 lambda) - 1) / (exp(2 lambda n) - 1)``,
    the value obtained by coupling the two semi-infinite edge solutions.
    Its relative error against the exact value of
    :func:`zero_singular_value` shrinks like ``exp(-2 lambda n)``, so it is
    quantitatively accurate only where the edge mode is deeply localized.
    It is evaluated as ``2 (1 - exp(-2 lambda)) exp(-lambda n) / (1 -
    exp(-2 lambda n))``, which underflows to zero rather than overflowing
    at large ``lambda n``.
    """
    _require_single_edge(omega, gamma)
    lam = lambda_plus(omega, gamma)
    return 2.0 * -math.expm1(-2 * lam) * math.exp(-lam * n) / -math.expm1(-2 * lam * n)


def gaussian_prediction(l: int, j: int) -> float:
    """Universal normalized equal-time correlation in the topological phase.

    ``sqrt(2 sqrt(l j)/(l + j)) * exp(-(l - j)^2 / (2 (l + j)))`` for site
    indices counted from the edge opposite the localized right vector.  The
    anomalous companion equals ``1j`` times this value.
    """
    if l < 1 or j < 1:
        raise ValueError("site indices must be >= 1")
    return math.sqrt(2.0 * math.sqrt(l * j) / (l + j)) * math.exp(
        -((l - j) ** 2) / (2.0 * (l + j))
    )


def linearized_dispersion(omega: float, gamma: float) -> tuple[float, float]:
    """Small-frequency expansions of the momentum and localization length.

    Returns ``(k_lin, lambda_quad)`` with ``k_lin = 2 omega/(gamma-2)`` and
    ``lambda_quad = log(4/(gamma-2)) - 2 omega^2/(gamma-2)^2``; valid for
    ``|omega| << gamma - 2``.
    """
    if gamma <= 2.0:
        raise ValueError("expansion requires gamma > 2")
    k_lin = 2.0 * omega / (gamma - 2.0)
    lam0 = math.log(4.0 / (gamma - 2.0))
    return k_lin, lam0 - 2.0 * omega**2 / (gamma - 2.0) ** 2


def characteristic_beta_roots(
    omega: float, gamma: float, j: float, g_s: float, g_c: float, channel: int = +1
):
    """Roots of the general decay-rate characteristic polynomial.

    Channel ``eta = +-1`` labels the symmetry sector whose hole block is
    ``+1j*eta`` times the particle block; its zero-mode recursion has the
    characteristic equation ``i (J - eta g_c) beta^2 + (omega + i gamma/2 -
    i eta g_s) beta - i (J + eta g_c) = 0``.  Returns the two roots, with
    ``inf`` standing in for the escaped root when the leading coefficient
    vanishes (e.g. ``J = g_c`` in the ``+`` channel, where the recursion
    degenerates to a single exponential).  A root of modulus below (above)
    one decays away from the left (right) edge.
    """
    if channel not in (+1, -1):
        raise ValueError("channel must be +1 or -1")
    a = 1j * (j - channel * g_c)
    b = omega + 0.5j * gamma - 1j * channel * g_s
    c = -1j * (j + channel * g_c)
    if abs(a) < 1e-300:
        if abs(b) < 1e-300:
            raise ValueError("degenerate recursion: both leading coefficients vanish")
        return complex(-c / b), complex(np.inf)
    disc = np.sqrt(np.complex128(b * b - 4 * a * c))
    return complex((-b + disc) / (2 * a)), complex((-b - disc) / (2 * a))
