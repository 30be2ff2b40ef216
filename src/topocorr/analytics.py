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
tridiagonal Toeplitz with one perturbed corner.  Its lowest eigenvalue is
the root of a scalar secular equation (Yueh, Appl. Math. E-Notes 5, 66
(2005); Kulkarni, Schmidt & Tsui, Linear Algebra Appl. 297, 63 (1999)),
solved here by safeguarded Newton iteration.
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


def _monotone_root(f, df, x_lo: float, x_hi: float) -> float:
    """Root of a monotone ``f`` that changes sign on ``(x_lo, x_hi]``.

    Newton steps start at ``x_hi``.  For the secular functions below,
    ``f`` is convex or concave such that the iterates approach the root
    from ``x_hi``'s side and ``|f|`` falls at every step; iteration stops
    when it no longer falls, i.e. at the rounding noise of ``f``.  A step
    that leaves the bracket is replaced by bisection.
    """
    x = x_hi
    fx = f(x)
    positive_hi = fx > 0.0
    for _ in range(200):
        if fx == 0.0:
            return x
        x_new = x - fx / df(x)
        if x_new == x:
            return x
        newton = x_lo < x_new < x_hi
        if not newton:
            x_new = 0.5 * (x_lo + x_hi)
        f_new = f(x_new)
        if newton and abs(f_new) >= abs(fx):
            return x
        if (f_new > 0.0) == positive_hi:
            x_hi = x_new
        else:
            x_lo = x_new
        x, fx = x_new, f_new
    return x


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
    * ``b sin(theta) / sin((n+1) theta)``, where ``theta`` in
      ``(0, pi/(2n+1)]`` solves ``exp(-lambda) sin((n+1) theta) =
      sin(n theta)``, otherwise (inside the band).

    Both forms meet at ``b/(n+1)``, and the ``eta = -1`` channel's values
    lie above them throughout the single-edge region.  ``asymptotic`` is
    the thermodynamic limit ``2 (1 - exp(-2 lambda)) exp(-lambda n)``.
    """
    _require_single_edge(omega, gamma)
    lam = lambda_plus(omega, gamma)
    b = 2.0
    lead = lam - math.log1p(1.0 / n)  # the secular function at mu -> 0
    if lead > 0.0:
        def secular(mu):
            # log(sinh(n mu) / sinh((n+1) mu)) + lambda, decreasing in mu
            return (lam - mu + _log_one_minus_exp(2 * n * mu)
                    - _log_one_minus_exp(2 * (n + 1) * mu))

        def slope(mu):
            return (-1.0 + 2 * n * _exp_ratio(2 * n * mu)
                    - 2 * (n + 1) * _exp_ratio(2 * (n + 1) * mu))

        # secular(lam) <= 0, so the root lies in (0, lam]
        mu = _monotone_root(secular, slope, 0.0, lam)
        finite = b * math.exp(-n * mu) * math.expm1(-2 * mu) / math.expm1(
            -2 * (n + 1) * mu
        )
    elif lead < 0.0:
        def secular(theta):
            # log(sin(n theta) / sin((n+1) theta)) + lambda, increasing
            return (math.log(math.sin(n * theta))
                    - math.log(math.sin((n + 1) * theta)) + lam)

        def slope(theta):
            return n / math.tan(n * theta) - (n + 1) / math.tan((n + 1) * theta)

        # secular(pi/(2n+1)) = lambda > 0, so the root lies below it
        theta = _monotone_root(secular, slope, 0.0, math.pi / (2 * n + 1))
        finite = b * math.sin(theta) / math.sin((n + 1) * theta)
    else:
        finite = b / (n + 1)
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
