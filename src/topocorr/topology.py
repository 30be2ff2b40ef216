"""Winding numbers, gap-closing detection, and the winding-number array.

The spectral winding number at a frequency is the integer phase winding of
``det(w*I - H(k))`` as ``k`` traverses the Brillouin zone.  Collecting its
value on every frequency interval between singular-gap closings yields the
winding-number array, the steady-state invariant: two chains are
topologically equivalent iff their arrays have equal length and equal
entries.

With unit cell ``M`` and largest cell displacement ``R``,
``det(w*I - H(k))`` is a Laurent polynomial of degree ``D = 2*M*R`` in
``z = exp(1j*k)`` whose coefficients are polynomials of degree ``2M`` in
``w``.  Its coefficient table is computed once per chain
(``CouplingSet.bloch_det``, from ``2D+1`` Bloch matrices).

The array has one route.  :func:`winding_array` reads every grid frequency
and every bisection midpoint by :func:`_zero_count`, the argument
principle: the zeros of ``z**D * det`` inside the unit circle, less ``D``.
It needs no k-grid, so it also counts a zero that lies closer to
``|z| = 1`` than a grid resolves.  A zero on the circle, to rounding, means
the gap is closed at that frequency; the count then reads nothing, and the
grid frequency drops out of the scan.  The count is taken at ``|w|``: the
generator obeys ``C H* C = -H``, so ``det(-w*I - H(k))`` is the complex
conjugate of ``det(w*I - H(-k))`` and the winding is even in ``w``.  The
readings at ``+-w`` are the same bits; the grid's mirror points differ by
at most an ulp, and a reading an ulp can change has a zero on the circle.
So arrays come out mirror images.

:func:`winding_number` takes one k-grid pass: the determinant on the
``n_k``-point momentum grid, one polynomial evaluation per k-point, read
where the pass certifies a winding and by the zero count elsewhere.  It
stays for library callers and for the ``nu(0)`` line of ``topocorr
winding``, which the benchmark's tracer (``perfbench/spans.py``) counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .models import CouplingSet, DynamicalMatrix

DET_CLOSING_TOL = 1e-12
_PHASE_INTEGER_TOL = 1e-6
MIN_NK = 64
MAX_NK = 1 << 18
# A zero of the determinant polynomial this close to |z| = 1 lies on it: at an
# exact closing, rounding leaves it within about 3e-12 (model_i, the dimers).
_CIRCLE_TOL = 1e-9


class GapClosingError(RuntimeError):
    """det(w*I - H(k)) vanishes at a real momentum: the gap is closed."""


@dataclass(frozen=True)
class WindingArray:
    """Gap-closing frequencies and the per-interval winding numbers.

    ``nus`` has one more entry than ``closings``; the outermost entries are
    zero.  ``stable`` records whether the array has odd length, i.e. whether
    the chain sits in a stable topological phase rather than at a critical
    point where two closings coalesce.
    """

    closings: tuple[float, ...]
    nus: tuple[int, ...]
    stable: bool

    def __post_init__(self):
        if len(self.nus) != len(self.closings) + 1:
            raise ValueError("nus must have one more entry than closings")
        if list(self.closings) != sorted(self.closings):
            raise ValueError("closings must be ascending")


def _horner(coefs, x):
    """``sum_i coefs[i] * x**(len(coefs) - 1 - i)`` by Horner's rule."""
    acc = coefs[0]
    for a in coefs[1:]:
        acc = acc * x + a
    return acc


def _bloch_determinants(c: CouplingSet, omega: float, n_k: int) -> NDArray[np.complex128]:
    """det(w*I - H(k)) on the ``n_k``-point momentum grid.

    Evaluates the chain's Laurent polynomial (``CouplingSet.bloch_det``)
    point by point at ``z = exp(1j*k)``.
    """
    coef = _horner(c.bloch_det.T, omega)
    z = np.exp(1j * np.linspace(-np.pi, np.pi, n_k, endpoint=False))
    # powers 0..D in z, and -D..-1 in 1/z = conj(z)
    deg = len(coef) // 2
    vals = _horner(coef[deg:][::-1], z)
    if deg:
        zbar = z.conj()
        vals = vals + zbar * _horner(coef[:deg], zbar)
    return vals


def winding_number(c: CouplingSet, omega: float, n_k: int = 256) -> int:
    """Phase winding of det(w*I - H(k)) around the Brillouin zone.

    One pass over the ``n_k``-point grid accumulates the principal-branch
    phase increments between consecutive points (cyclically).  Where every
    increment is below pi/2 and the total is within 1e-6 of an integer,
    that integer is the winding; otherwise the zero count
    (:func:`_zero_count`) reads it.

    Raises
    ------
    GapClosingError
        If the determinant vanishes on the grid, or the zero count finds a
        zero on the unit circle: the frequency sits on a gap closing.
    ValueError
        If the chain has no cell blocks, or ``n_k`` is outside
        ``[MIN_NK, MAX_NK]``.
    """
    if not c.translationally_invariant:
        raise ValueError("winding number requires a translationally invariant chain")
    if n_k < MIN_NK:
        raise ValueError(f"n_k must be at least {MIN_NK}, got {n_k}")
    if n_k > MAX_NK:
        raise ValueError(f"n_k must be at most {MAX_NK}, got {n_k}")
    dets = _bloch_determinants(c, omega, n_k)
    if np.min(np.abs(dets)) < DET_CLOSING_TOL:
        raise GapClosingError(f"gap closing at omega={omega}")
    increments = np.angle(np.roll(dets, -1) / dets)
    total = increments.sum() / (2 * np.pi)
    if np.max(np.abs(increments)) < np.pi / 2 and abs(total - round(total)) < _PHASE_INTEGER_TOL:
        return int(round(total))
    nu = _zero_count(c, omega)
    if nu is None:
        raise GapClosingError(f"gap closing at omega={omega}")
    return nu


def topologically_equivalent(a: WindingArray, b: WindingArray) -> bool:
    """Same array length and componentwise-equal winding numbers."""
    return len(a.nus) == len(b.nus) and all(x == y for x, y in zip(a.nus, b.nus))


def _zero_count(c: CouplingSet, omega: float) -> int | None:
    """Winding number at ``|omega|`` by the argument principle.

    ``z**D * det(w*I - H(z))`` is a polynomial of degree ``2D`` in ``z``, so
    the winding of the determinant around ``|z| = 1`` is the number of its
    zeros inside the circle less the order ``D`` of the pole at 0.
    ``np.roots`` drops a vanishing leading coefficient (a zero at infinity,
    outside) and returns a vanishing trailing one as a zero at 0 (inside).
    The winding is even in ``omega`` (module docstring), so ``+-omega`` read
    the same bits.  Returns None where a zero lies within ``_CIRCLE_TOL`` of
    ``|z| = 1``: the gap is closed at ``omega`` and the winding undefined.
    """
    coef = _horner(c.bloch_det.T, abs(omega))
    moduli = np.abs(np.roots(coef[::-1]))
    if np.any(np.abs(moduli - 1.0) < _CIRCLE_TOL):
        return None
    return int(np.count_nonzero(moduli < 1.0)) - len(coef) // 2


def _refine_closing(c, lo, hi, refine_tol):
    """Bisect a winding change down to ``refine_tol`` in frequency.

    ``lo`` and ``hi`` are the readings ``(omega, nu)`` at the grid
    frequencies on either side of the change.  Each midpoint takes its
    winding from :func:`_zero_count`; a midpoint on a closing reads None,
    which differs from both ends, so the bracket keeps the side toward the
    outer end.  When a bracket hides several closings (hairline intervals
    below the grid spacing), converge to the one adjacent to the outer
    (larger ``|omega|``) endpoint, so merged arrays stay reflection
    symmetric.
    """
    (lo, nu_lo), (hi, nu_hi) = lo, hi
    follow_lo = abs(lo) >= abs(hi)
    while hi - lo > refine_tol:
        mid = 0.5 * (lo + hi)
        nu_mid = _zero_count(c, mid)
        if follow_lo:
            if nu_mid == nu_lo:
                lo = mid
            else:
                hi = mid
        else:
            if nu_mid == nu_hi:
                hi = mid
            else:
                lo = mid
    return 0.5 * (lo + hi)


def winding_array(
    c: CouplingSet,
    omega_max: float = 4.0,
    n_omega: int = 601,
    refine_tol: float = 1e-4,
) -> WindingArray:
    """Winding numbers on the intervals between singular-gap closings.

    Reads the zero count (:func:`_zero_count`) on a uniform frequency grid
    over ``[-omega_max, omega_max]``, skipping a grid frequency where the
    gap is closed.  Each change of the winding number between readings
    brackets a closing, which bisection on the same count
    (:func:`_refine_closing`) then localizes to ``refine_tol``.  Closings
    narrower than the grid spacing are absorbed into a single detected
    transition.

    Raises
    ------
    ValueError
        If the winding at ``+-omega_max`` is not zero, ``omega_max`` is not
        finite and positive, ``n_omega`` is below 2, or ``refine_tol`` is
        not positive.
    """
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    if n_omega < 2:
        raise ValueError(f"n_omega must be at least 2, got {n_omega}")
    if not 0 < omega_max < np.inf:
        raise ValueError(f"omega_max must be finite and positive, got {omega_max}")
    omegas = np.linspace(-omega_max, omega_max, n_omega)
    counts = [_zero_count(c, w) for w in omegas]
    if counts[0] != 0 or counts[-1] != 0:
        raise ValueError(
            f"winding at +-omega_max={omega_max} is not zero; enlarge the window"
        )
    readings = [(w, nu) for w, nu in zip(omegas, counts) if nu is not None]
    closings: list[float] = []
    nus = [0]
    for lo, hi in zip(readings[:-1], readings[1:]):
        if hi[1] != lo[1]:
            closings.append(_refine_closing(c, lo, hi, refine_tol))
            nus.append(hi[1])
    return WindingArray(
        closings=tuple(closings), nus=tuple(nus), stable=len(nus) % 2 == 1
    )


def deformation_gap_bound(h1: DynamicalMatrix, h2: DynamicalMatrix) -> float:
    """Spectral norm of the deformation, bounding each singular-value shift.

    Every singular value of ``w*I - H`` moves by at most this norm under
    the deformation ``h1 -> h2``, at every frequency.
    """
    if h1.h.shape != h2.h.shape:
        raise ValueError("dynamical matrices must have equal dimensions")
    return float(np.linalg.norm(h2.h - h1.h, 2))


def count_edge_modes_obc(t, nu_abs: int) -> int:
    """Number of singular values an order of magnitude below the bulk floor.

    The floor is ``s[nu_abs]``, the first singular value expected to belong
    to the bulk when ``|nu|`` edge modes are present.  Returns zero when
    ``nu_abs`` is zero (no threshold is defined in a trivial phase).
    """
    if not 0 <= nu_abs < t.s.size:
        raise ValueError(f"nu_abs={nu_abs} out of range for {t.s.size} values")
    if nu_abs == 0:
        return 0
    threshold = t.s[nu_abs] / 10.0
    return int(np.sum(t.s < threshold))
