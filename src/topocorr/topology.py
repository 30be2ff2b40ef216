"""Winding numbers, gap-closing detection, and the winding-number array.

The spectral winding number at a frequency is the integer phase winding of
``det(w*I - H(k))`` as ``k`` traverses the Brillouin zone.  Collecting its
value on every frequency interval between singular-gap closings yields the
winding-number array, the steady-state invariant: two chains are
topologically equivalent iff their arrays have equal length and equal
entries.

The winding number has two routes.  With unit cell ``M`` and largest cell
displacement ``R``, ``det(w*I - H(k))`` is a Laurent polynomial of degree
``D = 2*M*R`` in ``z = exp(1j*k)`` whose coefficients are polynomials of
degree ``2M`` in ``w``.  Its coefficient table is computed once per chain
(``CouplingSet.bloch_det``, from ``2D+1`` Bloch matrices).

* The grid frequencies take :func:`winding_number`, a k-grid scan: a
  determinant on the momentum grid costs one polynomial evaluation per
  k-point, with no Bloch matrix and no LU per frequency.  When the grid
  doubles, the new grid contains the old one bit for bit and each point is
  evaluated on its own, so only the new odd points are evaluated.  The rule
  of the scan (doublings, the ``pi/2`` increment test, ``DET_CLOSING_TOL``
  and nudges) is that of a scan over LU determinants of the Bloch matrices,
  and the polynomial agrees with those to about 1e-15 of their largest
  value, so both scans visit the same k-points and read the same windings.
* The bisection of a closing, and a nudge that the scan cannot read,
  take :func:`_zero_count`, the argument principle: the zeros of
  ``z**D * det`` inside the unit circle, less ``D``.  It needs no k-grid,
  so it counts a zero near ``|z| = 1`` that the scan's acceptance test can
  pass over on a coarse grid, or that no grid resolves.  Where it
  disagrees with the scan at a bracket end, the array raises
  :class:`GapClosingError` instead of placing the closing from a wrong
  winding.

The scan stays for the grid frequencies because the benchmark's tracer
(``perfbench/spans.py``) wraps :func:`winding_number` and
:func:`_bloch_determinants` by name and counts their calls; moving the
grid to the zero count too waits for a trace the library records itself.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from numpy.typing import NDArray

from .models import CouplingSet, DynamicalMatrix

DET_CLOSING_TOL = 1e-12
_PHASE_INTEGER_TOL = 1e-6
_MAX_NK = 1 << 18


class GapClosingError(RuntimeError):
    """det(w*I - H(k)) vanishes on the momentum grid: the gap is closed."""


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

    def to_json(self) -> str:
        """The JSON body of the CLI's ``winding.json``."""
        return json.dumps(asdict(self), sort_keys=True)


def _horner(coefs, x):
    """``sum_i coefs[i] * x**(len(coefs) - 1 - i)`` by Horner's rule."""
    acc = coefs[0]
    for a in coefs[1:]:
        acc = acc * x + a
    return acc


def _bloch_determinants(
    c: CouplingSet, omega: float, n_k: int, coarse: NDArray[np.complex128] | None = None
) -> NDArray[np.complex128]:
    """det(w*I - H(k)) on the ``n_k``-point momentum grid.

    Evaluates the chain's Laurent polynomial (``CouplingSet.bloch_det``)
    point by point at ``z = exp(1j*k)``.  ``coarse`` holds the determinants
    on the ``n_k/2``-point grid, which are the even points of this one;
    given it, only the odd points are evaluated.
    """
    coef = _horner(c.bloch_det.T, omega)
    ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    if coarse is not None:
        ks = ks[1::2]
    z = np.exp(1j * ks)
    # powers 0..D in z, and -D..-1 in 1/z = conj(z)
    deg = len(coef) // 2
    vals = _horner(coef[deg:][::-1], z)
    if deg:
        zbar = z.conj()
        vals = vals + zbar * _horner(coef[:deg], zbar)
    if coarse is None:
        return vals
    dets = np.empty(n_k, dtype=complex)
    dets[0::2] = coarse
    dets[1::2] = vals
    return dets


def winding_number(c: CouplingSet, omega: float, n_k: int = 256) -> int:
    """Phase winding of det(w*I - H(k)) around the Brillouin zone.

    Accumulates principal-branch phase increments between consecutive grid
    points (cyclically), doubling the grid until every increment is below
    pi/2 and the total is within 1e-6 of an integer.

    Raises
    ------
    GapClosingError
        If the determinant vanishes on the grid (the frequency sits on a
        gap closing) or the phase accumulation fails to settle.
    ValueError
        If the chain has no cell blocks, or ``n_k`` is outside
        ``[64, 2**18]``.
    """
    if not c.translationally_invariant:
        raise ValueError("winding number requires a translationally invariant chain")
    if n_k < 64:
        raise ValueError("n_k must be at least 64")
    if n_k > _MAX_NK:
        raise ValueError(f"n_k must be at most {_MAX_NK}, got {n_k}")
    dets = None
    while n_k <= _MAX_NK:
        dets = _bloch_determinants(c, omega, n_k, dets)
        if np.min(np.abs(dets)) < DET_CLOSING_TOL:
            raise GapClosingError(f"gap closing at omega={omega}")
        increments = np.angle(np.roll(dets, -1) / dets)
        total = increments.sum() / (2 * np.pi)
        if np.max(np.abs(increments)) < np.pi / 2 and abs(total - round(total)) < _PHASE_INTEGER_TOL:
            return int(round(total))
        n_k *= 2
    raise GapClosingError(
        f"winding at omega={omega} did not converge; frequency is likely at a closing"
    )


def topologically_equivalent(a: WindingArray, b: WindingArray) -> bool:
    """Same array length and componentwise-equal winding numbers."""
    return len(a.nus) == len(b.nus) and all(x == y for x, y in zip(a.nus, b.nus))


def _zero_count(c: CouplingSet, omega: float) -> int:
    """Winding number at ``omega`` by the argument principle.

    ``z**D * det(w*I - H(z))`` is a polynomial of degree ``2D`` in ``z``, so
    the winding of the determinant around ``|z| = 1`` is the number of its
    zeros inside the circle less the order ``D`` of the pole at 0.
    ``np.roots`` drops a vanishing leading coefficient (a zero at infinity,
    outside) and returns a vanishing trailing one as a zero at 0 (inside).
    """
    coef = _horner(c.bloch_det.T, omega)
    return int(np.count_nonzero(np.abs(np.roots(coef[::-1])) < 1.0)) - len(coef) // 2


def _refine_closing(c, lo, hi, refine_tol):
    """Bisect a winding change down to ``refine_tol`` in frequency.

    ``lo`` and ``hi`` are the scan's readings ``(omega, nu)`` on either side
    of the change, each taken at its grid frequency or, where the scan
    nudged, at the nudge, so the change lies between them.  Each midpoint
    takes its winding from the zero count of :func:`_zero_count`, so no
    k-grid is scanned.  When a bracket hides several closings (hairline
    intervals below the scan resolution), converge to the one adjacent to
    the outer (larger ``|omega|``) endpoint, so merged arrays stay
    reflection symmetric.

    Raises
    ------
    GapClosingError
        If the zero count at either end disagrees with the scan's ``nu``
        there: the k-grid missed a zero near the unit circle, and bisecting
        would misplace the closing.
    """
    for omega, nu in (lo, hi):
        count = _zero_count(c, omega)
        if count != nu:
            raise GapClosingError(
                f"winding at omega={omega} reads {nu} on the k-grid but {count} by the "
                f"zero count; a zero of det(w*I - H(z)) lies too close to |z| = 1"
            )
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


def _nudged_winding(c, w, nudge, n_k):
    """``(omega, nu)``: the scan's winding at ``omega = w + nudge``, else at
    ``w - nudge``, else the zero count at ``w + nudge``.

    A closing on a grid point defeats the scan at both nudges when they lie
    closer to it than the finest k-grid resolves; the zero count needs no
    k-grid.
    """
    for omega in (w + nudge, w - nudge):
        try:
            return omega, winding_number(c, omega, n_k)
        except GapClosingError:
            pass
    return w + nudge, _zero_count(c, w + nudge)


def winding_array(
    c: CouplingSet,
    omega_max: float = 4.0,
    n_omega: int = 601,
    refine_tol: float = 1e-4,
    n_k: int = 256,
) -> WindingArray:
    """Winding numbers on the intervals between singular-gap closings.

    Scans a uniform frequency grid over ``[-omega_max, omega_max]`` with
    :func:`winding_number`; each change of the winding number brackets a
    closing, which bisection on the zero count (:func:`_refine_closing`)
    then localizes to ``refine_tol``.  Closings narrower than the grid
    spacing are absorbed into a single detected transition.

    Raises
    ------
    GapClosingError
        If the scan's winding at a bracket end disagrees with the zero
        count.
    ValueError
        If the winding at ``+-omega_max`` is nonzero, or ``refine_tol`` is
        not positive.
    """
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    omegas = np.linspace(-omega_max, omega_max, n_omega)
    # (omega, nu) at each grid frequency, or at its nudge
    readings: list[tuple[float, int]] = []
    for w in omegas:
        try:
            readings.append((w, winding_number(c, w, n_k)))
        except GapClosingError:
            # The grid landed on (or numerically at) a closing; nudge off it.
            readings.append(_nudged_winding(c, w, (omegas[1] - omegas[0]) * 1e-3, n_k))
    if readings[0][1] != 0 or readings[-1][1] != 0:
        raise ValueError(
            f"winding at +-omega_max={omega_max} is nonzero; enlarge the window"
        )
    closings: list[float] = []
    nus = [readings[0][1]]
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
