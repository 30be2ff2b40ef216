"""Cross-checks wiring the whole stack together, runnable from the CLI.

Each check computes a residual with a fixed threshold; the report carries
one line per check.  The checks exercise symmetry identities of the
dynamical matrix, SVD/hermitization duality, resolvent residuals,
positivity of noise and correlation matrices, the singular-basis form of
the frequency-resolved correlations, the rank-1 dominance of
topological correlations, perturbation bounds on singular values, the
closed-form edge oracle, and agreement of the frequency-integrated
correlations with the direct moment-equation solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import analytics
from .correlations import QuadratureSpec, equal_time, freq_correlations, rank1_approximation
from .greensvd import amplification_matrix, hermitize, resolvent, svd_at
from .lindblad import commutation_residual, steady_state_moments
from .models import (
    ModelIParams,
    ModelIIParams,
    adiabatic_eliminate,
    build_model_i,
    dynamical_matrix,
    phs_residual,
)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    residual: float
    threshold: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]
    elapsed_s: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            yield (
                f"[{status}] {c.name}: residual {c.residual:.3e} "
                f"(threshold {c.threshold:.1e}){' - ' + c.detail if c.detail else ''}"
            )


def _psd_residual(mat) -> float:
    """Most negative eigenvalue, relative to the largest (clipped at 1)."""
    vals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    return float(max(0.0, -vals[0] / max(vals[-1], 1.0)))


def run_validation(n_sites: int = 40, seed: int = 2024) -> ValidationReport:
    """Run the full invariant suite at moderate size (seconds, not minutes)."""
    t_start = time.perf_counter()
    checks: list[ValidationCheck] = []

    def add(name, residual, threshold, detail=""):
        checks.append(ValidationCheck(
            name=name, residual=float(residual), threshold=threshold,
            passed=bool(residual < threshold), detail=detail,
        ))

    topo = build_model_i(ModelIParams(n_sites=n_sites, gamma=5.0))
    trivial = build_model_i(ModelIParams(n_sites=n_sites, gamma=8.0))
    effective = adiabatic_eliminate(ModelIIParams(n_cells=n_sites, gamma=3.0))
    h_topo = dynamical_matrix(topo)

    # particle-hole symmetry of every generated dynamical matrix
    res = max(phs_residual(dynamical_matrix(c)) for c in (topo, trivial, effective))
    add("particle-hole symmetry C H* C = -H", res, 1e-12)

    # singular spectrum even in frequency
    res = 0.0
    for w in (0.3, 1.1, 2.7):
        res = max(res, float(np.max(np.abs(
            svd_at(h_topo, w).s - svd_at(h_topo, -w).s
        ))))
    add("S(omega) = S(-omega)", res, 1e-10)

    # hermitization eigenvalues are +-singular values
    t = svd_at(h_topo, 0.7)
    eig = np.sort(np.linalg.eigvalsh(hermitize(h_topo, 0.7)))
    paired = np.sort(np.concatenate([t.s, -t.s]))
    add("hermitization duality eig = +-s", float(np.max(np.abs(eig - paired))), 1e-10)

    # resolvent residual
    g = resolvent(h_topo, [0.7])[0]
    a = 0.7 * np.eye(2 * n_sites) - h_topo.h
    res = float(np.linalg.norm(a @ g - np.eye(2 * n_sites), "fro"))
    add("Green residual (wI - H) G = I", res, 1e-8)

    # collective-mode identity V^dag G U = S^{-1}: the resolvent against the triple
    res = float(np.linalg.norm(
        t.v.conj().T @ g @ t.u - np.diag(1.0 / t.s), "fro"
    ) / np.linalg.norm(np.diag(1.0 / t.s), "fro"))
    add("diagonal response V+ G U = 1/S", res, 1e-9)

    # positivity of the amplification matrix and of N(omega)
    t0 = svd_at(h_topo, 0.0)
    sigma = amplification_matrix(t0, topo)
    add("amplification matrix PSD", _psd_residual(sigma), 1e-8)
    fc = freq_correlations(t0, topo)
    add("N(omega) Hermitian PSD", _psd_residual(fc.n_mat), 1e-8)

    # the Gram form Y Y^dagger of freq_correlations is the paper's singular-basis
    # identity N = Vp* Sigma Vp^T, M = Vp* Sigma Vh^T
    left = t0.v[:n_sites].conj() @ sigma
    res = max(float(np.linalg.norm(got - left @ v.T) / np.linalg.norm(left @ v.T))
              for got, v in ((fc.n_mat, t0.v[:n_sites]), (fc.m_mat, t0.v[n_sites:])))
    add("N, M = Vp* Sigma (Vp, Vh)^T", res, 1e-12)

    # rank-1 dominance in the topological phase
    r1 = rank1_approximation(t0, topo)
    rel = float(np.linalg.norm(fc.n_mat - r1.n_mat, "fro") / np.linalg.norm(fc.n_mat, "fro"))
    add("rank-1 correlation error (topological)", rel, 0.05,
        detail=f"s0/s1 = {t0.s[0] / t0.s[1]:.2e}")

    # singular-value perturbation (Weyl) bound on random deformations
    rng = np.random.Generator(np.random.PCG64(seed))
    n_small = min(n_sites, 20)
    base = dynamical_matrix(build_model_i(ModelIParams(n_sites=n_small, gamma=4.0)))
    a0 = -base.h
    s0 = np.sort(np.linalg.svd(a0, compute_uv=False))
    worst = 0.0
    for _ in range(1000):
        e = rng.standard_normal((2 * n_small, 2 * n_small)) + 1j * rng.standard_normal(
            (2 * n_small, 2 * n_small)
        )
        # after the rescaling ||e||_2 is the drawn radius, to a few ulp
        radius = rng.uniform(0.0, 0.1)
        e *= radius / np.linalg.norm(e, 2)
        s1 = np.sort(np.linalg.svd(a0 - e, compute_uv=False))
        worst = max(worst, float(np.max(np.abs(s1 - s0)) - radius))
    add("Weyl bound max|s'-s| <= ||dH||_2 (1000 draws)", worst, 1e-10)

    # closed-form edge oracle at the symmetric point, i.e. ``topo`` and ``t0``
    sol = analytics.edge_solution(0.0, 5.0, n_sites)
    overlap = abs(np.vdot(t0.v[:, 0], sol.v_vector()))
    add("edge-vector overlap deficit", 1.0 - overlap, 1e-3)
    s0_pred, _ = analytics.zero_singular_value(0.0, 5.0, n_sites)
    add("closed-form s0 relative error", abs(t0.s[0] - s0_pred) / s0_pred, 1e-2)

    # moment-equation oracle at small size
    for n_small, c_small in (
        (3, build_model_i(ModelIParams(n_sites=3, gamma=5.0))),
        (4, adiabatic_eliminate(ModelIIParams(n_cells=4, gamma=4.0))),
    ):
        n_ref, m_ref, cmat = steady_state_moments(c_small)
        add(f"moment-solve commutation residual (n={n_small})",
            commutation_residual(cmat), 1e-10)
        et = equal_time(c_small, QuadratureSpec(rel_tol=1e-8))
        rel = float(
            np.linalg.norm(et.n_mat - n_ref, "fro") / np.linalg.norm(n_ref, "fro")
        )
        rel_m = float(
            np.linalg.norm(et.m_mat - m_ref, "fro") / max(np.linalg.norm(m_ref, "fro"), 1e-30)
        )
        add(f"quadrature vs moment solve N (n={n_small})", rel, 1e-6)
        add(f"quadrature vs moment solve M (n={n_small})", rel_m, 1e-6)

    return ValidationReport(checks=tuple(checks), elapsed_s=time.perf_counter() - t_start)
