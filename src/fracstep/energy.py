"""Free energy and its kernel-history modification for dissipation audits.

The scheme does not dissipate the Ginzburg-Landau free energy E directly;
it dissipates E plus half the gradient-structure quadratic form G built
from the level kernels and the full difference history.  Per step the law

    (E_alpha^n - E_alpha^{n-1}) / tau_n
        + alpha/(2(2-alpha)) * a_0 * ||phi^n - phi^{n-1}||^2 / tau_n  <=  0

holds whenever the mesh ratios respect the admissibility floor and the
step sizes respect the physical cap.  The audit records the left-hand
side for every step and classifies any positive value by which
hypothesis (cap or ratio floor) was broken, if any.

G is a weighted sum of the squared distances ||phi^n - phi^j||^2 over the
whole history: kernels.distance_form, the same form dgs_forms checks,
scaled by h^2/2.  A run carries those distances from step to step:
modified_energy maps one level's to the next level's with one
inner-product pass over the field stack, writing none of its arguments;
the tests recompute them from the fields as the stateless reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, grad_energy, grid_sum
from .kernels import KernelSet, distance_form, stored_form_coeffs


@dataclass(frozen=True)
class EnergyRecord:
    """Energies at one time level; dissipation_lhs is None at level 0."""

    n: int
    E: float
    G_term: float
    E_alpha: float
    dissipation_lhs: float | None


def free_energy(phi: np.ndarray, epsilon: float, grid: Grid2D) -> float:
    """Ginzburg-Landau energy: (eps^2/2) ||grad phi||^2 + integral of (phi^2-1)^2/4."""
    w = phi * phi - 1.0
    bulk = 0.25 * grid.h**2 * grid_sum(w * w)
    return 0.5 * epsilon**2 * grad_energy(phi, grid) + bulk


_DISSIPATION_REL_TOL = 1e-10    # dissipation audit tolerance per unit of 1 + |E_alpha|


def modified_energy(
    fields, dist: np.ndarray | None, kernels: KernelSet | None, epsilon: float, grid: Grid2D
) -> tuple[float, float, np.ndarray]:
    """(E, G_term, dist') at the latest level n of fields (dist and kernels
    are None only at level 0).

    dist[:n] holds the grid sums of (phi^{n-1} - phi^j)^2 and dist' those
    of (phi^n - phi^j)^2, j = 0..n; neither argument is written.  With
    delta = phi^n - phi^{n-1},

        dist'_j = dist_j + ||delta||^2 + 2 (<delta, phi^{n-1}> - <delta, phi^j>),

    where every inner product comes from one einsum pass over the stack
    (numpy's own loop in a fixed order, no BLAS, no (n, M, M) temporary).
    """
    fields = np.asarray(fields, dtype=float)
    n = len(fields) - 1
    E = free_energy(fields[n], epsilon, grid)
    if n == 0:
        return E, 0.0, np.zeros(1)
    assert kernels is not None and kernels.n == n
    delta = fields[n] - fields[n - 1]
    inner = np.einsum("ij,kij->k", delta, fields[:n])    # <delta, phi^j>, j < n
    moved = dist[:n] + (np.einsum("ij,ij->", delta, delta) + 2.0 * (inner[n - 1] - inner))
    G = 0.5 * grid.h**2 * distance_form(stored_form_coeffs(kernels.aux_a), moved)
    return E, G, np.append(moved, 0.0)


def dissipation_lhs(prev_E_alpha: float, curr_E_alpha: float, local: float, tau_n: float,
                    step_l2_sq: float) -> float:
    """Left-hand side of the per-step dissipation law (nonpositive when it
    holds) between the modified energies of levels n-1 and n; local is
    kernels.local_coefficient alpha/(2-alpha) a_0 of the step's level, so
    the damping is half of it."""
    rate = (curr_E_alpha - prev_E_alpha) / tau_n
    damping = 0.5 * local * step_l2_sq / tau_n
    return float(rate + damping)


@dataclass(frozen=True)
class DissipationViolation:
    n: int
    lhs: float
    tol: float
    cap_ok: bool
    ratio_ok: bool

    @property
    def hypothesis_ok(self) -> bool:
        return self.cap_ok and self.ratio_ok

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lhs) and math.isfinite(self.tol)

    @property
    def unexplained(self) -> bool:
        """True unless a broken hypothesis accounts for it; a broken
        hypothesis never accounts for a non-finite energy."""
        return self.hypothesis_ok or not self.finite

    def describe(self) -> str:
        if not self.finite:
            return f"step {self.n}: non-finite energy (lhs {self.lhs:.3e}, tol {self.tol:.1e})"
        if self.hypothesis_ok:
            return f"step {self.n}: dissipation law broken (lhs {self.lhs:.3e} > tol {self.tol:.1e})"
        broken = []
        if not self.cap_ok:
            broken.append("step cap")
        if not self.ratio_ok:
            broken.append("ratio floor")
        return (
            f"step {self.n}: lhs {self.lhs:.3e} positive, hypothesis not met ({', '.join(broken)})"
        )


def dissipation_audit(records, cap_ok, ratio_ok):
    """Flag steps with positive dissipation lhs beyond round-off, and every
    step whose lhs or E_alpha is not finite.

    The tolerance scales with the energy magnitude so the O(N^2) kernel
    sums behind E_alpha do not trip the audit.  cap_ok / ratio_ok are the
    per-step hypothesis flags (index 1..N) that classify the violations.
    """
    out = []
    for rec in records:
        if rec.dissipation_lhs is None:
            continue
        tol = _DISSIPATION_REL_TOL * (1.0 + abs(rec.E_alpha))
        if rec.dissipation_lhs > tol or not (math.isfinite(rec.dissipation_lhs) and math.isfinite(tol)):
            n = rec.n
            out.append(DissipationViolation(n, rec.dissipation_lhs, tol,
                                            bool(cap_ok[n - 1]), bool(ratio_ok[n - 1])))
    return out
