"""Free energy and its kernel-history modification for dissipation audits.

The scheme does not dissipate the Ginzburg-Landau free energy E directly;
it dissipates E plus half the gradient-structure quadratic form G built
from the level kernels and the full difference history.  Per step the law

    (E_alpha^n - E_alpha^{n-1}) / tau_n
        + alpha/(2(2-alpha)) * a_0 * ||phi^n - phi^{n-1}||^2 / tau_n  <=  0

holds whenever the mesh ratios respect the admissibility floor and the
step sizes respect the physical cap.  dissipation_lhs evaluates the
left-hand side over a finished run's columns, and the audit flags every
positive value beyond round-off by the hypothesis (cap or ratio floor)
that was broken, if any.

G is a weighted sum of the squared distances ||phi^n - phi^j||^2 over the
whole history: kernels.distance_form, the same form dgs_forms checks,
scaled by h^2/2.  A run's _LevelRecord carries those distances from
level to level: modified_energy maps one level's to the next level's with
one inner-product pass over the field stack and takes the newest from the
law's grid sum; the tests recompute them as the stateless reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, grad_energy, grid_sum
from .kernels import KernelSet, distance_form, stored_form_coeffs


def free_energy(phi: np.ndarray, epsilon: float, grid: Grid2D) -> float:
    """Ginzburg-Landau energy: (eps^2/2) ||grad phi||^2 + integral of (phi^2-1)^2/4."""
    w = phi * phi - 1.0
    bulk = 0.25 * grid.h**2 * grid_sum(w * w)
    return 0.5 * epsilon**2 * grad_energy(phi) + bulk


_DISSIPATION_REL_TOL = 1e-10    # dissipation audit tolerance per unit of 1 + |E_alpha|


def modified_energy(
    fields, dist: np.ndarray, kernels: KernelSet, epsilon: float, grid: Grid2D, delta: np.ndarray,
    delta_sq: float,
) -> tuple[float, float, np.ndarray]:
    """(E, G_term, dist') at the latest level n >= 1 of fields.

    dist holds the grid sums of (phi^{n-1} - phi^j)^2 and dist' those of
    (phi^n - phi^j)^2, j = 0..n; no argument is written.  Level 0 needs no
    call: its E is free_energy(phi^0), its G is 0 and its dist is [0], as
    a run's record seeds them.  With delta = phi^n - phi^{n-1} and delta_sq =
    grid_sum(delta * delta), as the record forms them once per level,
    dist'_{n-1} = delta_sq and

        dist'_j = dist_j + delta_sq + 2 (<delta, phi^{n-1}> - <delta, phi^j>),

    every inner product from one einsum pass over the stack (numpy's own
    loop in a fixed order, no BLAS, no (n, M, M) temporary).  Raises
    ValueError unless kernels and dist are level n's and level n - 1's.
    """
    fields = np.asarray(fields, dtype=float)
    n = len(fields) - 1
    if kernels.n != n or len(dist) != n:
        raise ValueError(f"level {n} needs level-{n} kernels and {n} carried distances, "
                         f"got level-{kernels.n} kernels and {len(dist)} distances")
    E = free_energy(fields[n], epsilon, grid)
    inner = np.einsum("ij,kij->k", delta, fields[:n])    # <delta, phi^j>, j < n
    moved = dist + (delta_sq + 2.0 * (inner[n - 1] - inner))
    G = 0.5 * grid.h**2 * distance_form(stored_form_coeffs(kernels.hat_a), moved)
    return E, G, np.append(moved, 0.0)


def dissipation_lhs(E_alpha: np.ndarray, local: np.ndarray, tau: np.ndarray,
                    step_l2_sq: np.ndarray) -> np.ndarray:
    """Left-hand sides of the law (nonpositive where it holds), entry n-1
    for step n, from E_alpha at levels 0..N and per step local (the level's
    KernelSet.local, so the damping is half of it), tau_n and
    h^2 ||phi^n - phi^{n-1}||^2; elementwise, so each has its scalar bits."""
    return np.diff(E_alpha) / tau + 0.5 * local * step_l2_sq / tau


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
        broken = ", ".join(name for name, ok in (("step cap", self.cap_ok), ("ratio floor", self.ratio_ok))
                           if not ok)
        return f"step {self.n}: lhs {self.lhs:.3e} positive, hypothesis not met ({broken})"


def dissipation_audit(traj):
    """Violations of an unforced trajectory's dissipation law: the steps
    whose lhs exceeds round-off, and every step whose lhs or E_alpha is
    not finite, as one mask over its columns.

    The tolerance scales with the energy magnitude so the O(N^2) kernel
    sums behind E_alpha do not trip the audit.  The per-step flags
    traj.cap_ok and traj.ratio_ok classify the violations.
    """
    lhs = traj.dissipation_lhs
    tol = _DISSIPATION_REL_TOL * (1.0 + np.abs(traj.E_alpha[1:]))
    bad = (lhs > tol) | ~(np.isfinite(lhs) & np.isfinite(tol))
    return [DissipationViolation(i + 1, float(lhs[i]), float(tol[i]),
                                 bool(traj.cap_ok[i]), bool(traj.ratio_ok[i]))
            for i in np.flatnonzero(bad).tolist()]
