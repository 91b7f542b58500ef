"""Variable-step solver for the time-fractional Allen-Cahn equation.

The package splits the nonuniform second-order Caputo discretization into
a local part and a positive-kernel history part, steps the phase field
implicitly with a maximum-bound-safe cap, and audits the kernel
inequalities underpinning the discrete gradient structure and the
modified-energy dissipation law.
"""

from .mesh import (
    AdaptiveSchedule,
    MeshError,
    TimeMesh,
    adaptive_next_step,
    build_graded_mesh,
    build_two_phase_mesh,
    build_uniform_mesh,
    random_ratio_mesh,
)
from .kernels import (
    FracOrder,
    KernelSet,
    as_order,
    build_kernels,
    dgs_forms,
    min_step_ratio,
)
from .grid import Grid2D, grid_sum, laplacian, load_raw, norm_inf, save_pgm, save_raw
from .energy import dissipation_audit, free_energy, modified_energy
from .audits import AuditReport, AuditSummary, audit_kernel_properties
from .solver import (
    BoundViolation,
    ConvergenceError,
    ManufacturedForcing,
    SolveTrajectory,
    SolverConfig,
    StepCapError,
    crank_nicolson_step,
    frac_derivative,
    run,
    step,
    step_size_cap,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveSchedule",
    "AuditReport",
    "AuditSummary",
    "BoundViolation",
    "ConvergenceError",
    "FracOrder",
    "Grid2D",
    "KernelSet",
    "ManufacturedForcing",
    "MeshError",
    "SolveTrajectory",
    "SolverConfig",
    "StepCapError",
    "TimeMesh",
    "adaptive_next_step",
    "as_order",
    "audit_kernel_properties",
    "build_graded_mesh",
    "build_kernels",
    "build_two_phase_mesh",
    "build_uniform_mesh",
    "crank_nicolson_step",
    "dgs_forms",
    "dissipation_audit",
    "free_energy",
    "frac_derivative",
    "grid_sum",
    "laplacian",
    "load_raw",
    "min_step_ratio",
    "modified_energy",
    "norm_inf",
    "random_ratio_mesh",
    "run",
    "save_pgm",
    "save_raw",
    "step",
    "step_size_cap",
    "__version__",
]
