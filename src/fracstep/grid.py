"""Uniform periodic grid on a square, plus the discrete field calculus.

Fields are plain (M, M) float arrays; entry [i, j] sits at (i*h, j*h)
with h = L/M, and the duplicated periodic boundary is excluded.  The
Laplacian is the standard five-point stencil with periodic wrap.  All
reductions run in a fixed deterministic order: pairwise per row, then a
compensated (exact) sum across rows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid2D:
    """M x M periodic grid on (0, L)^2; h is always derived as L/M."""

    M: int
    L: float

    def __post_init__(self):
        if self.M < 4:
            raise ValueError(f"grid needs at least 4 points per side, got {self.M}")
        if not 0.0 < self.L < math.inf:
            raise ValueError(f"domain length L must be positive and finite, got {self.L}")

    @property
    def h(self) -> float:
        return self.L / self.M

    def coords(self):
        """(X, Y) arrays with X[i, j] = i*h, Y[i, j] = j*h."""
        axis = np.arange(self.M) * self.h
        return np.meshgrid(axis, axis, indexing="ij")

    def field_from_function(self, fn) -> np.ndarray:
        X, Y = self.coords()
        return np.asarray(fn(X, Y), dtype=float)


def grid_sum(values: np.ndarray) -> float:
    """Deterministic reduction: pairwise along rows, exact sum across rows."""
    return math.fsum(np.sum(values, axis=-1))


def laplacian(u: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Five-point periodic Laplacian.

    Built from slices into one output array, adding the neighbours in the
    order of roll(u, 1, 0) + roll(u, -1, 0) + roll(u, 1, 1) + roll(u, -1, 1)
    - 4 u, so the bits are those of that roll form without its copies.
    """
    out = np.empty(u.shape)
    out[1:] = u[:-1]
    out[0] = u[-1]
    out[:-1] += u[1:]
    out[-1] += u[0]
    out[:, 1:] += u[:, :-1]
    out[:, 0] += u[:, -1]
    out[:, :-1] += u[:, 1:]
    out[:, -1] += u[:, 0]
    out -= 4.0 * u
    out /= grid.h**2
    return out


def norm_inf(u: np.ndarray) -> float:
    return float(np.max(np.abs(u)))


def grad_energy(u: np.ndarray, grid: Grid2D) -> float:
    """Discrete Dirichlet energy: sum of squared forward differences.

    The h factors cancel (h^2 for the cell area, 1/h^2 for the difference
    quotient), and summation by parts gives h^2 * grid_sum(laplacian(u) * u)
    equal to -grad_energy(u) exactly.  The forward differences roll(u, -1, axis) - u
    are taken from slices into one output array.
    """
    dx, dy = d = np.empty((2, *u.shape))
    np.subtract(u[1:], u[:-1], out=dx[:-1])
    np.subtract(u[0], u[-1], out=dx[-1])
    np.subtract(u[:, 1:], u[:, :-1], out=dy[:, :-1])
    np.subtract(u[:, 0], u[:, -1], out=dy[:, -1])
    d *= d
    dx += dy
    return grid_sum(dx)


def stencil_symbol(grid: Grid2D, wavenumber: float) -> float:
    """Eigenvalue of the periodic stencil on the plane wave cos(wavenumber * x)."""
    return -(2.0 - 2.0 * math.cos(wavenumber * grid.h)) / grid.h**2


_RAW_HEADER = struct.Struct("<qd")  # 16 bytes: M (int64), L (float64)


def save_raw(path, u: np.ndarray, grid: Grid2D) -> None:
    """Flat binary dump: 16-byte header (M, L), then row-major float64.
    Raises ValueError unless u is an (M, M) field of the grid."""
    if np.shape(u) != (grid.M, grid.M):
        raise ValueError(f"field shape {np.shape(u)} does not match the {grid.M}x{grid.M} grid")
    with open(path, "wb") as fh:
        fh.write(_RAW_HEADER.pack(grid.M, grid.L))
        fh.write(np.ascontiguousarray(u, dtype="<f8").tobytes())


def load_raw(path):
    """Inverse of save_raw; returns (field, grid)."""
    with open(path, "rb") as fh:
        M, L = _RAW_HEADER.unpack(fh.read(_RAW_HEADER.size))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != M * M:
        raise ValueError(f"raw field truncated: expected {M * M} values, got {data.size}")
    return data.reshape(M, M).copy(), Grid2D(M=int(M), L=float(L))


def save_pgm(path, u: np.ndarray) -> None:
    """8-bit binary graymap with the value range [-1, 1] mapped to [0, 255]."""
    level = np.clip((np.asarray(u) + 1.0) * 0.5 * 255.0, 0.0, 255.0)
    pixels = np.rint(level).astype(np.uint8)
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
