"""Periodic grid calculus: stencil eigenstructure, summation by parts, I/O."""

import math

import numpy as np
import pytest

from fracstep.grid import (
    Grid2D,
    grad_energy,
    grid_sum,
    laplacian,
    load_raw,
    norm_inf,
    save_pgm,
    save_raw,
    stencil_symbol,
)
from oracles import inner, norm_l2

TWO_PI = 2.0 * math.pi


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(M=3, L=1.0)
    with pytest.raises(ValueError):
        Grid2D(M=8, L=0.0)
    g = Grid2D(M=8, L=TWO_PI)
    assert g.h == pytest.approx(TWO_PI / 8)


def test_coords_layout():
    g = Grid2D(M=4, L=4.0)
    X, Y = g.coords()
    assert X[2, 1] == pytest.approx(2.0)
    assert Y[2, 1] == pytest.approx(1.0)
    assert X.shape == (4, 4)


def test_grid_sum_deterministic_and_exact():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((64, 64))
    want = math.fsum(map(math.fsum, vals))
    assert grid_sum(vals) == pytest.approx(want, rel=1e-15)
    # permutation of rows changes pairwise order but not the fsum result
    assert grid_sum(vals) == grid_sum(vals.copy())


def test_laplacian_plane_wave_eigenfunction():
    # cos(kx) is an exact eigenvector of the stencil with the symbol eigenvalue
    g = Grid2D(M=32, L=TWO_PI)
    for k in (1, 3, 7):
        u = g.field_from_function(lambda X, Y: np.cos(k * X))
        lam = stencil_symbol(g, float(k))
        assert np.allclose(laplacian(u, g), lam * u, atol=1e-12)


def test_laplacian_constant_is_zero():
    g = Grid2D(M=16, L=1.0)
    assert np.allclose(laplacian(np.full((16, 16), 2.5), g), 0.0, atol=1e-12)


@pytest.mark.parametrize("M", [4, 9, 16])
def test_stencils_are_bitwise_the_roll_formulas(M):
    rng = np.random.default_rng(M)
    g = Grid2D(M=M, L=TWO_PI)
    u = rng.standard_normal((M, M))
    lap = (
        np.roll(u, 1, axis=0) + np.roll(u, -1, axis=0)
        + np.roll(u, 1, axis=1) + np.roll(u, -1, axis=1)
        - 4.0 * u
    ) / g.h**2
    dx = np.roll(u, -1, axis=0) - u
    dy = np.roll(u, -1, axis=1) - u
    assert np.array_equal(laplacian(u, g).view(np.uint64), lap.view(np.uint64))
    assert grad_energy(u, g) == grid_sum(dx * dx + dy * dy)


def test_symbol_second_order_accuracy():
    g = Grid2D(M=256, L=TWO_PI)
    assert stencil_symbol(g, 1.0) == pytest.approx(-1.0, abs=1e-4)


def test_summation_by_parts_exact():
    # inner(laplacian(u), u) = -grad_energy(u) holds to round-off
    rng = np.random.default_rng(1)
    g = Grid2D(M=32, L=TWO_PI)
    for _ in range(5):
        u = rng.standard_normal((32, 32))
        lhs = inner(laplacian(u, g), u, g)
        assert lhs == pytest.approx(-grad_energy(u, g), rel=1e-12)


def test_grad_energy_sine_mode():
    # integral of |grad sin(x)sin(y)|^2 over the torus is 2 pi^2 and the
    # h factors inside grad_energy cancel, so the value converges to it
    # directly, at second order (the forward-difference symbol is even)
    errs = []
    for M in (32, 64, 128):
        g = Grid2D(M=M, L=TWO_PI)
        u = g.field_from_function(lambda X, Y: np.sin(X) * np.sin(Y))
        errs.append(abs(grad_energy(u, g) - 2.0 * math.pi**2))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.3)


def test_norms():
    g = Grid2D(M=16, L=TWO_PI)
    u = np.full((16, 16), -3.0)
    assert norm_inf(u) == 3.0
    # ||c||_{L2} = |c| * L over the full square
    assert norm_l2(u, g) == pytest.approx(3.0 * TWO_PI, rel=1e-14)
    v = g.field_from_function(lambda X, Y: np.sin(X))
    assert norm_l2(v, g) == pytest.approx(math.sqrt(2.0 * math.pi**2), rel=1e-14)


def test_raw_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    g = Grid2D(M=12, L=2.5)
    u = rng.standard_normal((12, 12))
    path = tmp_path / "field.raw"
    save_raw(path, u, g)
    back, g2 = load_raw(path)
    assert np.array_equal(back, u)
    assert g2 == g


def test_raw_truncation_detected(tmp_path):
    g = Grid2D(M=8, L=1.0)
    path = tmp_path / "field.raw"
    save_raw(path, np.zeros((8, 8)), g)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_raw(path)


def test_pgm_header_and_mapping(tmp_path):
    u = np.array([[-1.0, 0.0], [1.0, 2.0]])
    path = tmp_path / "field.pgm"
    save_pgm(path, u)
    data = path.read_bytes()
    header, pixels = data[: len(b"P5\n2 2\n255\n")], data[len(b"P5\n2 2\n255\n") :]
    assert header == b"P5\n2 2\n255\n"
    assert list(pixels) == [0, 128, 255, 255]  # clipped above 1
