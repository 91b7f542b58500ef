"""Quadrature oracles against the closed-form weights."""

import os
import subprocess
import sys

import numpy as np
import pytest

import fracstep
from fracstep.kernels import as_order, build_kernels, min_step_ratio
from fracstep.mesh import build_graded_mesh, build_two_phase_mesh, build_uniform_mesh, offset_node, random_ratio_mesh
from fracstep.solver import frac_derivative
from oracles import (
    curvature_fn,
    derivative_quad,
    endpoint_moment_quad,
    interval_weight_quad,
    level_weights,
    moment_weight_quad,
    weight_fn,
)


def test_weight_fn_values():
    # alpha = 1/2, t_off = 2, t = 1: (1)^{-1/2} / Gamma(1/2) = 1/sqrt(pi)
    w = weight_fn(0.5, 2.0)
    assert w(1.0) == pytest.approx(0.5641895835477563, rel=1e-15)
    c = curvature_fn(0.5, 2.0)
    assert c(1.0) == pytest.approx(0.28209479177387814, rel=1e-15)


def test_interval_weights_match_quadrature():
    rng = np.random.default_rng(21)
    for alpha in (0.1, 0.5, 0.9):
        order = as_order(alpha)
        for _ in range(4):
            n = int(rng.integers(2, 9))
            mesh = random_ratio_mesh(rng, n, min_step_ratio(alpha))
            a = level_weights(mesh, order, n)[0]
            for k in range(1, n + 1):
                want = interval_weight_quad(mesh, order, n, k)
                assert a[n - k] == pytest.approx(want, rel=1e-10)


def test_head_weight_uses_singular_rule():
    # k = n integrand is singular at t_off; the weighted rule still hits
    # the closed form omega_{2-alpha}((1-theta) tau_n) / tau_n
    mesh = build_uniform_mesh(1.0, 3)
    for alpha in (0.2, 0.8):
        order = as_order(alpha)
        a = level_weights(mesh, order, 3)[0]
        got = interval_weight_quad(mesh, order, 3, 3)
        assert got == pytest.approx(a[0], rel=1e-12)


def test_moment_forms_agree():
    # signed and curvature evaluations of the same weight coincide
    mesh = build_graded_mesh(1.0, 8, 2.0)
    order = as_order(0.6)
    for k in range(1, 8):
        signed = moment_weight_quad(mesh, order, 8, k, form="signed")
        curv = moment_weight_quad(mesh, order, 8, k, form="curvature")
        assert curv == pytest.approx(signed, rel=1e-8, abs=1e-15)
        assert curv > 0.0


def test_moment_weights_match_quadrature_far_field():
    # strongly graded meshes put early intervals far from the evaluation
    # point, exercising the series branch of the closed form; the gamma = 6
    # two-phase mesh starts with tau_1 = 3.6e-13, where a running power of
    # 1/c in the series would overflow
    cases = [(build_graded_mesh(1.0, 10, 4.0), (0.3, 0.7), (10,)),
             (build_two_phase_mesh(1.0, 6.0, 160, 1234), (2.0 / 3.0, 0.3), (2, 3, 8, 40))]
    for mesh, alphas, levels in cases:
        for alpha in alphas:
            order = as_order(alpha)
            for n in levels:
                with np.errstate(over="raise"):
                    zeta = level_weights(mesh, order, n)[1]
                for k in range(1, n):
                    want = moment_weight_quad(mesh, order, n, k)
                    assert zeta[n - k] == pytest.approx(want, rel=1e-10), (alpha, n, k)


def test_moment_form_rejects_unknown():
    mesh = build_uniform_mesh(1.0, 3)
    with pytest.raises(ValueError):
        moment_weight_quad(mesh, 0.5, 3, 1, form="midpoint")


def test_derivative_quad_matches_closed_form():
    rng = np.random.default_rng(5)
    for alpha in (0.25, 0.5, 0.75):
        order = as_order(alpha)
        n = 7
        mesh = random_ratio_mesh(rng, n, min_step_ratio(alpha))
        history = rng.standard_normal(n + 1)
        kern = build_kernels(mesh.nodes, order, n, n)[0]
        closed = frac_derivative(history, kern)
        quad = derivative_quad(mesh, order, n, history)
        assert quad == pytest.approx(closed, rel=1e-10, abs=1e-13)


def test_derivative_quad_linear_exact():
    mesh = build_graded_mesh(1.0, 6, 3.0)
    order = as_order(0.4)
    got = derivative_quad(mesh, order, 6, np.asarray(mesh.nodes))
    from fracstep.special import omega

    t_off = offset_node(mesh.nodes, 6, order.theta)
    assert got == pytest.approx(omega(2.0 - order.alpha, t_off), rel=1e-11)


def test_endpoint_moments_sum_to_weight_jump():
    # (t-lo)/tau + (hi-t)/tau = 1, so the two one-sided curvature integrals
    # sum to w(t_k) - w(t_{k-1})
    mesh = build_uniform_mesh(2.0, 5)
    order = as_order(0.5)
    wfn = weight_fn(order, offset_node(mesh.nodes, 5, order.theta))
    for k in range(1, 5):
        right = endpoint_moment_quad(mesh, order, 5, k, "right")
        left = endpoint_moment_quad(mesh, order, 5, k, "left")
        assert right > 0.0 and left > 0.0
        jump = wfn(mesh.nodes[k]) - wfn(mesh.nodes[k - 1])
        assert right + left == pytest.approx(jump, rel=1e-10)


def test_endpoint_moment_rejects_unknown_side():
    mesh = build_uniform_mesh(1.0, 3)
    with pytest.raises(ValueError):
        endpoint_moment_quad(mesh, 0.5, 3, 1, "middle")


def test_oracle_guard_rejects_an_interval_past_the_level():
    # without its guard the head-interval branch would answer for k = 3 at n = 2
    with pytest.raises(AssertionError):
        interval_weight_quad(build_uniform_mesh(1.0, 4), 0.5, 2, 3)


def test_oracle_guards_run_under_python_O():
    # conftest registers oracles for assert rewriting, so its argument
    # guards still run where python -O strips plain assert statements
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracstep.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    target = f"{os.path.abspath(__file__)}::test_oracle_guard_rejects_an_interval_past_the_level"
    proc = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", target],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and "1 passed" in proc.stdout, proc.stdout + proc.stderr
