"""Tests for the adaptive quadrature layer."""

import numpy as np
import pytest

from bergman_orlicz import quadrature as Q
from bergman_orlicz.errors import AccuracyError, DivergenceError


def test_gauss_exact_on_polynomials():
    # a single order-16 panel integrates degree 31 exactly
    v, err = Q.integrate_1d(lambda x: 5 * x ** 9 - x ** 3 + 2, 0.0, 2.0)
    exact = 5 * 2.0 ** 10 / 10 - 2.0 ** 4 / 4 + 4
    assert abs(v - exact) < 1e-12 * abs(exact)
    assert err < 1e-13 * abs(exact)


def test_adaptive_sin():
    v, _ = Q.integrate_1d(np.sin, 0.0, 2 * np.pi, tol=1e-12)
    assert abs(v) < 1e-12


def test_adaptive_peak():
    f = lambda x: 1.0 / (1e-4 + x * x)
    v, _ = Q.integrate_1d(f, -1.0, 1.0, tol=1e-10)
    exact = 2.0 / 1e-2 * np.arctan(1.0 / 1e-2)
    assert abs(v - exact) / exact < 1e-9


def test_line_gaussian():
    v, _ = Q.integrate_1d_line(lambda x: np.exp(-x * x), tol=1e-10)
    assert abs(v - np.sqrt(np.pi)) < 1e-9


def test_line_lorentz():
    v, _ = Q.integrate_1d_line(lambda x: 1.0 / (1.0 + x * x), tol=1e-9)
    assert abs(v - np.pi) < 1e-7


def test_line_divergence_flagged():
    with pytest.raises(DivergenceError):
        Q.integrate_1d_line(lambda x: 1.0 / (1.0 + np.abs(x)), tol=1e-9)


def test_field_caches_panels():
    calls = [0]

    def f(x, y):
        calls[0] += 1
        return x * y

    field = Q.Field2D(f)
    rect = (0.0, 1.0, 0.0, 1.0)
    field.values(rect, Q.ORDER_HIGH)
    n = calls[0]
    field.values(rect, Q.ORDER_HIGH)
    assert calls[0] == n


def test_box_product():
    field = Q.Field2D(lambda x, y: x * y)
    v, _, _ = Q.integrate_box(field, (0.0, 1.0, 0.0, 1.0), tol=1e-12)
    assert abs(v - 0.25) < 1e-12


def test_box_graded_singularity():
    field = Q.Field2D(lambda x, y: 1.0 / np.sqrt(y))
    v, _, _ = Q.integrate_box_graded(field, 0.0, 1.0, 1.0, tol=1e-9)
    assert abs(v - 2.0) < 1e-6


def test_box_graded_divergence_flagged():
    field = Q.Field2D(lambda x, y: 1.0 / y)
    with pytest.raises(DivergenceError):
        Q.integrate_box_graded(field, 0.0, 1.0, 1.0, tol=1e-9)


def test_nan_integrand_raises():
    # a NaN stops the refinement loop (NaN compares False), so it must be
    # reported rather than returned
    field = Q.Field2D(lambda x, y: np.where(x > 0.5, np.nan, 1.0))
    with pytest.raises(AccuracyError):
        Q.integrate_box(field, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(AccuracyError):
        Q.integrate_1d(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)


def test_infinite_integrand_raises():
    # a node lands on the pole 0.5 + 0.55i, so the panel sum is inf
    pole = 0.5 + 0.55j
    field = Q.Field2D(lambda x, y: np.abs(1.0 / (x + 1j * y - pole)) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            Q.integrate_box(field, (0.0, 1.0, 0.2, 1.0))


def test_zero_field_integrates_to_zero():
    field = Q.Field2D(lambda x, y: np.zeros_like(x))
    assert Q.integrate_box_graded(field, 0.0, 1.0, 1.0) == (0.0, 0.0, 0.0)
    assert Q.integrate_halfplane(field) == (0.0, 0.0, 0.0)
    assert Q.integrate_1d_line(np.zeros_like) == (0.0, 0.0)


def test_line_mass_outside_first_piece():
    # [-1, 1] and the first shells hold no mass at all
    v, _ = Q.integrate_1d_line(lambda x: np.exp(-(x - 100.0) ** 2))
    assert abs(v - np.sqrt(np.pi)) < 1e-9


def test_box_graded_mass_below_empty_strips():
    # exp(-1e4 y) underflows to 0 on the top strips
    field = Q.Field2D(lambda x, y: np.exp(-1e4 * y))
    v, _, _ = Q.integrate_box_graded(field, 0.0, 1.0, 1.0)
    assert abs(v - 1e-4) < 1e-8 * 1e-4


def test_halfplane_kernel_power():
    # integral over C+ of |z+i|^{-4}: line formula then halfline, pi/4
    field = Q.Field2D(lambda x, y: (x * x + (y + 1) ** 2) ** -2.0)
    v, _, _ = Q.integrate_halfplane(field, tol=1e-8)
    assert abs(v - np.pi / 4) / (np.pi / 4) < 1e-7


def test_halfplane_log_divergence_flagged():
    field = Q.Field2D(lambda x, y: 1.0 / (1.0 + x * x + y * y))
    with pytest.raises(DivergenceError):
        Q.integrate_halfplane(field, tol=1e-8)


def test_deterministic_repeat():
    field = Q.Field2D(lambda x, y: np.exp(-x * x - y) * (1 + np.sin(3 * x) ** 2))
    a = Q.integrate_halfplane(field, tol=1e-8)[0]
    field2 = Q.Field2D(lambda x, y: np.exp(-x * x - y) * (1 + np.sin(3 * x) ** 2))
    b = Q.integrate_halfplane(field2, tol=1e-8)[0]
    assert a == b


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_box_zero_integral_returns(tol):
    # the value is 0, so tol * |value| is never met; the float noise floor
    # 4e-16 * |field|-mass stops the refinement
    field = Q.Field2D(lambda x, y: np.sin(x) * np.cos(y))
    v, _, _ = Q.integrate_box(field, (0.0, 2 * np.pi, 0.0, 1.0), tol=tol)
    assert abs(v) <= 1e-14


def test_1d_field_and_callable_agree():
    # integrate_1d wraps a callable into a Field2D on 1-D rects
    f = lambda x: 1.0 / (1e-2 + x * x)
    field = Q.Field2D(f)
    assert Q.integrate_1d(field, -1.0, 1.0) == Q.integrate_1d(f, -1.0, 1.0)
    assert all(len(rect) == 2 for rect, _ in field._cache)
