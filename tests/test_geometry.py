import tracemalloc

import numpy as np
import pytest

from obliqueshell import geometry
from obliqueshell.errors import ParameterError


def test_circle_points_and_normals(circle):
    t = np.linspace(0, 2 * np.pi, 17)
    p = circle.point(t)
    assert np.allclose(np.linalg.norm(p, axis=-1), 1.0, atol=1e-14)
    nu = circle.normal(t)
    # outward normal of the unit circle is the position vector
    assert np.allclose(nu, p, atol=1e-14)
    assert np.allclose(circle.jacobian(t), 1.0, atol=1e-14)


def test_circle_length_and_area(circle):
    g = geometry.grid(circle, 64)
    assert g.weight * g.jacobians.sum() == pytest.approx(2 * np.pi, rel=1e-13)
    assert circle.signed_area() == pytest.approx(np.pi, rel=1e-13)


def test_ellipse_geometry(ellipse):
    p = ellipse.point(np.array([0.0, np.pi / 2]))
    assert np.allclose(p, [[2, 0], [0, 1]], atol=1e-14)
    assert ellipse.signed_area() == pytest.approx(2 * np.pi, rel=1e-12)
    assert ellipse.diameter == pytest.approx(4.0, rel=1e-4)


def test_kite_parametrization(kite):
    p = kite.point(np.array([0.0, np.pi]))
    # (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)
    assert np.allclose(p[0], [1.0, 0.0], atol=1e-14)
    assert np.allclose(p[1], [-1.0, 0.0], atol=1e-14)
    kite.validate()  # regular and counterclockwise


def test_derivative_is_exact(circle, kite):
    t = np.linspace(0, 2 * np.pi, 11)
    h = 1e-6
    for curve in (circle, kite):
        fd = (curve.point(t + h) - curve.point(t - h)) / (2 * h)
        assert np.allclose(curve.derivative(t), fd, atol=1e-8)


def _cos_sin_series(coeffs, t, order):
    # c_0.real + 2 sum_m (a_m cos mt - b_m sin mt), c_m = a_m + i b_m, and its
    # derivatives, written out term by term
    out = np.full(len(t), coeffs[0].real) if order == 0 else np.zeros(len(t))
    for m in range(1, len(coeffs)):
        a, b = coeffs[m].real, coeffs[m].imag
        c, s = np.cos(m * t), np.sin(m * t)
        term = {0: a * c - b * s, 1: -m * (a * s + b * c), 2: -m * m * (a * c - b * s)}[order]
        out += 2 * term
    return out


def test_curve_series_match_cos_sin_sums(circle, ellipse, kite, mirror_free):
    # the series are summed elementwise over the coefficients; each order
    # agrees with the cos/sin sums to rounding, relative to the largest entry
    t = np.concatenate([np.linspace(0, 2 * np.pi, 257),
                        np.random.default_rng(4).uniform(0, 2 * np.pi, 1000)])
    for curve in (circle, ellipse, kite, mirror_free):
        for order in (0, 1, 2):
            got = curve.derivative(t, order) if order else curve.point(t)
            ref = np.stack([_cos_sin_series(curve.x_coeffs, t, order),
                            _cos_sin_series(curve.y_coeffs, t, order)], axis=-1)
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max(), (curve.name, order)


def test_clockwise_curve_rejected():
    # circle traversed clockwise: x = cos t, y = -sin t
    cx = np.array([0.0, 0.5], dtype=complex)
    cy = np.array([0.0, 0.5j], dtype=complex)
    with pytest.raises(ParameterError, match="clockwise"):
        geometry.make_curve("custom", x_coeffs=cx, y_coeffs=cy)


def test_degenerate_curve_rejected():
    # cusp at t = 0: p(t) = (cos t - cos(2t)/4, sin t - sin(2t)/2) has p'(0) = 0
    cx = np.array([0.0, 0.5, -0.125], dtype=complex)
    cy = np.array([0.0, -0.5j, 0.25j], dtype=complex)
    with pytest.raises(ParameterError):
        geometry.make_curve("custom", x_coeffs=cx, y_coeffs=cy)


def test_bad_parameters():
    with pytest.raises(ParameterError):
        geometry.make_curve("circle", R=-1.0)
    with pytest.raises(ParameterError):
        geometry.make_curve("hexagon")
    with pytest.raises(ParameterError):
        geometry.make_curve("custom")
    with pytest.raises(ParameterError):
        geometry.make_curve("custom", x_coeffs=[], y_coeffs=[])
    with pytest.raises(ParameterError, match="finite"):
        geometry.make_curve("custom", x_coeffs=[0, np.nan], y_coeffs=[0, -0.5j])


def test_diameter_samples_the_curve_once(monkeypatch):
    kite = geometry.make_curve("kite")
    calls = []
    point = geometry.Curve.point
    monkeypatch.setattr(geometry.Curve, "point",
                        lambda self, t: calls.append(len(t)) or point(self, t))
    assert kite.diameter == kite.diameter == pytest.approx(3.0, rel=1e-12)
    assert calls == [512]


def test_diameter_equals_the_dense_distance_formula(circle, ellipse, kite, mirror_free):
    # the condensed pair distances give the dense formula's largest distance,
    # bit for bit, holding one distance per pair instead of the 512 x 512 x 2
    # differences, their squares and the row sums
    for curve in (circle, ellipse, kite, mirror_free):
        fresh = geometry.Curve(curve.x_coeffs, curve.y_coeffs, curve.name)
        pts = fresh.point(np.linspace(0.0, 2 * np.pi, 512, endpoint=False))
        dx = pts[:, None, :] - pts[None, :, :]
        dense = float(np.sqrt((dx ** 2).sum(-1)).max())
        tracemalloc.start()
        try:
            got = fresh.diameter
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == dense, curve.name
        assert peak <= 2 * 2 ** 20, (curve.name, peak / 2 ** 20)


def test_grid_validation(circle):
    with pytest.raises(ParameterError):
        geometry.grid(circle, 15)
    with pytest.raises(ParameterError):
        geometry.grid(circle, 14)
    g = geometry.grid(circle, 16)
    assert g.weight == pytest.approx(2 * np.pi / 16)
    with pytest.raises(ValueError):
        g.points[0, 0] = 5.0  # arrays are frozen


def test_curve_from_config_roundtrip():
    c = geometry.curve_from_config({"kind": "ellipse", "a": 3, "b": 1})
    assert c.point(np.array([0.0]))[0, 0] == pytest.approx(3.0)
    c2 = geometry.curve_from_config(
        '{"kind": "custom", "x_coeffs": [[0,0],[0.5,0]], '
        '"y_coeffs": [[0,0],[0,-0.5]], "name": "c"}'
    )
    assert np.allclose(c2.point(np.array([0.0]))[0], [1.0, 0.0], atol=1e-14)
    with pytest.raises(ParameterError):
        geometry.curve_from_config({"radius": 1})
