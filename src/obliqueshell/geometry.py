"""Smooth closed curves given by trigonometric polynomials, and uniform grids.

A curve is p(t) = (p1(t), p2(t)) with each component a real trig polynomial

    p_i(t) = a_0 + sum_m [ a_m cos(m t) + b_m sin(m t) ],

stored as complex Fourier coefficients so derivatives are exact.  The
parametrization must be regular (|p'| > 0) and counterclockwise, so the
outward normal of the enclosed domain is (p2', -p1')/|p'|.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

_FINE_SAMPLES = 4096


def _eval_series(coeffs: np.ndarray, t: np.ndarray, deriv: int) -> np.ndarray:
    """Evaluate c_0.real + 2 Re sum_{m>=1} c_m e^{imt}, or its derivative.

    Summed term by term over the few coefficients, not as a matrix-vector
    product: that would be a BLAS call, and OpenBLAS's helper threads spin for
    a while after one, taking cores from the pool's kernel sums that follow.
    """
    vals = np.zeros(len(t), dtype=complex)
    for m, cm in enumerate((1j * np.arange(len(coeffs))) ** deriv * coeffs):
        vals += np.exp(1j * (t * m)) * cm
    out = 2 * vals.real
    if deriv == 0:
        out -= coeffs[0].real
    return out


@dataclass(frozen=True)
class Curve:
    """Closed curve with exact trig-polynomial parametrization.

    ``x_coeffs``/``y_coeffs`` are complex coefficients c_m (m >= 0) of
    p_i(t) = c_0.real + 2 Re sum_{m>=1} c_m e^{imt}.
    """

    x_coeffs: np.ndarray
    y_coeffs: np.ndarray
    name: str = "custom"

    def point(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.stack([_eval_series(self.x_coeffs, t, 0),
                         _eval_series(self.y_coeffs, t, 0)], axis=-1)

    def derivative(self, t: np.ndarray, order: int = 1) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.stack([_eval_series(self.x_coeffs, t, order),
                         _eval_series(self.y_coeffs, t, order)], axis=-1)

    def normal(self, t: np.ndarray) -> np.ndarray:
        dp = self.derivative(t)
        speed = np.linalg.norm(dp, axis=-1, keepdims=True)
        return np.stack([dp[..., 1], -dp[..., 0]], axis=-1) / speed

    def jacobian(self, t: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.derivative(t), axis=-1)

    @property
    def diameter(self) -> float:
        """Largest distance between 512 uniform samples, computed once per curve.

        Cached lazily rather than in ``__post_init__`` so that a malformed
        curve still fails in ``validate``.
        """
        if "_diameter" not in self.__dict__:
            pts = self.point(np.linspace(0.0, 2 * np.pi, 512, endpoint=False))
            dx = pts[:, None, :] - pts[None, :, :]
            object.__setattr__(self, "_diameter", float(np.sqrt((dx ** 2).sum(-1)).max()))
        return self._diameter

    def signed_area(self) -> float:
        t = np.linspace(0.0, 2 * np.pi, _FINE_SAMPLES, endpoint=False)
        p = self.point(t)
        dp = self.derivative(t)
        w = 2 * np.pi / _FINE_SAMPLES
        return float(0.5 * w * np.sum(p[:, 0] * dp[:, 1] - p[:, 1] * dp[:, 0]))

    def validate(self) -> None:
        t = np.linspace(0.0, 2 * np.pi, _FINE_SAMPLES, endpoint=False)
        speed = self.jacobian(t)
        if speed.min() <= 1e-12 * max(1.0, speed.max()):
            raise ParameterError(
                f"curve '{self.name}': |p'(t)| vanishes near t={t[speed.argmin()]:.4f}"
            )
        if self.signed_area() <= 0:
            raise ParameterError(
                f"curve '{self.name}': clockwise orientation (signed area <= 0); "
                "reparametrize counterclockwise"
            )


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform trapezoid grid on a curve: nodes t_k = 2 pi k / N."""

    curve: Curve
    N: int
    nodes: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    jacobians: np.ndarray = field(repr=False)

    @property
    def weight(self) -> float:
        return 2 * np.pi / self.N


def make_curve(kind: str, *, R: float = 1.0, a: float = 2.0, b: float = 1.0,
               x_coeffs=None, y_coeffs=None, name: str | None = None) -> Curve:
    """Build one of the built-in curves or a custom trig-polynomial curve.

    kinds: 'circle' (radius R), 'ellipse' (semi-axes a, b), 'kite',
    'custom' (explicit coefficient arrays).
    """
    if kind == "circle":
        a = b = _size("R", R)
        name = name or f"circle({a:g})"
    elif kind == "ellipse":
        a, b = _size("a", a), _size("b", b)
        name = name or f"ellipse({a:g},{b:g})"
    if kind in ("circle", "ellipse"):
        cx = np.array([0.0, a / 2], dtype=complex)          # a cos t
        cy = np.array([0.0, -1j * b / 2], dtype=complex)    # b sin t
        curve = Curve(cx, cy, name)
    elif kind == "kite":
        # p(t) = (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)
        cx = np.array([-0.65, 0.5, 0.325], dtype=complex)
        cy = np.array([0.0, -0.75j], dtype=complex)
        curve = Curve(cx, cy, name or "kite")
    elif kind == "custom":
        if x_coeffs is None or y_coeffs is None:
            raise ParameterError("custom curve requires x_coeffs and y_coeffs")
        cx = np.asarray(x_coeffs, dtype=complex)
        cy = np.asarray(y_coeffs, dtype=complex)
        if not (np.isfinite(cx).all() and np.isfinite(cy).all()):
            raise ParameterError("custom curve coefficients must be finite")
        curve = Curve(cx, cy, name or "custom")
    else:
        raise ParameterError(f"unknown curve kind '{kind}'")
    curve.validate()
    return curve


def curve_from_config(config) -> Curve:
    """Curve from a JSON config dict, e.g. {"kind": "ellipse", "a": 2, "b": 1}.

    Custom curves pass coefficients as [[re, im], ...] pairs or plain reals.
    """
    if isinstance(config, str):
        config = json.loads(config)
    if not isinstance(config, dict) or "kind" not in config:
        raise ParameterError("curve config must be an object with a 'kind' field")
    kind = config["kind"]
    if not isinstance(config.get("name", ""), str):
        raise ParameterError(f"curve name must be a string, got {config['name']!r}")
    kwargs = {}
    for key in ("R", "a", "b", "name"):
        if key in config:
            kwargs[key] = config[key]
    if kind == "custom":
        kwargs["x_coeffs"] = _parse_coeffs("x_coeffs", config.get("x_coeffs"))
        kwargs["y_coeffs"] = _parse_coeffs("y_coeffs", config.get("y_coeffs"))
    return make_curve(kind, **kwargs)


def _size(name: str, value) -> float:
    """A curve's radius or semi-axis: a finite positive real number."""
    if not (_is_real(value) and value > 0):
        raise ParameterError(f"curve size {name} must be a finite positive number, got {value!r}")
    return float(value)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and math.isfinite(value)


def _parse_coeffs(field: str, raw) -> np.ndarray:
    """The coefficient list ``field`` of a custom curve config: a non-empty
    list of finite reals or [re, im] pairs of them."""
    pairs = [item if isinstance(item, (list, tuple)) else [item, 0]
             for item in (raw if isinstance(raw, (list, tuple)) else [])]
    if not pairs or not all(len(p) == 2 and all(map(_is_real, p)) for p in pairs):
        raise ParameterError(f"custom curve {field} must be a non-empty list of finite "
                             f"numbers or [re, im] pairs, got {raw!r}")
    return np.array([complex(*p) for p in pairs])


def grid(curve: Curve, N: int) -> QuadratureGrid:
    """Uniform quadrature grid with N (even, >= 16) nodes."""
    if N < 16 or N % 2 != 0:
        raise ParameterError(f"N must be even and >= 16, got {N}")
    t = 2 * np.pi * np.arange(N) / N
    g = QuadratureGrid(
        curve=curve,
        N=N,
        nodes=t,
        points=curve.point(t),
        normals=curve.normal(t),
        jacobians=curve.jacobian(t),
    )
    for arr in (g.nodes, g.points, g.normals, g.jacobians):
        arr.setflags(write=False)
    return g
