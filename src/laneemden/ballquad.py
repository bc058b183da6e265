"""Axisymmetric quadrature over the unit ball.

Every integrand in this package is a function of (s, t) = (|x'|, x_n), so

    int_B1 f dx = |S^{n-2}| * int int_{s^2+t^2<=1, s>=0} f(s,t) s^{n-2} ds dt.

The mesh lives in polar coordinates (rho, theta), t = rho cos(theta):
the domain boundary is the coordinate line rho = 1, and cells are graded
geometrically toward rho = 1 and toward the poles theta in {0, pi}, where
bubble-scale features concentrate.  Only the upper half theta < pi/2 is
stored; the lower half reuses the same weights with t -> -t, so odd
integrands cancel exactly pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_legendre

from .halfspace import sphere_measure


def graded_edges(length, h_min, h_max, ratio):
    """Cell edges on [0, length], finest (h_min) at 0, growing to h_max."""
    sizes = []
    h = h_min
    acc = 0.0
    while acc + h < length:
        sizes.append(h)
        acc += h
        h = min(h * ratio, h_max)
    sizes.append(length - acc)
    e = np.concatenate([[0.0], np.cumsum(sizes)])
    e[-1] = length
    return e


def _gauss_nodes(edges, xg, wg):
    """Gauss nodes and weights of every cell, shape (cell, node)."""
    a, b = edges[:-1, None], edges[1:, None]
    return 0.5 * (a + b) + 0.5 * (b - a) * xg, 0.5 * (b - a) * wg


@dataclass
class BallQuadrature:
    """Tensor Gauss mesh on the upper half of the (rho, theta) rectangle."""

    n: int
    delta_min: float
    level: int = 1
    n_gauss: int = 4
    s: np.ndarray = field(init=False, repr=False)
    t: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        split = 2 ** (self.level - 1)
        h_min = self.delta_min / 4.0 / split
        h_max = 0.04 / split
        xg, wg = roots_legendre(self.n_gauss)
        rho_e = graded_edges(1.0, h_min, h_max, 1.3)[::-1]
        rho_e = 1.0 - rho_e  # finest near rho = 1
        th_e = graded_edges(np.pi / 2.0, h_min, h_max, 1.3)  # finest near theta = 0
        rn, rw = _gauss_nodes(rho_e, xg, wg)
        tn, tw = _gauss_nodes(th_e, xg, wg)
        # axes (rho cell, theta cell, rho node, theta node); integrate's
        # np.sum depends on this order
        shape = (rn.shape[0], tn.shape[0], xg.size, xg.size)
        rho = np.broadcast_to(rn[:, None, :, None], shape).ravel()
        th = np.broadcast_to(tn[None, :, None, :], shape).ravel()
        ww = (rw[:, None, :, None] * tw[None, :, None, :]).ravel()
        sin_th = np.sin(th)
        self.s = rho * sin_th
        self.t = rho * np.cos(th)
        self.w = ww * rho ** (self.n - 1) * sin_th ** (self.n - 2) * sphere_measure(self.n - 1)

    @property
    def n_points(self):
        return 2 * self.s.size

    def integrate(self, f):
        """Integral over the ball of f(s, t); f maps equal-shape arrays."""
        upper = f(self.s, self.t)
        lower = f(self.s, -self.t)
        return float(np.sum(self.w * (upper + lower)))


_MESH_CACHE = {}


def get_quadrature(n, delta_min, level=1, n_gauss=4):
    key = (int(n), round(float(delta_min), 14), int(level), int(n_gauss))
    if key not in _MESH_CACHE:
        _MESH_CACHE[key] = BallQuadrature(n=int(n), delta_min=float(delta_min),
                                          level=int(level), n_gauss=int(n_gauss))
    return _MESH_CACHE[key]


def integrate_with_error(f, n, delta_min, level=1):
    """Integrate at the given level and estimate error from one refinement."""
    coarse = get_quadrature(n, delta_min, level).integrate(f)
    fine = get_quadrature(n, delta_min, level + 1).integrate(f)
    return fine, abs(fine - coarse)
