"""Composite Gauss quadrature, and axisymmetric quadrature over the unit ball.

gauss_panels is the one composite Gauss-Legendre rule of the package: the
half-space kernel, the radial constants, the boundary strip, the scaling
orders and the ball mesh below all place their nodes with it.

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
from functools import lru_cache

import numpy as np
from scipy.special import gamma, roots_legendre

N_GAUSS = 4  # Gauss points per mesh cell along each axis


def sphere_measure(k):
    """Measure of the unit sphere S^{k-1} in R^k."""
    return 2.0 * np.pi ** (k / 2.0) / gamma(k / 2.0)


@lru_cache(maxsize=None)
def gauss_legendre(k):
    """k-point Gauss-Legendre nodes and weights on [-1, 1] (read-only)."""
    xg, wg = roots_legendre(k)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def gauss_panels(edges, k):
    """Composite k-point Gauss rule on the panels between edges.

    Nodes and weights have shape (panel, node); raveled, they run in
    panel-major order.
    """
    xg, wg = gauss_legendre(k)
    a, b = edges[:-1, None], edges[1:, None]
    return 0.5 * (a + b) + 0.5 * (b - a) * xg, 0.5 * (b - a) * wg


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


@dataclass
class BallQuadrature:
    """Tensor Gauss mesh on the upper half of the (rho, theta) rectangle."""

    n: int
    delta_min: float
    level: int = 1
    s: np.ndarray = field(init=False, repr=False)
    t: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        split = 2 ** (self.level - 1)
        h_min = self.delta_min / 4.0 / split
        h_max = 0.04 / split
        rho_e = graded_edges(1.0, h_min, h_max, 1.3)[::-1]
        rho_e = 1.0 - rho_e  # finest near rho = 1
        th_e = graded_edges(np.pi / 2.0, h_min, h_max, 1.3)  # finest near theta = 0
        rn, rw = gauss_panels(rho_e, N_GAUSS)
        tn, tw = gauss_panels(th_e, N_GAUSS)
        # axes (rho cell, theta cell, rho node, theta node); integrate's
        # np.sum depends on this order
        shape = (rn.shape[0], tn.shape[0], N_GAUSS, N_GAUSS)
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
        """Integral over the ball of f(s, t); f maps equal-shape arrays.

        f may return a stack of integrands with the node axis last; then
        each row is integrated, and summed exactly as it would be alone.
        """
        upper = np.asarray(f(self.s, self.t))
        lower = np.asarray(f(self.s, -self.t))
        total = np.sum(self.w * (upper + lower), axis=-1)
        return float(total) if total.ndim == 0 else total


_MESH_CACHE = {}


def get_quadrature(n, delta_min, level=1):
    key = (int(n), round(float(delta_min), 14), int(level))
    if key not in _MESH_CACHE:
        _MESH_CACHE[key] = BallQuadrature(n=int(n), delta_min=float(delta_min),
                                          level=int(level))
    return _MESH_CACHE[key]

