"""Composite Gauss quadrature, and axisymmetric quadrature over the unit ball.

gauss_panels is the one composite Gauss-Legendre rule of the package: the
half-space kernel, the radial constants, the boundary strip, the scaling
orders and the ball mesh below all place their nodes with it.

Every integrand in this package is a function of (s, t) = (|x'|, x_n), so

    int_B1 f dx = |S^{n-2}| * int int_{s^2+t^2<=1, s>=0} f(s,t) s^{n-2} ds dt.

The mesh lives in polar coordinates (rho, theta), t = rho cos(theta):
the domain boundary is the coordinate line rho = 1, and cells are graded
geometrically toward rho = 1 and toward the poles theta in {0, pi}, where
bubble-scale features concentrate.  The mesh covers the upper half
theta < pi/2; the lower half reuses the same weights with t -> -t, so odd
integrands cancel exactly pointwise.  No node array is stored: the mesh
keeps its 1-D axes in rho and theta and forms the nodes of any run of rho
cells on demand.

Integrands are evaluated on runs of whole rho cells of at most BLOCK_NODES
nodes (one cell if a cell is longer), so their numpy temporaries stay a
fixed, cache-sized length however fine the mesh.  Each cell is summed on
its own and the cell sums once more, so the integral does not depend on
the run length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

N_GAUSS = 4  # Gauss points per mesh cell along each axis
BLOCK_NODES = 2 ** 14  # most mesh nodes per integrand call, unless one rho cell has more


def sphere_measure(k):
    """Measure of the unit sphere S^{k-1} in R^k."""
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def _legendre(k, x):
    """P_k(x) and P_k'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, k):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, k * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(k):
    """k-point Gauss-Legendre nodes and weights on [-1, 1] (read-only).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Legendre recurrence, polished by two Newton steps on P_k; the weights
    are 2 / ((1 - x^2) P_k'(x)^2).  Both are then made exactly symmetric.
    """
    j = np.arange(1.0, k)
    beta = j / np.sqrt(4.0 * j * j - 1.0)
    x = np.linalg.eigvalsh(np.diag(beta, -1))  # reads the lower triangle only
    for _ in range(2):
        pk, dpk = _legendre(k, x)
        x = x - pk / dpk
    dpk = _legendre(k, x)[1]
    w = 2.0 / ((1.0 - x * x) * dpk * dpk)
    xg, wg = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
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


@dataclass(eq=False)
class BallQuadrature:
    """Tensor Gauss mesh on the upper half of the (rho, theta) rectangle.

    Only the mesh's 1-D axes are kept, each repeated over a cell's 4 x 4
    nodes; nodes(a, b) forms the nodes of any run of rho cells.
    """

    n: int
    delta_min: float
    level: int = 1

    def __post_init__(self):
        split = 2 ** (self.level - 1)
        h_min = self.delta_min / 4.0 / split
        h_max = 0.04 / split
        rho_e = graded_edges(1.0, h_min, h_max, 1.3)[::-1]
        rho_e = 1.0 - rho_e  # finest near rho = 1
        th_e = graded_edges(np.pi / 2.0, h_min, h_max, 1.3)  # finest near theta = 0
        rn, rw = gauss_panels(rho_e, N_GAUSS)
        tn, tw = gauss_panels(th_e, N_GAUSS)
        # nodes are flattened in the order (rho cell, theta cell, rho node,
        # theta node), so each rho cell is one contiguous run.  sin, cos and
        # the powers are taken on the 1-D axes as the per-node product takes
        # them.  Each factor is then kept repeated over the other axis's nodes
        # of a cell, so that nodes() multiplies runs of 16 contiguous values
        # instead of broadcasting runs of 4.
        rho, sin_th = rn[:, None, :, None], np.sin(tn)[None, :, None, :]
        self._rho, self._rw, self._rho_pow = (
            np.repeat(x, N_GAUSS, axis=3)
            for x in (rho, rw[:, None, :, None], rho ** (self.n - 1)))
        self._sin, self._cos, self._tw, self._sin_pow = (
            np.repeat(x, N_GAUSS, axis=2)
            for x in (sin_th, np.cos(tn)[None, :, None, :], tw[None, :, None, :],
                      sin_th ** (self.n - 2)))
        self._measure = sphere_measure(self.n - 1)

    @property
    def n_points(self):
        return 2 * self._rho.shape[0] * self._sin.size

    def nodes(self, a=0, b=None):
        """(s, t, w) of the upper-half nodes of rho cells a, ..., b - 1 (default: all).

        Flat, in the whole mesh's node order, with the same per-node products.
        """
        rho = self._rho[a:b]
        s = rho * self._sin
        t = rho * self._cos
        w = self._rw[a:b] * self._tw
        w *= self._rho_pow[a:b]
        w *= self._sin_pow
        w *= self._measure
        return s.ravel(), t.ravel(), w.ravel()

    def integrate(self, f, halves=False):
        """Integral over the ball of f(s, t); f maps equal-shape arrays.

        f must be pointwise in the nodes: its value at a node depends on
        that node's (s, t) alone, not on the other nodes of the call.  It is
        called on runs of whole rho cells, as many as fit in BLOCK_NODES
        nodes (at least one), and every integrand of the package is pointwise
        in this sense.  f may return a stack of integrands with the node axis
        last; then each row is integrated, and summed exactly as it would be
        alone.  With halves, one call f(s, t) returns the pair (f(s, t),
        f(s, -t)), the integrand on the mesh's upper half and on the mirrored
        lower half, for an f that gets both from the same evaluations.

        np.sum adds up w * (upper + lower) over each rho cell, then once more
        over the cell sums.  Each np.sum sees one cell's values or all cell
        sums, so the integral does not depend on BLOCK_NODES, and no array is
        as long as the mesh.
        """
        pair = f if halves else lambda s, t: (f(s, t), f(s, -t))
        cells, cell = self._rho.shape[0], self._sin.size
        run = max(1, BLOCK_NODES // cell)

        def cell_sums(a):  # a function, so a run's arrays are freed before the next run
            s, t, w = self.nodes(a, a + run)
            upper, lower = map(np.asarray, pair(s, t))
            v = w * (upper + lower)
            return np.sum(v.reshape(v.shape[:-1] + (-1, cell)), axis=-1)

        sums = [cell_sums(a) for a in range(0, cells, run)]
        total = np.sum(np.concatenate(sums, axis=-1), axis=-1)
        return float(total) if total.ndim == 0 else total


_MESH_CACHE = {}


def get_quadrature(n, delta_min, level=1):
    key = (int(n), round(float(delta_min), 14), int(level))
    if key not in _MESH_CACHE:
        _MESH_CACHE[key] = BallQuadrature(n=int(n), delta_min=float(delta_min),
                                          level=int(level))
    return _MESH_CACHE[key]

