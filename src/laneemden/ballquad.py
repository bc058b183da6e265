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
keeps its 1-D axes in rho and theta and forms the nodes of a range on
demand.

Integrands are evaluated on ranges of at most BLOCK_NODES nodes, so their
numpy temporaries stay a fixed, cache-sized length however fine the mesh.
The ranges are the leaves of numpy's own pairwise summation tree, so the
integral is that of one np.sum over all nodes and does not depend on the
range size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

N_GAUSS = 4  # Gauss points per mesh cell along each axis
BLOCK_NODES = 2 ** 15  # most mesh nodes per integrand call (a leaf of integrate)
HEAP_TOP_PAD = 16 << 20  # bytes glibc's malloc keeps at the top of its heap (M_TOP_PAD)


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


@lru_cache(maxsize=None)
def _keep_heap_top():
    """Let glibc's malloc keep HEAP_TOP_PAD free bytes at its heap top.

    integrate frees every temporary of a leaf before the next leaf makes
    the same ones again, ~300 kB each.  By default glibc hands the freed top
    of its heap back to the kernel each time and faults the pages in again
    for the next leaf: three integrals of a 2-row stack on the level-4 mesh
    took 0.65 s and 191,000 page faults instead of 0.25 s and 370 (2-vCPU
    x86-64 VM, glibc 2.36).  So the pad is set once, when the first mesh
    is built, unless the caller has set malloc's own MALLOC_* variables or
    glibc.malloc tunables; elsewhere than glibc this does nothing.
    """
    if (any(k.startswith("MALLOC_") for k in os.environ)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    import ctypes  # here, not at import: a process without a mesh never loads it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-2, HEAP_TOP_PAD)  # -2: M_TOP_PAD


@dataclass(eq=False)
class BallQuadrature:
    """Tensor Gauss mesh on the upper half of the (rho, theta) rectangle.

    Only the mesh's 1-D axes are kept, each repeated over a cell's 4 x 4
    nodes; nodes(i, j) forms any range of nodes.
    """

    n: int
    delta_min: float
    level: int = 1

    def __post_init__(self):
        _keep_heap_top()
        split = 2 ** (self.level - 1)
        h_min = self.delta_min / 4.0 / split
        h_max = 0.04 / split
        rho_e = graded_edges(1.0, h_min, h_max, 1.3)[::-1]
        rho_e = 1.0 - rho_e  # finest near rho = 1
        th_e = graded_edges(np.pi / 2.0, h_min, h_max, 1.3)  # finest near theta = 0
        rn, rw = gauss_panels(rho_e, N_GAUSS)
        tn, tw = gauss_panels(th_e, N_GAUSS)
        # nodes are flattened in the order (rho cell, theta cell, rho node,
        # theta node); integrate's summation tree depends on it.  sin, cos
        # and the powers are taken on the 1-D axes as the per-node product
        # takes them.  Each factor is then kept repeated over the other
        # axis's nodes of a cell, so that nodes() multiplies runs of 16
        # contiguous values instead of broadcasting runs of 4.
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

    def nodes(self, i=0, j=None):
        """(s, t, w) of the upper-half nodes i, ..., j - 1 (default: all).

        Formed from the axes of the rho cells that the range touches, then
        cut to the range, with the same per-node products as the whole mesh.
        """
        if j is None:
            j = self.n_points // 2
        cell = self._sin.size  # nodes per rho cell
        a, b = i // cell, -(-j // cell)
        lo, hi = i - a * cell, j - a * cell
        rho = self._rho[a:b]
        s = rho * self._sin
        t = rho * self._cos
        w = self._rw[a:b] * self._tw
        w *= self._rho_pow[a:b]
        w *= self._sin_pow
        w *= self._measure
        return s.ravel()[lo:hi], t.ravel()[lo:hi], w.ravel()[lo:hi]

    def integrate(self, f, halves=False):
        """Integral over the ball of f(s, t); f maps equal-shape arrays.

        f must be pointwise in the nodes: its value at a node depends on
        that node's (s, t) alone, not on the other nodes of the call.  It is
        called on consecutive ranges of at most BLOCK_NODES nodes, and every
        integrand of the package is pointwise in this sense.  f may return a
        stack of integrands with the node axis last; then each row is
        integrated, and summed exactly as it would be alone.  With halves,
        one call f(s, t) returns the pair (f(s, t), f(s, -t)), the integrand
        on the mesh's upper half and on the mirrored lower half, for an f
        that gets both from the same evaluations.

        The sum over nodes is numpy's pairwise sum of w * (upper + lower),
        split the way np.sum splits it (_pairwise_sum) down to leaves of at
        most BLOCK_NODES nodes.  Each leaf is summed by np.sum itself, and
        the leaf sums are added back up the same tree: the result is that of
        one np.sum over all nodes, whatever BLOCK_NODES, and no array is as
        long as the mesh.
        """
        pair = f if halves else lambda s, t: (f(s, t), f(s, -t))

        def leaf(i, j):
            s, t, w = self.nodes(i, j)
            upper, lower = map(np.asarray, pair(s, t))
            return np.sum(w * (upper + lower), axis=-1)

        total = _pairwise_sum(leaf, 0, self.n_points // 2)
        return float(total) if total.ndim == 0 else total


def _pairwise_sum(leaf, i, j):
    """np.sum's pairwise tree over the values i..j-1, with leaf(i, j) at its leaves.

    numpy sums n > 128 values (its PW_BLOCKSIZE) as the sum of the first n2
    and of the other n - n2, with n2 = n // 2 rounded down to a multiple of
    8; shorter runs it adds in a fixed unrolled order, left to leaf here.
    leaf(i, j) returns np.sum over values i..j-1, which runs the same tree
    below it.  np.sum adds its tree to 0.0, so no leaf sum is -0.0, and the
    leaf sums added up the tree equal 0.0 plus the whole tree, bit for bit.
    """
    n = j - i
    if n <= max(BLOCK_NODES, 128):
        return leaf(i, j)
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(leaf, i, i + n2) + _pairwise_sum(leaf, i + n2, j)


_MESH_CACHE = {}


def get_quadrature(n, delta_min, level=1):
    key = (int(n), round(float(delta_min), 14), int(level))
    if key not in _MESH_CACHE:
        _MESH_CACHE[key] = BallQuadrature(n=int(n), delta_min=float(delta_min),
                                          level=int(level))
    return _MESH_CACHE[key]

