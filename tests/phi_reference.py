"""Reference copies of the half-space layer's earlier array code.

The oracle tests require the package's phi tables and lookups to equal
these bit for bit: the arithmetic is the same, only its layout changed.

- `eval_many_loop`: the lookup as 16 passes over every point, each stencil
  index clamped into the table, the products summed a-major, b-minor
  from 0.0, with `catmull_weights_expr`, the weights as one expression each.
- `angular_kernel_where` and `block_where`: the kernel with the series
  evaluated at every element and the log form written over it through
  `out=`/`where=`, and a block of one kind that takes its own g, its edges
  from `np.union1d`, and zeroes the nodes beyond each point's rho_big
  through an `np.where` copy.
"""

import numpy as np

from laneemden.ballquad import gauss_panels
from laneemden.halfspace import K_BASE, TAU_BLOCK, far_tail, g_data, g_tail, panel_edges


def catmull_weights_expr(t):
    w = np.empty((4,) + t.shape)
    w[0] = ((-0.5 * t + 1.0) * t - 0.5) * t
    w[1] = (1.5 * t - 2.5) * t * t + 1.0
    w[2] = ((-1.5 * t + 2.0) * t + 0.5) * t
    w[3] = (0.5 * t - 0.5) * t * t
    return w


def eval_many_loop(table, sig, tau):
    m = table.m
    uu = np.log1p(np.asarray(sig, dtype=np.float64))
    vv = np.log1p(np.asarray(tau, dtype=np.float64))
    x = np.minimum(np.maximum(uu / table.du, 0.0), m - 1.0 - 1e-9)
    y = np.minimum(np.maximum(vv / table.du, 0.0), m - 1.0 - 1e-9)
    ix = np.floor(x).astype(np.int64)
    iy = np.floor(y).astype(np.int64)
    wx = catmull_weights_expr(x - ix)
    wy = catmull_weights_expr(y - iy)
    out = np.zeros_like(uu)
    for a in range(4):
        ia = np.minimum(np.maximum(ix + (a - 1), 0), m - 1)
        for b in range(4):
            ib = np.minimum(np.maximum(iy + (b - 1), 0), m - 1)
            out = out + wx[a] * wy[b] * table.tab[ia * m + ib]
    return out


def angular_kernel_where(sig, tau, rho):
    tau2 = tau * tau
    A = sig * sig + tau2 + rho * rho
    B = 2.0 * sig * rho
    z = B / A
    ker = np.asarray((2.0 / A) * (1.0 + z * z / 3.0))
    den = (sig - rho) * (sig - rho) + tau2
    np.divide(np.log1p(2.0 * B / den), B, out=ker, where=z >= 1e-6)
    return ker


def block_where(corr, sig, taus, k):
    r_top = corr.profile.interp_pack.r_top
    bigs = np.maximum(60.0 * (sig + taus + 1.0), 2.0 * r_top)
    edges = np.union1d(panel_edges(sig, taus.min(), bigs.max(), r_top), bigs)
    rho, w = gauss_panels(edges, k)
    rho, w = rho.ravel(), w.ravel()
    wg = w * g_data(rho, corr.profile.interp_pack, (corr.which,))[0] * rho * rho
    ker = np.where(rho < bigs[:, None], angular_kernel_where(sig, taus[:, None], rho), 0.0)
    return ker @ wg / np.pi + far_tail(bigs, *g_tail(corr.profile.interp_pack, corr.which))


def table_where(corr, extent, m):
    """The flat table `corr.table(extent, m)` holds, built with block_where."""
    grid = np.expm1(np.linspace(0.0, np.log1p(extent), m))
    blocks = np.array_split(grid, -(-m // TAU_BLOCK))
    return np.concatenate([block_where(corr, s, taus, K_BASE) for s in grid for taus in blocks])
