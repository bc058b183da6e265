"""Harmonic half-space corrections driven by the profile's boundary flux.

For boundary data g(rho) = -(rho/2) U'(rho) (first component) or
-(rho/2) V'(rho) (second), the evaluator returns

    phi(x) = 2/(omega_n (n-2)) * int_{R^{n-1}} |x - (y',0)|^{2-n} g(|y'|) dy'

with omega_n the measure of the unit sphere in R^n.  g >= 0 and the kernel
is positive, so phi >= 0; the outward normal derivative of phi on the
boundary hyperplane (exterior normal of the half-space) equals g.

The (n-1)-fold integral collapses to a quadrature in (rho, angle) by axial
symmetry of g; for n = 4 the angular factor is a closed-form logarithm.
Data beyond rho_big is integrated in closed form from the profile's
power-law tail.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ._interp import profile_eval, tail_terms
from .ballquad import gauss_panels
from .errors import DomainError
from .params import CORRECTION_N
from .radial import RadialProfile

PHI1 = "PHI1"
PHI2 = "PHI2"
K_BASE = 12  # Gauss nodes per panel of the order-0 rule; order 1 takes 20
TAU_BLOCK = 32  # most grid taus per shared node set when a table is built
LOOKUP_CHUNK = 4096  # points per gather in PhiTable.eval_many
POINT_CHUNK = 64  # points per rule call in eval_points
HALVINGS = np.ldexp(1.0, -np.arange(1, 32))  # 2^-k, k = 1..31, for the refinement at sig
PARTS = {PHI1: "dU", PHI2: "dV"}  # the profile derivative each kind's g takes
# each profile's tables of both kinds, keyed (which, extent, m); a profile hashes by identity
_TABLES = weakref.WeakKeyDictionary()


def panel_edges(sig, tau, rho_big, r_top):
    """Quadrature panel edges on [0, rho_big], refined toward rho = sig.

    40 geometric edges from 1e-3 up, then pairs sig*(1 +- 2^-k) while the
    half-width sig*2^-k exceeds a quarter of the distance scale
    max(tau, 1e-9*max(sig, 1)); that stops by k = 31.  The profile's r_top,
    where g's formula changes (the cubics hand over to the power tail), is
    an edge too, so there are at most 1 + 40 + 1 + 62 + 1 + 1 = 106 edges.
    Edges within a relative 1e-14 of their predecessor are dropped, and so
    is a first edge below 1e-150: the squares of the nodes on a narrower
    first panel underflow, and the kernel there comes out 0/0.
    """
    geo = np.full(40, (rho_big / 1e-3) ** (1.0 / 40))
    geo[0] = 1e-3
    # cumprod multiplies in sequence: each geometric edge is its predecessor times the ratio
    parts = [[0.0], np.cumprod(geo), [rho_big]]
    if 0.0 < r_top < rho_big:
        parts.append([r_top])
    if sig > 0.0:
        w0 = max(tau, 1e-9 * max(sig, 1.0))
        half = HALVINGS[sig * HALVINGS > 0.25 * w0]
        refine = np.concatenate([sig * (1.0 - half), sig * (1.0 + half), [sig]])
        parts.append(refine[(refine > 0.0) & (refine < rho_big)])
    e = np.sort(np.concatenate(parts))
    return e[np.concatenate(([True], e[1:] > e[:-1] * (1.0 + 1e-14) + 1e-150))]


def edge_union(a, b):
    """np.union1d(a, b) bit for bit, without its import of numpy.ma on a first call."""
    e = np.sort(np.concatenate((a, b)))
    return e[np.concatenate(([True], e[1:] != e[:-1]))]


def g_data(rho, pack, kinds):
    """g(rho) = -(rho/2) U'(rho) for PHI1, -(rho/2) V'(rho) for PHI2: one array per kind."""
    return [-(rho / 2.0) * d for d in profile_eval(rho, pack, [PARTS[w] for w in kinds])]


def g_tail(pack, which):
    """g's (amp, expo) beyond r_top: a term a*rho^-e of the profile gives g (e*a/2)*rho^-e."""
    a, expo = np.array(tail_terms(pack, which == PHI2)).T
    return expo * a / 2.0, expo


def angular_kernel(sig, tau, rho):
    """n = 4 angular factor int_{-1}^{1} du / (A - B u), broadcast over its arguments.

    A = sig^2 + tau^2 + rho^2 and B = 2 sig rho.  It equals
    log((A + B)/(A - B))/B = log1p(2B/den)/B with den = A - B = (sig - rho)^2 + tau^2,
    which keeps its digits when B << den.  It is evaluated at every element; the series
    (2/A)(1 + z^2/3) overwrites it only where z = B/A < 1e-6 (B = 0 among them: 0/0).
    """
    tau2 = tau * tau
    A = np.asarray(sig * sig + tau2 + rho * rho)
    B = 2.0 * sig * rho
    ker = np.asarray((sig - rho) * (sig - rho) + tau2)  # den, overwritten in place
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(2.0 * B, ker, out=ker)
        np.log1p(ker, out=ker)
        ker /= B
    z = B / A
    small = z < 1e-6
    if small.any():
        ker[small] = (2.0 / A[small]) * (1.0 + z[small] * z[small] / 3.0)
    return ker


def far_tail(bigs, tail_amp, tail_expo):
    """Contribution of the data beyond each rho_big of the array bigs.

    There g ~ sum_j amp_j * rho^-expo_j and the angular kernel is
    ~ |S^{n-2}| rho^{2-n} (relative error O((|x|/rho)^2)); float_power
    rounds as the scalar pow does, np.power may not.
    """
    terms = tail_amp * np.float_power(bigs[:, None], 1.0 - tail_expo) / (tail_expo - 1.0)
    return np.sum(terms, axis=-1) * (2.0 / np.pi)


def catmull_weights(t, w):
    """Catmull-Rom weights at fractions t, written into w of shape (4,) + t.shape:
    ((-t/2 + 1) t - 1/2) t, (3t/2 - 5/2) t t + 1, ((-3t/2 + 2) t + 1/2) t, (t/2 - 1/2) t t."""
    shape = (4,) + (1,) * t.ndim
    np.multiply(t, np.reshape([-0.5, 1.5, -1.5, 0.5], shape), out=w)
    w += np.reshape([1.0, -2.5, 2.0, -0.5], shape)
    w *= t
    w[0] -= 0.5
    w[2] += 0.5
    w *= t
    w[1] += 1.0


@dataclass(eq=False)
class PhiTable:
    """Cached phi values on a log1p-uniform (sigma, tau) grid.

    tab is flat and sigma-major: tab[i*m + j] is phi at (expm1(i*du), expm1(j*du)).
    padded is tab edge-replicated by 1 before and 2 after on each axis (rows of
    m + 3), so a lookup reads its 16 stencil values at fixed offsets from one
    index, and the edge cells keep the clamped stencil, no longer cubic-accurate:
    on the p = 3, m = 257, extent-220 table it is off by up to ~2.5e-4 relative
    in the first tau cell (tau -> 0, the ball's pole) and ~1.5e-3 in the last
    cell of either axis, against ~2e-7 in the cells between.  which names
    the correction the table samples, PHI1 or PHI2; the two tables of a profile,
    extent and m are built in one pass.
    """

    extent: float
    m: int
    du: float
    tab: np.ndarray
    which: str
    padded: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.padded = np.pad(self.tab.reshape(self.m, -1), ((1, 2), (1, 2)), "edge").ravel()

    def eval_many(self, sig, tau):
        """Separable cubic-convolution interpolation at (sigma, tau) points, both >= 0.

        Points beyond the extent take the last cell's stencil; each LOOKUP_CHUNK
        of points reads its stencils with one gather, into arrays made once per call.
        """
        sig, tau = np.broadcast_arrays(np.asarray(sig, dtype=np.float64),
                                       np.asarray(tau, dtype=np.float64))
        if not (np.all(sig >= 0) and np.all(tau >= 0)):  # NaN fails too
            raise DomainError("lookup points must satisfy sigma >= 0 and tau >= 0")
        s, t = sig.ravel(), tau.ravel()
        row, n = self.m + 3, min(s.size, LOOKUP_CHUNK)
        top = self.m - 1.0 - 1e-9
        taps = (np.arange(4)[:, None] * row + np.arange(4)).reshape(16, 1)
        out = np.zeros(s.size)
        fbuf, ibuf = np.empty(44 * n), np.empty(18 * n, dtype=np.int64)
        for lo in range(0, s.size, LOOKUP_CHUNK):
            c = min(LOOKUP_CHUNK, s.size - lo)
            # rows of c points: grid coordinates, fractions and cells of (sigma, tau),
            # 4 weights per axis, then the stencil's 16 products, values and indices
            x, frac, w, prod, vals = np.split(fbuf[:44 * c].reshape(44, c), [2, 4, 12, 28])
            cell, idx = np.split(ibuf[:18 * c].reshape(18, c), [2])
            np.log1p(s[lo:lo + c], out=x[0])
            np.log1p(t[lo:lo + c], out=x[1])
            x /= self.du
            np.minimum(np.maximum(x, 0.0, out=x), top, out=x)
            np.floor(x, out=frac)
            cell[...] = frac
            np.subtract(x, frac, out=frac)
            w = w.reshape(4, 2, c)
            catmull_weights(frac, w)
            # prod[4a + b] = wx[a] * wy[b]; the sum runs a-major, b-minor from 0.0
            np.multiply(w[:, None, 0], w[None, :, 1], out=prod.reshape(4, 4, c))
            cell[0] *= row
            cell[0] += cell[1]
            np.add(cell[0], taps, out=idx)
            np.take(self.padded, idx, out=vals, mode="clip")
            prod *= vals
            acc = out[lo:lo + c]
            for p in prod:
                acc += p
        return out.reshape(sig.shape)[()]


@dataclass(eq=False)
class HalfSpaceCorrection:
    """Evaluator for one harmonic boundary-layer correction of a profile."""

    profile: RadialProfile
    which: str
    _tables: dict = field(init=False, repr=False)  # the profile's, shared by both kinds

    def __post_init__(self):
        if self.which not in PARTS:
            raise DomainError(f"unknown correction kind {self.which!r}")
        if self.profile.params.n != CORRECTION_N:
            raise DomainError(f"half-space corrections are implemented for n = {CORRECTION_N}")
        self._tables = _TABLES.setdefault(self.profile, {})

    def rule(self, blocks, k, kinds):
        """The one quadrature of phi: phi at the points of each (sig, taus) of blocks,
        a row for each kind of kinds.

        k is the number of Gauss nodes per panel.  Each point integrates its data
        up to rho_big = max(60 (sig + tau + 1), 2 r_top); far_tail adds the rest.  A
        block's edges are panel_edges(sig, min tau, largest rho_big) plus the
        rho_big of every point, and each point weights only the nodes below its
        own rho_big; for one tau this is panel_edges(sig, tau, rho_big) itself.
        g is evaluated once on the nodes of all blocks, the kernel once per block.
        """
        pack = self.profile.interp_pack
        nodes = []
        for sig, taus in blocks:
            bigs = np.maximum(60.0 * (sig + taus + 1.0), 2.0 * pack.r_top)
            edges = edge_union(panel_edges(sig, taus.min(), bigs.max(), pack.r_top), bigs)
            nodes.append([a.ravel() for a in gauss_panels(edges, k)] + [bigs])
        gs = g_data(np.concatenate([rho for rho, _, _ in nodes]), pack, kinds)
        out, lo = [], 0
        for (sig, taus), (rho, w, bigs) in zip(blocks, nodes):
            ker = angular_kernel(sig, taus[:, None], rho)
            ker[rho >= bigs[:, None]] = 0.0
            out.append([ker @ (w * g[lo:lo + rho.size] * rho * rho) / np.pi for g in gs])
            lo += rho.size
        bigs = np.concatenate([bigs for _, _, bigs in nodes])
        return np.array([q + far_tail(bigs, *g_tail(pack, which))
                         for q, which in zip(np.concatenate(out, axis=1), kinds)])

    def eval_points(self, sig, tau, order=0):
        """Direct quadrature at (|x'|, x_n) points; order 0/1 takes 12/20 nodes per panel.

        Each point is its own block of one tau, with its own rho_big and
        panels: the per-point reference the tables are tested against.  The
        points go through rule() POINT_CHUNK at a time.
        """
        sig = np.atleast_1d(np.asarray(sig, dtype=np.float64))
        tau = np.atleast_1d(np.asarray(tau, dtype=np.float64))
        if sig.shape != tau.shape:
            raise DomainError("sig and tau must have the same shape")
        if not (np.all(sig >= 0) and np.all(tau >= 0)):  # NaN fails too
            raise DomainError("evaluation points must satisfy |x'| >= 0 and x_n >= 0")
        if order not in (0, 1):
            raise DomainError(f"order must be 0 or 1, not {order!r}")
        if not sig.size:
            return np.zeros(0)
        k = K_BASE if order == 0 else 20
        points = list(zip(sig, tau[:, None]))
        return np.concatenate([self.rule(points[lo:lo + POINT_CHUNK], k, (self.which,))[0]
                               for lo in range(0, sig.size, POINT_CHUNK)])

    def table(self, extent, m=257):
        """Build (and cache) the interpolation table covering [0, extent]^2.

        A miss builds the tables of both kinds: one rule call per sigma row with
        ceil(m / TAU_BLOCK) blocks of consecutive grid taus, equal in size to within
        one tau, and the order-0 rule.  The extent must be finite and positive and
        m at least 4, the width of the stencil.
        """
        if not (np.isfinite(extent) and extent > 0) or m < 4:
            raise DomainError(f"a table needs a finite extent > 0 and m >= 4, not "
                              f"extent={extent!r}, m={m!r}")
        key = (self.which, float(extent), int(m))
        if key not in self._tables:
            gu = np.linspace(0.0, np.log1p(extent), m)
            grid = np.expm1(gu)
            blocks = np.array_split(grid, -(-m // TAU_BLOCK))
            rows = [self.rule([(s, taus) for taus in blocks], K_BASE, PARTS) for s in grid]
            for which, tab in zip(PARTS, np.concatenate(rows, axis=1)):
                self._tables[(which,) + key[1:]] = PhiTable(
                    extent=float(extent), m=m, du=float(gu[1] - gu[0]), tab=tab, which=which)
        return self._tables[key]
