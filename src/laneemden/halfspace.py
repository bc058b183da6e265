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

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from ._interp import deriv_component_eval
from .ballquad import gauss_panels
from .errors import DomainError, QuadratureNonConvergent
from .radial import RadialProfile

PHI1 = "PHI1"
PHI2 = "PHI2"


def g_of_rho(rho, pack, which_v):
    if which_v:
        d = deriv_component_eval(rho, pack.breaks, pack.cdv, pack.r_top,
                                 pack.bv, pack.ev, 0.0, 1.5)
    else:
        d = deriv_component_eval(rho, pack.breaks, pack.cdu, pack.r_top,
                                 pack.au, pack.eu, pack.cu2, pack.e2)
    return -(rho / 2.0) * d


def panel_edges(sig, tau, rho_big):
    """Quadrature panel edges on [0, rho_big], refined toward rho = sig.

    40 geometric edges from 1e-3 up, then pairs sig*(1 +- 2^-k) while the
    half-width sig*2^-k exceeds a quarter of the distance scale
    max(tau, 1e-9*max(sig, 1)); that stops by k = 31, so there are at most
    1 + 40 + 1 + 62 + 1 = 105 edges.  Edges within a relative 1e-14 of
    their predecessor are dropped, and so is a first edge below 1e-150: the
    squares of the nodes on a narrower first panel underflow, and the
    kernel there comes out 0/0.
    """
    lo, nlog = 1e-3, 40
    ratio = (rho_big / lo) ** (1.0 / nlog)
    # cumprod multiplies in sequence: each edge is its predecessor times ratio
    parts = [[0.0], np.cumprod(np.r_[lo, np.full(nlog - 1, ratio)]), [rho_big]]
    if sig > 0.0:
        w0 = max(tau, 1e-9 * max(sig, 1.0))
        half = np.ldexp(1.0, -np.arange(1, 32))
        half = half[sig * half > 0.25 * w0]
        refine = np.concatenate([sig * (1.0 - half), sig * (1.0 + half), [sig]])
        parts.append(refine[(refine > 0.0) & (refine < rho_big)])
    e = np.sort(np.concatenate(parts))
    return e[np.r_[True, e[1:] > e[:-1] * (1.0 + 1e-14) + 1e-150]]


def phi4_point(sig, tau, pack, which_v, tail_amp, tail_expo, k):
    """n = 4 evaluation at one point (sigma, tau) of the closed half-space.

    k is the number of Gauss nodes per panel.
    """
    big = max(60.0 * (sig + tau + 1.0), 2.0 * pack.r_top)
    rho, w = gauss_panels(panel_edges(sig, tau, big), k)
    # panel-major node order: np.sum below depends on it
    rho, w = rho.ravel(), w.ravel()
    gv = g_of_rho(rho, pack, which_v)
    tau2 = tau * tau
    A = sig * sig + tau2 + rho * rho
    B = 2.0 * sig * rho
    z = B / A
    small = z < 1e-6
    zs = np.where(small, z, 0.0)
    series = (2.0 / A) * (1.0 + zs * zs / 3.0)
    num = (sig + rho) * (sig + rho) + tau2
    den = (sig - rho) * (sig - rho) + tau2
    safe_b = np.where(small, 1.0, B)
    logk = np.log(np.where(small, 1.0, num / den)) / safe_b
    ker = np.where(small, series, logk)
    val = np.sum(w * gv * rho * rho * ker) / np.pi
    # data tail beyond rho_big in closed form: g ~ sum_j amp_j * rho^-expo_j,
    # angular kernel there ~ |S^{n-2}| rho^{2-n} (relative error O((|x|/rho)^2));
    # float_power rounds as the scalar pow does, np.power may not
    tail = np.sum(tail_amp * np.float_power(big, 1.0 - tail_expo) / (tail_expo - 1.0))
    return val + tail * (2.0 / np.pi)


def catmull_weights(t):
    w = np.empty((4,) + t.shape)
    w[0] = ((-0.5 * t + 1.0) * t - 0.5) * t
    w[1] = (1.5 * t - 2.5) * t * t + 1.0
    w[2] = ((-1.5 * t + 2.0) * t + 0.5) * t
    w[3] = (0.5 * t - 0.5) * t * t
    return w


def table_eval(tab, m, du, uu, vv):
    """Separable cubic-convolution interpolation on the uniform (u,v) grid."""
    x = uu / du
    y = vv / du
    x = np.minimum(np.maximum(x, 0.0), m - 1.0 - 1e-9)
    y = np.minimum(np.maximum(y, 0.0), m - 1.0 - 1e-9)
    ix = np.floor(x).astype(np.int64)
    iy = np.floor(y).astype(np.int64)
    wx = catmull_weights(x - ix)
    wy = catmull_weights(y - iy)
    out = np.zeros_like(uu)
    for a in range(4):
        ia = np.minimum(np.maximum(ix + (a - 1), 0), m - 1)
        for b in range(4):
            ib = np.minimum(np.maximum(iy + (b - 1), 0), m - 1)
            out = out + wx[a] * wy[b] * tab[ia * m + ib]
    return out


@dataclass
class PhiTable:
    """Cached phi values on a log1p-uniform (sigma, tau) grid."""

    extent: float
    m: int
    du: float
    tab: np.ndarray

    def eval_many(self, sig, tau):
        uu = np.log1p(np.asarray(sig, dtype=np.float64))
        vv = np.log1p(np.asarray(tau, dtype=np.float64))
        return table_eval(self.tab, self.m, self.du, uu, vv)


@dataclass
class HalfSpaceCorrection:
    """Evaluator for one harmonic boundary-layer correction of a profile."""

    profile: RadialProfile
    which: str
    _tables: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.which not in (PHI1, PHI2):
            raise DomainError(f"unknown correction kind {self.which!r}")
        if self.profile.params.n != 4:
            raise DomainError("half-space corrections are implemented for n = 4")

    @property
    def _which_v(self):
        return self.which == PHI2

    @property
    def _pack(self):
        return self.profile.interp_pack

    def _tail_terms(self):
        """(amp, expo) of the nonzero power terms of g beyond r_top."""
        pk = self._pack
        if self._which_v:
            amp = np.array([pk.ev * pk.bv / 2.0])
            expo = np.array([pk.ev])
        else:
            amp = np.array([pk.eu * pk.au / 2.0, pk.e2 * pk.cu2 / 2.0])
            expo = np.array([pk.eu, pk.e2])
        return amp[amp != 0.0], expo[amp != 0.0]

    def boundary_data(self, rho):
        """g(rho) >= 0 on the boundary hyperplane."""
        rho = np.atleast_1d(np.asarray(rho, dtype=np.float64))
        return g_of_rho(rho, self._pack, self._which_v)

    def eval_points(self, sig, tau, order=0):
        """Direct quadrature at (|x'|, x_n) points; order 0/1 takes 12/20 nodes per panel."""
        sig = np.atleast_1d(np.asarray(sig, dtype=np.float64))
        tau = np.atleast_1d(np.asarray(tau, dtype=np.float64))
        if sig.shape != tau.shape:
            raise DomainError("sig and tau must have the same shape")
        if np.any(tau < 0):
            raise DomainError("evaluation points must satisfy x_n >= 0")
        amp, expo = self._tail_terms()
        k = 12 if order == 0 else 20
        return np.array([phi4_point(s, t, self._pack, self._which_v, amp, expo, k)
                         for s, t in zip(sig, tau)])

    def phi_eval(self, x, rel_tol=1e-4):
        """Accurate evaluation at one point of the closed half-space.

        Runs the base and a refined rule; raises QuadratureNonConvergent if
        they disagree beyond rel_tol.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size < 2:
            raise DomainError("x must be a point of R^n")
        sig = float(np.sqrt(np.sum(x[:-1] ** 2)))
        tau = float(x[-1])
        a = float(self.eval_points([sig], [tau], order=0)[0])
        b = float(self.eval_points([sig], [tau], order=1)[0])
        if abs(b - a) > rel_tol * max(abs(b), 1e-300):
            raise QuadratureNonConvergent(
                f"phi quadrature spread {abs(b - a):.2e} at (sigma={sig}, tau={tau})")
        return b

    def table(self, extent, m=257):
        """Build (and cache) the interpolation table covering [0, extent]^2."""
        key = (float(extent), int(m))
        if key not in self._tables:
            gu = np.linspace(0.0, np.log1p(extent), m)
            sig = np.expm1(gu)
            S, T = np.meshgrid(sig, sig, indexing="ij")
            vals = self.eval_points(S.ravel(), T.ravel())
            self._tables[key] = PhiTable(extent=float(extent), m=m,
                                         du=float(gu[1] - gu[0]), tab=vals)
        return self._tables[key]

    def verify_harmonic(self, sample_box=((1.0, 2.0), (1.0, 2.0)), h=0.05, k=3):
        """Max |FD Laplacian| over a k x k sample grid inside the box."""
        (s_lo, s_hi), (t_lo, t_hi) = sample_box
        if t_lo < 2 * h:
            raise DomainError("sample box must keep x_n >= 2h")
        n = self.profile.params.n
        worst = 0.0
        for sig in np.linspace(s_lo, s_hi, k):
            for tau in np.linspace(t_lo, t_hi, k):
                x = np.zeros(n)
                x[0] = sig
                x[-1] = tau
                f0 = self.phi_eval(x)
                lap = 0.0
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = h
                    lap += (self.phi_eval(x + e) + self.phi_eval(x - e) - 2 * f0) / h ** 2
                worst = max(worst, abs(lap))
        return worst

    def verify_neumann_data(self, radii, h=5e-3):
        """Max relative mismatch of the outward normal derivative against g.

        Second-order one-sided difference in the outward direction -e_n.
        """
        worst = 0.0
        for rho in radii:
            f0 = float(self.eval_points([rho], [0.0], order=1)[0])
            f1 = float(self.eval_points([rho], [h], order=1)[0])
            f2 = float(self.eval_points([rho], [2 * h], order=1)[0])
            dn_out = -(-3 * f0 + 4 * f1 - f2) / (2 * h)
            g = float(self.boundary_data([rho])[0])
            worst = max(worst, abs(dn_out - g) / abs(g))
        return worst

    def sample_to_csv(self, path, sig_max=20.0, tau_max=20.0, n=40):
        """Write a (|x'|, x_n, value) sample grid for plotting."""
        from .reporting import write_csv
        sig = np.linspace(0.0, sig_max, n)
        tau = np.linspace(0.0, tau_max, n)
        S, T = np.meshgrid(sig, tau, indexing="ij")
        vals = self.eval_points(S.ravel(), T.ravel())
        write_csv(path, ["s", "t", "value"], [S.ravel(), T.ravel(), vals])

    def decay_exponent(self, tau_lo=30.0, tau_hi=600.0, n_pts=12):
        """Fitted decay exponent of phi along the axis, with its target.

        Fits C (1+tau)^-k + C2 (1+tau)^-k2 with k free and k2 the next
        structural decay rate: the generic harmonic rate n-3 when the
        leading rate sits below it (slow first-component data), k+1
        otherwise.  The second term removes the bias a plain log-log slope
        would carry from the subleading mode.
        """
        taus = np.geomspace(tau_lo, tau_hi, n_pts)
        vals = self.eval_points(np.zeros_like(taus), taus)
        n, p = self.profile.params.n, self.profile.params.p
        if self.which == PHI1 and self.profile.params.case_tag == "SUB":
            k_th = p * (n - 2.0) - 3.0
            k2 = n - 3.0
        else:
            k_th = n - 3.0
            k2 = k_th + 1.0
        base = 1.0 + taus

        def resid(kk):
            A = np.vstack([base ** -kk, base ** -k2]).T
            coef, *_ = np.linalg.lstsq(A / vals[:, None], np.ones_like(vals), rcond=None)
            return float(np.sum((A @ coef / vals - 1.0) ** 2))

        res = minimize_scalar(resid, bounds=(max(0.2, 0.6 * k_th), k2 - 1e-3),
                              method="bounded", options={"xatol": 1e-8})
        return float(res.x), k_th
