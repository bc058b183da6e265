"""The eight constants of the reduced-energy expansion.

All are 1D radial integrals of the ground state (the boundary-strip pair
also has a direct 2D form used as a consistency oracle):

    A1 = int_{R^n} U^(q+1),            A2 = int_{R^n} V^(p+1),
    B1 = lim (1/2) int_{R^{n-1}} |y'|^2 U^(q+1)(|y'|) dy'   (and B2 with V),
    C1 = -int_{R^{n-1}} |x'| U'(|x'|) V(|x'|) dx' > 0       (C2 swaps roles),
    D1 = int_{R^n} U^(q+1) log U,      D2 = int_{R^n} V^(p+1) log V.

B1, B2 are reported at their delta -> 0 limit; the delta-dependent
boundary-strip integral (mode DELTA) converges to it first-order and
serves as the validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ballquad import gauss_legendre, gauss_panels, sphere_measure
from .errors import TailDivergent
from .radial import RadialProfile

XI_RADIUS = np.sqrt(15.0) / 8.0  # boundary strip footprint radius


@dataclass(frozen=True)
class EnergyConstants:
    A1: float
    A2: float
    B1: float
    B2: float
    C1: float
    C2: float
    D1: float
    D2: float
    err: dict
    mode: str = "LIMIT"
    delta_used: float = 0.0

    def as_dict(self):
        d = {k: getattr(self, k) for k in ("A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2")}
        d.update({f"err_{k}": v for k, v in self.err.items()})
        d["mode"] = self.mode
        d["delta_used"] = self.delta_used
        return d


def _panels(r_max, n_panels=36):
    edges = np.concatenate([[0.0], np.geomspace(1e-4, r_max, n_panels)])
    return edges


def _radial_quad(f, r_max, k):
    """Composite k-point Gauss on log-graded panels over [0, r_max].

    The panel half-width multiplies each panel's node sum, and the panels
    are added in sequence: weights folded into the node sum, or a pairwise
    sum over panels, change the constants in the last bits.
    """
    edges = _panels(r_max)
    r, _ = gauss_panels(edges, k)
    _, wg = gauss_legendre(k)
    return np.cumsum(0.5 * np.diff(edges) * np.sum(wg * f(r), axis=1))[-1]


def _with_err(f, r_max):
    lo = _radial_quad(f, r_max, 12)
    hi = _radial_quad(f, r_max, 20)
    return hi, abs(hi - lo)


def _power_tail(r_max, m):
    """int_{r_max}^inf r^m dr, m < -1."""
    return r_max ** (m + 1.0) / (-(m + 1.0))


def _power_log_tail(r_max, m):
    """int_{r_max}^inf r^m log(r) dr, m < -1."""
    s = -(m + 1.0)
    return r_max ** (m + 1.0) * (np.log(r_max) / s + 1.0 / s ** 2)


def compute_A_D(profile: RadialProfile):
    """(A1, A2, D1, D2) with per-constant quadrature error estimates."""
    n, p, q = profile.params.n, profile.params.p, profile.params.q
    pk = profile.interp_pack
    if (q + 1.0) * pk.eu <= n:
        raise TailDivergent("(q+1)*exp_U <= n: first-component mass diverges")
    sn = sphere_measure(n)

    def f_A1(r):
        U, _, _, _ = profile.eval_many(r)
        return r ** (n - 1.0) * U ** (q + 1.0)

    def f_A2(r):
        _, _, V, _ = profile.eval_many(r)
        return r ** (n - 1.0) * V ** (p + 1.0)

    def f_D1(r):
        U, _, _, _ = profile.eval_many(r)
        return r ** (n - 1.0) * U ** (q + 1.0) * np.log(U)

    def f_D2(r):
        _, _, V, _ = profile.eval_many(r)
        return r ** (n - 1.0) * V ** (p + 1.0) * np.log(V)

    # closed-form tails from the anchored power laws (leading term in the
    # two-term first component; the cross term is binomially subleading)
    r_top = pk.r_top
    mU = n - 1.0 - (q + 1.0) * pk.eu
    mV = n - 1.0 - (p + 1.0) * pk.ev
    tail_A1 = pk.au ** (q + 1.0) * (
        _power_tail(r_top, mU)
        + (q + 1.0) * (pk.cu2 / pk.au) * _power_tail(r_top, mU - (pk.e2 - pk.eu)))
    tail_A2 = pk.bv ** (p + 1.0) * _power_tail(r_top, mV)
    tail_D1 = pk.au ** (q + 1.0) * (np.log(pk.au) * _power_tail(r_top, mU)
                                    - pk.eu * _power_log_tail(r_top, mU))
    tail_D2 = pk.bv ** (p + 1.0) * (np.log(pk.bv) * _power_tail(r_top, mV)
                                    - pk.ev * _power_log_tail(r_top, mV))

    out = {}
    for key, f, tail in (("A1", f_A1, tail_A1), ("A2", f_A2, tail_A2),
                         ("D1", f_D1, tail_D1), ("D2", f_D2, tail_D2)):
        v, e = _with_err(f, r_top)
        out[key] = (sn * (v + tail), sn * (e + abs(tail) * 1e-3))
    return out


def compute_B_limit(profile: RadialProfile):
    """(B1, B2) at the delta -> 0 limit of the boundary-strip integrals."""
    n, p, q = profile.params.n, profile.params.p, profile.params.q
    pk = profile.interp_pack
    if (q + 1.0) * pk.eu <= n + 1:
        raise TailDivergent("(q+1)*exp_U <= n+1: boundary-strip mass diverges")
    sm = sphere_measure(n - 1)

    def f_B1(r):
        U, _, _, _ = profile.eval_many(r)
        return r ** float(n) * U ** (q + 1.0)

    def f_B2(r):
        _, _, V, _ = profile.eval_many(r)
        return r ** float(n) * V ** (p + 1.0)

    r_top = pk.r_top
    mU = float(n) - (q + 1.0) * pk.eu
    mV = float(n) - (p + 1.0) * pk.ev
    tail_B1 = pk.au ** (q + 1.0) * (
        _power_tail(r_top, mU)
        + (q + 1.0) * (pk.cu2 / pk.au) * _power_tail(r_top, mU - (pk.e2 - pk.eu)))
    tail_B2 = pk.bv ** (p + 1.0) * _power_tail(r_top, mV)
    v1, e1 = _with_err(f_B1, r_top)
    v2, e2 = _with_err(f_B2, r_top)
    return {"B1": (0.5 * sm * (v1 + tail_B1), 0.5 * sm * e1),
            "B2": (0.5 * sm * (v2 + tail_B2), 0.5 * sm * e2)}


def compute_B_delta(profile: RadialProfile, delta: float):
    """Boundary-strip integrals at finite delta (the validation oracle of LIMIT).

    B1(delta) integrates delta^(-n-1) U^(q+1)(|x - e_n|/delta) over the thin
    lens between the sphere and the tangent plane, radius sqrt(15)/8.
    """
    if not 0 < delta <= 0.1:
        raise TailDivergent(f"delta={delta} outside (0, 0.1]")
    n, p, q = profile.params.n, profile.params.p, profile.params.q
    sm = sphere_measure(n - 1)
    edges = np.concatenate([np.linspace(0.0, 1.0, 5)[:-1],
                            np.geomspace(1.0, XI_RADIUS / delta, 40)])
    # axes (panel, tau node, u node): tau runs along the plane, u across the lens
    tau, wt = gauss_panels(edges, 12)
    xg, wg = gauss_legendre(12)
    ubar = (delta * tau * tau / (1.0 + np.sqrt(1.0 - delta * delta * tau * tau)))[..., None]
    u = 0.5 * ubar * (1.0 + xg)
    U, _, V, _ = profile.eval_many(np.sqrt((tau * tau)[..., None] + u * u))

    def strip(val):
        # inner sum node by node, outer sum panel by panel
        inner = np.cumsum(0.5 * ubar * wg * val, axis=-1)[..., -1]
        return sm * np.cumsum(np.sum(wt * tau ** (n - 2.0) * inner, axis=1))[-1] / delta

    return {"B1": strip(U ** (q + 1.0)), "B2": strip(V ** (p + 1.0))}


def compute_C(profile: RadialProfile):
    """(C1, C2), both positive."""
    n = profile.params.n
    pk = profile.interp_pack
    m = n - 1.0 - (pk.eu + 1.0) - pk.ev
    if m >= -1.0:
        raise TailDivergent("first-derivative/second-component tail not integrable")
    sm = sphere_measure(n - 1)

    def f_C1(r):
        _, dU, V, _ = profile.eval_many(r)
        return -(r ** (n - 1.0)) * dU * V

    def f_C2(r):
        U, _, _, dV = profile.eval_many(r)
        return -(r ** (n - 1.0)) * dV * U

    # tails: dU ~ -eu*au r^-(eu+1) - e2*cu2 r^-(e2+1); V ~ bv r^-ev; and the swap
    r_top = pk.r_top
    tail_C1 = pk.bv * (pk.eu * pk.au * _power_tail(r_top, m)
                       + pk.e2 * pk.cu2 * _power_tail(r_top, n - 1.0 - (pk.e2 + 1.0) - pk.ev))
    tail_C2 = pk.ev * pk.bv * (pk.au * _power_tail(r_top, n - 1.0 - (pk.ev + 1.0) - pk.eu)
                               + pk.cu2 * _power_tail(r_top, n - 1.0 - (pk.ev + 1.0) - pk.e2))
    v1, e1 = _with_err(f_C1, r_top)
    v2, e2 = _with_err(f_C2, r_top)
    return {"C1": (sm * (v1 + tail_C1), sm * (e1 + abs(tail_C1) * 1e-2)),
            "C2": (sm * (v2 + tail_C2), sm * (e2 + abs(tail_C2) * 1e-2))}


def compute_constants(profile: RadialProfile, b_mode="LIMIT", b_delta=0.01) -> EnergyConstants:
    """Assemble all eight constants with error estimates."""
    ad = compute_A_D(profile)
    cc = compute_C(profile)
    errs = {}
    vals = {}
    for k, (v, e) in {**ad, **cc}.items():
        vals[k] = v
        errs[k] = e
    bl = compute_B_limit(profile)
    if b_mode == "LIMIT":
        for k, (v, e) in bl.items():
            vals[k] = v
            errs[k] = e
        delta_used = 0.0
    else:
        bd = compute_B_delta(profile, b_delta)
        for k in ("B1", "B2"):
            vals[k] = bd[k]
            errs[k] = abs(bd[k] - bl[k][0])
        delta_used = b_delta
    return EnergyConstants(A1=vals["A1"], A2=vals["A2"], B1=vals["B1"], B2=vals["B2"],
                           C1=vals["C1"], C2=vals["C2"], D1=vals["D1"], D2=vals["D2"],
                           err=errs, mode=b_mode, delta_used=delta_used)
