"""The eight constants of the reduced-energy expansion.

All are 1D radial integrals of the ground state out to r_top * TAIL_REACH,
past r_top over the profile's own power tails (the boundary-strip pair also
has a direct 2D form used as a consistency oracle):

    A1 = int_{R^n} U^(q+1),            A2 = int_{R^n} V^(p+1),
    B1 = lim (1/2) int_{R^{n-1}} |y'|^2 U^(q+1)(|y'|) dy'   (and B2 with V),
    C1 = -int_{R^{n-1}} |x'| U'(|x'|) V(|x'|) dx' > 0       (C2 swaps roles),
    D1 = int_{R^n} U^(q+1) log U,      D2 = int_{R^n} V^(p+1) log V.

B1, B2 are reported at their delta -> 0 limit by default; the
delta-dependent boundary-strip integral (compute_constants with
b_delta > 0) converges to it first-order and serves as the validation
oracle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._interp import profile_eval
from .ballquad import gauss_legendre, gauss_panels, sphere_measure
from .errors import DomainError, TailDivergent
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
    delta_used: float = 0.0

    def as_dict(self):
        d = asdict(self)
        d.update({f"err_{k}": v for k, v in d.pop("err").items()})
        return d


PANELS = 36  # panels up to r_top, and as many past it
TAIL_REACH = 1e24  # the last edge is r_top * TAIL_REACH: 24 decades at 1.5 panels a decade


def _panels(r_max):
    """0 and PANELS geometric edges from 1e-4 to r_max, then PANELS more to
    r_max * TAIL_REACH."""
    return np.concatenate([[0.0], np.geomspace(1e-4, r_max, PANELS),
                           np.geomspace(r_max, r_max * TAIL_REACH, PANELS + 1)[1:]])


def _radial_quad(f, r_max, k):
    """Composite k-point Gauss on log-graded panels over [0, r_max * TAIL_REACH]:
    (the total, its part past r_max).

    f may return a stack of integrands with the (panel, node) axes last;
    then each row is integrated, and summed exactly as it would be alone.
    The panel half-width multiplies each panel's node sum, and the panels
    are added in sequence: weights folded into the node sum, or a pairwise
    sum over panels, change the constants in the last bits.  The part past
    r_max is its own running sum over the panels there.
    """
    edges = _panels(r_max)
    r, _ = gauss_panels(edges, k)
    _, wg = gauss_legendre(k)
    sums = 0.5 * np.diff(edges) * np.sum(wg * np.asarray(f(r)), axis=-1)
    # [()]: a lone integral as a scalar
    return (np.cumsum(sums, axis=-1)[..., -1][()],
            np.cumsum(sums[..., PANELS:], axis=-1)[..., -1][()])


def compute_B_delta(profile: RadialProfile, delta: float):
    """Boundary-strip integrals at finite delta (the validation oracle of the limit).

    B1(delta) integrates delta^(-n-1) U^(q+1)(|x - e_n|/delta) over the thin
    lens between the sphere and the tangent plane, radius sqrt(15)/8.
    """
    if not 0 < delta <= 0.1:
        raise DomainError(f"delta={delta} outside (0, 0.1]")
    n, p, q = profile.params.n, profile.params.p, profile.params.q
    sm = sphere_measure(n - 1)
    edges = np.concatenate([np.linspace(0.0, 1.0, 5)[:-1],
                            np.geomspace(1.0, XI_RADIUS / delta, 40)])
    # axes (panel, tau node, u node): tau runs along the plane, u across the lens
    tau, wt = gauss_panels(edges, 12)
    xg, wg = gauss_legendre(12)
    ubar = (delta * tau * tau / (1.0 + np.sqrt(1.0 - delta * delta * tau * tau)))[..., None]
    u = 0.5 * ubar * (1.0 + xg)
    U, V = profile_eval(np.sqrt((tau * tau)[..., None] + u * u), profile.interp_pack, ("U", "V"))

    def strip(val):
        # inner sum node by node, outer sum panel by panel
        inner = np.cumsum(0.5 * ubar * wg * val, axis=-1)[..., -1]
        return sm * np.cumsum(np.sum(wt * tau ** (n - 2.0) * inner, axis=1))[-1] / delta

    return {"B1": strip(U ** (q + 1.0)), "B2": strip(V ** (p + 1.0))}


def compute_constants(profile: RadialProfile, b_delta=0.0) -> EnergyConstants:
    """Assemble all eight constants with error estimates.

    One stack of eight radial integrands is integrated at k = 12 and 20,
    with one profile evaluation per rule, out to r_top * TAIL_REACH: past
    r_top the panels integrate the profile's own power tails.  The k = 20
    value times the constant's measure is the constant, and the rule
    difference plus a share of the part past r_top is its error.  A b_delta
    of 0 gives B1, B2 at their delta -> 0 limit; a b_delta in (0, 0.1]
    gives the boundary-strip values there, each with its distance from the
    limit as its error.
    """
    n, p, q = profile.params.n, profile.params.p, profile.params.q
    pk = profile.interp_pack
    # a tail r^m beyond r_top leaves TAIL_REACH^(m+1) of itself past the reach.  U's
    # rows decay fast for every ProblemParams ((q+1)*eu > n+1); the slowest rows are
    # C's, r^(n-1) U'V ~ r^-eu (and the swap), and B2's, r^n V^(p+1)
    share = TAIL_REACH ** (max(-pk.eu, n - (p + 1.0) * pk.e2) + 1.0)
    if share > 1e-16:
        raise TailDivergent(f"first-derivative/second-component tail not integrable: "
                            f"{share:.1e} of it lies past r_top*{TAIL_REACH:g}")

    def f(r):
        U, dU, V, dV = profile_eval(r, pk, ("U", "dU", "V", "dV"))
        rn, uq, vp = r ** (n - 1.0), U ** (q + 1.0), V ** (p + 1.0)
        rb = r ** float(n)  # the boundary-strip weight of B
        return [rn * uq, rn * vp, rn * uq * np.log(U), rn * vp * np.log(V),
                rb * uq, rb * vp, -rn * dU * V, -rn * dV * U]

    sn, sm = sphere_measure(n), sphere_measure(n - 1)
    # per stack row: (measure, weight of the part past r_top in the error)
    table = {"A1": (sn, 1e-3), "A2": (sn, 1e-3), "D1": (sn, 1e-3), "D2": (sn, 1e-3),
             "B1": (0.5 * sm, 1e-3), "B2": (0.5 * sm, 1e-3), "C1": (sm, 1e-2), "C2": (sm, 1e-2)}
    (lo, _), (hi, tail) = _radial_quad(f, pk.r_top, 12), _radial_quad(f, pk.r_top, 20)
    parts = {key: (meas * v, meas * (e + abs(t) * w))
             for (key, (meas, w)), v, e, t in zip(table.items(), hi, abs(hi - lo), tail)}
    delta_used = 0.0
    if b_delta:  # compute_B_delta refuses a negative or NaN delta
        bd = compute_B_delta(profile, b_delta)
        parts.update({k: (bd[k], abs(bd[k] - parts[k][0])) for k in ("B1", "B2")})
        delta_used = b_delta
    return EnergyConstants(**{k: v for k, (v, _) in parts.items()},
                           err={k: e for k, (_, e) in parts.items()},
                           delta_used=delta_used)
