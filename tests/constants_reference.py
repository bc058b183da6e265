"""Reference copy of the constants' earlier closed-form tails.

compute_constants integrates the eight rows past r_top on panels that
reach r_top * TAIL_REACH, through the profile's own tail model.  Before,
it integrated only up to r_top and added each row's tail in closed form,
re-derived from the power laws.  The oracle test requires the constants
to stay within 1e-14 relative of `closed_tail_constants` and each error
estimate within 1e-4: the tail model is the same, only where it is
stated changed.  A change that moves the tail model on purpose (U's
forced term above n/(n-2), say) retires this copy.

- `panels_to_r_top` and `radial_quad_to_r_top`: the in-range panels and
  the k-point composite rule over them.
- `power_tail` and `power_log_tail`: int_{r_max}^inf r^m dr and
  int_{r_max}^inf r^m log(r) dr.
- `closed_tail_constants`: the delta -> 0 constants and their errors, as a
  dict of the eight values and a dict of the eight errors.
"""

import numpy as np

from laneemden._interp import profile_eval
from laneemden.ballquad import gauss_legendre, gauss_panels, sphere_measure


def panels_to_r_top(r_max):
    """0 and 36 geometric edges from 1e-4 to r_max."""
    return np.concatenate([[0.0], np.geomspace(1e-4, r_max, 36)])


def radial_quad_to_r_top(f, r_max, k):
    edges = panels_to_r_top(r_max)
    r, _ = gauss_panels(edges, k)
    _, wg = gauss_legendre(k)
    sums = 0.5 * np.diff(edges) * np.sum(wg * np.asarray(f(r)), axis=-1)
    return np.cumsum(sums, axis=-1)[..., -1][()]


def power_tail(r_max, m):
    """int_{r_max}^inf r^m dr, m < -1."""
    return r_max ** (m + 1.0) / (-(m + 1.0))


def power_log_tail(r_max, m):
    """int_{r_max}^inf r^m log(r) dr, m < -1."""
    s = -(m + 1.0)
    return r_max ** (m + 1.0) * (np.log(r_max) / s + 1.0 / s ** 2)


def closed_tail_constants(profile):
    """(values, errors): the eight constants with closed-form tails past r_top."""
    n, p, q = profile.params.n, profile.params.p, profile.params.q
    pk = profile.interp_pack

    def f(r):
        U, dU, V, dV = profile_eval(r, pk, ("U", "dU", "V", "dV"))
        rn, uq, vp = r ** (n - 1.0), U ** (q + 1.0), V ** (p + 1.0)
        rb = r ** float(n)  # the boundary-strip weight of B
        return [rn * uq, rn * vp, rn * uq * np.log(U), rn * vp * np.log(V),
                rb * uq, rb * vp, -rn * dU * V, -rn * dV * U]

    # closed-form tails from the anchored power laws (leading term in the
    # two-term first component; the cross term is binomially subleading)
    r_top = pk.r_top

    def tail_U(m):  # int_{r_top}^inf r^m U^(q+1)
        return pk.au ** (q + 1.0) * (
            power_tail(r_top, m)
            + (q + 1.0) * (pk.cu2 / pk.au) * power_tail(r_top, m - (pk.e2 - pk.eu)))

    def tail_V(m):  # int_{r_top}^inf r^m V^(p+1)
        return pk.bv ** (p + 1.0) * power_tail(r_top, m)

    mC = n - 2.0 - pk.eu - pk.e2  # r^(n-1) U' V, or r^(n-1) V' U, beyond r_top
    mU = n - 1.0 - (q + 1.0) * pk.eu
    mV = n - 1.0 - (p + 1.0) * pk.e2
    mC2 = n - 2.0 - 2.0 * pk.e2  # the C tails' term through U's r^-e2 term
    sn, sm = sphere_measure(n), sphere_measure(n - 1)
    # per stack row: (measure, closed-form tail, tail-error weight)
    # C tails: dU ~ -eu*au r^-(eu+1) - e2*cu2 r^-(e2+1); V ~ bv r^-e2; and the swap
    table = {
        "A1": (sn, tail_U(mU), 1e-3),
        "A2": (sn, tail_V(mV), 1e-3),
        "D1": (sn, pk.au ** (q + 1.0) * (np.log(pk.au) * power_tail(r_top, mU)
                                         - pk.eu * power_log_tail(r_top, mU)), 1e-3),
        "D2": (sn, pk.bv ** (p + 1.0) * (np.log(pk.bv) * power_tail(r_top, mV)
                                         - pk.e2 * power_log_tail(r_top, mV)), 1e-3),
        "B1": (0.5 * sm, tail_U(float(n) - (q + 1.0) * pk.eu), 1e-3),
        "B2": (0.5 * sm, tail_V(float(n) - (p + 1.0) * pk.e2), 1e-3),
        "C1": (sm, pk.bv * (pk.eu * pk.au * power_tail(r_top, mC)
                            + pk.e2 * pk.cu2 * power_tail(r_top, mC2)), 1e-2),
        "C2": (sm, pk.e2 * pk.bv * (pk.au * power_tail(r_top, mC)
                                    + pk.cu2 * power_tail(r_top, mC2)), 1e-2),
    }
    lo, hi = radial_quad_to_r_top(f, r_top, 12), radial_quad_to_r_top(f, r_top, 20)
    parts = {key: (meas * (v + tail), meas * (e + abs(tail) * w))
             for (key, (meas, tail, w)), v, e in zip(table.items(), hi, abs(hi - lo))}
    return {k: v for k, (v, _) in parts.items()}, {k: e for k, (_, e) in parts.items()}
