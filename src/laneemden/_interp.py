"""Piecewise-cubic profile evaluation kernels.

Monotone cubic (PCHIP) coefficients are extracted once with scipy and
evaluated by the hot kernels below; beyond the last breakpoint the stored
power-law tail takes over, rescaled so the value is continuous there.
"""

from typing import NamedTuple

import numpy as np
from scipy.interpolate import PchipInterpolator


class InterpPack(NamedTuple):
    """Cubic coefficients of (U, dU, V, dV) and the power-law tails beyond r_top.

    Beyond r_top, U = au*r^-eu + cu2*r^-e2 (cu2 = 0 for a single-power tail)
    and V = bv*r^-ev.  Field order is the argument order of profile_eval.
    """

    breaks: np.ndarray
    cu: np.ndarray
    cdu: np.ndarray
    cv: np.ndarray
    cdv: np.ndarray
    r_top: float
    au: float
    cu2: float
    eu: float
    e2: float
    bv: float
    ev: float


def pack_pchip(x, y):
    """Return (breaks, c) with c of shape (4, len(x)-1), cubic-first order."""
    ip = PchipInterpolator(x, y, extrapolate=False)
    return ip.x.copy(), np.ascontiguousarray(ip.c)


def ppoly_eval(breaks, c, xq):
    idx = np.searchsorted(breaks, xq) - 1
    idx = np.minimum(np.maximum(idx, 0), breaks.shape[0] - 2)
    dx = xq - breaks[idx]
    return ((c[0][idx] * dx + c[1][idx]) * dx + c[2][idx]) * dx + c[3][idx]


def deriv_component_eval(r, breaks, cd, r_top, amp1, expo1, amp2, expo2):
    """One derivative component: cubic inside, two-power tail beyond r_top."""
    r = np.abs(r)
    inside = r <= r_top
    rc = np.where(inside, r, r_top)
    d = ppoly_eval(breaks, cd, rc)
    rt = np.where(inside, r_top, r)
    tail = -amp1 * expo1 * rt ** (-expo1 - 1.0) - amp2 * expo2 * rt ** (-expo2 - 1.0)
    return np.where(inside, d, tail)


def profile_eval(r, breaks, cu, cdu, cv, cdv,
                 r_top, au, cu2, eu, e2, bv, ev):
    """Evaluate (U, dU, V, dV) at radii r >= 0.

    Inside [0, r_top]: piecewise cubics. Beyond: U = au*r^-eu + cu2*r^-e2,
    V = bv*r^-ev, with derivatives differentiated analytically.
    """
    r = np.abs(r)
    inside = r <= r_top
    rc = np.where(inside, r, r_top)
    U = ppoly_eval(breaks, cu, rc)
    dU = ppoly_eval(breaks, cdu, rc)
    V = ppoly_eval(breaks, cv, rc)
    dV = ppoly_eval(breaks, cdv, rc)
    rt = np.where(inside, r_top, r)
    pu = au * rt ** (-eu) + cu2 * rt ** (-e2)
    dpu = -eu * au * rt ** (-eu - 1.0) - e2 * cu2 * rt ** (-e2 - 1.0)
    pv = bv * rt ** (-ev)
    dpv = -ev * bv * rt ** (-ev - 1.0)
    U = np.where(inside, U, pu)
    dU = np.where(inside, dU, dpu)
    V = np.where(inside, V, pv)
    dV = np.where(inside, dV, dpv)
    return U, dU, V, dV
