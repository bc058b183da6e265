"""Piecewise-cubic profile evaluation kernels.

Monotone cubic (PCHIP) coefficients are extracted once with scipy and
evaluated by profile_eval, the one profile kernel; beyond the last
breakpoint the stored power-law tail takes over, rescaled so the value is
continuous there.
"""

from typing import NamedTuple

import numpy as np
from scipy.interpolate import PchipInterpolator


class InterpPack(NamedTuple):
    """Cubic coefficients of (U, dU, V, dV) and the power-law tails beyond r_top.

    tail_terms states the tail model in these fields.
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
    return ip.x.copy(), ip.c


def tail_terms(pack, v):
    """(amp, expo) of each nonzero power term of U (v false) or V beyond r_top.

    U = au*r^-eu + cu2*r^-e2 and V = bv*r^-ev; the cu2 term is absent when
    the tail is a single power (cu2 = 0).
    """
    terms = ((pack.bv, pack.ev),) if v else ((pack.au, pack.eu), (pack.cu2, pack.e2))
    return [(a, e) for a, e in terms if a != 0.0]


def profile_eval(r, pack, parts):
    """The named components of (U, dU, V, dV) at radii r >= 0, as a tuple.

    parts lists names among "U", "dU", "V", "dV".  Inside [0, r_top]:
    piecewise cubics, located by one interval search for all parts.  Beyond:
    the power tails of tail_terms, differentiated analytically.
    """
    r = np.abs(r)
    inside = r <= pack.r_top
    rc = np.where(inside, r, pack.r_top)
    idx = np.searchsorted(pack.breaks, rc) - 1
    idx = np.minimum(np.maximum(idx, 0), pack.breaks.shape[0] - 2)
    dx = rc - pack.breaks[idx]
    rt = np.where(inside, pack.r_top, r)
    out = []
    for part in parts:
        c = getattr(pack, "c" + part.lower())  # cu, cdu, cv, cdv
        cubic = ((c[0][idx] * dx + c[1][idx]) * dx + c[2][idx]) * dx + c[3][idx]
        tail = 0.0
        for a, e in tail_terms(pack, part.endswith("V")):
            tail = tail + (-e * a * rt ** (-e - 1.0) if part[0] == "d" else a * rt ** (-e))
        out.append(np.where(inside, cubic, tail))
    return tuple(out)
