"""Piecewise-cubic profile evaluation kernels.

Monotone cubic (PCHIP) coefficients are computed once per profile by
pack_pchip, in numpy, and evaluated by profile_eval, the one profile
kernel; beyond the last breakpoint the stored power-law tail takes over,
rescaled so the value is continuous there.

The kernel finds each radius's interval with interval_index.  A profile's
breaks are 0 followed by a log-uniform grid, so the index is guessed from
log r in O(1) and confirmed by comparing r with the two breaks around it;
only radii the comparisons do not confirm (r = 0, r within rounding of a
break, a grid that is not log-uniform) go through np.searchsorted.  The
indices are searchsorted's at every radius, so the values are too.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError


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


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end, kept shape-preserving (Moler's pchiptx)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pack_pchip(x, y):
    """Return (breaks, c) with c of shape (4, len(x)-1), cubic-first order.

    The monotone cubic (PCHIP) through (x, y), x strictly increasing with at
    least 3 points, computed with the operations of scipy's
    PchipInterpolator so the coefficients are the same bits.  Inner slopes
    are the weighted harmonic mean of the two secants, or 0 where those
    differ in sign or one vanishes; end slopes come from _end_slope.
    """
    x, y = np.array(x, dtype=float), np.asarray(y, dtype=float)
    h = np.diff(x)
    if x.size < 3 or not (np.all(h > 0) and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("PCHIP needs >= 3 strictly increasing finite x and finite y")
    m = np.diff(y) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    # inf and NaN only where flat; a secant near the underflow limit can
    # overflow the mean, whose reciprocal is then the limit slope 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d = np.concatenate(([_end_slope(h[0], h[1], m[0], m[1])], inner,
                        [_end_slope(h[-1], h[-2], m[-1], m[-2])]))
    # Hermite data (y, d) to the power basis on each interval
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return x, np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def tail_terms(pack, v):
    """(amp, expo) of each nonzero power term of U (v false) or V beyond r_top.

    U = au*r^-eu + cu2*r^-e2 and V = bv*r^-ev; the cu2 term is absent when
    the tail is a single power (cu2 = 0).
    """
    terms = ((pack.bv, pack.ev),) if v else ((pack.au, pack.eu), (pack.cu2, pack.e2))
    return [(a, e) for a, e in terms if a != 0.0]


def _search(breaks, r):
    """np.searchsorted(breaks, r) - 1, clipped to [0, breaks.size - 2]."""
    return np.minimum(np.maximum(np.searchsorted(breaks, r) - 1, 0), breaks.shape[0] - 2)


def interval_index(breaks, r):
    """The cubic's interval of each radius r: _search(breaks, r), in O(1) per radius.

    The guess ceil((log r - log b1) (nb - 2) / (log b[-1] - log b1)), with
    r clamped up to b1 = breaks[1] so the log is finite, is the index on a
    grid [0] + geomspace(b1, b[-1], nb - 1), the grid find_ground_state
    samples and load_profile reads back.  It is kept where
    breaks[i] < r <= breaks[i + 1] confirms it; the rest (r = 0, r within
    rounding of a break, any radius on another grid) are searched.  So the
    index is _search's for every r and every grid.
    """
    r = np.asarray(r)
    nb, b1 = breaks.shape[0], breaks[1]
    if not b1 > 0.0:
        return _search(breaks, r)
    lo = math.log(b1)
    guess = np.ceil((np.log(np.maximum(r, b1)) - lo) * ((nb - 2) / (math.log(breaks[-1]) - lo)))
    # fmin: a NaN radius guesses nb - 2; asarray: a 0-d r gives a 0-d index
    idx = np.asarray(np.fmin(guess, nb - 2), dtype=np.intp)
    miss = ~((breaks[idx] < r) & (r <= breaks[1:][idx]))
    if miss.any():
        idx[miss] = _search(breaks, r[miss])
    return idx


def profile_eval(r, pack, parts):
    """The named components of (U, dU, V, dV) at radii r >= 0, as a tuple.

    parts lists names among "U", "dU", "V", "dV".  Inside [0, r_top]:
    piecewise cubics, located by one interval search for all parts.  Beyond:
    the power tails of tail_terms, differentiated analytically, computed
    only when some radius lies beyond.
    """
    r = np.abs(r)
    inside = r <= pack.r_top
    beyond = not np.all(inside)  # a NaN radius counts as beyond
    rc = np.where(inside, r, pack.r_top) if beyond else r
    idx = interval_index(pack.breaks, rc)
    dx = rc - pack.breaks[idx]
    rt = np.where(inside, pack.r_top, r) if beyond else None
    out = []
    for part in parts:
        c = getattr(pack, "c" + part.lower())  # cu, cdu, cv, cdv
        cubic = ((c[0][idx] * dx + c[1][idx]) * dx + c[2][idx]) * dx + c[3][idx]
        if beyond:
            tail = 0.0
            for a, e in tail_terms(pack, part.endswith("V")):
                tail = tail + (-e * a * rt ** (-e - 1.0) if part[0] == "d" else a * rt ** (-e))
            cubic = np.where(inside, cubic, tail)
        out.append(cubic)
    return tuple(out)
