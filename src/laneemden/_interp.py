"""Piecewise-cubic profile evaluation kernels.

Cubic Hermite coefficients are computed once per profile by pack_hermite,
from the samples and their derivatives, and evaluated by profile_eval, the
one profile kernel; beyond the last breakpoint the stored power-law tail
takes over, rescaled so the value is continuous there.

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

    tail_terms states the tail model in these fields.  The exponents are the
    theory's, from (n, p): eu is params.exp_u_decay and e2 = n - 2 serves
    both U's second term and V's tail.  The amplitudes au, cu2 and bv are
    radial.tail_amplitudes': from U and V at r_top and, below n/(n-2), au
    forced by bv through the system; none is fitted.
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


def pack_hermite(x, y, dy):
    """Return (breaks, c) with c of shape (4, len(x)-1), cubic-first order.

    The cubic Hermite interpolant through values y and slopes dy at x,
    x strictly increasing with at least 3 points, in the power basis of
    each interval.
    """
    x, y, dy = np.array(x, dtype=float), np.asarray(y, dtype=float), np.asarray(dy, dtype=float)
    h = np.diff(x)
    if x.size < 3 or not (np.all(h > 0) and np.all(np.isfinite((x, y, dy)))):
        raise DomainError("Hermite cubic needs >= 3 strictly increasing finite x, finite y and dy")
    m = np.diff(y) / h
    t = (dy[:-1] + dy[1:] - 2.0 * m) / h
    return x, np.stack((t / h, (m - dy[:-1]) / h - t, dy[:-1], y[:-1]))


def tail_terms(pack, v):
    """(amp, expo) of each nonzero power term of U (v false) or V beyond r_top.

    U = au*r^-eu + cu2*r^-e2 and V = bv*r^-e2; the cu2 term is absent when
    the tail is a single power (cu2 = 0).
    """
    terms = ((pack.bv, pack.e2),) if v else ((pack.au, pack.eu), (pack.cu2, pack.e2))
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
