"""The projected two-bubble fields PW1 and PW2 on the unit ball.

Both bubbles sit at the poles +-e_n; a field is a function of
(s, t) = (|x'|, x_n) only, odd in t and even in the tangential
coordinates.  PW1 is the pair of U bubbles, U_+ - U_- with U_+- the bubble
at +-e_n, plus the half-space boundary-layer term

    PW1 = U_+ - U_- + delta^(1 - n/(q+1)) * (phi1((e_n - x)/delta) - phi1((e_n + x)/delta))

and PW2 is the analog with the V bubbles, phi2 and exponent 1 - n/(p+1),
where phi1, phi2 are the positive evaluators of module halfspace; with
their orientation the correction enters with a plus sign.  The interior
remainder of the exact projection is O(delta) smaller than the retained
term and is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._interp import profile_eval
from .errors import DomainError
from .halfspace import PHI2, PhiTable
from .params import DELTA_CAP
from .radial import RadialProfile


def bubble_uv(s, t, center_t, delta, profile, parts):
    """The bubble at (0, center_t): the named parts of (U, V), times delta^-su, delta^-sv."""
    d = np.sqrt(s * s + (t - center_t) * (t - center_t)) / delta
    scale = {"U": profile.params.su, "V": profile.params.sv}
    return tuple(delta ** (-scale[part]) * c
                 for part, c in zip(parts, profile_eval(d, profile.interp_pack, parts)))


@dataclass(eq=False)
class AnsatzField:
    """PW1 or PW2 at a fixed delta, as its phi table names.

    A PHI1 table makes PW1, over the U bubbles; a PHI2 table makes PW2,
    over the V bubbles.  The table must reach 2/delta, the largest
    (1 +- x_n)/delta in the ball.
    """

    profile: RadialProfile
    delta: float
    table: PhiTable

    def __post_init__(self):
        if not 0 < self.delta <= DELTA_CAP:
            raise DomainError(f"delta={self.delta} outside (0, {DELTA_CAP}]")
        if self.table.extent < 2.0 / self.delta:
            raise DomainError(f"phi table extent {self.table.extent} < 2/delta")
        self._part = "V" if self.table.which == PHI2 else "U"

    def eval_st(self, s, t):
        """Field values over arrays of (|x'|, x_n)."""
        s = np.asarray(s, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        (plus,) = bubble_uv(s, t, 1.0, self.delta, self.profile, (self._part,))
        (minus,) = bubble_uv(s, t, -1.0, self.delta, self.profile, (self._part,))
        return plus - minus + self.correction_st(s, t)

    def correction_st(self, s, t):
        """The projection correction alone."""
        s = np.asarray(s, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        d, tab, pp = self.delta, self.table, self.profile.params
        ex = pp.sv if self._part == "V" else pp.su
        return d ** (1.0 - ex) * (tab.eval_many(s / d, (1.0 - t) / d)
                                  - tab.eval_many(s / d, (1.0 + t) / d))
