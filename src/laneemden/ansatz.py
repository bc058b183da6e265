"""Two-bubble fields on the unit ball and their projected approximations.

Both bubbles sit at the poles +-e_n; every field is a function of
(s, t) = (|x'|, x_n) only, odd in t and even in the tangential
coordinates.  The projected fields add the half-space boundary-layer
term

    PW1 = W1 + delta^(1 - n/(q+1)) * (phi1((e_n - x)/delta) - phi1((e_n + x)/delta))

(and the analog with phi2, exponent 1 - n/(p+1)), where phi1, phi2 are the
positive evaluators of module halfspace; with their orientation the
correction enters with a plus sign.  The interior remainder of the exact
projection is O(delta) smaller than the retained term and is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._interp import profile_eval
from .errors import DomainError, QuadratureAsymmetry
from .halfspace import PHI1, PHI2, PhiTable
from .params import DELTA_CAP
from .radial import RadialProfile

W1 = "W1"
W2 = "W2"
PW1_APPROX = "PW1_APPROX"
PW2_APPROX = "PW2_APPROX"

# the checks build phi tables out to TABLE_REACH / (smallest delta); a field
# needs 2/delta, the bound of (1 +- x_n)/delta in the ball
TABLE_REACH = 2.2


def bubble_uv(s, t, center_t, delta, profile, parts):
    """The bubble at (0, center_t): the named parts of (U, V), times delta^-su, delta^-sv."""
    d = np.sqrt(s * s + (t - center_t) * (t - center_t)) / delta
    scale = {"U": profile.params.su, "V": profile.params.sv}
    return tuple(delta ** (-scale[part]) * c
                 for part, c in zip(parts, profile_eval(d, profile.interp_pack, parts)))


def bubble_eval(profile: RadialProfile, xi, delta: float, x):
    """(U, V) bubble values at point x for a bubble of scale delta at xi."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    r = np.linalg.norm(np.asarray(x, dtype=np.float64) - np.asarray(xi, dtype=np.float64))
    U, V = bubble_uv(np.array([r]), np.array([0.0]), 0.0, delta, profile, ("U", "V"))
    return float(U[0]), float(V[0])


@dataclass(eq=False)
class AnsatzField:
    """Evaluator for one of the four two-bubble fields at a fixed delta.

    PW1/PW2 interpolate their correction in table, phi1's or phi2's PhiTable
    respectively, which must reach 2/delta, the largest (1 +- x_n)/delta in
    the ball.
    """

    profile: RadialProfile
    kind: str
    delta: float
    table: PhiTable | None = None

    def __post_init__(self):
        if self.kind not in (W1, W2, PW1_APPROX, PW2_APPROX):
            raise DomainError(f"unknown field kind {self.kind!r}")
        if not 0 < self.delta <= DELTA_CAP:
            raise DomainError(f"delta={self.delta} outside (0, {DELTA_CAP}]")
        projected = self.kind in (PW1_APPROX, PW2_APPROX)
        if projected != (self.table is not None):
            raise DomainError(f"{self.kind} needs a phi table" if projected
                              else f"{self.kind} takes no phi table")
        if projected and self.table.extent < 2.0 / self.delta:
            raise DomainError(f"phi table extent {self.table.extent} < 2/delta")
        want = PHI2 if self.kind == PW2_APPROX else PHI1
        if projected and self.table.which != want:
            raise DomainError(f"{self.kind} needs a {want} table, not {self.table.which}")
        # W1/PW1 take the U components, W2/PW2 the V components
        self._part = "V" if self.kind in (W2, PW2_APPROX) else "U"

    def eval_st(self, s, t):
        """Field values over arrays of (|x'|, x_n)."""
        s = np.asarray(s, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        (plus,) = bubble_uv(s, t, 1.0, self.delta, self.profile, (self._part,))
        (minus,) = bubble_uv(s, t, -1.0, self.delta, self.profile, (self._part,))
        bare = plus - minus
        return bare if self.table is None else bare + self.correction_st(s, t)

    def correction_st(self, s, t):
        """The projection correction alone (zero for the raw W fields)."""
        s = np.asarray(s, dtype=np.float64)
        if self.table is None:
            return np.zeros_like(s)
        t = np.asarray(t, dtype=np.float64)
        d, tab, pp = self.delta, self.table, self.profile.params
        ex = pp.sv if self._part == "V" else pp.su
        return d ** (1.0 - ex) * (tab.eval_many(s / d, (1.0 - t) / d)
                                  - tab.eval_many(s / d, (1.0 + t) / d))


def symmetry_and_compatibility_check(field: AnsatzField, quad):
    """Integrals of the field and of its signed power over the ball.

    Both vanish analytically for the odd-symmetric fields; the check
    validates that the quadrature preserves the symmetry.  The power is q
    for W1/PW1 and p for W2/PW2.
    """
    pp = field.profile.params
    t_exponent = pp.q if field.kind in (W1, PW1_APPROX) else pp.p

    def integrands(s, t):
        v = field.eval_st(s, t)
        av = np.abs(v)
        return [v, np.sign(v) * av ** t_exponent, av, av ** t_exponent]

    mean, power_mean, scale, scale_p = quad.integrate(integrands).tolist()
    tol_mean = 10 * max(1e-13 * scale, 1e-300)
    tol_power = 10 * max(1e-13 * scale_p, 1e-300)
    if abs(mean) > tol_mean or abs(power_mean) > tol_power:
        raise QuadratureAsymmetry(
            f"odd integrals came out nonzero: {mean:.3e}, {power_mean:.3e}")
    return {"mean": mean, "signed_power_mean": power_mean}
