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
from .halfspace import HalfSpaceCorrection
from .radial import RadialProfile

W1 = "W1"
W2 = "W2"
PW1_APPROX = "PW1_APPROX"
PW2_APPROX = "PW2_APPROX"

DELTA_CAP = 0.2  # keeps the bubble halves of the ball separated
# phi tables reach out to TABLE_REACH/delta: in the ball (1 +- x_n)/delta <= 2/delta
TABLE_REACH = 2.2


def bubble_uv(s, t, center_t, delta, pack, su, sv):
    """Scaled bubble components centred at (0, center_t), over (s,t) arrays."""
    d = np.sqrt(s * s + (t - center_t) * (t - center_t)) / delta
    U, _, V, _ = profile_eval(d, pack)
    return delta ** (-su) * U, delta ** (-sv) * V


def bubble_eval(profile: RadialProfile, xi, delta: float, x):
    """(U, V) bubble values at point x for a bubble of scale delta at xi."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    r = np.linalg.norm(np.asarray(x, dtype=np.float64) - np.asarray(xi, dtype=np.float64))
    pp = profile.params
    U, V = bubble_uv(np.array([r]), np.array([0.0]), 0.0, delta, profile.interp_pack,
                     pp.su, pp.sv)
    return float(U[0]), float(V[0])


@dataclass
class AnsatzField:
    """Evaluator for one of the four two-bubble fields at a fixed delta."""

    profile: RadialProfile
    kind: str
    delta: float
    phi1: HalfSpaceCorrection | None = None
    phi2: HalfSpaceCorrection | None = None
    table_extent: float | None = None

    def __post_init__(self):
        if self.kind not in (W1, W2, PW1_APPROX, PW2_APPROX):
            raise DomainError(f"unknown field kind {self.kind!r}")
        if not 0 < self.delta <= DELTA_CAP:
            raise DomainError(f"delta={self.delta} outside (0, {DELTA_CAP}]")
        if self.kind == PW1_APPROX and self.phi1 is None:
            raise DomainError("PW1_APPROX needs the first correction")
        if self.kind == PW2_APPROX and self.phi2 is None:
            raise DomainError("PW2_APPROX needs the second correction")
        pp = self.profile.params
        self._su, self._sv = pp.su, pp.sv
        # W1/PW1 take the U components, W2/PW2 the V components
        self._v = self.kind in (W2, PW2_APPROX)
        self._ex = self._sv if self._v else self._su
        corr = {PW1_APPROX: self.phi1, PW2_APPROX: self.phi2}.get(self.kind)
        ext = self.table_extent if self.table_extent else TABLE_REACH / self.delta
        self._tab = corr.table(ext) if corr is not None else None

    def eval_st(self, s, t):
        """Field values over arrays of (|x'|, x_n)."""
        s = np.asarray(s, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        d = self.delta
        pack = self.profile.interp_pack
        up, vp = bubble_uv(s, t, 1.0, d, pack, self._su, self._sv)
        um, vm = bubble_uv(s, t, -1.0, d, pack, self._su, self._sv)
        bare = vp - vm if self._v else up - um
        if self._tab is None:
            return bare
        return bare + self.correction_st(s, t)

    def correction_st(self, s, t):
        """The projection correction alone (zero for the raw W fields)."""
        s = np.asarray(s, dtype=np.float64)
        if self._tab is None:
            return np.zeros_like(s)
        t = np.asarray(t, dtype=np.float64)
        d = self.delta
        return d ** (1.0 - self._ex) * (self._tab.eval_many(s / d, (1.0 - t) / d)
                                        - self._tab.eval_many(s / d, (1.0 + t) / d))

    def field_eval(self, x):
        """Scalar field value at a point of the closed unit ball."""
        x = np.asarray(x, dtype=np.float64)
        if np.linalg.norm(x) > 1.0 + 1e-12:
            raise DomainError("x must lie in the closed unit ball")
        s = float(np.linalg.norm(x[:-1]))
        t = float(x[-1])
        return float(self.eval_st(np.array([s]), np.array([t]))[0])

    def slice_to_csv(self, path, n_s=80, n_t=161):
        """Write a (s, t, value) grid over the ball section for plotting."""
        from .reporting import write_csv
        s_grid = np.linspace(0.0, 1.0, n_s)
        half = np.linspace(0.0, 1.0, (n_t + 1) // 2)
        t_grid = np.concatenate([-half[::-1][:-1], half])  # exactly antisymmetric
        S, T = np.meshgrid(s_grid, t_grid, indexing="ij")
        keep = S ** 2 + T ** 2 <= 1.0
        s, t = S[keep], T[keep]
        write_csv(path, ["s", "t", "value"], [s, t, self.eval_st(s, t)])


def symmetry_and_compatibility_check(field: AnsatzField, quad, t_exponent=None):
    """Integrals of the field and of its signed power over the ball.

    Both vanish analytically for the odd-symmetric fields; the check
    validates that the quadrature preserves the symmetry.
    """
    if t_exponent is None:
        pp = field.profile.params
        t_exponent = pp.q_eps if field.kind in (W1, PW1_APPROX) else pp.p_eps

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
