"""Reduced energy of the two-bubble family and its unique maximizer.

With delta = d * epsilon the energy of the projected pair expands as

    (2/n) A1  +  (n a/(p+1)^2 + n b/(q+1)^2) A1 eps log(eps)  +  G(d) eps + o(eps)

where, writing a, b for the perturbation slopes,

    G(d) = (1/(p+1)) (a A1/(p+1) - a D1) + (1/(q+1)) (b A2/(q+1) - b D2)
         + (n a/(p+1)^2 + n b/(q+1)^2) A1 log d
         - ((1 - 2/(p+1)) B2 + (1 - 2/(q+1)) B1 + (C1 + C2)/2) d.

G -> -inf at both 0+ and +inf, and it has a single critical point

    d* = (n a/(p+1)^2 + n b/(q+1)^2) A1 /
         ((1 - 2/(p+1)) B2 + (1 - 2/(q+1)) B1 + (C1 + C2)/2),

the global maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import EnergyConstants
from .errors import DomainError


@dataclass(frozen=True)
class ReducedEnergy:
    constants: EnergyConstants
    n: int
    p: float
    q: float
    alpha: float
    beta: float

    @property
    def log_coeff(self):
        """Coefficient of log d in G (also the eps*log(eps) coefficient)."""
        return (self.n * self.alpha / (self.p + 1.0) ** 2
                + self.n * self.beta / (self.q + 1.0) ** 2) * self.constants.A1

    @property
    def linear_coeff(self):
        """Coefficient of -d in G; positive under the standing assumptions."""
        c = self.constants
        return ((1.0 - 2.0 / (self.p + 1.0)) * c.B2
                + (1.0 - 2.0 / (self.q + 1.0)) * c.B1
                + (c.C1 + c.C2) / 2.0)

    @property
    def const_term(self):
        c = self.constants
        return ((self.alpha * c.A1 / (self.p + 1.0) - self.alpha * c.D1) / (self.p + 1.0)
                + (self.beta * c.A2 / (self.q + 1.0) - self.beta * c.D2) / (self.q + 1.0))


def G(re: ReducedEnergy, d):
    d = np.asarray(d, dtype=np.float64)
    if np.any(d <= 0):
        raise DomainError("G is defined for d > 0")
    out = re.const_term + re.log_coeff * np.log(d) - re.linear_coeff * d
    return float(out) if out.ndim == 0 else out


def d_star(re: ReducedEnergy) -> float:
    """Closed-form unique maximizer of G."""
    den = re.linear_coeff
    if den <= 0:
        raise DomainError("linear coefficient must be positive")
    return re.log_coeff / den


def eta_window(re: ReducedEnergy) -> float:
    """An eta with d* in (2 eta, 1/(2 eta)), for the admissible d-range."""
    ds = d_star(re)
    return min(0.25, ds / 4.0, 1.0 / (4.0 * ds))


def J_expansion(re: ReducedEnergy, epsilon: float, d: float):
    """The three explicit addends of the energy expansion at (epsilon, d)."""
    if d <= 0:
        raise DomainError("d must be positive")
    if not 0 < epsilon <= 0.1:
        raise DomainError("epsilon must lie in (0, 0.1]")
    lead = (2.0 / re.n) * re.constants.A1
    eps_log = re.log_coeff * epsilon * np.log(epsilon)
    eps_term = G(re, d) * epsilon
    return {"leading": lead, "eps_log_eps_term": float(eps_log),
            "eps_term": float(eps_term),
            "total": float(lead + eps_log + eps_term)}
