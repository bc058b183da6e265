"""Problem parameters on the critical hyperbola.

The exponent pair (p, q) always satisfies 1/(p+1) + 1/(q+1) = (n-2)/n;
q is derived from (n, p), never accepted independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError

HYPERBOLA_TOL = 1e-12

CASE_SUPER = "SUPER"
CASE_SUB = "SUB"
CASE_BORDER = "BORDER"


def parse_exponent(text):
    """Parse an exponent given as a decimal or a rational like '11/3'."""
    s = str(text).strip()
    if "/" in s:
        return float(Fraction(s))
    return float(s)


def critical_exponent(n: int, p: float) -> float:
    """The exponent q paired with p on the critical hyperbola for dimension n.

    Raises
    ------
    DomainError
        If (n-2)/n <= 1/(p+1), where no positive q exists.
    """
    if n < 3:
        raise DomainError(f"dimension n={n} must be >= 3")
    inv = (n - 2.0) / n - 1.0 / (p + 1.0)
    if inv <= 0.0:
        raise DomainError(f"no critical partner exponent for n={n}, p={p}")
    return 1.0 / inv - 1.0


def p_threshold(n: int) -> float:
    """Lower admissible bound for p in the subcritical coupling range."""
    return (2 * n + 1 + np.sqrt((2 * n + 1) ** 2 - 24 * (n - 2))) / (4 * (n - 2))


@dataclass(frozen=True)
class ProblemParams:
    """Dimension, hyperbola exponents and perturbation slopes.

    Immutable; all derived quantities are pure functions of the fields.
    """

    n: int
    p: float
    alpha: float = 0.0
    beta: float = 0.0
    epsilon: float = 0.0
    q: float = field(init=False)
    case_tag: str = field(init=False)

    def __post_init__(self):
        if self.n < 4:
            raise DomainError(f"n={self.n}: only n >= 4 is supported")
        if not 1.0 < self.p <= (self.n + 2.0) / (self.n - 2.0):
            raise DomainError(f"p={self.p} outside (1, (n+2)/(n-2)]")
        if self.alpha < 0 or self.beta < 0 or self.epsilon < 0:
            raise DomainError("alpha, beta, epsilon must be nonnegative")
        q = critical_exponent(self.n, self.p)
        object.__setattr__(self, "q", q)
        border = self.n / (self.n - 2.0)
        if abs(self.p - border) <= 4 * np.finfo(float).eps * border:
            tag = CASE_BORDER
        elif self.p > border:
            tag = CASE_SUPER
        else:
            tag = CASE_SUB
        object.__setattr__(self, "case_tag", tag)
        resid = abs(1.0 / (self.p + 1) + 1.0 / (self.q + 1) - (self.n - 2.0) / self.n)
        if resid > HYPERBOLA_TOL:
            raise DomainError(f"hyperbola residual {resid:.3e} exceeds {HYPERBOLA_TOL}")
        if self.q < self.p - 1e-12:
            raise DomainError(f"require p <= q, got p={self.p} > q={self.q}")

    @property
    def p_eps(self):
        return self.p + self.alpha * self.epsilon

    @property
    def q_eps(self):
        return self.q + self.beta * self.epsilon

    @property
    def su(self):
        """Bubble scaling exponent of the first component, n/(q+1)."""
        return self.n / (self.q + 1.0)

    @property
    def sv(self):
        """Bubble scaling exponent of the second component, n/(p+1)."""
        return self.n / (self.p + 1.0)

    @property
    def exp_u_decay(self):
        """Leading power-law decay exponent of the first component."""
        if self.case_tag == CASE_SUB:
            return (self.n - 2.0) * self.p - 2.0
        return self.n - 2.0

    @property
    def exp_v_decay(self):
        return self.n - 2.0


def check_condition_P(params: ProblemParams):
    """Classify p against the admissible coupling ranges.

    Returns
    -------
    (label, p_n) : (str, float)
        label is 'case_i' for n/(n-2) < p < (n+2)/(n-2), 'case_ii' for
        p_n < p < n/(n-2), 'outside' otherwise.
    """
    n, p = params.n, params.p
    pn = p_threshold(n)
    border = n / (n - 2.0)
    top = (n + 2.0) / (n - 2.0)
    if border < p < top:
        return "case_i", pn
    if pn < p < border:
        return "case_ii", pn
    return "outside", pn


def scaling_exponents(params: ProblemParams):
    """Bubble scaling exponents {su: n/(q+1), sv: n/(p+1)}; su + sv = n - 2."""
    return {"su": params.su, "sv": params.sv}
