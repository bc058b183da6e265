"""Problem parameters on the critical hyperbola.

The exponent pair (p, q) always satisfies 1/(p+1) + 1/(q+1) = (n-2)/n;
q is derived from (n, p), never accepted independently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError

HYPERBOLA_TOL = 1e-12
DELTA_CAP = 0.2  # largest bubble scale delta: keeps the bubble halves of the ball separated

CASE_SUPER = "SUPER"
CASE_SUB = "SUB"
CASE_BORDER = "BORDER"


def parse_exponent(text):
    """Parse an exponent given as a decimal or a rational like '11/3'."""
    s = str(text).strip()
    if "/" in s:
        try:
            return float(Fraction(s))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
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
    return (2 * n + 1 + math.sqrt((2 * n + 1) ** 2 - 24 * (n - 2))) / (4 * (n - 2))


@dataclass(frozen=True)
class ProblemParams:
    """Dimension, hyperbola exponents and perturbation slopes.

    Immutable; all derived quantities are pure functions of the fields.
    """

    n: int
    p: float
    alpha: float = 0.0
    beta: float = 0.0
    q: float = field(init=False)
    case_tag: str = field(init=False)

    def __post_init__(self):
        if self.n < 4:
            raise DomainError(f"n={self.n}: only n >= 4 is supported")
        if not 1.0 < self.p <= (self.n + 2.0) / (self.n - 2.0):
            raise DomainError(f"p={self.p} outside (1, (n+2)/(n-2)]")
        if not all(0 <= x < math.inf for x in (self.alpha, self.beta)):
            raise DomainError("alpha, beta must be finite and nonnegative")
        q = critical_exponent(self.n, self.p)
        object.__setattr__(self, "q", q)
        border = self.n / (self.n - 2.0)
        if abs(self.p - border) <= 4 * sys.float_info.epsilon * border:
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


def check_solvable(params: ProblemParams):
    """Refuse, with DomainError, the (n, p) that find_ground_state has no shot
    for: p = n/(n-2), and p outside both coupling ranges other than (n+2)/(n-2)."""
    if params.case_tag == CASE_BORDER:
        raise DomainError("p = n/(n-2) is not supported")
    label, _ = check_condition_P(params)
    top = (params.n + 2.0) / (params.n - 2.0)
    at_top = abs(params.p - top) < 1e-12
    if label == "outside" and not at_top:
        raise DomainError(f"p={params.p} outside the admissible coupling ranges")
