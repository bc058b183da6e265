"""Properties of a ground state measured on its samples: the radial Pohozaev
quantity, and criteria 3 and 4's tail fits; and profile_at, the profile's four
components at given radii.

The profile's tail is not fitted (radial.tail_amplitudes); these fits
measure, from the samples alone, how far the solve is from the theory's
decay exponents and from the relation between U's and V's amplitudes.
"""

import math
from types import SimpleNamespace

import numpy as np

from laneemden._interp import profile_eval
from laneemden.params import CASE_SUB


def profile_at(prof, r):
    """(U, dU, V, dV) arrays of the profile prof at radii r, a scalar or an array
    (the power tails beyond r_max)."""
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    return profile_eval(r, prof.interp_pack, ("U", "dU", "V", "dV"))


def pohozaev(params, r, U, dU, V, dV):
    """(H, the sum of |terms|) of the radial Pohozaev quantity at radii r.

    H = r^n [U'V' + |V|^(p+1)/(p+1) + |U|^(q+1)/(q+1)]
        + r^(n-1) (n/(q+1) U V' + n/(p+1) V U')

    is exactly 0 along every radial solution on the critical hyperbola
    (Mitidieri, Comm. PDE 18, 1993): H' = 0 there, and H(0) = 0.
    """
    n, p, q = params.n, params.p, params.q
    rn, rn1 = r ** n, r ** (n - 1.0)
    terms = (rn * dU * dV, rn * np.abs(V) ** (p + 1.0) / (p + 1.0),
             rn * np.abs(U) ** (q + 1.0) / (q + 1.0),
             rn1 * (n / (q + 1.0)) * U * dV, rn1 * (n / (p + 1.0)) * V * dU)
    return sum(terms), sum(np.abs(t) for t in terms)


def decay_fit(r, y):
    """Decay exponent, minus the slope of log y vs log r, and its standard error."""
    lx, ly = np.log(r), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    dof = max(len(r) - 2, 1)
    s2 = (res[0] / dof) if res.size else 0.0
    cov = s2 * np.linalg.inv(A.T @ A)
    return -coef[0], float(np.sqrt(max(cov[0, 0], 0.0)))


def two_power(x, y, k, k2):
    """(A, coef): columns x^-k, x^-k2 and the (c1, c2) least squares of A coef / y - 1."""
    A = np.vstack([x ** -k, x ** -k2]).T
    coef, *_ = np.linalg.lstsq(A / y[:, None], np.ones_like(y), rcond=None)
    return A, coef


def fit_two_power(x, y, k2, bounds, xatol):
    """Exponent k in bounds of the fit y ~ c1 x^-k + c2 x^-k2.

    For each k, (c1, c2) solve the least squares of the relative misfit
    model/y - 1; k minimises its sum of squares, found by golden-section
    search until the bracket is at most xatol wide.
    """
    def resid(k):
        A, coef = two_power(x, y, k, k2)
        return float(np.sum((A @ coef / y - 1.0) ** 2))

    a, b = bounds
    g = (math.sqrt(5.0) - 1.0) / 2.0  # each step keeps this share of the bracket
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = resid(c), resid(d)
    for _ in range(math.ceil(math.log(xatol / (b - a)) / math.log(g))):
        if fc <= fd:  # the minimum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = resid(c)
        else:  # in [c, b]
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = resid(d)
    return c if fc <= fd else d


def sample_tail(prof):
    """Tail amplitudes a, b and decay exponents exp_U, exp_V fitted to the samples.

    On 160 points interpolated in [r_max/100, r_max] below n/(n-2), where
    U's harmonic second term is far from negligible, and in
    [r_max/10, r_max] otherwise.  exp_V is a log-log slope and b the mean of
    r^(n-2) V.  Below n/(n-2), exp_U is the free exponent of a two-term fit
    k, n-2 and a the first coefficient at the theory's k; otherwise exp_U is
    a log-log slope and a the mean of r^exp_u_decay U.
    """
    params, r_hi = prof.params, float(prof.grid[-1])
    r_lo = r_hi / 100.0 if params.case_tag == CASE_SUB else r_hi / 10.0
    rf = np.geomspace(r_lo, r_hi, 160)
    Uf, Vf = np.interp(rf, prof.grid, prof.U), np.interp(rf, prof.grid, prof.V)
    e2, e_th = params.n - 2.0, params.exp_u_decay
    exp_V, _ = decay_fit(rf, Vf)
    b = float(np.mean(rf ** e2 * Vf))
    if params.case_tag == CASE_SUB:
        exp_U = fit_two_power(rf, Uf, e2, (max(1.01, 0.75 * e_th), min(e2 - 1e-3, 1.25 * e_th)),
                              xatol=1e-10)
        _, coef = two_power(rf, Uf, e_th, e2)
        a = float(coef[0])
    else:
        exp_U, _ = decay_fit(rf, Uf)
        a = float(np.mean(rf ** e_th * Uf))
    return SimpleNamespace(a=a, b=b, exp_U=float(exp_U), exp_V=float(exp_V), window=(r_lo, r_hi))
