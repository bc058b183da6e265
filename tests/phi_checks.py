"""Criterion 6's properties of a half-space correction, through eval_points.

phi comes from HalfSpaceCorrection.eval_points, the direct rule the tables
are tested against, and g from halfspace.g_data, the data that rule integrates.
"""

import numpy as np

from laneemden.halfspace import PHI1, g_data
from laneemden.params import CASE_SUB
from radial_checks import fit_two_power


def harmonic_residual(corr, h):
    """Max |FD Laplacian|, step h, at the points (|x'|, x_n) in {1, 2}^2.

    The 4 points' stencils, x and x +- h e_i, go through the order-1 rule in
    one call, asserted within a relative 1e-4 of the order-0 rule there; each
    Laplacian adds its n second differences in coordinate order.
    """
    n = corr.profile.params.n
    centres = np.zeros((4, n))
    centres[:, 0], centres[:, -1] = [1.0, 1.0, 2.0, 2.0], [1.0, 2.0, 1.0, 2.0]
    offsets = np.vstack([np.zeros(n), np.kron(np.eye(n), [[h], [-h]])])
    x = (centres[:, None] + offsets).reshape(-1, n)
    sig, tau = np.sqrt(np.sum(x[:, :-1] ** 2, axis=1)), x[:, -1]
    base, phi = (corr.eval_points(sig, tau, order=k) for k in (0, 1))
    assert np.all(np.abs(phi - base) <= 1e-4 * np.maximum(np.abs(phi), 1e-300))
    worst = 0.0
    for f in phi.reshape(4, -1):
        lap = 0.0
        for i in range(n):
            lap += (f[1 + 2 * i] + f[2 + 2 * i] - 2 * f[0]) / h ** 2
        worst = max(worst, abs(lap))
    return float(worst)


def neumann_mismatch(corr, radii):
    """Max relative mismatch of the outward normal derivative against g.

    Second-order one-sided difference with step 5e-3 in the outward
    direction -e_n, from the order-1 rule at x_n = 0, h, 2h.
    """
    h = 5e-3
    rho = np.asarray(radii, dtype=np.float64)
    f0, f1, f2 = corr.eval_points(np.tile(rho, 3), np.repeat([0.0, h, 2 * h], rho.size),
                                  order=1).reshape(3, -1)
    dn_out = -(-3 * f0 + 4 * f1 - f2) / (2 * h)
    (g,) = g_data(rho, corr.profile.interp_pack, (corr.which,))
    return float(np.max(np.abs(dn_out - g) / np.abs(g)))


def decay_exponent(corr):
    """Fitted decay exponent of phi along the axis, with its target.

    Fits C (1+tau)^-k + C2 (1+tau)^-k2 at 12 geometric taus in [30, 600],
    with k free and k2 the next structural decay rate: the generic harmonic
    rate n-3 when the leading rate sits below it (slow first-component
    data), k+1 otherwise.  The second term removes the bias a plain log-log
    slope would carry from the subleading mode.
    """
    taus = np.geomspace(30.0, 600.0, 12)
    vals = corr.eval_points(np.zeros_like(taus), taus)
    pp = corr.profile.params
    if corr.which == PHI1 and pp.case_tag == CASE_SUB:
        k_th, k2 = pp.p * (pp.n - 2.0) - 3.0, pp.n - 3.0
    else:
        k_th = pp.n - 3.0
        k2 = k_th + 1.0
    k = fit_two_power(1.0 + taus, vals, k2, (max(0.2, 0.6 * k_th), k2 - 1e-3), xatol=1e-8)
    return k, k_th
