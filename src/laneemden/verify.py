"""Order-fitting drivers for the small-delta / small-epsilon expansions.

Each check samples one quantity over a decreasing list of scales, extracts
the linear coefficient (or tests a remainder for super-linear decay), and
compares against the closed-form target assembled from the energy
constants.  Slopes are extracted by least squares of value/x against
{1, x}, i.e. Richardson extrapolation through all samples; remainder
("little-o") claims pass when value/x shrinks by at least MIN_SHRINK per
halving of x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ansatz import PW1_APPROX, PW2_APPROX, TABLE_REACH, AnsatzField, bubble_uv
from .ballquad import gauss_panels, get_quadrature, sphere_measure
from .constants import EnergyConstants
from .errors import DomainError, QuadratureNonConvergent
from .halfspace import HalfSpaceCorrection
from .radial import fd_derivs_on_grid

MIN_SHRINK = 1.5

# What each check consumes: the problem parameters alone, the ground-state
# profile, or the half-space corrections phi1/phi2 (implemented for n = 4).
CHECK_NEEDS = {
    "bubble_mass": "profile",
    "cross_terms": "profile",
    "boundary_pairing": "phi",
    "gradient_energy": "phi",
    "nonlinear_energy": "phi",
    "linearized_kernel": "profile",
    "scaling_table": "params",
    "exponent_taylor": "params",
    "perturbed_norms": "phi",
}
CHECK_NAMES = tuple(CHECK_NEEDS)


@dataclass
class ExpansionReport:
    name: str
    samples: dict
    fit: dict
    target: object
    deviation: object
    tol: float
    verdict: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == "PASS"

    def to_record(self):
        def clean(v):
            if isinstance(v, np.ndarray):
                return [float(x) for x in v]
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            if isinstance(v, (np.floating, np.integer)):
                return float(v)
            return v

        return {"name": self.name, "samples": clean(self.samples),
                "fit": clean(self.fit), "target": clean(self.target),
                "deviation": clean(self.deviation), "tol": self.tol,
                "verdict": self.verdict, "details": clean(self.details)}


def slope_limit(xs, ys):
    """Limit of y/x at x -> 0 via polynomial Richardson through all samples."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    deg = min(2, xs.size - 1)
    coef = np.polyfit(xs, ys / xs, deg)
    return float(coef[-1])


def richardson_pair(xs, ys):
    """2 y(h)/h - y(2h)/(2h) from the two smallest samples."""
    order = np.argsort(xs)
    x0, x1 = np.asarray(xs)[order[:2]]
    y0, y1 = np.asarray(ys)[order[:2]]
    r0, r1 = y0 / x0, y1 / x1
    return float(r0 + (r0 - r1) * x0 / (x1 - x0))


def shrink_factors(xs, ys):
    """Successive shrink factors of |y|/x going from the largest x down."""
    order = np.argsort(xs)[::-1]
    xs = np.asarray(xs, dtype=float)[order]
    ys = np.abs(np.asarray(ys, dtype=float))[order]
    ratios = ys / xs
    out = []
    for i in range(len(ratios) - 1):
        lo = max(ratios[i + 1], 1e-300)
        out.append(float(ratios[i] / lo))
    return out


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def aubin_talenti(n):
    """Closed-form bubble at the symmetric point, with three derivatives."""
    c = 1.0 / (n * (n - 2.0))
    m = (n - 2.0) / 2.0

    def u(r):
        return (1.0 + c * r * r) ** -m

    def du(r):
        return -2.0 * m * c * r * (1.0 + c * r * r) ** -(m + 1.0)

    def d2u(r):
        b = 1.0 + c * r * r
        return -2.0 * m * c * b ** -(m + 2.0) * (b - 2.0 * (m + 1.0) * c * r * r)

    def d3u(r):
        b = 1.0 + c * r * r
        return (4.0 * m * (m + 1.0) * c * c * r * b ** -(m + 3.0)
                * (3.0 * b - 2.0 * (m + 2.0) * c * r * r))

    return u, du, d2u, d3u


# ----------------------------------------------------------------------
# field helpers over the ball mesh


def _bubble_power(profile, delta, power, component_v):
    pack = profile.interp_pack
    pp = profile.params

    def f(s, t):
        U, V = bubble_uv(s, t, 1.0, delta, pack, pp.su, pp.sv)
        base = V if component_v else U
        return base ** power

    return f


def check_bubble_mass(profile, constants: EnergyConstants, deltas,
                      level=1, tol=0.05, component_v=False):
    """Mass of one bubble inside the ball: A/2 - B*delta + o(delta)."""
    pp = profile.params
    quad = get_quadrature(pp.n, min(deltas), level)
    n_exp = pp.p + 1.0 if component_v else pp.q + 1.0
    A = constants.A2 if component_v else constants.A1
    B = constants.B2 if component_v else constants.B1
    vals = np.array([quad.integrate(_bubble_power(profile, d, n_exp, component_v))
                     for d in deltas])
    # error estimate: the min(deltas) integral again on the next finer mesh
    fine = get_quadrature(pp.n, min(deltas), level + 1).integrate(
        _bubble_power(profile, min(deltas), n_exp, component_v))
    quad_err = abs(fine - vals[np.argmin(deltas)])
    if quad_err > 0.2 * tol * B * min(deltas):
        raise QuadratureNonConvergent(
            f"mesh error {quad_err:.2e} too large for the delta-slope target")
    ys = vals - A / 2.0
    fit = {"slope": slope_limit(deltas, ys), "richardson": richardson_pair(deltas, ys)}
    dev = abs(fit["richardson"] - (-B)) / B
    ok = dev <= tol and np.all(vals < A / 2.0)
    return ExpansionReport(
        name="bubble_mass", samples={"delta": list(deltas), "value": vals},
        fit=fit, target=-B, deviation=dev, tol=tol, verdict=_verdict(ok),
        details={"component": "V" if component_v else "U",
                 "below_half_mass": bool(np.all(vals < A / 2.0)),
                 "quad_err": float(quad_err)})


def check_cross_terms(profile, deltas, level=1, min_shrink=MIN_SHRINK):
    """Opposite-bubble couplings are o(delta), both component pairings."""
    pp = profile.params
    quad = get_quadrature(pp.n, min(deltas), level)
    pack = profile.interp_pack

    def cross(d):
        def f(s, t):
            Up, Vp = bubble_uv(s, t, 1.0, d, pack, pp.su, pp.sv)
            Um, Vm = bubble_uv(s, t, -1.0, d, pack, pp.su, pp.sv)
            return [Up * Um ** pp.q, Vp * Vm ** pp.p]
        return quad.integrate(f)

    u_vals, v_vals = np.array([cross(d) for d in deltas]).T
    fu = shrink_factors(deltas, u_vals)
    fv = shrink_factors(deltas, v_vals)
    worst = min(fu + fv)
    ok = worst >= min_shrink
    return ExpansionReport(
        name="cross_terms", samples={"delta": list(deltas), "u_cross": u_vals,
                                     "v_cross": v_vals},
        fit={"shrink_u": fu, "shrink_v": fv}, target=f">= {min_shrink} per halving",
        deviation=worst, tol=min_shrink, verdict=_verdict(ok))


def check_phi_pairing(profile, corr1: HalfSpaceCorrection, corr2: HalfSpaceCorrection,
                      constants: EnergyConstants, deltas, level=1, tol=0.05,
                      min_shrink=MIN_SHRINK):
    """Boundary-layer pairings: matched ones carry -C/2, crossed ones are o(delta).

    Pairings are reported in the orientation of the projection expansions
    (the corrections there absorb outgoing flux), hence the minus sign on
    the positive kernel evaluator.
    """
    pp = profile.params
    quad = get_quadrature(pp.n, min(deltas), level)
    pack = profile.interp_pack
    ext = TABLE_REACH / min(deltas)
    tab1 = corr1.table(ext)
    tab2 = corr2.table(ext)

    def pairings(d):
        # rows: matched phi1, matched phi2, crossed (mirrored) phi1, crossed phi2
        def f(s, t):
            U, V = bubble_uv(s, t, 1.0, d, pack, pp.su, pp.sv)
            Uq, Vp = U ** pp.q, V ** pp.p
            sd, near, far = s / d, (1.0 - t) / d, (1.0 + t) / d
            return [tab1.eval_many(sd, near) * Uq, tab2.eval_many(sd, near) * Vp,
                    tab1.eval_many(sd, far) * Uq, tab2.eval_many(sd, far) * Vp]
        scale = np.array([d ** (1.0 - pp.su), d ** (1.0 - pp.sv)] * 2)
        return -scale * quad.integrate(f)

    m1, m2, x1, x2 = np.array([pairings(d) for d in deltas]).T

    s1 = richardson_pair(deltas, m1)
    s2 = richardson_pair(deltas, m2)
    t1, t2 = -constants.C1 / 2.0, -constants.C2 / 2.0
    dev1 = abs(s1 - t1) / abs(t1)
    dev2 = abs(s2 - t2) / abs(t2)
    f1 = shrink_factors(deltas, x1)
    f2 = shrink_factors(deltas, x2)
    ok = (dev1 <= tol and dev2 <= tol and min(f1 + f2) >= min_shrink
          and np.all(m1 < 0) and np.all(m2 < 0))
    return ExpansionReport(
        name="boundary_pairing",
        samples={"delta": list(deltas), "matched_1": m1, "matched_2": m2,
                 "crossed_1": x1, "crossed_2": x2},
        fit={"slope_1": s1, "slope_2": s2, "shrink_1": f1, "shrink_2": f2},
        target={"matched_1": t1, "matched_2": t2},
        deviation={"matched_1": dev1, "matched_2": dev2, "min_shrink": min(f1 + f2)},
        tol=tol, verdict=_verdict(ok),
        details={"matched_negative": bool(np.all(m1 < 0) and np.all(m2 < 0))})


def check_gradient_expansion(profile, corr1, constants: EnergyConstants,
                             deltas, level=1, tol=0.10):
    """Mixed gradient energy of the projected pair.

    Uses the integration-by-parts form: the gradient pairing equals the
    integral of PW1 against the signed bubble sources of PW2.
    """
    pp = profile.params
    quad = get_quadrature(pp.n, min(deltas), level)
    pack = profile.interp_pack
    ext = TABLE_REACH / min(deltas)

    def energies(d):
        fld = AnsatzField(profile, PW1_APPROX, d, phi1=corr1, table_extent=ext)

        # rows: PW1 = bare + correction, and the bare pair W1, against the source
        def f(s, t):
            Up, _ = bubble_uv(s, t, 1.0, d, pack, pp.su, pp.sv)
            Um, _ = bubble_uv(s, t, -1.0, d, pack, pp.su, pp.sv)
            bare = Up - Um
            src = Up ** pp.q - Um ** pp.q
            return [(bare + fld.correction_st(s, t)) * src, bare * src]
        return quad.integrate(f)

    vals, comps = np.array([energies(d) for d in deltas]).T
    ys = vals - constants.A1
    target = -(constants.B1 + constants.B2) + (constants.C1 + constants.C2) / 2.0
    fit = {"slope": slope_limit(deltas, ys), "richardson": richardson_pair(deltas, ys)}
    dev = abs(fit["slope"] - target) / abs(target)
    ok = dev <= tol
    return ExpansionReport(
        name="gradient_energy",
        samples={"delta": list(deltas), "value": vals, "bare_part": comps,
                 "correction_part": vals - comps},
        fit=fit, target=target, deviation=dev, tol=tol, verdict=_verdict(ok),
        details={"leading": constants.A1})


def check_nonlinear_expansion(profile, corr2, constants: EnergyConstants,
                              eps_list, d=0.2, alpha=1.0, level=1, tol=0.10,
                              min_shrink=MIN_SHRINK):
    """Perturbed-exponent energy of the projected second component.

    With delta = d*eps, the functional splits into a delta-part (checked as
    a slope), an eps-part proportional to alpha (isolated by differencing
    the alpha > 0 and alpha = 0 runs), and an o(eps) remainder (ratio test).
    """
    if alpha <= 0:
        raise DomainError("the perturbed-exponent check needs alpha > 0")
    pp = profile.params
    p = pp.p
    deltas = [d * e for e in eps_list]
    quad = get_quadrature(pp.n, min(deltas), level)
    ext = TABLE_REACH / min(deltas)
    A2, B2, C2, D2 = constants.A2, constants.B2, constants.C2, constants.D2
    lead = A2 / (p + 1.0)

    M0, Ma, second = [], [], []
    for e, dd in zip(eps_list, deltas):
        fld = AnsatzField(profile, PW2_APPROX, dd, phi2=corr2, table_extent=ext)
        p_eps = p + alpha * e

        def f(s, t):
            v = np.abs(fld.eval_st(s, t))
            w = v ** (p + 1.0)
            lg = np.log(np.maximum(v, 1e-300))
            return [w, v ** (p_eps + 1.0), w * lg, w * lg ** 2]

        I0, Ia, I1, I2 = quad.integrate(f).tolist()
        Ma.append(Ia / (p_eps + 1.0))
        M0.append(I0 / (p + 1.0))
        # quadratic exponent-derivative term of the functional, explicitly
        # o(eps); subtracted so the remainder ratio test is not polluted by
        # the eps^2 log^2 structure at desk-scale eps
        d2 = (2.0 * I0 / (p + 1.0) ** 3 - 2.0 * I1 / (p + 1.0) ** 2
              + I2 / (p + 1.0))
        second.append(0.5 * (alpha * e) ** 2 * d2)
    M0 = np.array(M0)
    Ma = np.array(Ma)
    second = np.array(second)
    eps = np.array(eps_list, dtype=float)
    dls = np.array(deltas, dtype=float)

    # delta addend: slope of the alpha = 0 functional
    slope_meas = slope_limit(dls, M0 - lead)
    slope_target = (-2.0 * B2 + (p + 1.0) * C2) / (p + 1.0)
    dev_slope = abs(slope_meas - slope_target) / abs(slope_target)

    # leading addend: extrapolated alpha = 0 value
    lead_extrap = float(M0[np.argmin(dls)] - slope_meas * dls.min())
    dev_lead = abs(lead_extrap - lead) / lead

    # eps addend, isolated by differencing (second-order term removed)
    eps_formula = (-(pp.n * alpha / (p + 1.0) ** 2) * np.log(dls) * A2
                   + alpha / (p + 1.0) * D2 - alpha / (p + 1.0) ** 2 * A2) * eps
    eps_meas_raw = Ma - M0
    eps_meas = eps_meas_raw - second
    i_min = int(np.argmin(eps))
    dev_eps = abs(eps_meas[i_min] - eps_formula[i_min]) / abs(eps_formula[i_min])

    # o(eps) remainder of the full formula
    formula = lead + slope_target * dls + eps_formula
    residual_raw = Ma - formula
    residual = residual_raw - second
    factors = shrink_factors(eps, residual)
    ok = (dev_slope <= tol and dev_eps <= tol and dev_lead <= 0.01
          and min(factors) >= min_shrink)
    return ExpansionReport(
        name="nonlinear_energy",
        samples={"eps": list(eps), "delta": list(dls), "value_alpha": Ma,
                 "value_alpha0": M0, "residual": residual,
                 "residual_raw": residual_raw, "second_order": second},
        fit={"delta_slope": slope_meas, "eps_part": eps_meas,
             "eps_part_raw": eps_meas_raw, "eps_formula": eps_formula,
             "leading_extrap": lead_extrap, "residual_shrink": factors,
             "residual_shrink_raw": shrink_factors(eps, residual_raw)},
        target={"leading": lead, "delta_slope": slope_target},
        deviation={"delta_slope": dev_slope, "eps_part": dev_eps,
                   "leading": dev_lead, "min_shrink": min(factors)},
        tol=tol, verdict=_verdict(ok), details={"d": d, "alpha": alpha})


def check_kernel(profile, mode="fd", r_window=(0.05, 10.0), tol=None):
    """Residual of the linearized system on the scaling/translation kernels.

    mode 'fd' differentiates the sampled profile (FD-limited accuracy);
    mode 'analytic' uses the closed-form bubble and is only available at
    the symmetric exponent pair.
    """
    pp = profile.params
    n, p, q = pp.n, pp.p, pp.q
    su, sv = pp.su, pp.sv
    if tol is None:
        tol = 1e-4 if mode == "fd" else 1e-6
    if mode == "analytic":
        top = (n + 2.0) / (n - 2.0)
        if abs(p - top) > 1e-12 or abs(q - top) > 1e-12:
            raise DomainError("analytic kernel residual needs the symmetric point")
        u, du, d2u, d3u = aubin_talenti(n)
        r = np.geomspace(r_window[0], r_window[1], 400)
        # scaling kernel: psi = r u' + su u, with V=U here
        psi = r * du(r) + su * u(r)
        dpsi = du(r) + r * d2u(r) + su * du(r)
        d2psi = 2.0 * d2u(r) + r * d3u(r) + su * d2u(r)
        lap = d2psi + (n - 1.0) / r * dpsi
        rhs = p * u(r) ** (p - 1.0) * (r * du(r) + sv * u(r))
        den = np.maximum(np.abs(rhs), 1e-3 * np.max(np.abs(rhs)))
        res_scaling = float(np.max(np.abs(lap + rhs) / den))
        # translation kernel: psi = u'
        lhs = -d3u(r) - (n - 1.0) / r * d2u(r) + (n - 1.0) / r ** 2 * du(r)
        rhs_t = p * u(r) ** (p - 1.0) * du(r)
        den = np.maximum(np.abs(rhs_t), 1e-3 * np.max(np.abs(rhs_t)))
        res_translation = float(np.max(np.abs(lhs - rhs_t) / den))
    else:
        g = profile.grid
        idx = np.where((g >= r_window[0]) & (g <= r_window[1]))[0]
        idx = idx[(idx >= 2) & (idx <= g.size - 3)]
        r = g[idx]
        U, V = profile.U, profile.V
        psi = g * profile.dU + su * U
        phi = g * profile.dV + sv * V
        dpsi, d2psi = fd_derivs_on_grid(g, psi, idx)
        dphi, d2phi = fd_derivs_on_grid(g, phi, idx)
        res_scaling = 0.0
        for lap_pair, coeff, kern in (((dpsi, d2psi), p * V[idx] ** (p - 1.0), phi[idx]),
                                      ((dphi, d2phi), q * U[idx] ** (q - 1.0), psi[idx])):
            d1, d2_ = lap_pair
            lap = d2_ + (n - 1.0) / r * d1
            rhs = coeff * kern
            den = np.maximum(np.abs(rhs), 1e-3 * np.max(np.abs(rhs)))
            res_scaling = max(res_scaling, float(np.max(np.abs(lap + rhs) / den)))
        # translation kernel (psi, phi) = (U', V'): radial reduction
        res_translation = 0.0
        for y, coeff, kern in ((profile.dU, p * V[idx] ** (p - 1.0), profile.dV[idx]),
                               (profile.dV, q * U[idx] ** (q - 1.0), profile.dU[idx])):
            d1, d2_ = fd_derivs_on_grid(g, y, idx)
            lhs = -d2_ - (n - 1.0) / r * d1 + (n - 1.0) / r ** 2 * y[idx]
            rhs = coeff * kern
            den = np.maximum(np.abs(rhs), 1e-3 * np.max(np.abs(rhs)))
            res_translation = max(res_translation, float(np.max(np.abs(lhs - rhs) / den)))
    worst = max(res_scaling, res_translation)
    return ExpansionReport(
        name="linearized_kernel",
        samples={"r_window": list(r_window)},
        fit={"residual_scaling": res_scaling, "residual_translation": res_translation},
        target=0.0, deviation=worst, tol=tol, verdict=_verdict(worst <= tol),
        details={"mode": mode})


_ROWS = {
    # value = delta^-a * (1 + |x-xi|^2/delta^2)^(-c/2); key -> (a(su,sv), c)
    "u1": ("su", "n-2"),
    "u1_tilde": ("su", "(n-2)p-2"),
    "u2": ("sv", "n-2"),
    "v1": ("su-1", "n-3"),
    "v1_tilde": ("su-1", "(n-2)p-3"),
    "v2": ("sv-1", "n-3"),
}


def _row_params(params, row):
    n, p = params.n, params.p
    su, sv = params.su, params.sv
    a_key, c_key = _ROWS[row]
    a = {"su": su, "sv": sv, "su-1": su - 1.0, "sv-1": sv - 1.0}[a_key]
    c = {"n-2": n - 2.0, "(n-2)p-2": (n - 2.0) * p - 2.0,
         "n-3": n - 3.0, "(n-2)p-3": (n - 2.0) * p - 3.0}[c_key]
    return a, c


def scaling_row_exponent(params, row, t):
    """Expected small-delta order of the local power-bubble integral."""
    n = params.n
    a, c = _row_params(params, row)
    if t * c > n:
        return n - t * a, False
    if t * c == n:
        return n - t * a, True
    return t * (c - a), False


def check_scaling_table(params, t, row, deltas=(0.02, 0.01, 0.005), R=0.5,
                        tol=0.02):
    """Log-log order of int_{B_R} w^t, w an explicit power-law bubble.

    The integrand is an explicit elementary function, so the default
    samples sit lower than the field checks'; that keeps the finite-delta
    log corrections inside the 2% exponent tolerance.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    a, c = _row_params(params, row)
    n = params.n
    expo, logcase = scaling_row_exponent(params, row, t)
    sn = sphere_measure(n)

    def value(d):
        # panels added in sequence; a pairwise sum changes the last bits
        r, w = gauss_panels(np.concatenate([[0.0], np.geomspace(d * 1e-3, R, 60)]), 24)
        f = d ** (-a * t) * (1.0 + (r / d) ** 2) ** (-c * t / 2.0)
        return sn * np.cumsum(np.sum(w * r ** (n - 1.0) * f, axis=1))[-1]

    vals = np.array([value(d) for d in deltas])
    ys = vals / np.abs(np.log(np.asarray(deltas))) if logcase else vals
    slope = float(np.polyfit(np.log(deltas), np.log(ys), 1)[0])
    dev = abs(slope - expo) / max(1.0, abs(expo))
    ok = dev <= tol
    return ExpansionReport(
        name="scaling_table",
        samples={"delta": list(deltas), "value": vals},
        fit={"slope": slope}, target=expo, deviation=dev, tol=tol,
        verdict=_verdict(ok), details={"row": row, "t": t, "log_regime": logcase})


def f_taylor_remainders(q, beta, eps, t):
    """Exact quadratic remainders of the perturbed power and its derivative,
    with the stated envelope bounds (log factors taken in absolute value)."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    lg = np.log(at)
    f_eps = at ** (q + beta * eps - 1.0) * t
    f_0 = at ** (q - 1.0) * t
    xi = (f_eps - f_0 - beta * eps * f_0 * lg) / eps ** 2
    xi_bound = 0.5 * (at ** q + at ** (q + beta * eps)) * lg ** 2
    df_eps = (q + beta * eps) * at ** (q + beta * eps - 1.0)
    df_0 = q * at ** (q - 1.0)
    eta = (df_eps - df_0 - beta * eps * (at ** (q - 1.0) + q * at ** (q - 1.0) * lg)) / eps ** 2
    eta_bound = 2.0 * (q + 1.0) * (at ** (q - 1.0) + at ** (q - 1.0 + beta * eps)) \
        * (np.abs(lg) + lg ** 2)
    return xi, xi_bound, eta, eta_bound


def check_f_taylor(params, t_samples=None, eps_values=(0.1, 0.01), tol=1.0):
    """Remainder/envelope ratios of the perturbed-power expansions."""
    if t_samples is None:
        t_samples = np.geomspace(0.1, 10.0, 101)
    t = np.asarray(t_samples, dtype=float)
    worst = 0.0
    for eps in eps_values:
        for expo, slope in ((params.q, params.beta if params.beta > 0 else 1.0),
                            (params.p, params.alpha if params.alpha > 0 else 1.0)):
            xi, xb, eta, eb = f_taylor_remainders(expo, slope, eps, t)
            good = xb > 1e-290
            if np.any(good):
                worst = max(worst, float(np.max(np.abs(xi[good]) / xb[good])))
            good = eb > 1e-290
            if np.any(good):
                worst = max(worst, float(np.max(np.abs(eta[good]) / eb[good])))
    ok = worst <= tol
    return ExpansionReport(
        name="exponent_taylor",
        samples={"t_min": float(t.min()), "t_max": float(t.max()),
                 "eps": list(eps_values)},
        fit={"max_ratio": worst}, target="<= 1", deviation=worst, tol=tol,
        verdict=_verdict(ok))


def check_norm_orders(profile, corr1, eps_list, d=0.2, level=1,
                      beta=1.0, min_order=0.9):
    """Order in eps of the perturbed-minus-limit nonlinearity norms.

    The norms carry an eps * |log delta| structure (bubble amplitudes grow
    like a power of 1/delta), so the order is fitted after deflating the
    predicted log factor; the raw log-log order is reported alongside.
    """
    pp = profile.params
    q = pp.q
    deltas = [d * e for e in eps_list]
    quad = get_quadrature(pp.n, min(deltas), level)
    ext = TABLE_REACH / min(deltas)
    norms_f, norms_df = [], []
    for e, dd in zip(eps_list, deltas):
        fld = AnsatzField(profile, PW1_APPROX, dd, phi1=corr1, table_extent=ext)
        q_eps = q + beta * e
        expo_f = (q + 1.0) / q
        expo_df = (q + 1.0) / (q - 1.0)

        def f(s, t):
            av = np.abs(fld.eval_st(s, t))
            return [np.abs(av ** q_eps - av ** q) ** expo_f,
                    np.abs(q_eps * av ** (q_eps - 1.0) - q * av ** (q - 1.0)) ** expo_df]

        int_f, int_df = quad.integrate(f).tolist()
        norms_f.append(int_f ** (1.0 / expo_f))
        norms_df.append(int_df ** (1.0 / expo_df))
    eps = np.asarray(eps_list, dtype=float)
    logfac = 1.0 + np.abs(np.log(np.asarray(deltas)))
    of_raw = float(np.polyfit(np.log(eps), np.log(norms_f), 1)[0])
    odf_raw = float(np.polyfit(np.log(eps), np.log(norms_df), 1)[0])
    of = float(np.polyfit(np.log(eps), np.log(norms_f / logfac), 1)[0])
    odf = float(np.polyfit(np.log(eps), np.log(norms_df / logfac), 1)[0])
    ok = of >= min_order and odf >= min_order
    return ExpansionReport(
        name="perturbed_norms",
        samples={"eps": list(eps), "norm_f": np.array(norms_f),
                 "norm_df": np.array(norms_df)},
        fit={"order_f": of, "order_df": odf, "order_f_raw": of_raw,
             "order_df_raw": odf_raw}, target=f">= {min_order}",
        deviation=min(of, odf), tol=min_order,
        verdict=_verdict(ok), details={"d": d, "beta": beta})
