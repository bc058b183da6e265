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

from dataclasses import asdict, dataclass, field

import numpy as np

from .ansatz import TABLE_REACH, AnsatzField, bubble_uv
from .ballquad import gauss_panels, get_quadrature, sphere_measure
from .constants import EnergyConstants
from .errors import DomainError, QuadratureNonConvergent
from .halfspace import HalfSpaceCorrection
from .radial import fd_laplacian, stencil_window

MIN_SHRINK = 1.5


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
        return _clean(asdict(self))


def _clean(v):
    """v with arrays, tuples and numpy scalars as JSON lists and floats."""
    if isinstance(v, np.ndarray):
        return [float(x) for x in v]
    if isinstance(v, (list, tuple)):
        return [_clean(x) for x in v]
    if isinstance(v, dict):
        return {k: _clean(x) for k, x in v.items()}
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    return v


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


# ----------------------------------------------------------------------
# field helpers over the ball mesh


def _bubble_power(profile, delta):
    """The integrand U^(q+1) of the U bubble at e_n."""
    power = profile.params.q + 1.0

    def f(s, t):
        (base,) = bubble_uv(s, t, 1.0, delta, profile, ("U",))
        return base ** power

    return f


def check_bubble_mass(profile, constants: EnergyConstants, deltas, level=1):
    """Mass of one U bubble inside the ball: A1/2 - B1*delta + o(delta)."""
    tol = 0.05
    pp = profile.params
    quad = get_quadrature(pp.n, min(deltas), level)
    A, B = constants.A1, constants.B1
    vals = np.array([quad.integrate(_bubble_power(profile, d)) for d in deltas])
    # error estimate: the min(deltas) integral again on the next finer mesh
    fine = get_quadrature(pp.n, min(deltas), level + 1).integrate(
        _bubble_power(profile, min(deltas)))
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
        details={"component": "U",
                 "below_half_mass": bool(np.all(vals < A / 2.0)),
                 "quad_err": float(quad_err)})


def check_cross_terms(profile, deltas, level=1):
    """Opposite-bubble couplings are o(delta), both component pairings."""
    pp = profile.params
    quad = get_quadrature(pp.n, min(deltas), level)

    def cross(d):
        # the bubble at +e_n seen from (s, -t) is the one at -e_n seen from
        # (s, t), bit for bit (-t - 1 = -(t + 1)): the lower half swaps the pair
        def halves(s, t):
            Up, Vp = bubble_uv(s, t, 1.0, d, profile, ("U", "V"))
            Um, Vm = bubble_uv(s, t, -1.0, d, profile, ("U", "V"))
            return [Up * Um ** pp.q, Vp * Vm ** pp.p], [Um * Up ** pp.q, Vm * Vp ** pp.p]
        return quad.integrate(halves, halves=True)

    u_vals, v_vals = np.array([cross(d) for d in deltas]).T
    fu = shrink_factors(deltas, u_vals)
    fv = shrink_factors(deltas, v_vals)
    worst = min(fu + fv)
    ok = worst >= MIN_SHRINK
    return ExpansionReport(
        name="cross_terms", samples={"delta": list(deltas), "u_cross": u_vals,
                                     "v_cross": v_vals},
        fit={"shrink_u": fu, "shrink_v": fv}, target=f">= {MIN_SHRINK} per halving",
        deviation=worst, tol=MIN_SHRINK, verdict=_verdict(ok))


def check_phi_pairing(profile, corr1: HalfSpaceCorrection, corr2: HalfSpaceCorrection,
                      constants: EnergyConstants, deltas, level=1):
    """Boundary-layer pairings: matched ones carry -C/2, crossed ones are o(delta).

    Pairings are reported in the orientation of the projection expansions
    (the corrections there absorb outgoing flux), hence the minus sign on
    the positive kernel evaluator.
    """
    tol = 0.05
    pp = profile.params
    quad = get_quadrature(pp.n, min(deltas), level)
    tab1, tab2 = (c.table(TABLE_REACH / min(deltas)) for c in (corr1, corr2))

    def pairings(d):
        # rows: matched phi1, matched phi2, crossed (mirrored) phi1, crossed phi2.
        # At (s, -t), near and far are the upper half's far and near, and the
        # bubble at +e_n is the one at -e_n seen from (s, t), bit for bit:
        # the lower half swaps the lookups and takes the other bubble
        def halves(s, t):
            Up, Vp = bubble_uv(s, t, 1.0, d, profile, ("U", "V"))
            Um, Vm = bubble_uv(s, t, -1.0, d, profile, ("U", "V"))
            sd, near, far = s / d, (1.0 - t) / d, (1.0 + t) / d
            n1, n2 = tab1.eval_many(sd, near), tab2.eval_many(sd, near)
            f1, f2 = tab1.eval_many(sd, far), tab2.eval_many(sd, far)
            Upq, Vpp, Umq, Vmp = Up ** pp.q, Vp ** pp.p, Um ** pp.q, Vm ** pp.p
            return ([n1 * Upq, n2 * Vpp, f1 * Upq, f2 * Vpp],
                    [f1 * Umq, f2 * Vmp, n1 * Umq, n2 * Vmp])
        scale = np.array([d ** (1.0 - pp.su), d ** (1.0 - pp.sv)] * 2)
        return -scale * quad.integrate(halves, halves=True)

    m1, m2, x1, x2 = np.array([pairings(d) for d in deltas]).T

    s1 = richardson_pair(deltas, m1)
    s2 = richardson_pair(deltas, m2)
    t1, t2 = -constants.C1 / 2.0, -constants.C2 / 2.0
    dev1 = abs(s1 - t1) / abs(t1)
    dev2 = abs(s2 - t2) / abs(t2)
    f1 = shrink_factors(deltas, x1)
    f2 = shrink_factors(deltas, x2)
    ok = (dev1 <= tol and dev2 <= tol and min(f1 + f2) >= MIN_SHRINK
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
                             deltas, level=1):
    """Mixed gradient energy of the projected pair.

    Uses the integration-by-parts form: the gradient pairing equals the
    integral of PW1 against the signed bubble sources of PW2.
    """
    tol = 0.10
    pp = profile.params
    quad = get_quadrature(pp.n, min(deltas), level)
    tab = corr1.table(TABLE_REACH / min(deltas))

    def energies(d):
        fld = AnsatzField(profile, d, tab)

        # rows: PW1 = bare + correction, and the bare pair Up - Um, against the
        # source.  bare, correction and source each change sign exactly under
        # t -> -t, so the rows are even in t bit for bit: the upper half's
        # stack serves both
        def f(s, t):
            (Up,) = bubble_uv(s, t, 1.0, d, profile, ("U",))
            (Um,) = bubble_uv(s, t, -1.0, d, profile, ("U",))
            bare = Up - Um
            src = Up ** pp.q - Um ** pp.q
            rows = np.array([(bare + fld.correction_st(s, t)) * src, bare * src])
            return rows, rows
        return quad.integrate(f, halves=True)

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
                              eps_list, d=0.2, alpha=1.0, level=1):
    """Perturbed-exponent energy of the projected second component.

    With delta = d*eps, the functional splits into a delta-part (checked as
    a slope), an eps-part proportional to alpha (isolated by differencing
    the alpha > 0 and alpha = 0 runs), and an o(eps) remainder (ratio test).
    """
    if alpha <= 0:
        raise DomainError("the perturbed-exponent check needs alpha > 0")
    tol = 0.10
    pp = profile.params
    p = pp.p
    deltas = [d * e for e in eps_list]
    quad = get_quadrature(pp.n, min(deltas), level)
    tab = corr2.table(TABLE_REACH / min(deltas))
    A2, B2, C2, D2 = constants.A2, constants.B2, constants.C2, constants.D2
    lead = A2 / (p + 1.0)

    M0, Ma, second = [], [], []
    for e, dd in zip(eps_list, deltas):
        fld = AnsatzField(profile, dd, tab)
        p_eps = p + alpha * e

        # |field| is even in t bit for bit: the upper half's stack serves both
        def f(s, t):
            v = np.abs(fld.eval_st(s, t))
            w = v ** (p + 1.0)
            lg = np.log(np.maximum(v, 1e-300))
            rows = np.array([w, v ** (p_eps + 1.0), w * lg, w * lg ** 2])
            return rows, rows

        I0, Ia, I1, I2 = quad.integrate(f, halves=True).tolist()
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
          and min(factors) >= MIN_SHRINK)
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


def _relative_residual(res, rhs):
    """max |res| / max(|rhs|, 1e-3 max|rhs|): relative, floored near zeros of rhs."""
    den = np.maximum(np.abs(rhs), 1e-3 * np.max(np.abs(rhs)))
    return float(np.max(np.abs(res) / den))


def check_kernel(profile):
    """Residual of the linearized system on the scaling/translation kernels.

    The residual is taken over the grid points in 0.05 <= r <= 10, with the
    derivatives of the kernels from fd_laplacian on the sampled profile
    (FD-limited accuracy, tol 1e-4).
    """
    pp = profile.params
    n, p, q = pp.n, pp.p, pp.q
    su, sv = pp.su, pp.sv
    r_window = (0.05, 10.0)
    tol = 1e-4
    g = profile.grid
    idx = stencil_window(g, *r_window)
    r = g[idx]
    U, V = profile.U, profile.V
    psi = g * profile.dU + su * U
    phi = g * profile.dV + sv * V
    res_scaling = 0.0
    for y, coeff, kern in ((psi, p * V[idx] ** (p - 1.0), phi[idx]),
                           (phi, q * U[idx] ** (q - 1.0), psi[idx])):
        lap, rhs = fd_laplacian(g, y, idx, n), coeff * kern
        res_scaling = max(res_scaling, _relative_residual(lap + rhs, rhs))
    # translation kernel (psi, phi) = (U', V'): radial reduction
    res_translation = 0.0
    for y, coeff, kern in ((profile.dU, p * V[idx] ** (p - 1.0), profile.dV[idx]),
                           (profile.dV, q * U[idx] ** (q - 1.0), profile.dU[idx])):
        lhs = -fd_laplacian(g, y, idx, n) + (n - 1.0) / r ** 2 * y[idx]
        rhs = coeff * kern
        res_translation = max(res_translation, _relative_residual(lhs - rhs, rhs))
    worst = max(res_scaling, res_translation)
    return ExpansionReport(
        name="linearized_kernel",
        samples={"r_window": list(r_window)},
        fit={"residual_scaling": res_scaling, "residual_translation": res_translation},
        target=0.0, deviation=worst, tol=tol, verdict=_verdict(worst <= tol),
        details={"mode": "fd"})


def _row_params(params, row):
    """(a, c) of a row's bubble: value = delta^-a * (1 + |x-xi|^2/delta^2)^(-c/2)."""
    n, p, su, sv = params.n, params.p, params.su, params.sv
    return {"u1": (su, n - 2.0), "u1_tilde": (su, (n - 2.0) * p - 2.0),
            "u2": (sv, n - 2.0), "v1": (su - 1.0, n - 3.0),
            "v1_tilde": (su - 1.0, (n - 2.0) * p - 3.0), "v2": (sv - 1.0, n - 3.0)}[row]


def scaling_row_exponent(params, row, t):
    """Expected small-delta order of the local power-bubble integral."""
    n = params.n
    a, c = _row_params(params, row)
    if t * c > n:
        return n - t * a, False
    if t * c == n:
        return n - t * a, True
    return t * (c - a), False


def log_regime_order(vals):
    """Order e of values v_k = delta_k^e (A |log delta_k| + B) at three halving deltas.

    v_k 2^(-k e) is linear in k, so x = 2^e solves v2 x^2 - 2 v1 x + v0 = 0; it
    is the larger root, the other 2^e (A L0 + B) / (A L0 + B + 2 A log 2) with
    L0 = |log delta_0|.  A non-positive discriminant gives NaN.
    """
    v0, v1, v2 = vals
    disc = v1 * v1 - v0 * v2
    return float(np.log2((v1 + np.sqrt(disc)) / v2)) if disc > 0 else float("nan")


def check_scaling_table(params, t, row):
    """Log-log order of int_{B_R} w^t, R = 0.5, w an explicit power-law bubble.

    The integrand is an explicit elementary function, so the delta samples
    sit lower than the field checks'; that keeps the finite-delta log
    corrections inside the 2% exponent tolerance.  In the logarithmic regime
    (t c = n) the order is log_regime_order's, which the constant beside
    |log delta| does not bias.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    tol = 0.02
    deltas = (0.02, 0.01, 0.005)
    a, c = _row_params(params, row)
    n = params.n
    expo, logcase = scaling_row_exponent(params, row, t)
    sn = sphere_measure(n)

    def value(d):
        # panels added in sequence; a pairwise sum changes the last bits
        r, w = gauss_panels(np.concatenate([[0.0], np.geomspace(d * 1e-3, 0.5, 60)]), 24)
        f = d ** (-a * t) * (1.0 + (r / d) ** 2) ** (-c * t / 2.0)
        return sn * np.cumsum(np.sum(w * r ** (n - 1.0) * f, axis=1))[-1]

    vals = np.array([value(d) for d in deltas])
    if logcase:
        slope = log_regime_order(vals)
    else:
        slope = float(np.polyfit(np.log(deltas), np.log(vals), 1)[0])
    dev = abs(slope - expo) / max(1.0, abs(expo))
    ok = dev <= tol  # a NaN order fails
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


def check_f_taylor(params, t_samples=None):
    """Remainder/envelope ratios of the perturbed-power expansions; all must be <= 1."""
    if params.alpha <= 0 or params.beta <= 0:
        raise DomainError("the perturbed-power check needs alpha > 0 and beta > 0")
    tol = 1.0
    eps_values = (0.1, 0.01)
    if t_samples is None:
        t_samples = np.geomspace(0.1, 10.0, 101)
    t = np.asarray(t_samples, dtype=float)
    worst = 0.0
    for eps in eps_values:
        for expo, slope in ((params.q, params.beta), (params.p, params.alpha)):
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


def check_norm_orders(profile, corr1, eps_list, d=0.2, level=1, beta=1.0):
    """Order in eps of the perturbed-minus-limit nonlinearity norms; both must be >= 0.9.

    The norms carry an eps * |log delta| structure (bubble amplitudes grow
    like a power of 1/delta), so the order is fitted after deflating the
    predicted log factor; the raw log-log order is reported alongside.
    """
    if beta <= 0:
        raise DomainError("the perturbed-norm check needs beta > 0")
    min_order = 0.9
    pp = profile.params
    q = pp.q
    deltas = [d * e for e in eps_list]
    quad = get_quadrature(pp.n, min(deltas), level)
    tab = corr1.table(TABLE_REACH / min(deltas))
    norms_f, norms_df = [], []
    for e, dd in zip(eps_list, deltas):
        fld = AnsatzField(profile, dd, tab)
        q_eps = q + beta * e
        expo_f = (q + 1.0) / q
        expo_df = (q + 1.0) / (q - 1.0)

        # |field| is even in t bit for bit: the upper half's stack serves both
        def f(s, t):
            av = np.abs(fld.eval_st(s, t))
            df = q_eps * av ** (q_eps - 1.0) - q * av ** (q - 1.0)
            rows = np.array([np.abs(av ** q_eps - av ** q) ** expo_f, np.abs(df) ** expo_df])
            return rows, rows

        int_f, int_df = quad.integrate(f, halves=True).tolist()
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


# Each entry turns a check's run inputs, its parameter names, into the check's
# reports; cli.CHECK_READS states those names, in this order, for the CLI.  An
# entry looks its check_* function up on this module when it runs, so a
# wrapper put there later is the one called.
CHECKS = {
    "bubble_mass": lambda profile, constants, deltas, level: [
        check_bubble_mass(profile, constants, deltas, level=level)],
    "cross_terms": lambda profile, deltas, level: [
        check_cross_terms(profile, deltas, level=level)],
    "boundary_pairing": lambda profile, corr1, corr2, constants, deltas, level: [
        check_phi_pairing(profile, corr1, corr2, constants, deltas, level=level)],
    "gradient_energy": lambda profile, corr1, constants, deltas, level: [
        check_gradient_expansion(profile, corr1, constants, deltas, level=level)],
    "nonlinear_energy": lambda profile, corr2, constants, eps, d, alpha, level: [
        check_nonlinear_expansion(profile, corr2, constants, eps, d=d, alpha=alpha,
                                  level=level)],
    "linearized_kernel": lambda profile: [check_kernel(profile)],
    "scaling_table": lambda params: [
        check_scaling_table(params, t, row)
        for t, row in ((params.q + 1.0, "u1"), (1.0, "u1"), (2.0, "v2"))],
    "exponent_taylor": lambda params: [check_f_taylor(params)],
    "perturbed_norms": lambda profile, corr1, eps, d, level, beta: [
        check_norm_orders(profile, corr1, eps, d=d, level=level, beta=beta)],
}
