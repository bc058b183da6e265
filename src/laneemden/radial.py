"""Ground state of the limit system by double-sided shooting.

The radial system

    U'' + (n-1)/r U' = -|V|^(p-1) V,   U(0) = 1, U'(0) = 0,
    V'' + (n-1)/r V' = -|U|^(q-1) U,   V(0) = v0, V'(0) = 0,

has a unique v0* for which both components decay; for v0 below it V hits
zero first, above it U does.  The decaying window around v0* at finite
integration radius has positive width, so the solver brackets both of its
edges and integrates at the centre, several times deeper than the radius
kept in the returned profile (contamination of the stored tail then scales
like (r_max / r_solve)^2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from ._interp import InterpPack, pack_pchip, profile_eval
from .errors import (BracketingFailure, DomainError, MonotonicityViolation,
                     PoorFit, StepFailure, WindowTooNarrow)
from .params import CASE_BORDER, CASE_SUB, ProblemParams, check_condition_P

U_HITS_ZERO = "U_HITS_ZERO"
V_HITS_ZERO = "V_HITS_ZERO"
DECAYING = "DECAYING"
DIVERGING = "DIVERGING"

DIVERGENCE_GUARD = 1.0e3
R_START = 1e-4  # Taylor start; truncation of the series is O(R_START^4)
GRID_PTS_PER_DECADE = 800
DEFAULT_SOLVE_FACTOR = 20.0
MAX_TAIL_FIT_RESIDUAL = 0.05  # relative; fit_tail raises PoorFit above it


@dataclass(frozen=True)
class TailFit:
    """Power-law tail of a decaying profile.

    a, b are the coefficients of the leading terms of U and V; for the
    p < n/(n-2) coupling a comes from a two-term fit a*r^-exp_U + c2*r^-(n-2)
    (the harmonic subleading mode is then far from negligible on any
    affordable window).
    """

    a: float
    b: float
    exp_U: float
    exp_V: float
    exp_U_err: float
    exp_V_err: float
    c2: float
    fit_window: tuple
    fit_residual: float


@dataclass(frozen=True)
class RadialProfile:
    """Sampled ground state with interpolation and tail extrapolation."""

    params: ProblemParams
    grid: np.ndarray
    U: np.ndarray
    dU: np.ndarray
    V: np.ndarray
    dV: np.ndarray
    v0: float
    r_max: float
    ode_tol: float
    tail: TailFit | None = None
    _pack: InterpPack | None = None

    def with_tail(self, tail):
        return replace(self, tail=tail, _pack=self._build_pack(tail))

    def _build_pack(self, tail):
        breaks, cu = pack_pchip(self.grid, self.U)
        _, cdu = pack_pchip(self.grid, self.dU)
        _, cv = pack_pchip(self.grid, self.V)
        _, cdv = pack_pchip(self.grid, self.dV)
        n = self.params.n
        eu = tail.exp_U
        e2 = n - 2.0
        # rescale so U, V are continuous across r_max
        u_end, v_end = self.U[-1], self.V[-1]
        raw_u = tail.a * self.r_max ** (-eu) + tail.c2 * self.r_max ** (-e2)
        au = tail.a * (u_end / raw_u)
        cu2 = tail.c2 * (u_end / raw_u)
        bv = v_end * self.r_max ** tail.exp_V
        return InterpPack(breaks, cu, cdu, cv, cdv, float(self.r_max),
                          float(au), float(cu2), float(eu), float(e2),
                          float(bv), float(tail.exp_V))

    def eval_many(self, r):
        """(U, dU, V, dV) arrays at radii r (tail extrapolation beyond r_max)."""
        if self._pack is None:
            raise RuntimeError("profile has no tail fit attached")
        r = np.ascontiguousarray(np.atleast_1d(np.asarray(r, dtype=np.float64)))
        return profile_eval(r, *self._pack)

    def evaluate(self, r):
        """Scalar (U, dU, V, dV) at radius r >= 0."""
        out = self.eval_many(np.array([float(r)]))
        return tuple(float(c[0]) for c in out)

    @property
    def interp_pack(self):
        return self._pack

    def to_csv(self, csv_path, json_path=None):
        """Write the sampled profile, and a JSON sidecar if a path is given."""
        from .reporting import write_profile_csv, write_json
        write_profile_csv(csv_path, self.grid, self.U, self.dU, self.V, self.dV)
        if json_path is not None:
            write_json(json_path, self.sidecar())

    def sidecar(self):
        t = self.tail
        return {
            "v0": self.v0,
            "r_max": self.r_max,
            "ode_tol": self.ode_tol,
            "params": {"n": self.params.n, "p": self.params.p, "q": self.params.q,
                       "alpha": self.params.alpha, "beta": self.params.beta,
                       "epsilon": self.params.epsilon, "case_tag": self.params.case_tag},
            "tail": None if t is None else {
                "a": t.a, "b": t.b, "c2": t.c2,
                "exp_U": t.exp_U, "exp_V": t.exp_V,
                "exp_U_err": t.exp_U_err, "exp_V_err": t.exp_V_err,
                "fit_window": list(t.fit_window), "fit_residual": t.fit_residual,
            },
        }


@dataclass(frozen=True)
class ShotResult:
    classification: str
    v0: float
    r_end: float
    sol: object  # scipy OdeResult (dense_output when requested)


def _rhs(n, p, q):
    def rhs(r, y):
        U, dU, V, dV = y
        fV = np.sign(V) * np.abs(V) ** p
        fU = np.sign(U) * np.abs(U) ** q
        c = (n - 1.0) / r
        return (dU, -c * dU - fV, dV, -c * dV - fU)
    return rhs


def shoot(params: ProblemParams, v0: float, r_max: float, tol: float = 1e-10,
          dense: bool = False) -> ShotResult:
    """Integrate from the Taylor start and classify the trajectory.

    Classification is the first event hit: a component crossing zero, the
    divergence guard U+V > 1e3, or r_max reached (DECAYING).
    """
    if v0 <= 0:
        raise DomainError("v0 must be positive")
    if not 0 < tol <= 1e-4:
        raise DomainError("tol must lie in (0, 1e-4]")
    n, p, q = params.n, params.p, params.q
    # keep both Taylor corrections tiny for extreme shooting values
    r0 = R_START * min(1.0, v0 ** (-p / 2.0), np.sqrt(v0) * 10.0)
    y0 = (1.0 - v0 ** p * r0 ** 2 / (2 * n), -(v0 ** p) * r0 / n,
          v0 - r0 ** 2 / (2 * n), -r0 / n)

    def ev_u(r, y):
        return y[0]

    def ev_v(r, y):
        return y[2]

    def ev_guard(r, y):
        return y[0] + y[2] - DIVERGENCE_GUARD

    for ev in (ev_u, ev_v, ev_guard):
        ev.terminal = True
    rtol = max(tol, 100 * np.finfo(float).eps)
    atol = max(rtol * 1e-4, 1e-16)
    sol = solve_ivp(_rhs(n, p, q), (r0, r_max), y0, method="DOP853",
                    rtol=rtol, atol=atol, events=(ev_u, ev_v, ev_guard),
                    dense_output=dense)
    if sol.status == -1:
        raise StepFailure(f"integrator failed at r={sol.t[-1]:.4g}: {sol.message}")
    if sol.t_events[0].size:
        cls = U_HITS_ZERO
    elif sol.t_events[1].size:
        cls = V_HITS_ZERO
    elif sol.t_events[2].size:
        cls = DIVERGING
    else:
        cls = DECAYING
    return ShotResult(cls, v0, float(sol.t[-1]), sol)


def _bisect_edge(classify, lo, hi, pred_lo, max_iter=90):
    """Shrink [lo, hi] with pred holding at lo and failing at hi."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if pred_lo(classify(mid)):
            lo = mid
        else:
            hi = mid
    return lo, hi


def find_ground_state(params: ProblemParams, ode_tol: float = 3e-14,
                      r_max: float = 1e4, solve_factor: float = DEFAULT_SOLVE_FACTOR,
                      fit_window=None) -> RadialProfile:
    """Locate v0*, sample the profile on a graded grid, and fit the tail.

    The shooting value is taken as the centre of the decaying window at
    radius solve_factor * r_max.
    """
    if params.case_tag == CASE_BORDER:
        raise DomainError("p = n/(n-2) is not supported")
    label, _ = check_condition_P(params)
    top = (params.n + 2.0) / (params.n - 2.0)
    at_top = abs(params.p - top) < 1e-12
    if label == "outside" and not at_top:
        raise DomainError(f"p={params.p} outside the admissible coupling ranges")

    r_solve = solve_factor * r_max

    def classify(v0):
        return shoot(params, v0, r_solve, tol=ode_tol).classification

    sweep = np.logspace(-3, 3, 25)
    cls = [classify(v) for v in sweep]
    lo = hi = None
    for i in range(len(sweep) - 1):
        if cls[i] == V_HITS_ZERO and cls[i + 1] != V_HITS_ZERO:
            lo = sweep[i]
            hi = sweep[i + 1]
            for j in range(i + 1, len(sweep)):
                if cls[j] == U_HITS_ZERO:
                    hi = sweep[j]
                    break
            break
    if lo is None:
        raise BracketingFailure("no V->U classification change for v0 in [1e-3, 1e3]")

    # shrink until a decaying midpoint appears, then centre the window
    mid_decay = None
    a, b = lo, hi
    for _ in range(90):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        c = classify(m)
        if c == DECAYING:
            mid_decay = m
            break
        if c == V_HITS_ZERO:
            a = m
        else:
            b = m
    if mid_decay is None:
        v0 = 0.5 * (a + b)
    else:
        l0, l1 = _bisect_edge(classify, a, mid_decay, lambda c: c == V_HITS_ZERO)
        r0_, r1 = _bisect_edge(classify, mid_decay, b, lambda c: c == DECAYING)
        v0 = 0.5 * (0.5 * (l0 + l1) + 0.5 * (r0_ + r1))

    shot = shoot(params, v0, r_solve, tol=ode_tol, dense=True)
    if shot.classification != DECAYING and shot.r_end < 2.0 * r_max:
        raise BracketingFailure(
            f"centred trajectory leaves the decaying regime at r={shot.r_end:.3g}")

    decades = np.log10(r_max / 1e-3)
    grid = np.concatenate([[0.0],
                           np.geomspace(1e-3, r_max, int(GRID_PTS_PER_DECADE * decades) + 1)])
    Y = shot.sol.sol(grid[1:])
    U = np.concatenate([[1.0], Y[0]])
    dU = np.concatenate([[0.0], Y[1]])
    V = np.concatenate([[v0], Y[2]])
    dV = np.concatenate([[0.0], Y[3]])

    if np.any(U <= 0) or np.any(V <= 0):
        raise MonotonicityViolation("profile not positive out to r_max")
    if np.any(np.diff(U[1:]) >= 0) or np.any(np.diff(V[1:]) >= 0):
        raise MonotonicityViolation("profile not strictly decreasing")
    n = params.n
    flat = grid[1:] ** (n - 2.0) * V[1:]
    last = flat[grid[1:] > r_max / 10]
    if last.max() / last.min() > 3.0:
        raise MonotonicityViolation("r^(n-2) V not settled; increase r_max or tighten tol")

    prof = RadialProfile(params=params, grid=grid, U=U, dU=dU, V=V, dV=dV,
                         v0=float(v0), r_max=float(r_max), ode_tol=float(ode_tol))
    if fit_window is None:
        if params.case_tag == CASE_SUB:
            fit_window = (r_max / 100.0, r_max)
        else:
            fit_window = (r_max / 10.0, r_max)
    tail = fit_tail(prof, fit_window)
    return prof.with_tail(tail)


def _loglog_fit(r, y):
    """Slope/intercept of log y vs log r with the slope's standard error."""
    lx, ly = np.log(r), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    dof = max(len(r) - 2, 1)
    s2 = (res[0] / dof) if res.size else 0.0
    cov = s2 * np.linalg.inv(A.T @ A)
    return coef[0], coef[1], float(np.sqrt(max(cov[0, 0], 0.0)))


def fit_tail(profile: RadialProfile, window) -> TailFit:
    """Fit decay exponents and tail coefficients over the given window."""
    r_lo, r_hi = float(window[0]), float(window[1])
    r_max = profile.r_max
    if not (r_max / 100.0 - 1e-9 <= r_lo < r_hi <= r_max * (1 + 1e-12)):
        raise DomainError(f"window {window} not inside [r_max/100, r_max]")
    if r_hi / r_lo < 10.0:
        raise WindowTooNarrow(f"window {window} spans less than one decade")
    rf = np.geomspace(r_lo, r_hi, 160)
    # fit from raw samples (no tail model yet): interpolate grid data
    Uf = np.interp(rf, profile.grid, profile.U)
    Vf = np.interp(rf, profile.grid, profile.V)
    n = profile.params.n
    e2 = n - 2.0

    sV, iV, errV = _loglog_fit(rf, Vf)
    exp_V, b = -sV, float(np.mean(rf ** e2 * Vf))

    if profile.params.case_tag == CASE_SUB:
        e_th = profile.params.exp_u_decay

        def resid(gam):
            A = np.vstack([rf ** -gam, rf ** -e2]).T
            coef, *_ = np.linalg.lstsq(A / Uf[:, None], np.ones_like(Uf), rcond=None)
            return float(np.sum((A @ coef / Uf - 1.0) ** 2)), coef

        res = minimize_scalar(lambda g: resid(g)[0],
                              bounds=(max(1.01, 0.75 * e_th), min(e2 - 1e-3, 1.25 * e_th)),
                              method="bounded", options={"xatol": 1e-10})
        exp_U = float(res.x)
        # coefficient for the decay identity: two-term fit at the theoretical exponent
        A = np.vstack([rf ** -e_th, rf ** -e2]).T
        coef, *_ = np.linalg.lstsq(A / Uf[:, None], np.ones_like(Uf), rcond=None)
        a, c2 = float(coef[0]), float(coef[1])
        model = A @ coef
        exp_U_err = abs(exp_U - e_th)
    else:
        sU, iU, errU = _loglog_fit(rf, Uf)
        exp_U, exp_U_err = -sU, errU
        a = float(np.mean(rf ** profile.params.exp_u_decay * Uf))
        c2 = 0.0
        model = a * rf ** -profile.params.exp_u_decay
    resid_u = float(np.max(np.abs(model / Uf - 1.0)))
    resid_v = float(np.max(np.abs(b * rf ** -e2 / Vf - 1.0)))
    fit_residual = max(resid_u, resid_v)
    if fit_residual > MAX_TAIL_FIT_RESIDUAL:
        raise PoorFit(f"tail fit residual {fit_residual:.3%} exceeds "
                      f"{MAX_TAIL_FIT_RESIDUAL:.0%}")
    if a <= 0 or b <= 0:
        raise PoorFit("tail coefficients must be positive")
    return TailFit(a=a, b=b, exp_U=float(exp_U), exp_V=float(exp_V),
                   exp_U_err=float(exp_U_err), exp_V_err=float(errV), c2=c2,
                   fit_window=(r_lo, r_hi), fit_residual=fit_residual)


def fd_derivs_on_grid(g, y, idx):
    """(y', y'') at grid indices via local quartic fits (5-point stencils).

    Offsets are scaled by the stencil width before fitting; the raw
    Vandermonde would be catastrophically ill-conditioned on fine grids.
    """
    d1 = np.empty(idx.size)
    d2 = np.empty(idx.size)
    for k, i in enumerate(idx):
        xs = g[i - 2:i + 3] - g[i]
        h = np.max(np.abs(xs))
        c = np.polyfit(xs / h, y[i - 2:i + 3], 4)
        d1[k] = c[3] / h
        d2[k] = 2.0 * c[2] / h ** 2
    return d1, d2


def ode_residual(profile: RadialProfile, r_lo=1e-2, r_hi=10.0):
    """Max relative residual of the radial system on grid points.

    Second derivatives come from 5-point local polynomial differentiation
    of the sampled values, so the figure is FD-limited; beyond r ~ 30 the
    source term is smaller than the Laplacian's cancelling parts by r^-2
    and a relative comparison stops being meaningful.
    """
    g = profile.grid
    sel = np.where((g >= r_lo) & (g <= r_hi))[0]
    sel = sel[(sel >= 2) & (sel <= g.size - 3)]
    n, p, q = profile.params.n, profile.params.p, profile.params.q
    worst = 0.0
    for arr, src in ((profile.U, profile.V ** p), (profile.V, profile.U ** q)):
        d1, d2 = fd_derivs_on_grid(g, arr, sel)
        lhs = -d2 - (n - 1.0) / g[sel] * d1
        rhs = src[sel]
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    return worst


def derivative_bound_constant(profile: RadialProfile):
    """sup_r |n U/(q+1) + r U'| / U  (finite; the scaling-derivative bound)."""
    g, U, dU = profile.grid, profile.U, profile.dU
    return float(np.max(np.abs(profile.params.su * U + g * dU) / U))


def load_profile(csv_path, json_path) -> RadialProfile:
    """Rebuild a profile from its CSV samples and JSON sidecar."""
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    with open(json_path, "r", encoding="utf-8") as f:
        side = json.load(f)
    pr = side["params"]
    params = ProblemParams(n=int(pr["n"]), p=float(pr["p"]), alpha=float(pr["alpha"]),
                           beta=float(pr["beta"]), epsilon=float(pr["epsilon"]))
    prof = RadialProfile(params=params, grid=data[:, 0], U=data[:, 1], dU=data[:, 2],
                         V=data[:, 3], dV=data[:, 4], v0=float(side["v0"]),
                         r_max=float(side["r_max"]), ode_tol=float(side["ode_tol"]))
    t = side["tail"]
    tail = TailFit(a=t["a"], b=t["b"], exp_U=t["exp_U"], exp_V=t["exp_V"],
                   exp_U_err=t["exp_U_err"], exp_V_err=t["exp_V_err"], c2=t["c2"],
                   fit_window=tuple(t["fit_window"]), fit_residual=t["fit_residual"])
    return prof.with_tail(tail)
