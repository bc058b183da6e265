"""Ground state of the limit system by double-sided shooting.

The radial system

    U'' + (n-1)/r U' = -|V|^(p-1) V,   U(0) = 1, U'(0) = 0,
    V'' + (n-1)/r V' = -|U|^(q-1) U,   V(0) = v0, V'(0) = 0,

has a unique v0* for which both components decay; for v0 below it V hits
zero first, above it U does.  The decaying window around v0* at finite
integration radius has positive width, so the solver brackets both of its
edges and integrates at the centre, several times deeper than the radius
kept in the returned profile (contamination of the stored tail then scales
like (r_max / r_solve)^2).  Beyond r_max the profile continues by power
tails whose exponents come from (n, p) and whose amplitudes come from the
samples at r_max and the system itself (tail_amplitudes); nothing is fitted.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from ._interp import InterpPack, pack_hermite, profile_eval
from .errors import (BracketingFailure, DomainError, MonotonicityViolation,
                     PoorFit, StepFailure)
from .params import CASE_SUB, ProblemParams, check_solvable

U_HITS_ZERO = "U_HITS_ZERO"
V_HITS_ZERO = "V_HITS_ZERO"
DECAYING = "DECAYING"

R_START = 1e-4  # Taylor start; truncation of the series is O(R_START^4)
GRID_PTS_PER_DECADE = 800
DEFAULT_SOLVE_FACTOR = 20.0
MAX_TAIL_RESIDUAL = 0.05  # relative; check_tail raises PoorFit above it


def tail_amplitudes(params: ProblemParams, r_max, U_end, V_end):
    """(au, cu2, bv) of the tail beyond r_max, from the samples U, V there.

    V ~ bv r^-(n-2).  Below n/(n-2), U ~ au r^-g + cu2 r^-(n-2) with
    g = (n-2)p - 2: the system forces au, since -Lap(au r^-g) = (bv r^-(n-2))^p
    gives au = bv^p / (g (n-2-g)), and cu2 makes U continuous at r_max.
    Otherwise U ~ au r^-(n-2), continuous at r_max.  Nothing is fitted.
    """
    e2 = params.n - 2.0
    bv = V_end * r_max ** e2
    if params.case_tag != CASE_SUB:
        return U_end * r_max ** e2, 0.0, bv
    g = params.exp_u_decay
    au = bv ** params.p / (g * (e2 - g))
    return au, (U_end - au * r_max ** -g) * r_max ** e2, bv


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Sampled ground state; interp_pack holds its Hermite cubics and power tails.

    Beyond r_max, U ~ au r^-exp_u_decay + cu2 r^-(n-2) and V ~ bv r^-(n-2),
    with exponents from (n, p) and amplitudes from tail_amplitudes.
    """

    params: ProblemParams
    grid: np.ndarray
    U: np.ndarray
    dU: np.ndarray
    V: np.ndarray
    dV: np.ndarray
    v0: float
    r_max: float
    ode_tol: float
    interp_pack: InterpPack = field(init=False, repr=False)

    def __post_init__(self):
        r, n, U, V = self.grid, self.params.n, self.U, self.V
        # the system gives U'' = -|V|^(p-1) V - (n-1) U'/r, and V'' likewise;
        # at r = 0, U'/r -> U'', so there U'' = -|V|^(p-1) V / n
        drag = np.divide(n - 1.0, r, out=np.zeros_like(r), where=r > 0.0)
        src = np.where(r > 0.0, -1.0, -1.0 / n)
        d2U = src * np.copysign(np.abs(V) ** self.params.p, V) - drag * self.dU
        d2V = src * np.copysign(np.abs(U) ** self.params.q, U) - drag * self.dV
        breaks, cu = pack_hermite(r, U, self.dU)
        _, cdu = pack_hermite(r, self.dU, d2U)
        _, cv = pack_hermite(r, V, self.dV)
        _, cdv = pack_hermite(r, self.dV, d2V)
        au, cu2, bv = tail_amplitudes(self.params, self.r_max, U[-1], V[-1])
        object.__setattr__(self, "interp_pack", InterpPack(
            breaks, cu, cdu, cv, cdv, float(self.r_max), float(au), float(cu2),
            float(self.params.exp_u_decay), n - 2.0, float(bv)))

    def eval_many(self, r):
        """(U, dU, V, dV) arrays at radii r (tail extrapolation beyond r_max)."""
        r = np.atleast_1d(np.asarray(r, dtype=np.float64))
        return profile_eval(r, self.interp_pack, ("U", "dU", "V", "dV"))

    def to_csv(self, csv_path, json_path):
        """Write the sampled profile to csv_path and its JSON sidecar to json_path."""
        # imported per call: perfbench's tracer replaces reporting's writers
        from .reporting import write_csv, write_json
        write_csv(csv_path, ["r", "U", "dU", "V", "dV"],
                  [self.grid, self.U, self.dU, self.V, self.dV])
        write_json(json_path, self.sidecar())

    def sidecar(self):
        return {"v0": self.v0, "r_max": self.r_max, "ode_tol": self.ode_tol,
                "params": asdict(self.params)}


@dataclass(frozen=True)
class ShotResult:
    classification: str
    v0: float
    r_end: float
    # namespace of t (the start, each step's radius, r_end last), nfev (the
    # stepper's right-hand-side calls) and sol (y at an array of radii in
    # [t[0], r_end], from _dop853.solution, when the shot was dense, else None)
    sol: object


def _rhs(n, p, q):
    """The radial system's right-hand side at a float r and 4 floats y, as 4 floats.

    |V|^(p-1) V is formed as |V|^p with V's sign: the same libm pow as
    np.sign(V) * np.abs(V) ** p, bit for bit, with +0.0 at V = -0.0 as
    np.sign gives, and inf where the power overflows.
    """
    k = n - 1.0

    def rhs(r, y):
        U, dU, V, dV = y
        try:
            fV, fU = abs(V) ** p, abs(U) ** q
        except OverflowError:  # Python's pow raises where numpy's rounds to inf
            with np.errstate(over="ignore"):
                fV, fU = float(np.float64(abs(V)) ** p), float(np.float64(abs(U)) ** q)
        c = k / r
        return (dU, -c * dU - (fV if V >= 0 else -fV), dV, -c * dV - (fU if U >= 0 else -fU))
    return rhs


# solve_ivp's terminal events, in its order, which settles a tie between roots
EVENTS = (U_HITS_ZERO, V_HITS_ZERO)


def _events(y):
    """The event functions at a state y, in EVENTS order, as floats: U and V."""
    return y[0], y[2]


def shoot(params: ProblemParams, v0: float, r_max: float, tol: float = 1e-10,
          dense: bool = False) -> ShotResult:
    """Integrate from the Taylor start and classify the trajectory.

    Classification is the first event hit: a component crossing zero, or
    r_max reached (DECAYING).  No shot diverges first: while V > 0,
    r^(n-1) U' = -int_0^r s^(n-1) V^p ds < 0, and V' < 0 while U > 0, so
    U + V <= 1 + v0.  The loop steps as solve_ivp(method="DOP853") does with
    these two terminal events, bit for bit (_dop853 repeats scipy's stepper),
    each root found by brentq on the step's dense output with xtol = rtol =
    4 eps.  tol is the relative tolerance, which DOP853 honours only in
    [100 eps, 1e-4].
    """
    from ._dop853 import DOP853, at, brentq, solution  # only the solve needs it

    if not 0 < v0 < np.inf:
        raise DomainError("v0 must be positive and finite")
    eps = float(np.finfo(float).eps)
    if not 100 * eps <= tol <= 1e-4:
        raise DomainError(f"tol={tol!r} outside [100 eps, 1e-4]")
    n, p, q = params.n, params.p, params.q
    # keep both Taylor corrections tiny for extreme shooting values
    r0 = R_START * min(1.0, v0 ** (-p / 2.0), np.sqrt(v0) * 10.0)
    y0 = tuple(float(v) for v in (1.0 - v0 ** p * r0 ** 2 / (2 * n), -(v0 ** p) * r0 / n,
                                  v0 - r0 ** 2 / (2 * n), -r0 / n))
    r0 = float(r0)
    rhs = _rhs(n, p, q)
    # from a non-finite slope DOP853 picks a NaN first step and rejects it forever
    if not all(map(math.isfinite, rhs(r0, y0))):
        raise StepFailure(f"right-hand side not finite at the start r={r0:.4g}")
    solver = DOP853(rhs, r0, y0, float(r_max), rtol=tol, atol=max(tol * 1e-4, 1e-16))

    def crosses(a, b):  # an event function that reaches or crosses zero in a step
        return a <= 0 <= b or a >= 0 >= b

    g = _events(y0)
    ts, pieces, cls = [solver.t], [], None
    while cls is None:
        solver.step()
        t = solver.t
        if dense:
            pieces.append(solver.dense_output())
        g_new = _events(solver.y)
        if any(map(crosses, g, g_new)):
            piece = pieces[-1] if dense else solver.dense_output()
            # the earliest root ends the shot
            t, first = min((brentq(lambda r: _events(at(piece, r).tolist())[i], solver.t_old,
                                   t, xtol=4 * eps, rtol=4 * eps), i)
                           for i in range(len(EVENTS)) if crosses(g[i], g_new[i]))
            cls = EVENTS[first]
        elif t == solver.t_bound:
            cls = DECAYING
        g = g_new
        # a root on the last step's start would close a zero-length piece
        if dense and len(ts) > 1 and ts[-1] == t:
            pieces.pop()
        else:
            ts.append(t)
    ts = np.array(ts)
    sol = SimpleNamespace(t=ts, nfev=solver.nfev, sol=solution(ts, pieces) if dense else None)
    return ShotResult(cls, v0, float(ts[-1]), sol)


def _bisect(classify, lo, hi, low, stop=None):
    """Halve [lo, hi] at most 90 times, until its midpoint rounds to an end.

    A midpoint classified low replaces lo, another hi; the first one
    classified stop ends the search.  Returns (lo, hi, that midpoint or None).
    """
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        cls = classify(mid)
        if cls == stop:
            return lo, hi, mid
        if cls == low:
            lo = mid
        else:
            hi = mid
    return lo, hi, None


def find_ground_state(params: ProblemParams, ode_tol: float = 3e-14,
                      r_max: float = 1e4) -> RadialProfile:
    """Locate v0*, sample the profile on a graded grid, and check its tail.

    The shooting value is taken as the centre of the decaying window at
    radius DEFAULT_SOLVE_FACTOR * r_max: a 25-point sweep of v0 in [1e-3, 1e3]
    brackets it, one bisection finds a decaying v0, two more the window's
    edges.  The tail model must fit the samples near r_max (check_tail).
    """
    check_solvable(params)
    r_solve = DEFAULT_SOLVE_FACTOR * r_max

    def classify(v0):
        return shoot(params, v0, r_solve, tol=ode_tol).classification

    sweep = np.logspace(-3, 3, 25)
    cls = [classify(v) for v in sweep]
    i = next((i for i, (c, d) in enumerate(zip(cls, cls[1:])) if c == V_HITS_ZERO != d), None)
    if i is None:
        raise BracketingFailure("no V->U classification change for v0 in [1e-3, 1e3]")
    hi = next((v for v, c in zip(sweep[i + 1:], cls[i + 1:]) if c == U_HITS_ZERO), sweep[i + 1])

    # shrink until a decaying midpoint appears, then centre the window
    a, b, mid_decay = _bisect(classify, sweep[i], hi, V_HITS_ZERO, DECAYING)
    if mid_decay is None:
        v0 = 0.5 * (a + b)
    else:
        l0, l1, _ = _bisect(classify, a, mid_decay, V_HITS_ZERO)
        r0_, r1, _ = _bisect(classify, mid_decay, b, DECAYING)
        v0 = 0.5 * (0.5 * (l0 + l1) + 0.5 * (r0_ + r1))

    shot = shoot(params, v0, r_solve, tol=ode_tol, dense=True)
    if shot.classification != DECAYING and shot.r_end < 2.0 * r_max:
        raise BracketingFailure(
            f"centred trajectory leaves the decaying regime at r={shot.r_end:.3g}")

    decades = np.log10(r_max / 1e-3)
    grid = np.concatenate([[0.0],
                           np.geomspace(1e-3, r_max, int(GRID_PTS_PER_DECADE * decades) + 1)])
    U, dU, V, dV = np.concatenate([[[1.0], [0.0], [v0], [0.0]], shot.sol.sol(grid[1:])], axis=1)

    if np.any(U <= 0) or np.any(V <= 0):
        raise MonotonicityViolation("profile not positive out to r_max")
    if np.any(np.diff(U[1:]) >= 0) or np.any(np.diff(V[1:]) >= 0):
        raise MonotonicityViolation("profile not strictly decreasing")
    flat = grid[1:] ** (params.n - 2.0) * V[1:]
    last = flat[grid[1:] > r_max / 10]
    if last.max() / last.min() > 3.0:
        raise MonotonicityViolation("r^(n-2) V not settled; increase r_max or tighten tol")

    prof = RadialProfile(params, grid, U, dU, V, dV, float(v0), float(r_max), float(ode_tol))
    check_tail(prof)
    return prof


def check_tail(profile: RadialProfile) -> float:
    """Worst relative misfit of the tail model on the samples; PoorFit above 5%.

    On 160 points interpolated in [r_max/100, r_max] below n/(n-2), where
    U's harmonic second term is far from negligible, and in
    [r_max/10, r_max] otherwise, r^(n-2) V must stay within
    MAX_TAIL_RESIDUAL of its mean, and so must r^(n-2) U, less U's forced
    term au r^-exp_u_decay below n/(n-2).
    """
    params, grid, r_hi = profile.params, profile.grid, profile.r_max
    sub = params.case_tag == CASE_SUB
    rf = np.geomspace(r_hi / 100.0 if sub else r_hi / 10.0, r_hi, 160)
    Uf = np.interp(rf, grid, profile.U)
    if sub:
        Uf = Uf - profile.interp_pack.au * rf ** -params.exp_u_decay
    e2 = params.n - 2.0
    resid = max(float(np.max(np.abs(np.mean(rf ** e2 * y) * rf ** -e2 / y - 1.0)))
                for y in (Uf, np.interp(rf, grid, profile.V)))
    if resid > MAX_TAIL_RESIDUAL:
        raise PoorFit(f"tail residual {resid:.3%} exceeds {MAX_TAIL_RESIDUAL:.0%}")
    return resid


def fd_derivs_on_grid(g, y, idx):
    """(y', y'') at profile-grid indices from the quartic through each 5-point stencil.

    All stencils are solved at once.  Offsets are scaled by the stencil
    width first; the raw Vandermonde would be catastrophically
    ill-conditioned on fine grids.  Indices must lie in [3, size - 3]: the
    stencil at index 2 reaches r = 0, where four of its five scaled nodes
    crowd within 0.006 and the solve is near-singular; below it, and above
    size - 3, the stencil leaves the grid.
    """
    if np.any(idx < 3) or np.any(idx > g.size - 3):
        raise DomainError(f"stencil indices must lie in [3, {g.size - 3}]")
    st = idx[:, None] + np.arange(-2, 3)
    xs = g[st] - g[idx, None]
    h = np.max(np.abs(xs), axis=1)
    vander = (xs / h[:, None])[..., None] ** np.arange(5)  # vander[k, i, j] = x_i^j
    c = np.linalg.solve(vander, y[st][..., None])[..., 0]
    return c[:, 1] / h, 2.0 * c[:, 2] / h ** 2


def stencil_window(g, lo, hi):
    """Indices of the grid points in [lo, hi] whose stencil has two points beyond them."""
    idx = np.where((g >= lo) & (g <= hi))[0]
    return idx[idx <= g.size - 3]  # r_max may lie below hi


def fd_laplacian(g, y, idx, n):
    """The radial Laplacian y'' + (n-1)/r y' at grid indices idx, from fd_derivs_on_grid."""
    d1, d2 = fd_derivs_on_grid(g, y, idx)
    return d2 + (n - 1.0) / g[idx] * d1


def load_profile(csv_path, json_path) -> RadialProfile:
    """Rebuild a profile from the CSV samples and JSON sidecar that to_csv wrote.

    Raises DomainError unless the pair is intact: the CSV ends with a
    newline (a cut inside the last row loses it), holds data rows from
    V = v0 at r = 0 to the row at r = r_max (a cut between rows loses it; a
    CSV of another solve starts from another v0).  The tail comes from the
    samples at r_max, so a "tail" block that an older sidecar carries is not
    read.  A missing file or an unparseable one raises what reading it raises.
    """
    with open(json_path, "r", encoding="utf-8") as f:
        side = json.load(f)
    with open(csv_path, "r", encoding="utf-8") as f:
        text = f.read()
    if "\n" not in text.strip():  # the header alone, or nothing
        raise DomainError(f"{csv_path}: no data rows")
    if not text.endswith("\n"):
        raise DomainError(f"{csv_path}: cut inside its last row")
    # parsed from the file again: a StringIO of the text would hold 4 bytes a character
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, comments=None, ndmin=2)
    pr = side["params"]
    params = ProblemParams(**{f.name: pr[f.name] for f in fields(ProblemParams) if f.init})
    v0, r_max = float(side["v0"]), float(side["r_max"])
    if data[-1, 0] != r_max:
        raise DomainError(f"{csv_path}: last r is not the sidecar's r_max {r_max}")
    if data[0, 3] != v0:
        raise DomainError(f"{csv_path}: first V is not the sidecar's v0 {v0}")
    # the CSV's columns are the fields grid, U, dU, V, dV in order
    return RadialProfile(params, *data.T, v0, r_max, float(side["ode_tol"]))
