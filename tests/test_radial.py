import dataclasses
import json
import warnings

import numpy as np
import hypothesis
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import closed_form_bubble
from laneemden import ProblemParams, find_ground_state, radial, shoot
from laneemden._interp import pack_hermite, profile_eval
from laneemden.cli import main
from laneemden.errors import DomainError, PoorFit, StepFailure
from laneemden.halfspace import PHI1, PHI2, g_data
from laneemden.radial import (DECAYING, R_START, U_HITS_ZERO, V_HITS_ZERO, fd_derivs_on_grid,
                              fd_laplacian, load_profile, stencil_window)
from radial_checks import fit_two_power, pohozaev, profile_at, sample_tail
from strategies import admissible


def test_shoot_classification_sides():
    pp = ProblemParams(n=4, p=3.0)
    low = shoot(pp, 0.2, 1e3, tol=1e-10)
    high = shoot(pp, 5.0, 1e3, tol=1e-10)
    assert low.classification == V_HITS_ZERO
    assert high.classification == U_HITS_ZERO


@pytest.mark.parametrize("p, steps, nfev", [(3.0, 50, 605), (1.9, 75, 929)])
def test_shoot_from_the_sweeps_top_hits_u_zero(p, steps, nfev):
    """At v0 = 1e3, the sweep's top, U + V starts above 1e3 and only falls, and
    the shot ends where U reaches zero."""
    res = shoot(ProblemParams(n=4, p=p), 1e3, 1e3, tol=3e-14)
    assert res.classification == U_HITS_ZERO
    assert (res.sol.t.size, res.sol.nfev) == (steps, nfev)


def test_shoot_deterministic():
    pp = ProblemParams(n=4, p=3.0)
    a = shoot(pp, 0.37, 1e3, tol=1e-10)
    b = shoot(pp, 0.37, 1e3, tol=1e-10)
    assert a.classification == b.classification
    assert a.r_end == b.r_end


def test_shoot_decaying_at_exact_value():
    pp = ProblemParams(n=4, p=3.0)
    res = shoot(pp, 1.0, 1e4, tol=1e-12)
    assert res.classification == DECAYING


def test_shoot_rejects_bad_args():
    pp = ProblemParams(n=4, p=3.0)
    for v0 in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            shoot(pp, v0, 1e3)
    with pytest.raises(DomainError):
        shoot(pp, 1.0, 1e3, tol=1e-3)


def test_shoot_tol_bounds():
    """tol is DOP853's rtol as given: 100 eps and 1e-4 run, a tol outside them is
    rejected, not clamped."""
    pp = ProblemParams(n=4, p=3.0)
    lo = 100 * np.finfo(float).eps
    for tol in (lo, 1e-4):
        assert shoot(pp, 0.2, 10.0, tol=tol).classification == V_HITS_ZERO
    for tol in (np.nextafter(lo, 0.0), 1e-16, np.nextafter(1e-4, 1.0), 1e-3):
        with pytest.raises(DomainError, match="outside"):
            shoot(pp, 0.2, 10.0, tol=tol)


def _old_shoot(params, v0, r_max, tol, dense):
    """The stepper loop's oracle: the solve_ivp call shoot made before it drove DOP853."""
    from scipy.integrate import solve_ivp
    n, p, q = params.n, params.p, params.q

    def rhs(r, y):
        U, dU, V, dV = y
        fV = np.sign(V) * np.abs(V) ** p
        fU = np.sign(U) * np.abs(U) ** q
        c = (n - 1.0) / r
        return (dU, -c * dU - fV, dV, -c * dV - fU)

    def ev_u(r, y):
        return y[0]

    def ev_v(r, y):
        return y[2]

    for ev in (ev_u, ev_v):
        ev.terminal = True
    r0 = R_START * min(1.0, v0 ** (-p / 2.0), np.sqrt(v0) * 10.0)
    y0 = (1.0 - v0 ** p * r0 ** 2 / (2 * n), -(v0 ** p) * r0 / n,
          v0 - r0 ** 2 / (2 * n), -r0 / n)
    sol = solve_ivp(rhs, (r0, r_max), y0, method="DOP853", rtol=tol,
                    atol=max(tol * 1e-4, 1e-16), events=(ev_u, ev_v),
                    dense_output=dense)
    hit = [i for i in range(2) if sol.t_events[i].size]
    return (U_HITS_ZERO, V_HITS_ZERO)[hit[0]] if hit else DECAYING, sol


# per p at n = 4, (v0, classification) pairs at r_max = 1e3: one of each class,
# and the sweep's top v0 = 1e3; the decaying v0 is the ground state's
ORACLE_SHOTS = {3.0: [(0.2, V_HITS_ZERO), (5.0, U_HITS_ZERO), (1e3, U_HITS_ZERO),
                      (1.0, DECAYING)],
                1.9: [(0.2, V_HITS_ZERO), (5.0, U_HITS_ZERO), (1e3, U_HITS_ZERO),
                      (float.fromhex("0x1.947acf3438a43p-1"), DECAYING)]}


@pytest.mark.parametrize("p", sorted(ORACLE_SHOTS))
@pytest.mark.parametrize("dense", [False, True])
def test_shoot_matches_solve_ivp(p, dense):
    """Each classification, r_end, step count, nfev and dense solution are
    solve_ivp's, bit for bit."""
    pp = ProblemParams(n=4, p=p)
    for v0, cls in ORACLE_SHOTS[p]:
        want_cls, want = _old_shoot(pp, v0, 1e3, 3e-14, dense)
        got = shoot(pp, v0, 1e3, tol=3e-14, dense=dense)
        assert want_cls == got.classification == cls
        assert got.r_end == want.t[-1]
        assert got.sol.t.size == want.t.size and got.sol.nfev == want.nfev
        assert np.array_equal(got.sol.t, want.t)
        if dense:
            grid = np.geomspace(want.t[0], want.t[-1], 500)
            assert np.array_equal(got.sol.sol(grid), want.sol(grid))
        else:
            assert got.sol.sol is None


@settings(max_examples=25, deadline=None)
@given(np_=admissible(), v0=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       dense=st.booleans())
# the draws almost never reach v0 >= 999, where U + V starts above 1e3
@example(np_=(4, 1.875), v0=1e3, dense=True)
@example(np_=(7, 1.7), v0=1e3, dense=False)
def test_shoot_matches_solve_ivp_any_params(np_, v0, dense):
    """Each classification, r_end, step radius, nfev and dense solution are
    solve_ivp's, bit for bit, at any admissible (n, p) and v0 in [1e-3, 1e3]."""
    n, p = np_
    pp = ProblemParams(n=n, p=p)
    want_cls, want = _old_shoot(pp, v0, 1e3, 3e-14, dense)
    got = shoot(pp, v0, 1e3, tol=3e-14, dense=dense)
    assert got.classification == want_cls
    assert got.r_end.hex() == want.t[-1].hex()
    assert np.array_equal(got.sol.t, want.t) and got.sol.nfev == want.nfev
    if dense:
        grid = np.geomspace(want.t[0], want.t[-1], 500)
        assert np.array_equal(got.sol.sol(grid), want.sol(grid))
    else:
        assert got.sol.sol is None


def test_dense_solution_picks_pieces_as_odesolution():
    """At every step radius (where two pieces meet), beyond both ends and in
    any order, the dense solution is OdeSolution's, bit for bit."""
    pp = ProblemParams(n=4, p=3.0)
    _, want = _old_shoot(pp, 0.2, 1e3, 3e-14, True)
    got = shoot(pp, 0.2, 1e3, tol=3e-14, dense=True)
    t = np.concatenate([want.t, [want.t[0] / 2, want.t[-1] * 2], want.t[::-7]])
    assert np.array_equal(got.sol.sol(t), want.sol(t))


# n = 4 ground states: shots, DOP853 steps, right-hand-side calls and v0, as
# the scipy-driven stepper gave them
SOLVE_WORK = {3.0: (95, 23225, 284563, "0x1.fffffffffffffp-1"),
              2.5: (94, 23464, 289655, "0x1.dd865a017c93ep-1"),
              1.9: (97, 25965, 320102, "0x1.947acf3438a43p-1")}


@pytest.mark.parametrize("p", sorted(SOLVE_WORK))
def test_solve_work_and_v0_pinned(monkeypatch, p):
    shots, real = [], radial.shoot
    monkeypatch.setattr(radial, "shoot", lambda *a, **k: shots.append(real(*a, **k)) or shots[-1])
    prof = find_ground_state(ProblemParams(n=4, p=p))
    work = (len(shots), sum(s.sol.t.size for s in shots), sum(s.sol.nfev for s in shots))
    assert work + (prof.v0.hex(),) == SOLVE_WORK[p]


def _nan_beyond(r_bad):
    """A stand-in for radial._rhs whose right-hand side is NaN from r_bad on."""
    real = radial._rhs

    def make(n, p, q):
        rhs = real(n, p, q)
        return lambda r, y: (float("nan"),) * 4 if r >= r_bad else rhs(r, y)
    return make


@pytest.mark.parametrize("r_bad", [0.0, 0.5])
def test_nan_rhs_is_a_step_failure(monkeypatch, tmp_path, r_bad):
    """NaN slopes end the shot with StepFailure and ground-state with exit 3.

    From r = 0.5 on, the stepper shrinks its step below the float spacing
    and fails; NaN from the start is caught before the first step, which
    DOP853 would otherwise reject forever."""
    monkeypatch.setattr(radial, "_rhs", _nan_beyond(r_bad))
    pp = ProblemParams(n=4, p=3.0)
    with pytest.raises(StepFailure):
        shoot(pp, 1.0, 1e3)
    assert main(["ground-state", "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "profile.csv").exists()


def _midpoints(prof):
    """The geometric midpoints of the profile grid's intervals with r <= 1e3."""
    g = prof.grid[1:]
    mid = np.sqrt(g[:-1] * g[1:])
    return mid[mid <= 1e3]


def test_symmetric_point_oracle(prof_sym):
    u, du = closed_form_bubble(4)
    assert prof_sym.v0 == pytest.approx(1.0, abs=1e-6)
    r = np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 400)])
    U, dU, V, dV = profile_at(prof_sym, r)
    assert np.max(np.abs(U / u(r) - 1.0)) < 1e-6
    assert np.max(np.abs(V / u(r) - 1.0)) < 1e-6
    # between the samples, where the cubics interpolate: 5.3e-11 (U, V) and
    # 7.2e-11 (U', V') measured
    r = _midpoints(prof_sym)
    U, dU, V, dV = profile_at(prof_sym, r)
    for got, want in ((U, u(r)), (dU, du(r)), (V, u(r)), (dV, du(r))):
        np.testing.assert_allclose(got, want, rtol=1.5e-10, atol=0.0)
    assert prof_sym.interp_pack.au == pytest.approx(8.0, rel=1e-3)
    assert prof_sym.interp_pack.bv == pytest.approx(8.0, rel=1e-3)


@pytest.mark.parametrize("name", ["prof_case1", "prof_case2"])
def test_profile_follows_dense_output(request, name):
    """Away from p = 3, U, U', V and V' between the samples are the final shot's dense output.

    Measured <= 6.5e-11 at p = 2.5 and 1.9.
    """
    prof = request.getfixturevalue(name)
    shot = shoot(prof.params, prof.v0, radial.DEFAULT_SOLVE_FACTOR * prof.r_max,
                 tol=prof.ode_tol, dense=True)
    r = _midpoints(prof)
    for got, want in zip(profile_at(prof, r), shot.sol.sol(r)):
        np.testing.assert_allclose(got, want, rtol=1.5e-10, atol=0.0)


def test_initial_conditions(prof_sym):
    U, dU, V, dV = (c[0] for c in profile_at(prof_sym, 0.0))
    assert U == 1.0
    assert dU == 0.0
    assert V == pytest.approx(prof_sym.v0)
    assert dV == 0.0


def test_evaluate_closed_form_point(prof_sym):
    U = profile_at(prof_sym, 2.0)[0][0]
    assert U == pytest.approx(2.0 / 3.0, rel=1e-7)


def test_tail_extrapolation_continuity(prof_sym):
    """U, dU, V, dV are continuous across r_max, and the far tail follows the
    pack's power law; relative comparisons only, since U(r_max) is ~8e-8."""
    r_max, pk = prof_sym.r_max, prof_sym.interp_pack
    below, above = np.array(profile_at(prof_sym, [r_max * (1 - 1e-9), r_max * (1 + 1e-9)])).T
    assert above == pytest.approx(below, rel=1e-6, abs=0.0)
    # far tail follows the anchored power law by construction
    (U_top, U), *_ = profile_at(prof_sym, [r_max, 2 * r_max])
    assert U == pytest.approx(U_top * 2.0 ** -pk.eu, rel=1e-12, abs=0.0)


def test_profile_eval_parts(prof_sym, prof_case2):
    """Any subset of parts equals the four-part call bit for bit; beyond r_top
    every part is the pack's power law, and g is -(rho/2) times U' or V'."""
    assert prof_case2.interp_pack.cu2 != 0.0
    names = ("U", "dU", "V", "dV")
    for prof in (prof_sym, prof_case2):
        pk = prof.interp_pack
        r = np.concatenate([[0.0], np.geomspace(1e-4, pk.r_top, 60), [pk.r_top],
                            pk.r_top * np.geomspace(1.0 + 1e-12, 100.0, 60)])
        full = dict(zip(names, profile_eval(r, pk, names)))
        for name in names:
            (got,) = profile_eval(r, pk, (name,))
            assert np.array_equal(got, full[name]), name
        U, V = profile_eval(r, pk, ("U", "V"))
        assert np.array_equal(U, full["U"]) and np.array_equal(V, full["V"])
        beyond = r > pk.r_top
        ro = r[beyond]
        want = {"U": pk.au * ro ** -pk.eu + pk.cu2 * ro ** -pk.e2,
                "dU": -pk.eu * pk.au * ro ** (-pk.eu - 1.0)
                      - pk.e2 * pk.cu2 * ro ** (-pk.e2 - 1.0),
                "V": pk.bv * ro ** -pk.e2,
                "dV": -pk.e2 * pk.bv * ro ** (-pk.e2 - 1.0)}
        for name in names:
            np.testing.assert_allclose(full[name][beyond], want[name], rtol=1e-15,
                                       atol=0.0, err_msg=name)
        g1, g2 = g_data(r, pk, (PHI1, PHI2))
        assert np.array_equal(g1, -(r / 2.0) * full["dU"])
        assert np.array_equal(g2, -(r / 2.0) * full["dV"])


@pytest.mark.parametrize("x, y, dy", [
    ([0.0, 1.0], [1.0, 2.0], [0.0, 0.0]),
    ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
    ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
    ([0.0, 1.0, np.inf], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
    ([0.0, 1.0, 2.0], [1.0, np.nan, 3.0], [0.0, 0.0, 0.0]),
    ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.0, -np.inf, 0.0])],
    ids=["two", "unsorted", "repeat", "inf", "nan", "slope"])
def test_pack_pchip_rejects_bad_samples(x, y, dy):
    """pack_hermite builds no cubic from a damaged profile file (load_profile then raises)."""
    with pytest.raises(DomainError):
        pack_hermite(x, y, dy)


def test_monotone_positive(prof_sym, prof_case1, prof_case2):
    for prof in (prof_sym, prof_case1, prof_case2):
        assert np.all(prof.U > 0) and np.all(prof.V > 0)
        assert np.all(np.diff(prof.U[1:]) < 0)
        assert np.all(np.diff(prof.V[1:]) < 0)


def test_ode_residual(prof_sym, prof_case1, prof_case2):
    """The radial system holds to 1e-5 relative on the grid points in [1e-2, 10],
    with check_kernel's FD Laplacian."""
    for prof in (prof_sym, prof_case1, prof_case2):
        g, pp = prof.grid, prof.params
        idx = stencil_window(g, 1e-2, 10.0)
        for y, src in ((prof.U, prof.V ** pp.p), (prof.V, prof.U ** pp.q)):
            rhs = src[idx]
            assert np.max(np.abs(-fd_laplacian(g, y, idx, pp.n) - rhs) / np.abs(rhs)) < 1e-5


def test_fd_derivs_exact_on_quartics(prof_sym):
    """Every 5-point stencil of the profile grid differentiates a quartic exactly.

    Errors are scaled by h/max|y| (y') and h^2/max|y| (y''), h the stencil
    half-width: rounding in y is amplified by those factors.  Over 100 random
    quartics the worst scaled errors measured 4.5e-14 and 2.1e-13.  The
    stencil through r = 0 (index 2) is left out: scaled by its width 1e-3,
    its other four offsets lie within 0.006 of each other.
    """
    g = prof_sym.grid
    idx = np.arange(3, g.size - 2)
    st = idx[:, None] + np.arange(-2, 3)
    h = np.max(np.abs(g[st] - g[idx, None]), axis=1)
    P = np.polynomial.polynomial
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = rng.uniform(-1.0, 1.0, 5)
        x = g - 10.0 ** rng.uniform(-3.0, 4.0)  # a random centre: no term dominates
        y = P.polyval(x, c)
        d1, d2 = fd_derivs_on_grid(g, y, idx)
        scale = np.max(np.abs(y[st]), axis=1)
        assert np.max(np.abs(d1 - P.polyval(x, P.polyder(c))[idx]) * h / scale) < 1e-12
        assert np.max(np.abs(d2 - P.polyval(x, P.polyder(c, 2))[idx]) * h * h / scale) < 1e-12


def test_fd_derivs_rejects_stencils_off_the_grid(prof_sym):
    """Index 2 reaches r = 0 (near-singular), 1 would wrap to r_max, size - 2 runs off the end."""
    g, U = prof_sym.grid, prof_sym.U
    fd_derivs_on_grid(g, U, np.array([3, g.size - 3]))
    for bad in (2, 1, g.size - 2):
        with pytest.raises(DomainError):
            fd_derivs_on_grid(g, U, np.array([bad, 100]))


def test_pack_takes_the_theorys_exponents(prof_sym, prof_case1, prof_case2):
    """The tails' exponents come from (n, p); their amplitudes meet U and V at
    r_max, and at p = 1.9 U's leading one is V's forced b^p/(g(n-2-g)), g = 1.8."""
    assert "ev" not in radial.InterpPack._fields
    for prof in (prof_sym, prof_case1, prof_case2):
        pk, n, r = prof.interp_pack, prof.params.n, prof.r_max
        assert pk.eu == prof.params.exp_u_decay
        assert pk.e2 == n - 2.0
        assert pk.au * r ** -pk.eu + pk.cu2 * r ** -pk.e2 == pytest.approx(prof.U[-1], rel=1e-15)
        assert pk.bv * r ** -pk.e2 == pytest.approx(prof.V[-1], rel=1e-15)
        assert (pk.cu2 == 0.0) == (prof is not prof_case2)
    pk = prof_case2.interp_pack
    assert pk.au * 1.8 * 0.2 == pytest.approx(pk.bv ** 1.9, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(k=st.floats(0.5, 3.0), gap=st.floats(0.2, 1.5), c1=st.floats(0.1, 10.0),
       c2=st.floats(-10.0, 10.0), lo=st.floats(1.0, 1e3))
def test_fit_two_power_recovers_exact_data(k, gap, c1, c2, lo):
    """On y = c1 x^-k + c2 x^-k2 over a decade, with y > 0, the fit returns k to 1e-8."""
    x = np.geomspace(lo, 10.0 * lo, 160)
    y = c1 * x ** -k + c2 * x ** -(k + gap)
    hypothesis.assume(np.all(y > 0.01 * c1 * x ** -k))
    got = fit_two_power(x, y, k + gap, (0.5 * k, k + gap - 1e-3), xatol=1e-10)
    assert abs(got - k) <= 1e-8


def test_fit_two_power_matches_scipys_bounded_minimiser(prof_case2):
    """Criterion 4's p = 1.9 exponent is scipy's bounded minimiser's on the same data."""
    from scipy.optimize import minimize_scalar

    prof, t = prof_case2, sample_tail(prof_case2)
    rf = np.geomspace(*t.window, 160)  # the data sample_tail fits
    Uf, k2 = np.interp(rf, prof.grid, prof.U), prof.params.n - 2.0

    def resid(k):
        A = np.vstack([rf ** -k, rf ** -k2]).T
        coef, *_ = np.linalg.lstsq(A / Uf[:, None], np.ones_like(Uf), rcond=None)
        return float(np.sum((A @ coef / Uf - 1.0) ** 2))

    e_th = prof.params.exp_u_decay
    ref = minimize_scalar(resid, bounds=(max(1.01, 0.75 * e_th), min(k2 - 1e-3, 1.25 * e_th)),
                          method="bounded", options={"xatol": 1e-10})
    assert abs(t.exp_U - ref.x) <= 1e-8


def test_check_tail_gates_its_window(prof_sym, prof_case2):
    """U 15% high on [r_max/100, r_max/20] fails the p = 1.9 gate, whose window
    starts at r_max/100, and passes the p = 3 gate, whose window starts at r_max/10."""
    for prof, fails in ((prof_case2, True), (prof_sym, False)):
        assert radial.check_tail(prof) <= radial.MAX_TAIL_RESIDUAL
        g = prof.grid
        U = np.where((g >= prof.r_max / 100.0) & (g <= prof.r_max / 20.0), 1.15, 1.0) * prof.U
        bumped = dataclasses.replace(prof, U=U)
        assert bumped.interp_pack.au == prof.interp_pack.au
        if fails:
            with pytest.raises(PoorFit):
                radial.check_tail(bumped)
        else:
            assert radial.check_tail(bumped) == radial.check_tail(prof)


@pytest.fixture(scope="module")
def prof_n5_sub():
    return find_ground_state(ProblemParams(n=5, p=1.6))


@pytest.mark.parametrize("name", ["prof_case2", "prof_n5_sub"])
def test_pohozaev_vanishes_on_the_tail(request, name):
    """Below n/(n-2) the tail carries U's forced amplitude, so H stays 0 beyond
    r_max; an amplitude fitted to the samples leaves |H| at 3.0e-5 of the
    terms' sizes (n = 4, p = 1.9) and 1.6e-6 (5, 1.6)."""
    prof = request.getfixturevalue(name)
    r = prof.r_max * np.array([1.5, 2.0, 10.0, 100.0])
    H, size = pohozaev(prof.params, r, *profile_at(prof, r))
    assert np.all(np.abs(H) <= 1e-12 * size), np.abs(H) / size


def test_pohozaev_vanishes_inside(prof_sym, prof_case1, prof_case2):
    """On the samples in (0, 100], |H| <= 1e-12 of the sum of its terms' sizes."""
    for prof in (prof_sym, prof_case1, prof_case2):
        k = slice(1, np.searchsorted(prof.grid, 100.0, side="right"))
        H, size = pohozaev(prof.params, prof.grid[k], prof.U[k], prof.dU[k], prof.V[k],
                           prof.dV[k])
        assert np.all(np.abs(H) <= 1e-12 * size), np.max(np.abs(H) / size)


@settings(max_examples=150, deadline=None)
@given(pair=admissible(), v0=st.floats(1e-2, 1e2))
def test_pohozaev_vanishes_along_every_shot(pair, v0):
    """H is 0 along every radial solution, whatever v0: along a dense shot
    at the solver's tolerance, |H| <= 1e-11 of its largest term (a sum of
    five term sizes is at most five times the largest)."""
    params = ProblemParams(n=pair[0], p=pair[1])
    res = shoot(params, v0, 1e4, tol=3e-14, dense=True)
    r = np.geomspace(res.sol.t[0], res.r_end, 400)
    H, size = pohozaev(params, r, *res.sol.sol(r))
    assert np.max(np.abs(H)) <= 1e-11 * np.max(size) / 5.0


def test_derivative_bound_constant(prof_sym, prof_case2):
    # |r U' + n U/(q+1)| <= C U with C = 1 exactly at the symmetric point
    sym, case2 = (np.max(np.abs(p.params.su * p.U + p.grid * p.dU) / p.U)
                  for p in (prof_sym, prof_case2))
    assert sym == pytest.approx(1.0, rel=1e-6) and np.isfinite(case2)


def test_border_and_outside_rejected():
    with pytest.raises(DomainError):
        find_ground_state(ProblemParams(n=4, p=2.0))
    with pytest.raises(DomainError):
        find_ground_state(ProblemParams(n=4, p=1.5))


def test_profile_roundtrip(tmp_path, prof_sym, prof_case2):
    # prof_case2 carries the two-term U tail (cu2 != 0)
    assert prof_case2.interp_pack.cu2 != 0.0
    for prof in (prof_sym, prof_case2):
        csv = tmp_path / "p.csv"
        side = tmp_path / "p.json"
        prof.to_csv(csv, side)
        back = load_profile(csv, side)
        r = np.geomspace(1e-2, 2e4, 50)
        for got, want in zip(profile_at(back, r), profile_at(prof, r)):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-300)
        assert back.v0 == prof.v0
        assert sorted(json.loads(side.read_text())) == ["ode_tol", "params", "r_max", "v0"]
        # 17 significant digits in the CSV make the pack round-trip exactly
        for key in prof.interp_pack._fields:
            got, want = getattr(back.interp_pack, key), getattr(prof.interp_pack, key)
            assert np.array_equal(got, want), key
        # and writing the loaded profile gives the same two files
        back.to_csv(tmp_path / "q.csv", tmp_path / "q.json")
        assert (tmp_path / "q.csv").read_bytes() == csv.read_bytes()
        assert (tmp_path / "q.json").read_bytes() == side.read_bytes()


# the "tail" block of the p = 1.9 sidecar as ground-state wrote it while the
# tail was fitted
FITTED_TAIL = {"a": 36.954061369428, "b": 3.903757000053493, "exp_U": 1.7996371111020026,
               "exp_V": 2.0000474228170666, "exp_U_err": 0.00036288889799718227,
               "exp_V_err": 3.7240403844611106e-06, "c2": -41.33908641070135,
               "fit_window": [100.0, 10000.0], "fit_residual": 0.00043036145704977713}


def test_profile_with_a_fitted_tail_block_loads(tmp_path, prof_case2):
    """A sidecar that still carries a fitted "tail" block loads; the block is not
    read, and the pack is the fresh solve's bit for bit."""
    prof_case2.to_csv(tmp_path / "p.csv", tmp_path / "p.json")
    side = json.loads((tmp_path / "p.json").read_text())
    (tmp_path / "p.json").write_text(json.dumps(dict(side, tail=FITTED_TAIL)))
    back = load_profile(tmp_path / "p.csv", tmp_path / "p.json")
    for name, got, want in zip(back.interp_pack._fields, back.interp_pack,
                               prof_case2.interp_pack):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def test_load_profile_rejects_a_damaged_pair(tmp_path, prof_sym):
    from test_cli import MISSES
    damages = {case: damage for case, (_, _, damage) in MISSES.items() if damage is not None}
    damages["csv_empty"] = lambda d: (d / "profile.csv").write_text("")
    # a file that cannot be read raises what reading it raises
    unreadable = {"missing_csv": FileNotFoundError, "json_unparseable": ValueError}
    for case, damage in damages.items():
        d = tmp_path / case
        prof_sym.to_csv(d / "profile.csv", d / "profile.json")
        damage(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(unreadable.get(case, DomainError)):
                load_profile(d / "profile.csv", d / "profile.json")
