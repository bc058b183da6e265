"""Property tests over random inputs for the exponent pairs, the radial
right-hand side and shots, the run configuration, the quadrature rules, the ball
mesh's node ranges, the profile's
interval search and kernel, the half-space kernel, the
bubbles, the two-bubble fields, the ground state between its samples and the
reach of the constants' tail panels."""

import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from laneemden._interp import interval_index, profile_eval  # noqa: E402
from laneemden.ansatz import AnsatzField, bubble_uv  # noqa: E402
from laneemden.ballquad import gauss_panels, get_quadrature, graded_edges  # noqa: E402
from laneemden.cli import (_COMMON_KEYS, CHECK_READS, COMMANDS,  # noqa: E402
                           TABLE_REACH, RunConfig, build_config, make_parser)
from laneemden.constants import TAIL_REACH  # noqa: E402
from laneemden.errors import ConfigError, DomainError  # noqa: E402
from laneemden.halfspace import LOOKUP_CHUNK, panel_edges  # noqa: E402
from laneemden.params import (DELTA_CAP, HYPERBOLA_TOL, ProblemParams,  # noqa: E402
                              check_solvable, p_threshold)
from laneemden.radial import _rhs, shoot  # noqa: E402
from bubble_reference import profile_eval_where  # noqa: E402
from phi_reference import eval_many_loop  # noqa: E402
from radial_checks import profile_at  # noqa: E402
from strategies import admissible  # noqa: E402

coords = st.one_of(st.just(0.0), st.floats(0.0, 1e4))


@settings(max_examples=100, deadline=None)
@given(lo=st.floats(-3.0, 2.0), width=st.floats(1e-3, 3.0),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=7), k=st.sampled_from([4, 12, 20, 24]))
def test_gauss_panels_exact_on_monomials(lo, width, cuts, k):
    """k nodes per panel integrate x^m exactly for every m <= 2k - 1."""
    e = np.unique(lo + width * np.array([0.0, 1.0] + cuts))
    x, w = gauss_panels(e, k)
    assert x.shape == w.shape == (e.size - 1, k)
    m = np.arange(2 * k)
    got = np.sum(w[..., None] * x[..., None] ** m, axis=(0, 1))
    lo, hi = e[0], e[-1]
    exact = (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
    # bounds int |x|^m over [lo, hi], the size of the terms summed
    scale = (abs(hi) ** (m + 1) + abs(lo) ** (m + 1)) / (m + 1)
    assert np.all(np.abs(got - exact) <= 1e-12 * scale)


_MESH_DELTA = 0.05
_whole_meshes = {}


def _whole_mesh(n, level):
    """A mesh, its nodes formed at once, and its nodes per rho cell (4 x 4 Gauss
    nodes in each theta cell)."""
    if (n, level) not in _whole_meshes:
        quad = get_quadrature(n, _MESH_DELTA, level)
        split = 2 ** (level - 1)
        th_e = graded_edges(np.pi / 2.0, _MESH_DELTA / 4.0 / split, 0.04 / split, 1.3)
        _whole_meshes[n, level] = quad, quad.nodes(), 16 * (th_e.size - 1)
    return _whole_meshes[n, level]


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([4, 5]), level=st.integers(1, 3),
       kind=st.sampled_from(["one", "last", "whole", "any"]), data=st.data())
def test_node_ranges_match_whole_mesh_bitwise(n, level, kind, data):
    """nodes(a, b) is the whole mesh's (s, t, w) over rho cells a..b-1, bit for
    bit, and exactly (b - a) cells long: one cell, a run to the last cell, the
    whole mesh and any run."""
    quad, whole, cell = _whole_mesh(n, level)
    size = quad.n_points // 2
    assert size % cell == 0 and size // cell > 2
    cells = size // cell
    if kind == "one":
        a = data.draw(st.integers(0, cells - 1))
        b = a + 1
    elif kind == "last":
        a, b = data.draw(st.integers(0, cells - 1)), cells
    elif kind == "whole":
        a, b = 0, cells
    else:
        a = data.draw(st.integers(0, cells - 1))
        b = data.draw(st.integers(a + 1, cells))
    got = quad.nodes(a, b)
    assert [x.size for x in got] == [(b - a) * cell] * 3
    assert [x.tobytes() for x in got] == [y[a * cell:b * cell].tobytes() for y in whole]


def panel_edges_loop(sig, tau, rho_big, r_top):
    """Reference: the edge builder written as scalar loops."""
    base = [0.0]
    lo, nlog = 1e-3, 40
    ratio = (rho_big / lo) ** (1.0 / nlog)
    v = lo
    for _ in range(nlog):
        base.append(v)
        v *= ratio
    base.append(rho_big)
    if 0.0 < r_top < rho_big:
        base.append(r_top)
    if sig > 0.0:
        w0 = tau
        floor = 1e-9 * (sig if sig > 1.0 else 1.0)
        if w0 < floor:
            w0 = floor
        half = 0.5
        while sig * half > 0.25 * w0:
            for x in (sig * (1.0 - half), sig * (1.0 + half)):
                if 0.0 < x < rho_big:
                    base.append(x)
            half *= 0.5
        if sig < rho_big:
            base.append(sig)
    out = []
    for x in sorted(base):
        if not out or x > out[-1] * (1.0 + 1e-14) + 1e-150:
            out.append(x)
    return np.array(out)


@settings(max_examples=300, deadline=None)
@given(sig=coords, tau=coords, scale=st.floats(1.0, 1e3), top=st.floats(0.0, 2.0))
def test_panel_edges_shape(sig, tau, scale, top):
    # rho_big as HalfSpaceCorrection.block chooses it: at least 60 (sigma + tau + 1)
    rho_big = 60.0 * (sig + tau + 1.0) * scale
    # r_top below or beyond rho_big
    r_top = top * rho_big
    e = panel_edges(sig, tau, rho_big, r_top)
    assert e[0] == 0.0 and e[-1] == rho_big
    assert np.all(np.diff(e) > 0)
    assert e.size <= 106
    if 1e-150 < sig < rho_big:
        assert sig in e
    if 1e-150 < r_top < rho_big:
        assert np.any(np.abs(e - r_top) <= 1e-14 * r_top)
    assert np.array_equal(e, panel_edges_loop(sig, tau, rho_big, r_top))


@settings(max_examples=60, deadline=None)
@given(sig=st.floats(0.0, 1e3), tau=st.floats(0.0, 1e3))
def test_phi_positive_and_finite(corr1_sym, corr2_sym, corr1_case2, sig, tau):
    for corr in (corr1_sym, corr2_sym, corr1_case2):
        v = corr.eval_points([sig], [tau])[0]
        assert np.isfinite(v) and v > 0.0


TABLE_EXTENT = TABLE_REACH / 0.01


@settings(max_examples=150, deadline=None)
@given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
def test_table_matches_direct_off_grid(corr1_sym, corr1_case2, a, b):
    """The m = 257 extent-220 tables agree with the order-1 rule between their nodes.

    log1p(sigma) and log1p(tau) are drawn from [du, log1p(extent) - du]: the
    first and last cell of each axis, where the 4-point stencil is clamped,
    are left out (see PhiTable).
    """
    for corr in (corr1_sym, corr1_case2):
        tab = corr.table(TABLE_EXTENT)
        top = np.log1p(TABLE_EXTENT) - tab.du
        sig, tau = np.expm1(tab.du + np.array([a, b]) * (top - tab.du))
        direct = corr.eval_points([sig], [tau], order=1)[0]
        assert abs(tab.eval_many([sig], [tau])[0] / direct - 1.0) <= 1e-6


@settings(max_examples=100, deadline=None)
@given(data=st.data(), size=st.sampled_from([0, 1, LOOKUP_CHUNK, LOOKUP_CHUNK + 1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lookup_matches_clamped_loop_bitwise(corr1_sym, data, size, seed):
    """eval_many equals the clamped 16-pass loop bit for bit, signed zeros included.

    Drawn coordinates (exact nodes, the first and last cell of an axis,
    beyond the extent, +-0 and +inf) lead a batch filled from the seed.
    """
    tab = corr1_sym.table(220.0, m=41)
    cell = lambda lo: st.floats(lo, lo + 1.0).map(lambda f: float(np.expm1(f * tab.du)))
    coord = st.one_of(st.integers(0, tab.m - 1).map(lambda i: float(np.expm1(i * tab.du))),
                      cell(0.0), cell(tab.m - 2.0), st.floats(tab.extent, 1e300),
                      st.sampled_from([0.0, -0.0, np.inf]), st.floats(0.0, tab.extent))
    lead = data.draw(st.lists(st.tuples(coord, coord), max_size=min(size, 16)))
    sig, tau = 1.2 * tab.extent * np.random.default_rng(seed).random((2, size))
    for i, (s, t) in enumerate(lead):
        sig[i], tau[i] = s, t
    got, want = tab.eval_many(sig, tau), eval_many_loop(tab, sig, tau)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=50, deadline=None)
@given(rho=st.floats(0.0, 1.0), theta=st.floats(0.0, np.pi), delta=st.floats(0.01, 0.2))
def test_fields_odd_in_t(prof_sym, corr1_sym, corr2_sym, rho, theta, delta):
    """The bare U and V pairs and PW1, PW2 are exactly odd under x_n -> -x_n
    over the half-disc."""
    s = np.array([rho * np.sin(theta)])
    t = np.array([rho * np.cos(theta)])

    def pair(s, t):
        plus = bubble_uv(s, t, 1.0, delta, prof_sym, ("U", "V"))
        minus = bubble_uv(s, t, -1.0, delta, prof_sym, ("U", "V"))
        return np.array(plus) - np.array(minus)

    assert np.array_equal(pair(s, -t), -pair(s, t))
    # the extent-220 tables cover (1 +- t)/delta for every delta >= 0.01
    for corr in (corr1_sym, corr2_sym):
        fld = AnsatzField(prof_sym, delta, corr.table(TABLE_EXTENT))
        assert np.array_equal(fld.eval_st(s, -t), -fld.eval_st(s, t))


_ball_point = st.tuples(st.floats(0.0, 1.0), st.one_of(st.floats(-1.0, 1.0),
                                                       st.sampled_from([0.0, -0.0, 1.0, -1.0])))


@settings(max_examples=100, deadline=None)
@given(points=st.lists(_ball_point, min_size=1, max_size=32), delta=st.floats(1e-3, 0.2),
       parts=st.sampled_from([("U", "V"), ("U",), ("V",)]))
def test_bubble_mirror_bitwise(prof_sym, prof_case2, points, delta, parts):
    """The bubble at +e_n seen from (s, -t) is the bubble at -e_n seen from
    (s, t), bit for bit: -t - 1 = -(t + 1) exactly, so check_cross_terms' lower
    half reuses its upper half's bubbles."""
    s, t = np.array(points).T
    for prof in (prof_sym, prof_case2):
        for center in (1.0, -1.0):
            mirrored = bubble_uv(s, -t, center, delta, prof, parts)
            want = bubble_uv(s, t, -center, delta, prof, parts)
            assert [a.tobytes() for a in mirrored] == [b.tobytes() for b in want]


_radius = st.one_of(st.floats(0.0, 1e4), st.sampled_from([0.0, -0.0, 1e4, 5e-324]))


@settings(max_examples=200, deadline=None)
@given(inner=st.lists(_radius, min_size=1, max_size=32),
       outer=st.lists(st.one_of(st.floats(1e4, 1e300, exclude_min=True),
                                st.sampled_from([np.inf, np.nan])), max_size=8),
       parts=st.sampled_from([("U", "dU", "V", "dV"), ("U", "V"), ("dU",), ("V",)]))
@example(inner=[0.0, 1e4], outer=[], parts=("U", "dU", "V", "dV"))
@example(inner=[0.0, 1e4], outer=[np.nextafter(1e4, np.inf)], parts=("U", "dU", "V", "dV"))
def test_profile_eval_matches_where_kernel_bitwise(prof_sym, prof_case2, inner, outer, parts):
    """profile_eval, which forms the tails only when a radius lies beyond r_top,
    equals the kernel that always forms them and picks through np.where: on
    radii all inside (r = 0 and r = r_top included) and mixed with radii beyond."""
    for prof in (prof_sym, prof_case2):
        pk = prof.interp_pack
        assert pk.r_top == 1e4
        for r in (np.array(inner), np.array(inner + outer)):
            want, got = profile_eval_where(r, pk, parts), profile_eval(r, pk, parts)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def _grid(breaks, layout):
    """The profile's breaks, or a grid that is not log-uniform: linear on
    [0, r_top], with one break moved, or shifted so that breaks[1] < 0."""
    if layout == "linear":
        return np.linspace(0.0, breaks[-1], breaks.size)
    if layout == "one_break_moved":
        out = breaks.copy()
        mid = out.size // 2
        out[mid] = 0.5 * (out[mid - 1] + out[mid])
        return out
    if layout == "shifted":
        return breaks - breaks[2]
    return breaks


@settings(max_examples=200, deadline=None)
@given(picks=st.lists(st.tuples(st.integers(0, 2 ** 20), st.sampled_from([-1, 0, 1])),
                      max_size=16),
       logs=st.lists(st.floats(0.0, 1.0), max_size=16),
       specials=st.lists(st.sampled_from([0.0, -0.0, 5e-324, "r_top", np.inf, np.nan]),
                         max_size=6),
       layout=st.sampled_from(["profile", "linear", "one_break_moved", "shifted"]))
@example(picks=[(0, 0), (1, 0), (1, -1), (1, 1), (5601, 0), (5601, -1), (5600, 1)],
         logs=[0.0, 1.0], specials=[0.0, 5e-324, "r_top"], layout="profile")
def test_interval_index_matches_searchsorted(prof_sym, prof_case2, picks, logs, specials,
                                             layout):
    """The O(1) interval search equals np.searchsorted(breaks, r) - 1 clipped to
    [0, nb - 2] at every radius: on the breaks and their neighbours, at 0,
    the smallest subnormal and r_top, log-uniform over [1e-300, r_top], and
    on grids where the log guess misses and the search takes over."""
    for prof in (prof_sym, prof_case2):
        breaks = _grid(prof.interp_pack.breaks, layout)
        nb, r_top = breaks.size, prof.interp_pack.r_top
        near = [np.nextafter(breaks[i % nb], (-np.inf, breaks[i % nb], np.inf)[d + 1])
                for i, d in picks]
        lo, hi = np.log(1e-300), np.log(r_top)
        r = np.array(near + [np.exp(lo + u * (hi - lo)) for u in logs]
                     + [r_top if v == "r_top" else v for v in specials], dtype=float)
        want = np.minimum(np.maximum(np.searchsorted(breaks, r) - 1, 0), nb - 2)
        assert np.array_equal(interval_index(breaks, r), want)


@settings(max_examples=100, deadline=None)
@given(log_r=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=64))
def test_ground_state_positive_and_decreasing(prof_sym, prof_case1, prof_case2, log_r):
    """U, V > 0 and U', V' <= 0 at any radius, between the samples and in the tails."""
    for prof in (prof_sym, prof_case1, prof_case2):
        r = np.concatenate([[0.0, prof.interp_pack.r_top], 10.0 ** np.array(log_r)])
        U, dU, V, dV = profile_at(prof, r)
        assert np.all(U > 0.0) and np.all(V > 0.0)
        assert np.all(dU <= 0.0) and np.all(dV <= 0.0)


@settings(max_examples=200, deadline=None)
@given(np_=admissible())
def test_hyperbola_and_ordering(np_):
    n, p = np_
    pp = ProblemParams(n=n, p=p)
    check_solvable(pp)  # raises DomainError on a p the solver refuses
    assert abs(1.0 / (pp.p + 1.0) + 1.0 / (pp.q + 1.0) - (n - 2.0) / n) <= HYPERBOLA_TOL
    assert pp.p <= pp.q


@settings(max_examples=300, deadline=None)
@given(n=st.integers(4, 12), data=st.data())
def test_u_tails_converge_for_every_params(n, data):
    """(q+1) * exp_u_decay > n + 1 for every ProblemParams, so the mass and
    boundary-strip tails of U converge and compute_constants needs no guard for
    them: n - 2 > (n+1)/(q+1) above p = n/(n-2), and the product is n (p+1) below."""
    top = (n + 2.0) / (n - 2.0)
    p = data.draw(st.one_of(st.floats(1.0, top, exclude_min=True),
                            st.sampled_from([np.nextafter(1.0, 2.0), n / (n - 2.0), top])))
    try:
        pp = ProblemParams(n=n, p=p)
    except DomainError:
        hypothesis.assume(False)
    assert (pp.q + 1.0) * pp.exp_u_decay > n + 1.0


@settings(max_examples=50, deadline=None)
@given(np_=admissible(), r_top=st.floats(1e2, 1e12))
@example(np_=(4, float(np.nextafter(p_threshold(4), 2.0))), r_top=1e12)
def test_constants_reach_drops_at_most_1e16_of_each_tail(np_, r_top):
    """Each of the eight constants' rows decays like r^m (D1, D2: r^m log r)
    beyond r_top, with m < -1, and its panels reach r_top * TAIL_REACH, where
    at most 1e-16 of its tail is left (worst: B2 and C at n = 4, p -> p_n,
    3.4e-17); r^n stays finite out there for r_top up to 1e12."""
    n, p = np_
    pp = ProblemParams(n=n, p=p)
    eu, e2 = pp.exp_u_decay, n - 2.0
    mU, mV = n - 1.0 - (pp.q + 1.0) * eu, n - 1.0 - (p + 1.0) * e2  # r^(n-1) U^(q+1), V^(p+1)
    # (m, a log r rides on r^m): r^(n-1) U'V and r^(n-1) V'U both decay like r^-eu
    rows = {"A1": (mU, False), "A2": (mV, False), "D1": (mU, True), "D2": (mV, True),
            "B1": (mU + 1.0, False), "B2": (mV + 1.0, False), "C1": (-eu, False),
            "C2": (-eu, False)}
    lr, lt = math.log(r_top), math.log(TAIL_REACH)
    for key, (m, log) in rows.items():
        s = -(m + 1.0)
        assert s > 0.0, key
        # int_R^inf r^-(s+1) (log r)^log dr, past r_top * TAIL_REACH over past r_top
        share = math.exp(-s * lt) * ((lr + lt + 1.0 / s) / (lr + 1.0 / s) if log else 1.0)
        assert share <= 1e-16, key
    assert np.isfinite(np.float64(r_top * TAIL_REACH) ** n)


# the radial state in the stepper's stages: signed zeros, subnormals, values
# around 1e3, the largest v0 the ground-state sweep shoots from, and magnitudes
# whose powers overflow
_state = st.one_of(st.floats(-2e3, 2e3), st.floats(990.0, 1010.0), st.floats(-1010.0, -990.0),
                   st.floats(-1e-300, 1e-300), st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                   st.floats(-1e300, 1e300))


@settings(max_examples=500, deadline=None)
@given(np_=admissible(), r=st.floats(1e-6, 1e6), y=st.tuples(_state, _state, _state, _state))
@example(np_=(4, 3.0), r=1.0, y=(1.0, 0.0, -0.0, 0.0))
def test_rhs_matches_numpy_formula_bitwise(np_, r, y):
    """radial's float right-hand side is the numpy-scalar formula bit for bit,
    which keeps DOP853's step sequence, and the shots, unchanged.  It is called
    with the float r and float tuple the stepper passes."""
    n, p = np_
    pp = ProblemParams(n=n, p=p)
    U, dU, V, dV = (np.float64(v) for v in y)
    with np.errstate(all="ignore"):  # overflow, and inf - inf in the damping term
        fV = np.sign(V) * np.abs(V) ** pp.p
        fU = np.sign(U) * np.abs(U) ** pp.q
        c = (n - 1.0) / np.float64(r)
        want = (dU, -c * dU - fV, dV, -c * dV - fU)
    got = _rhs(n, pp.p, pp.q)(r, y)  # as the stepper calls it: a float and 4 floats
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


@settings(max_examples=50, deadline=None)
@given(np_=admissible(), v0=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
@example(np_=(4, 1.875), v0=1e3)  # V falls by less than an ulp at the first steps
def test_shot_decreases_until_its_end(np_, v0):
    """Up to the end of a shot, U' < 0 and V' < 0 at every step radius, U and V
    never increase, and U + V <= 1 + v0: the shot needs no divergence event."""
    n, p = np_
    shot = shoot(ProblemParams(n=n, p=p), v0, 1e3, tol=3e-14, dense=True)
    U, dU, V, dV = shot.sol.sol(shot.sol.t)
    assert np.all(dU < 0.0) and np.all(dV < 0.0)
    assert np.all(np.diff(U) <= 0.0) and np.all(np.diff(V) <= 0.0)
    assert np.all(U + V <= 1.0 + v0)


def _config_value(v):
    return ", ".join(str(x) for x in v) if isinstance(v, tuple) else str(v)


def _number_text(lo, hi):
    """Text of a number in [lo, hi]: a decimal, or a rational a/b with b <= 12."""
    def rational(b):
        return st.integers(int(np.ceil(lo * b)), int(np.floor(hi * b))).map(lambda a: f"{a}/{b}")

    return st.one_of(st.floats(lo, hi).map(str), st.integers(1, 12).flatmap(rational))


def _samples(hi):
    """2 to 4 distinct samples in (0, hi], as verify requires."""
    return st.lists(st.floats(0.0, hi, exclude_min=True), min_size=2, max_size=4,
                    unique=True).map(tuple)


@st.composite
def run_configs(draw):
    """A RunConfig that validate() accepts for verify, and the text of p, alpha, beta and d."""
    n = draw(st.integers(4, 8))
    top = (n + 2.0) / (n - 2.0)
    p_decimal = st.floats(1.0, top, exclude_min=True).map(str)
    # the phi checks are implemented for n = 4 only
    names = [c for c, reads in CHECK_READS.items()
             if n == 4 or not {"phi1", "phi2"} & set(reads)]
    checks = tuple(draw(st.lists(st.sampled_from(names), unique=True, min_size=1)))
    # the slopes of the perturbed exponents, in (0, 5]
    slope = _number_text(0.0, 5.0).filter(lambda t: Fraction(t) > 0)
    eps = draw(_samples(0.1))
    d = _number_text(1e-3, 10.0)
    if any("d" in CHECK_READS[c] for c in checks):
        # a check that reads d samples delta = d * eps, which must not pass DELTA_CAP
        d = _number_text(1e-3, min(10.0, DELTA_CAP / max(eps))).filter(
            lambda t: max(float(Fraction(t)) * e for e in eps) <= DELTA_CAP)
    # a rational exponent, admissible for n = 4
    texts = {"p": draw(st.one_of(st.just("11/3"), p_decimal) if n == 4 else p_decimal),
             "alpha": draw(slope), "beta": draw(slope), "d": draw(d)}
    cfg = RunConfig(
        n=n, **{k: float(Fraction(t)) for k, t in texts.items()},
        deltas=draw(_samples(0.2)), eps=eps,
        ode_tol=draw(st.floats(100 * np.finfo(float).eps, 1e-6)),
        r_max=draw(st.floats(1e2, 1e6)), mesh_level=draw(st.integers(1, 4)),
        out=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,12}", fullmatch=True)),
        checks=checks, b_delta=draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.1))))
    return cfg.validate("verify"), texts


@settings(max_examples=100, deadline=None)
@given(drawn=run_configs())
def test_config_file_round_trip(tmp_path_factory, drawn):
    """RunConfig -> key = value file -> build_config is the identity.

    Flags alone give each command the drawn values of the keys it has a
    flag for, and the defaults of the others.
    """
    cfg, texts = drawn
    rows = dict(asdict(cfg), **texts)
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("".join(f"{k} = {_config_value(v)}\n" for k, v in rows.items()))
    args = make_parser().parse_args(["verify", "--config", str(path)])
    assert build_config(args) == cfg
    for command, (_, extra) in COMMANDS.items():
        keys = _COMMON_KEYS + extra
        # --key=value, because a drawn out may start with "-"
        argv = [command] + [f"--{k.replace('_', '-')}={_config_value(rows[k])}" for k in keys]
        want = replace(RunConfig(), **{k: getattr(cfg, k) for k in keys})
        args = make_parser().parse_args(argv)
        if cfg.out == "--":  # argparse reads --out=-- as an empty list
            with pytest.raises(ConfigError):
                build_config(args)
        else:
            assert build_config(args) == want
