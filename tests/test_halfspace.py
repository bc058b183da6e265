import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import closed_form_bubble
from laneemden.ansatz import TABLE_REACH
from laneemden.ballquad import sphere_measure
from laneemden.errors import DomainError
from laneemden import halfspace
from laneemden.halfspace import (PHI1, PHI2, TAU_BLOCK, HalfSpaceCorrection, angular_kernel,
                                  edge_union, g_data, g_tail)
from phi_checks import neumann_mismatch
from phi_reference import angular_kernel_where, table_where


def test_sphere_measure():
    assert sphere_measure(2) == pytest.approx(2 * np.pi)
    assert sphere_measure(3) == pytest.approx(4 * np.pi)
    assert sphere_measure(4) == pytest.approx(2 * np.pi ** 2)


def test_boundary_data_positive_and_value(prof_sym):
    rho = np.geomspace(1e-2, 1e3, 60)
    g1, g2 = g_data(rho, prof_sym.interp_pack, (PHI1, PHI2))
    assert np.all(g1 >= 0) and np.all(g2 >= 0)
    # -(1/2) U'(1) = (1/2)(1/4)(1+1/8)^-2 = 8/81
    (g,) = g_data(np.array([1.0]), prof_sym.interp_pack, (PHI1,))
    assert g[0] == pytest.approx(8.0 / 81.0, rel=1e-6)


def test_phi_positive(corr1_sym):
    sig = np.array([0.0, 0.5, 1.0, 3.0, 10.0, 50.0])
    tau = np.array([0.0, 0.2, 1.0, 2.0, 15.0, 0.0])
    vals = corr1_sym.eval_points(sig, tau)
    assert np.all(vals > 0)


def test_axis_against_independent_oracle(corr1_sym):
    """On the axis the kernel collapses: phi(0,tau) =
    (2/pi) int g(rho) rho^2 / (rho^2 + tau^2) drho, with closed-form data."""
    _, du = closed_form_bubble(4)

    def oracle(tau):
        f = lambda rho: -(rho / 2.0) * du(rho) * rho ** 2 / (rho ** 2 + tau ** 2)
        v1, _ = quad(f, 0.0, 50.0, limit=200)
        v2, _ = quad(f, 50.0, np.inf, limit=200)
        return (2.0 / np.pi) * (v1 + v2)

    for tau in (0.5, 1.0, 4.0, 20.0):
        got = float(corr1_sym.eval_points([0.0], [tau], order=1)[0])
        assert got == pytest.approx(oracle(tau), rel=2e-6)
    # at tau = 0 the integral is (2/pi) int g = sqrt(2); measured 4.6e-10 off
    got = float(corr1_sym.eval_points([0.0], [0.0], order=1)[0])
    assert got == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_angular_kernel_closed_form():
    """The n = 4 kernel, log1p form and small-z series, equals the generic angular reduction."""
    rng = [(1.3, 0.7, 2.0), (0.5, 0.0, 0.49), (2.0, 1.0, 2.0), (1e-4, 0.3, 50.0),
           (1e-9, 0.0, 1.0), (0.0, 2.0, 3.0)]
    for sig, tau, rho in rng:
        A = sig ** 2 + tau ** 2 + rho ** 2
        B = 2 * sig * rho
        direct, _ = quad(lambda u: 1.0 / (A - B * u), -1.0, 1.0, epsabs=0.0, epsrel=1e-13)
        assert direct == pytest.approx(float(angular_kernel(sig, tau, rho)), rel=1e-12)


@pytest.mark.parametrize("sig", [0.0, 1e-9, 0.3, 5.0, 800.0])
def test_angular_kernel_matches_reference_bitwise(sig):
    """On a (tau x rho) matrix whose z = B/A spans the 1e-6 switch, log form and series
    land where the np.where/out= reference puts them, bit for bit."""
    taus = np.array([0.0, 1e-3, 0.7, 30.0, 1e4])[:, None]
    rho = np.geomspace(1e-12, 1e5, 400)
    got, want = angular_kernel(sig, taus, rho), angular_kernel_where(sig, taus, rho)
    assert np.array_equal(got, want)


def test_neumann_mismatch_bounded_at_larger_radii(corr1_sym):
    assert neumann_mismatch(corr1_sym, [5.0, 10.0]) < 1e-2


def test_gradient_decay_exponent(corr1_sym):
    # |d phi / d tau| on the axis decays one power faster (n-2 here)
    taus = np.geomspace(30.0, 600.0, 10)
    h = 1e-3
    up = corr1_sym.eval_points(np.zeros_like(taus), taus + h)
    dn = corr1_sym.eval_points(np.zeros_like(taus), taus - h)
    grad = np.abs((up - dn) / (2 * h))
    base = 1.0 + taus

    def resid(kk):
        A = np.vstack([base ** -kk, base ** -(kk + 1.0)]).T
        coef, *_ = np.linalg.lstsq(A / grad[:, None], np.ones_like(grad), rcond=None)
        return float(np.sum((A @ coef / grad - 1.0) ** 2))

    from scipy.optimize import minimize_scalar
    res = minimize_scalar(resid, bounds=(1.2, 2.8), method="bounded")
    assert abs(res.x - 2.0) / 2.0 < 0.05


def test_monte_carlo_agreement(corr1_sym):
    """Direct Monte-Carlo of the boundary integral at random points.

    rho is importance-sampled from rho^2 g(rho) / (1 + rho^2) on
    [0, rho_cut], which tracks the kernel's falloff and keeps the weights
    bounded; the analytic far-data tail (a tiny shared correction) is
    added to both sides.
    """
    rng = np.random.default_rng(20240817)
    rho_cut = 300.0
    grid = np.geomspace(1e-3, rho_cut, 4000)
    (g,) = g_data(grid, corr1_sym.profile.interp_pack, (PHI1,))
    dens = grid ** 2 * g / (1.0 + grid ** 2)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                           * np.diff(grid))])
    mass = cdf[-1]  # int_0^cut g rho^2/(1+rho^2) drho
    amp, expo = g_tail(corr1_sym.profile.interp_pack, corr1_sym.which)
    tail = sum(a * rho_cut ** (1.0 - e) / (e - 1.0) for a, e in zip(amp, expo)
               if a != 0.0) * (2.0 / np.pi)

    n_samp = 600_000
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, size=3)
        x[2] = abs(x[2]) + 0.4  # x = (x1, x2, 0, x4)-style point, sigma/tau below
        sig = np.hypot(x[0], x[1])
        tau = x[2]
        u = rng.uniform(0.0, mass, size=n_samp)
        rho = np.interp(u, cdf, grid)
        cosang = rng.uniform(-1.0, 1.0, size=n_samp)
        d2 = sig ** 2 + tau ** 2 + rho ** 2 - 2 * sig * rho * cosang
        # phi = (2/(omega_4 * 2)) * int |x-y|^-2 g dy'; with the chosen ring
        # density the estimator weight is (1 + rho^2)/d2
        w = (1.0 + rho * rho) / d2
        est = mass * 4 * np.pi * np.mean(w) / (2 * np.pi ** 2) + tail
        stderr = mass * 4 * np.pi * np.std(w) / np.sqrt(n_samp) / (2 * np.pi ** 2)
        want = float(corr1_sym.eval_points([sig], [tau], order=1)[0])
        assert abs(est - want) <= max(1e-3 * abs(want), 4 * stderr)
        assert stderr <= 1.5e-3 * abs(want)


def test_table_matches_direct(corr1_sym):
    tab = corr1_sym.table(250.0)
    sig = np.array([0.0, 0.3, 1.0, 5.0, 30.0, 120.0])
    tau = np.array([0.5, 0.2, 1.0, 3.0, 100.0, 10.0])
    direct = corr1_sym.eval_points(sig, tau, order=1)
    interp = tab.eval_many(sig, tau)
    assert np.max(np.abs(interp / direct - 1.0)) < 1e-6


@pytest.mark.parametrize("extent", [220.0, 1100.0])
@pytest.mark.parametrize("which", ["corr1_sym", "corr2_sym", "corr1_case2"])
def test_table_nodes_match_direct(request, which, extent):
    """Every node of a block-built table equals the per-point order-0 rule."""
    corr = request.getfixturevalue(which)
    tab = corr.table(extent, m=41)
    grid = np.expm1(np.linspace(0.0, np.log1p(extent), 41))
    S, T = np.meshgrid(grid, grid, indexing="ij")
    direct = corr.eval_points(S.ravel(), T.ravel())
    assert np.max(np.abs(tab.tab / direct - 1.0)) < 1e-8


@pytest.mark.parametrize("m", [41, 65])
def test_table_rows_split_into_equal_blocks(prof_sym, monkeypatch, m):
    """Each sigma row is built in ceil(m / TAU_BLOCK) blocks of near-equal size."""
    sizes = []
    rule = HalfSpaceCorrection.rule

    def recording(self, blocks, k, kinds):
        sizes.extend(taus.size for _, taus in blocks)
        return rule(self, blocks, k, kinds)

    monkeypatch.setattr(HalfSpaceCorrection, "rule", recording)
    # a copy of the profile has a table cache of its own, empty
    HalfSpaceCorrection(dataclasses.replace(prof_sym), PHI1).table(5.0, m=m)
    assert len(sizes) == m * -(-m // TAU_BLOCK) and sum(sizes) == m * m
    assert max(sizes) <= TAU_BLOCK and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("extent, m", [(0.0, 41), (-0.5, 41), (np.inf, 41), (np.nan, 41),
                                        (5.0, 3), (5.0, 2), (5.0, 1), (5.0, 0)])
def test_table_rejects_degenerate_grid(prof_sym, extent, m):
    """A table spans a positive finite extent with at least the 4 points of its stencil."""
    corr = HalfSpaceCorrection(prof_sym, PHI1)
    before = dict(corr._tables)
    with pytest.raises(DomainError, match="extent"):
        corr.table(extent, m=m)
    assert corr._tables == before


def test_phi_eval_point_interface(corr1_sym):
    # phi depends on |x'| only, so a negative sigma is no point of the half-space
    for sig, tau in ((1.0, -0.1), (-1.0, 0.5), (-5.0, 0.1), (-1e-300, 0.0), (np.nan, 1.0),
                     (1.0, np.nan)):
        with pytest.raises(DomainError):
            corr1_sym.eval_points([0.5, sig], [0.5, tau])
    with pytest.raises(DomainError):
        corr1_sym.eval_points([1.0, 2.0], [0.5])
    for order in (-1, 2, 7):
        with pytest.raises(DomainError, match="order must be 0 or 1"):
            corr1_sym.eval_points([1.0], [0.5], order=order)


def test_symmetric_components_identical(prof_sym, corr1_sym, corr2_sym):
    # U and V coincide at the symmetric point, so both corrections do too
    sig = np.array([0.4, 2.0])
    tau = np.array([0.3, 1.0])
    a = corr1_sym.eval_points(sig, tau)
    b = corr2_sym.eval_points(sig, tau)
    assert np.array_equal(a, b)


def test_rejects_unknown_kind(prof_sym):
    with pytest.raises(DomainError):
        HalfSpaceCorrection(prof_sym, "PHI3")


@pytest.mark.parametrize("which, extent, m", [
    ("corr1_sym", 220.0, 41), ("corr1_sym", 1100.0, 41), ("corr2_sym", 220.0, 41),
    ("corr2_sym", 1100.0, 41), ("corr1_case2", 220.0, 41), ("corr1_case2", 1100.0, 41),
    ("corr2_case2", 220.0, 41), ("corr2_case2", 1100.0, 41),
    ("corr1_sym", TABLE_REACH / 0.01, 257), ("corr2_sym", TABLE_REACH / 0.01, 257)])
def test_table_equals_reference_block_bitwise(request, which, extent, m):
    """Every node equals the np.where/out= kernel and block of the reference copy.

    At p = 3, U = V up to rounding, so the p = 1.9 tables are the ones that tell
    the two kinds apart.
    """
    corr = request.getfixturevalue(which)
    tab = corr.table(extent, m=m).tab
    ref = table_where(corr, extent, m)
    assert np.array_equal(tab, ref) and np.array_equal(np.signbit(tab), np.signbit(ref))


@pytest.mark.parametrize("sig, tau", [(np.nan, 1.0), (1.0, np.nan), (-0.5, 1.0), (1.0, -0.5),
                                      (-2.0, 1.0), (1.0, -np.inf)])
def test_lookup_rejects_points_outside_half_space(corr1_sym, sig, tau):
    """A lookup takes sigma >= 0 and tau >= 0, by the rule of eval_points."""
    tab = corr1_sym.table(220.0, m=41)
    with pytest.raises(DomainError, match="sigma >= 0 and tau >= 0"):
        tab.eval_many([0.5, sig], [0.5, tau])


def test_lookup_memory_peak(corr1_sym):
    """200,000 lookups allocate at most 10 MB at their peak (outputs included)."""
    tab = corr1_sym.table(220.0, m=41)
    sig, tau = 220.0 * np.random.default_rng(5).random((2, 200_000))
    tracemalloc.start()
    try:
        tab.eval_many(sig, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def test_both_kinds_share_one_kernel_pass(prof_sym, monkeypatch):
    """Building PHI1, then PHI2, evaluates the angular kernel once per node, for both.

    At extent 220, m = 41 that is 1,528,008 values; one pass per kind made 3,056,016.
    """
    sizes = []
    kernel = halfspace.angular_kernel

    def counting(sig, tau, rho):
        ker = kernel(sig, tau, rho)
        sizes.append(ker.size)
        return ker

    monkeypatch.setattr(halfspace, "angular_kernel", counting)
    prof = dataclasses.replace(prof_sym)  # a cache of its own, empty
    tab1 = HalfSpaceCorrection(prof, PHI1).table(220.0, m=41)
    assert sum(sizes) == 1_528_008
    tab2 = HalfSpaceCorrection(prof, PHI2).table(220.0, m=41)
    assert sum(sizes) == 1_528_008
    assert (tab1.which, tab2.which) == (PHI1, PHI2)


_edges = st.lists(st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.0, 60.0])
                  | st.floats(0.0, 1e6, allow_subnormal=True), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(a=_edges, b=_edges)
def test_edge_union_equals_union1d_bitwise(a, b):
    """On sorted, non-empty edge sets with repeats and shared values, as panel_edges
    and the rho_bigs of a block make them, the union equals np.union1d bit for bit."""
    a, b = np.sort(np.array(a, dtype=float)), np.sort(np.array(b, dtype=float))
    got, want = edge_union(a, b), np.union1d(a, b)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
