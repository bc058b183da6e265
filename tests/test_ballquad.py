import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

from laneemden.ballquad import BallQuadrature, get_quadrature, graded_edges, sphere_measure


def ball_volume(n):
    return np.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@pytest.mark.parametrize("n, delta_min", [
    pytest.param(n, d, id=str(n) if d == 0.01 else f"{n}-{d}")
    for n in (4, 5, 6) for d in (0.01, 0.002)])
@pytest.mark.parametrize("level", [1, 2])
def test_volume(n, delta_min, level):
    q = BallQuadrature(n=n, delta_min=delta_min, level=level)
    got = q.integrate(lambda s, t: np.ones_like(s))
    assert got == pytest.approx(ball_volume(n), rel=1e-8)


@pytest.mark.parametrize("n", [4, 5])
def test_mesh_matches_cell_loop(n):
    """The broadcast mesh equals the one built cell by cell, bit for bit."""
    q = BallQuadrature(n=n, delta_min=0.05, level=2)
    h_min, h_max = 0.05 / 8.0, 0.02
    xg, wg = roots_legendre(4)
    rho_e = 1.0 - graded_edges(1.0, h_min, h_max, 1.3)[::-1]
    th_e = graded_edges(np.pi / 2.0, h_min, h_max, 1.3)
    R, TH, W = [], [], []
    for a, b in zip(rho_e[:-1], rho_e[1:]):
        for c, d in zip(th_e[:-1], th_e[1:]):
            RR, TT = np.meshgrid(0.5 * (a + b) + 0.5 * (b - a) * xg,
                                 0.5 * (c + d) + 0.5 * (d - c) * xg, indexing="ij")
            R.append(RR.ravel())
            TH.append(TT.ravel())
            W.append(np.outer(0.5 * (b - a) * wg, 0.5 * (d - c) * wg).ravel())
    rho, th, ww = np.concatenate(R), np.concatenate(TH), np.concatenate(W)
    assert np.array_equal(q.s, rho * np.sin(th))
    assert np.array_equal(q.t, rho * np.cos(th))
    assert np.array_equal(q.w, ww * rho ** (n - 1) * np.sin(th) ** (n - 2)
                          * sphere_measure(n - 1))


def test_odd_integrand_cancels():
    q = get_quadrature(4, 0.01)
    # multiplication-only odd integrands cancel exactly pointwise
    val = q.integrate(lambda s, t: t * (s ** 2 + t ** 2))
    assert val == 0.0
    # numpy's vector pow is not bitwise sign-symmetric; rounding only
    val = q.integrate(lambda s, t: t ** 3 * np.exp(-s))
    scale = q.integrate(lambda s, t: np.abs(t) ** 3 * np.exp(-s))
    assert abs(val) <= 1e-12 * scale


def test_even_known_integral():
    # int_B1 x_n^2 dx = |B1| / (n + 2) in R^n
    q = get_quadrature(4, 0.01)
    got = q.integrate(lambda s, t: t ** 2)
    assert got == pytest.approx(ball_volume(4) / 6.0, rel=1e-10)


def test_offcenter_bubble_against_cap_reduction(prof_sym):
    """Independent oracle: for a radial F centred at e_n, the ball integral
    reduces to a 1D integral against the spherical-cap measure."""
    delta = 0.02
    n, qq = 4, 3.0
    pack_eval = prof_sym.eval_many

    def cap_measure(c):
        # measure of {omega in S^3: omega_n <= c}
        f = lambda u: 4 * np.pi * np.sqrt(1 - u * u)  # |S^2| (1-u^2)^((n-3)/2), n=4
        val, _ = quad(f, -1.0, min(1.0, c))
        return val

    def oracle():
        def integrand(rho):
            U = pack_eval(np.array([rho]))[0][0]
            return rho ** 3 * U ** (qq + 1.0) * cap_measure(-delta * rho / 2.0)
        val, _ = quad(lambda x: integrand(x), 0.0, 2.0 / delta, limit=400)
        return val

    quad2d = get_quadrature(4, delta)
    su = 1.0

    def f(s, t):
        d = np.sqrt(s ** 2 + (t - 1.0) ** 2) / delta
        U = pack_eval(d)[0]
        return (delta ** -su * U) ** (qq + 1.0)

    got = quad2d.integrate(f)
    want = oracle()
    assert got == pytest.approx(want, rel=2e-5)


def test_refinement_error_estimate():
    f = lambda s, t: np.cos(3 * s) * np.cosh(t)
    v = [get_quadrature(4, 0.02, level).integrate(f) for level in (1, 2, 3)]
    # one-refinement error estimates at levels 1 and 2
    e1, e2 = abs(v[1] - v[0]), abs(v[2] - v[1])
    assert e2 <= e1
    assert abs(v[1] - v[2]) <= 2 * (e1 + e2)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("level", [1, 3])
def test_stack_rows_match_single_integrals(n, level):
    quad = get_quadrature(n, 0.01, level)
    f = lambda s, t: np.cos(3 * s) * np.cosh(t)
    g = lambda s, t: np.exp(-s) * (1.0 + t) ** 3
    rows = quad.integrate(lambda s, t: [f(s, t), g(s, t)])
    one = quad.integrate(f)
    assert isinstance(one, float)
    assert rows.shape == (2,)
    assert rows[0] == one
    assert rows[1] == quad.integrate(g)


def test_mesh_cache_identity():
    a = get_quadrature(4, 0.01, 1)
    b = get_quadrature(4, 0.01, 1)
    assert a is b
