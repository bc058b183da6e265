import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from bubble_reference import integrate_one_shot
from laneemden import ballquad
from laneemden.ansatz import bubble_uv
from laneemden.ballquad import (BallQuadrature, gauss_legendre, get_quadrature, graded_edges,
                                sphere_measure)
from laneemden.verify import _bubble_power


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


def _gauss_legendre_mp(mp, k):
    """k-point Gauss-Legendre rule at mp's precision: Newton on P_k from cosine guesses."""
    def legendre(x):
        p0, p1 = mp.mpf(1), x
        for j in range(1, k):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        return p1, k * (x * p1 - p0) / (x * x - 1)

    xs, ws = [], []
    for i in range(k, 0, -1):  # ascending nodes
        x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (k + mp.mpf(1) / 2))
        for _ in range(100):
            pk, dpk = legendre(x)
            x -= pk / dpk
            if abs(pk / dpk) < mp.mpf(10) ** -45:
                break
        dpk = legendre(x)[1]
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dpk * dpk))
    return xs, ws


@pytest.mark.parametrize("k", [4, 12, 20, 24])
def test_gauss_legendre_against_mpmath(k):
    """Nodes to 2.3e-16 and weights to 2e-14 relative of a 50-digit rule."""
    mpmath = pytest.importorskip("mpmath")
    xg, wg = gauss_legendre(k)
    with mpmath.workdps(50):
        xs, ws = _gauss_legendre_mp(mpmath.mp, k)
        node_err = max(abs(a - b) for a, b in zip(xs, xg))
        weight_err = max(abs((a - b) / a) for a, b in zip(ws, wg))
    assert node_err <= 2.3e-16 and weight_err <= 2e-14
    assert np.array_equal(xg, -xg[::-1]) and np.array_equal(wg, wg[::-1])


def test_sphere_measure_closed_form():
    """|S^{k-1}| = 2 pi^(k/2) / Gamma(k/2) against its closed form, to 4e-16."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    for k in range(2, 12):
        m = k // 2
        with mpmath.workdps(50):
            if k % 2 == 0:  # Gamma(m) = (m-1)!
                want = 2 * mp.pi ** m / mp.factorial(m - 1)
            else:  # Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!)
                want = 2 * mp.pi ** m * 4 ** m * mp.factorial(m) / mp.factorial(2 * m)
            rel = abs((sphere_measure(k) - want) / want)
        assert rel <= 4e-16, k


@pytest.mark.parametrize("n", [4, 5])
def test_mesh_matches_cell_loop(n):
    """The nodes formed from the mesh's axes equal the mesh built cell by cell,
    bit for bit."""
    q = BallQuadrature(n=n, delta_min=0.05, level=2)
    h_min, h_max = 0.05 / 8.0, 0.02
    xg, wg = gauss_legendre(4)
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
    s, t, w = q.nodes()
    assert q.n_points == 2 * rho.size
    assert np.array_equal(s, rho * np.sin(th))
    assert np.array_equal(t, rho * np.cos(th))
    assert np.array_equal(w, ww * rho ** (n - 1) * np.sin(th) ** (n - 2)
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


def _integrands(profile, delta):
    """A lone bubble power, a 3-row stack, and the cross terms' halves pair."""
    q = profile.params.q

    def stack(s, t):
        U, V = bubble_uv(s, t, 1.0, delta, profile, ("U", "V"))
        return [U ** (q + 1.0), V * np.cos(3.0 * s) * np.cosh(t), np.log(U)]

    def halves(s, t):
        Up, Vp = bubble_uv(s, t, 1.0, delta, profile, ("U", "V"))
        Um, Vm = bubble_uv(s, t, -1.0, delta, profile, ("U", "V"))
        return [Up * Um ** q, Vp * Vm ** q], [Um * Up ** q, Vm * Vp ** q]
    return ((_bubble_power(profile, delta), False), (stack, False),
            (halves, True))


def _same_bits(got, want):
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_blocks_match_one_shot_integrals(n, level, prof_sym):
    """Integrands called on blocks of nodes give the integrals of one call on
    every node, bit for bit: lone integrands, stacks and halves pairs."""
    quad = get_quadrature(n, 0.01, level)
    for f, halves in _integrands(prof_sym, 0.01):
        assert _same_bits(quad.integrate(f, halves=halves),
                          integrate_one_shot(quad, f, halves=halves))


@pytest.mark.parametrize("block", ["below", "equal", "uneven"])
def test_block_size_does_not_change_integrals(block, prof_sym, monkeypatch):
    """A cap below one rho cell (runs of one cell), of the whole mesh (one run),
    and one that makes runs of 5 cells and a short last run of 3 (58 cells of
    1,392 nodes) integrate bit for bit as one call on every node does."""
    quad = get_quadrature(4, 0.01, 2)
    size, cell = quad.n_points // 2, CELL_SIZES[1]
    monkeypatch.setattr(ballquad, "BLOCK_NODES",
                        {"below": cell - 1, "equal": size, "uneven": 5 * cell + 7}[block])
    assert size == MESH_SIZES[1] == 58 * cell
    for f, halves in _integrands(prof_sym, 0.01):
        assert _same_bits(quad.integrate(f, halves=halves),
                          integrate_one_shot(quad, f, halves=halves))


MESH_SIZES = [24816, 80736, 285120, 1071616, 4151808]  # levels 1-5, n = 4, delta_min 0.01
CELL_SIZES = [752, 1392, 2640, 5152, 10176]  # nodes per rho cell of the same meshes


def test_mesh_sizes():
    """Each mesh is a whole number of rho cells, and nodes(a, b) forms exactly
    the (b - a) cells' nodes: one cell, three, and the last cell."""
    for level, size, cell in zip((1, 2, 3, 4, 5), MESH_SIZES, CELL_SIZES):
        quad = get_quadrature(4, 0.01, level)
        assert quad.n_points // 2 == size and size % cell == 0
        cells = size // cell
        for a, b in ((0, 1), (5, 8), (cells - 1, cells)):
            assert [x.size for x in quad.nodes(a, b)] == [(b - a) * cell] * 3


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_integrals_within_two_eps_of_fsum(n, level, prof_sym):
    """Each row of a 5-row stack of positive integrands integrates to within
    2 eps relative of math.fsum over its node values w * (upper + lower)."""
    quad = get_quadrature(n, 0.01, level)
    q = prof_sym.params.q

    def stack(s, t):
        U, V = bubble_uv(s, t, 1.0, 0.01, prof_sym, ("U", "V"))
        return [U ** (q + 1.0), V * np.exp(-s) * np.cosh(t), np.sqrt(U * V),
                np.exp(3.0 * t) / (1.0 + s * s), (1.0 + t) ** 4]

    s, t, w = quad.nodes()
    exact = [math.fsum(row) for row in w * (np.asarray(stack(s, t)) + stack(s, -t))]
    got = quad.integrate(stack)
    assert np.all(np.abs(got - exact) <= 2 * np.finfo(float).eps * np.abs(exact)), \
        (got - exact) / exact


def test_block_integral_memory_is_bounded(prof_sym):
    """A bubble integral allocates less than 32 node arrays of BLOCK_NODES values
    (4 MiB) on the level-4 mesh (1,071,616 nodes) and on the level-5 mesh
    (4,151,808 nodes) alike: the integrand's temporaries are run-sized, and no
    array grows with the mesh."""
    f = _bubble_power(prof_sym, 0.01)
    get_quadrature(4, 0.01, 1).integrate(f)  # warm any lazily built state outside the trace
    for level in (4, 5):
        quad = get_quadrature(4, 0.01, level)
        tracemalloc.start()
        try:
            quad.integrate(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * ballquad.BLOCK_NODES * 8, (level, peak)
