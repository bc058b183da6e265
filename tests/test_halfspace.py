import numpy as np
import pytest
from scipy.integrate import quad

from conftest import closed_form_bubble
from laneemden.ballquad import sphere_measure
from laneemden.errors import DomainError
from laneemden.halfspace import HalfSpaceCorrection


def test_sphere_measure():
    assert sphere_measure(2) == pytest.approx(2 * np.pi)
    assert sphere_measure(3) == pytest.approx(4 * np.pi)
    assert sphere_measure(4) == pytest.approx(2 * np.pi ** 2)


def test_boundary_data_positive_and_value(corr1_sym):
    rho = np.geomspace(1e-2, 1e3, 60)
    g = corr1_sym.boundary_data(rho)
    assert np.all(g >= 0)
    # -(1/2) U'(1) = (1/2)(1/4)(1+1/8)^-2 = 8/81
    assert corr1_sym.boundary_data([1.0])[0] == pytest.approx(8.0 / 81.0, rel=1e-6)


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


def test_angular_kernel_closed_form():
    """The log kernel used for n=4 equals the generic angular reduction."""
    rng = [(1.3, 0.7, 2.0), (0.5, 0.0, 0.49), (2.0, 1.0, 2.0)]
    for sig, tau, rho in rng:
        A = sig ** 2 + tau ** 2 + rho ** 2
        B = 2 * sig * rho
        direct, _ = quad(lambda u: 1.0 / (A - B * u), -1.0, 1.0)
        closed = np.log(((sig + rho) ** 2 + tau ** 2) / ((sig - rho) ** 2 + tau ** 2)) / B
        assert direct == pytest.approx(closed, rel=1e-12)


def test_neumann_data(corr1_sym, corr2_sym):
    assert corr1_sym.verify_neumann_data([0.5, 1.0, 2.0, 5.0]) < 1e-2
    assert corr2_sym.verify_neumann_data([0.5, 1.0, 2.0, 5.0]) < 1e-2


def test_neumann_mismatch_bounded_at_larger_radii(corr1_sym):
    assert corr1_sym.verify_neumann_data([5.0, 10.0]) < 1e-2


def test_harmonicity_second_order(corr1_sym):
    r1 = corr1_sym.verify_harmonic(h=0.1, k=2)
    r2 = corr1_sym.verify_harmonic(h=0.05, k=2)
    assert r2 < 1e-2
    assert 2.5 < r1 / r2 < 6.0


def test_decay_exponents(corr1_sym, corr2_sym, corr1_case2):
    k, kth = corr1_sym.decay_exponent()
    assert kth == 1.0 and abs(k - kth) / kth < 0.05
    k, kth = corr2_sym.decay_exponent()
    assert kth == 1.0 and abs(k - kth) / kth < 0.05
    k, kth = corr1_case2.decay_exponent()
    assert kth == pytest.approx(0.8) and abs(k - kth) / kth < 0.05


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
    dens = grid ** 2 * corr1_sym.boundary_data(grid) / (1.0 + grid ** 2)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                           * np.diff(grid))])
    mass = cdf[-1]  # int_0^cut g rho^2/(1+rho^2) drho
    amp, expo = corr1_sym._tail_terms()
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


def test_phi_eval_point_interface(corr1_sym):
    v = corr1_sym.phi_eval(np.array([0.0, 0.0, 0.0, 1.0]))
    assert v > 0
    with pytest.raises(DomainError):
        corr1_sym.eval_points([1.0], [-0.1])
    with pytest.raises(DomainError):
        corr1_sym.eval_points([1.0, 2.0], [0.5])


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


def test_sample_export(tmp_path, corr1_sym):
    path = tmp_path / "phi.csv"
    corr1_sym.sample_to_csv(path, sig_max=5.0, tau_max=5.0, n=8)
    rows = path.read_text().splitlines()
    assert rows[0] == "s,t,value"
    vals = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert vals.size == 64 and np.all(vals > 0)
