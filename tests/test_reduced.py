import numpy as np
import pytest

from laneemden.constants import EnergyConstants
from laneemden.errors import DomainError
from laneemden.reduced import G, J_expansion, ReducedEnergy, d_star, eta_window

A1 = 32 * np.pi ** 2 / 3
B = 8 * np.sqrt(2) * np.pi ** 2
C = 24 * np.sqrt(2) * np.pi ** 2
D = -80 * np.pi ** 2 / 9


def unit_fixture():
    c = EnergyConstants(A1=1, A2=1, B1=1, B2=1, C1=1, C2=1, D1=1, D2=1, err={})
    return ReducedEnergy(constants=c, n=4, p=3.0, q=3.0, alpha=1.0, beta=1.0)


def closed_fixture(alpha=1.0, beta=1.0):
    c = EnergyConstants(A1=A1, A2=A1, B1=B, B2=B, C1=C, C2=C, D1=D, D2=D, err={})
    return ReducedEnergy(constants=c, n=4, p=3.0, q=3.0, alpha=alpha, beta=beta)


def G_prime(re, d):
    """G'(d), from the coefficients G is made of."""
    return re.log_coeff / d - re.linear_coeff


def golden_section_max(f, a, b, tol=1e-12):
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c_ = b - gr * (b - a)
    d_ = a + gr * (b - a)
    while abs(b - a) > tol * max(1.0, abs(b)):
        if f(c_) > f(d_):
            b = d_
        else:
            a = c_
        c_ = b - gr * (b - a)
        d_ = a + gr * (b - a)
    return 0.5 * (a + b)


def test_unit_fixture_values():
    re = unit_fixture()
    assert G(re, 1.0) == pytest.approx(-2.375, abs=1e-14)
    assert d_star(re) == pytest.approx(0.25, abs=1e-14)


def test_d_star_closed_constants():
    re = closed_fixture()
    ds = d_star(re)
    assert ds == pytest.approx(1.0 / (6.0 * np.sqrt(2.0)), abs=1e-12)
    # stationarity to 1e-12 relative
    assert abs(G_prime(re, ds)) * ds / re.log_coeff <= 1e-12


def test_optimizer_agrees_with_closed_form():
    re = closed_fixture()
    ds = d_star(re)
    num = golden_section_max(lambda x: G(re, x), ds / 50.0, ds * 50.0)
    assert num == pytest.approx(ds, abs=1e-6)


def test_bisection_root_of_derivative():
    re = closed_fixture()
    a, b = 1e-4, 1e2
    assert G_prime(re, a) > 0 > G_prime(re, b)
    for _ in range(200):
        m = 0.5 * (a + b)
        if G_prime(re, m) > 0:
            a = m
        else:
            b = m
    assert 0.5 * (a + b) == pytest.approx(d_star(re), rel=1e-10)


def test_second_derivative_negative():
    re = closed_fixture()
    ds = d_star(re)
    h = 1e-6 * ds
    g2 = (G(re, ds + h) - 2 * G(re, ds) + G(re, ds - h)) / h ** 2
    assert g2 < 0


def test_g_prime_single_sign_change():
    re = closed_fixture()
    d = np.geomspace(1e-4, 1e4, 1000)
    sign = np.sign(G_prime(re, d))
    flips = np.count_nonzero(np.diff(sign))
    assert flips == 1


def test_g_tends_to_minus_infinity():
    re = closed_fixture()
    assert G(re, 1e-12) < -1e3
    assert G(re, 1e12) < -1e3


def test_log_concavity():
    # G(e^s) = const + coeff*s - linear*e^s is concave in s
    re = closed_fixture()
    s = np.linspace(-8, 8, 200)
    vals = G(re, np.exp(s))
    second = np.diff(vals, 2)
    assert np.all(second < 1e-12)


def test_eps_log_eps_coefficient():
    re = closed_fixture()
    assert re.log_coeff == pytest.approx(16 * np.pi ** 2 / 3, rel=1e-14)


def test_expansion_addends():
    re = closed_fixture()
    ds = d_star(re)
    out = J_expansion(re, 0.01, ds)
    assert out["leading"] == pytest.approx(0.5 * A1, rel=1e-14)
    assert out["eps_log_eps_term"] == pytest.approx(re.log_coeff * 0.01 * np.log(0.01))
    assert out["eps_term"] == pytest.approx(G(re, ds) * 0.01)
    # maximality of d*
    for d in (0.3 * ds, 0.7 * ds, 1.5 * ds, 4 * ds):
        assert J_expansion(re, 0.01, d)["total"] <= out["total"] + 1e-12


def test_leading_term_is_epsilon_limit():
    re = closed_fixture()
    ds = d_star(re)
    prev = None
    for eps in (0.1, 0.01, 0.001):
        gap = abs(J_expansion(re, eps, ds)["total"] - (2.0 / 4.0) * A1)
        if prev is not None:
            assert gap < prev
        prev = gap


def test_eta_window():
    re = closed_fixture()
    eta = eta_window(re)
    ds = d_star(re)
    assert 2 * eta < ds < 1.0 / (2 * eta)


def test_domain_errors():
    re = closed_fixture()
    with pytest.raises(DomainError):
        G(re, -1.0)
    with pytest.raises(DomainError):
        J_expansion(re, 0.5, 0.1)


def test_computed_constants_d_star(consts_sym):
    re = ReducedEnergy(constants=consts_sym, n=4, p=3.0, q=3.0, alpha=1.0, beta=1.0)
    assert d_star(re) == pytest.approx(1.0 / (6.0 * np.sqrt(2.0)), rel=1e-6)
