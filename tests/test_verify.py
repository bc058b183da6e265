import json

import numpy as np
import pytest

from bubble_reference import (cross_integrals_two_calls, gradient_integrals_two_calls,
                              pairing_integrals_two_calls)
from laneemden import ProblemParams, verify
from laneemden.ballquad import get_quadrature
from laneemden.errors import DomainError
from laneemden.verify import (check_bubble_mass, check_cross_terms, check_f_taylor,
                              check_gradient_expansion, check_norm_orders, check_phi_pairing,
                              check_scaling_table, f_taylor_remainders, log_regime_order,
                              richardson_pair, scaling_row_exponent, shrink_factors,
                              slope_limit)
from laneemden.ansatz import TABLE_REACH, bubble_uv
from laneemden.halfspace import PhiTable


def test_slope_limit_exact_polynomial():
    xs = np.array([0.04, 0.02, 0.01])
    ys = 3.0 * xs - 7.0 * xs ** 2 + 2.0 * xs ** 3
    assert slope_limit(xs, ys) == pytest.approx(3.0, rel=1e-9)


def test_richardson_pair():
    xs = [0.02, 0.01]
    ys = [5.0 * 0.02 + 0.02 ** 2, 5.0 * 0.01 + 0.01 ** 2]
    assert richardson_pair(xs, ys) == pytest.approx(5.0, rel=1e-12)


def test_shrink_factors():
    xs = [0.04, 0.02, 0.01]
    ys = [c * x ** 2 for c, x in zip((1, 1, 1), xs)]
    f = shrink_factors(xs, ys)
    assert all(abs(v - 2.0) < 1e-12 for v in f)


def test_f_taylor_zero_at_one():
    xi, xb, eta, eb = f_taylor_remainders(3.0, 1.0, 0.01, np.array([1.0]))
    assert xi[0] == 0.0 and xb[0] == 0.0


def test_f_taylor_bound_at_e():
    q, beta, eps = 3.0, 1.0, 0.01
    t = np.array([np.e])
    xi, xb, _, _ = f_taylor_remainders(q, beta, eps, t)
    assert xb[0] == pytest.approx(0.5 * (np.e ** q + np.e ** (q + beta * eps)))
    assert abs(xi[0]) <= xb[0]


def test_f_taylor_check(consts_sym):
    pp = ProblemParams(n=4, p=3.0, alpha=1.0, beta=1.0)
    rep = check_f_taylor(pp)
    assert rep.passed and rep.deviation <= 1.0


def test_slope_checks_refuse_a_slope_that_is_not_positive(prof_sym):
    """The perturbed exponents p + alpha eps, q + beta eps take slopes > 0; a zero
    slope is refused, not read as another one, and before any table is built."""
    for alpha, beta in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
        with pytest.raises(DomainError, match="alpha > 0 and beta > 0"):
            check_f_taylor(ProblemParams(n=4, p=3.0, alpha=alpha, beta=beta))

    class NoTable:
        def table(self, *args, **kwargs):
            raise AssertionError("phi table built before the slope was refused")

    with pytest.raises(DomainError, match="beta > 0"):
        check_norm_orders(prof_sym, NoTable(), (0.04, 0.02), beta=0.0)


def test_scaling_row_exponents():
    pp = ProblemParams(n=4, p=3.0)
    e, logc = scaling_row_exponent(pp, "u1", pp.q + 1.0)
    assert e == pytest.approx(0.0) and not logc
    e, logc = scaling_row_exponent(pp, "u1", 1.0)
    assert e == pytest.approx(1.0) and not logc
    e, logc = scaling_row_exponent(pp, "v2", 2.0)
    assert e == pytest.approx(2.0) and not logc
    e, logc = scaling_row_exponent(pp, "u1", 2.0)
    assert logc  # t = n/(n-2) sits on the logarithmic boundary


def test_scaling_table_log_regime():
    # t c = n: the order meets the rows' 2% (4.7e-4 here)
    pp = ProblemParams(n=4, p=3.0)
    rep = check_scaling_table(pp, 2.0, "u1")
    assert rep.samples["delta"] == [0.02, 0.01, 0.005]
    assert rep.details["log_regime"]
    assert rep.passed and rep.deviation <= 0.02


@pytest.mark.parametrize("p", [1.4, 1.75, 2.0])
def test_scaling_table_rows_at_n6(p):
    """At n = 6 the command's (t = 2, v2) row has t c = 6 = n: the log regime."""
    reps = verify.CHECKS["scaling_table"](ProblemParams(n=6, p=p))
    assert reps[2].details["log_regime"] and all(r.passed for r in reps)


def test_log_regime_order(monkeypatch):
    deltas = np.array([0.02, 0.01, 0.005])
    vals = deltas ** 1.7 * (3.0 * np.abs(np.log(deltas)) - 2.0)
    assert log_regime_order(vals) == pytest.approx(1.7, rel=1e-12)
    # no real root, or a double one: NaN, and the row fails rather than raising
    assert np.isnan(log_regime_order([1.0, 1.0, 2.0])) and np.isnan(log_regime_order([1.0] * 3))
    monkeypatch.setattr(verify, "log_regime_order", lambda vals: float("nan"))
    assert check_scaling_table(ProblemParams(n=4, p=3.0), 2.0, "u1").verdict == "FAIL"


def test_scaling_table_case2_row():
    pp = ProblemParams(n=4, p=1.9)
    rep = check_scaling_table(pp, 1.0, "u1_tilde")
    assert rep.passed


def test_bubble_mass_reflection_symmetry(prof_sym, consts_sym):
    # the mesh integrates mirrored integrands identically
    quad = get_quadrature(4, 0.02)

    def mass(sign):
        def f(s, t):
            (U,) = bubble_uv(s, t, sign, 0.02, prof_sym, ("U",))
            return U ** 4
        return quad.integrate(f)

    assert mass(1.0) == mass(-1.0)


def test_bubble_mass_below_half(prof_sym, consts_sym):
    rep = check_bubble_mass(prof_sym, consts_sym, (0.04, 0.02, 0.01))
    assert rep.passed
    assert rep.details["below_half_mass"]
    assert np.all(np.asarray(rep.samples["value"]) < consts_sym.A1 / 2.0)


def test_bubble_mass_v_component(prof_case1, consts_case1):
    """The V bubble's mass in the ball is A2/2 - B2 delta + o(delta), with the
    Richardson slope within check_bubble_mass's 5% of -B2, and below A2/2."""
    deltas = (0.04, 0.02, 0.01)
    pp = prof_case1.params
    quad = get_quadrature(pp.n, min(deltas))

    def mass(d):
        def f(s, t):
            (V,) = bubble_uv(s, t, 1.0, d, prof_case1, ("V",))
            return V ** (pp.p + 1.0)
        return quad.integrate(f)

    A2, B2 = consts_case1.A2, consts_case1.B2
    vals = np.array([mass(d) for d in deltas])
    assert np.all(vals < A2 / 2.0)
    assert abs(richardson_pair(deltas, vals - A2 / 2.0) + B2) <= 0.05 * B2


def test_cross_terms_case2(prof_case2):
    # the subcritical coupling decays more slowly; the ratio test needs
    # smaller samples before the shrink factor clears the threshold
    rep = check_cross_terms(prof_case2, (0.02, 0.01, 0.005))
    assert rep.passed


def test_cross_terms_match_two_call_reference(prof_case2, monkeypatch):
    """Each delta's two cross integrals are those of the integrand called on both
    halves of the mesh with four bubble evaluations, by float.hex, from one
    integrate call and two bubble evaluations on each upper-half node."""
    deltas = (0.02, 0.01, 0.005)
    quad = get_quadrature(4, min(deltas))
    want = [[float(v).hex() for v in cross_integrals_two_calls(prof_case2, quad, d)]
            for d in deltas]
    calls = {"integrate": 0}
    real = type(quad).integrate

    def counted(*args, **kwargs):
        calls["integrate"] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(type(quad), "integrate", counted)
    points = _count_points(monkeypatch)
    rep = check_cross_terms(prof_case2, deltas)
    got = [[float(u).hex(), float(v).hex()]
           for u, v in zip(rep.samples["u_cross"], rep.samples["v_cross"])]
    assert got == want
    assert calls == {"integrate": 3}
    assert points == {"bubble": 3 * quad.n_points, "lookup": 0}


def _count_points(monkeypatch):
    """Points passed to verify.bubble_uv and to PhiTable.eval_many, counted."""
    points = {"bubble": 0, "lookup": 0}

    def counted(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            points[key] += (out[0] if key == "bubble" else out).size
            return out
        monkeypatch.setattr(owner, name, wrapper)

    counted(verify, "bubble_uv", "bubble")
    counted(PhiTable, "eval_many", "lookup")
    return points


def test_gradient_energy_matches_two_call_reference(prof_sym, corr1_sym, consts_sym,
                                                    monkeypatch):
    """Each delta's two integrals are those of the integrand called on both halves
    of the mesh, by float.hex, from bubbles and lookups on the upper half alone."""
    deltas = (0.04, 0.02, 0.01)
    quad = get_quadrature(4, min(deltas))
    tab = corr1_sym.table(TABLE_REACH / min(deltas))
    want = [[float(v).hex() for v in gradient_integrals_two_calls(prof_sym, tab, quad, d)]
            for d in deltas]
    points = _count_points(monkeypatch)
    rep = check_gradient_expansion(prof_sym, corr1_sym, consts_sym, deltas)
    got = [[float(v).hex(), float(c).hex()]
           for v, c in zip(rep.samples["value"], rep.samples["bare_part"])]
    assert got == want
    # per delta: two bubbles and two lookups on each upper-half node
    assert points == {"bubble": 3 * quad.n_points, "lookup": 3 * quad.n_points}


def test_phi_pairing_matches_two_call_reference(prof_sym, corr1_sym, corr2_sym, consts_sym,
                                                monkeypatch):
    """Each delta's four pairings are those of the integrand that looks all four
    up again on the lower half, by float.hex, from one set of lookups."""
    deltas = (0.04, 0.02, 0.01)
    quad = get_quadrature(4, min(deltas))
    tab1, tab2 = (c.table(TABLE_REACH / min(deltas)) for c in (corr1_sym, corr2_sym))
    want = [[float(v).hex() for v in pairing_integrals_two_calls(prof_sym, tab1, tab2,
                                                                 quad, d)]
            for d in deltas]
    points = _count_points(monkeypatch)
    rep = check_phi_pairing(prof_sym, corr1_sym, corr2_sym, consts_sym, deltas)
    rows = ("matched_1", "matched_2", "crossed_1", "crossed_2")
    got = [[float(v).hex() for v in vals]
           for vals in zip(*(rep.samples[row] for row in rows))]
    assert got == want
    # per delta: the bubbles at +e_n and -e_n and four lookups on each upper-half node
    assert points == {"bubble": 3 * quad.n_points, "lookup": 6 * quad.n_points}


def test_report_record_serializable(prof_sym, consts_sym):
    rep = check_bubble_mass(prof_sym, consts_sym, (0.04, 0.02))
    text = json.dumps(rep.to_record(), sort_keys=True)
    back = json.loads(text)
    assert back["name"] == "bubble_mass"
    assert back["verdict"] in ("PASS", "FAIL")
