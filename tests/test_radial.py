import numpy as np
import pytest

from conftest import closed_form_bubble
from laneemden import ProblemParams, find_ground_state, fit_tail, shoot
from laneemden.errors import DomainError, WindowTooNarrow
from laneemden.radial import (DECAYING, U_HITS_ZERO, V_HITS_ZERO,
                              derivative_bound_constant, load_profile,
                              ode_residual)


def test_shoot_classification_sides():
    pp = ProblemParams(n=4, p=3.0)
    low = shoot(pp, 0.2, 1e3, tol=1e-10)
    high = shoot(pp, 5.0, 1e3, tol=1e-10)
    assert low.classification == V_HITS_ZERO
    assert high.classification == U_HITS_ZERO


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
    with pytest.raises(DomainError):
        shoot(pp, -1.0, 1e3)
    with pytest.raises(DomainError):
        shoot(pp, 1.0, 1e3, tol=1e-3)


def test_symmetric_point_oracle(prof_sym):
    u, du = closed_form_bubble(4)
    assert prof_sym.v0 == pytest.approx(1.0, abs=1e-6)
    r = np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 400)])
    U, dU, V, dV = prof_sym.eval_many(r)
    assert np.max(np.abs(U / u(r) - 1.0)) < 1e-6
    assert np.max(np.abs(V / u(r) - 1.0)) < 1e-6
    assert prof_sym.tail.a == pytest.approx(8.0, rel=1e-3)
    assert prof_sym.tail.b == pytest.approx(8.0, rel=1e-3)


def test_initial_conditions(prof_sym):
    U, dU, V, dV = prof_sym.evaluate(0.0)
    assert U == 1.0
    assert dU == 0.0
    assert V == pytest.approx(prof_sym.v0)
    assert dV == 0.0


def test_evaluate_closed_form_point(prof_sym):
    U = prof_sym.evaluate(2.0)[0]
    assert U == pytest.approx(2.0 / 3.0, rel=1e-7)


def test_tail_extrapolation_continuity(prof_sym):
    r_max = prof_sym.r_max
    below = prof_sym.evaluate(r_max * (1 - 1e-9))
    above = prof_sym.evaluate(r_max * (1 + 1e-9))
    for lo, hi in zip(below, above):
        assert hi == pytest.approx(lo, rel=1e-6)
    # far tail follows the anchored power law by construction
    U = prof_sym.evaluate(2 * r_max)[0]
    U_top = prof_sym.evaluate(r_max)[0]
    assert U == pytest.approx(U_top * 2.0 ** -prof_sym.tail.exp_U, rel=1e-12)


def test_monotone_positive(prof_sym, prof_case1, prof_case2):
    for prof in (prof_sym, prof_case1, prof_case2):
        assert np.all(prof.U > 0) and np.all(prof.V > 0)
        assert np.all(np.diff(prof.U[1:]) < 0)
        assert np.all(np.diff(prof.V[1:]) < 0)


def test_ode_residual(prof_sym, prof_case1, prof_case2):
    for prof in (prof_sym, prof_case1, prof_case2):
        assert ode_residual(prof) < 1e-5


def test_decay_exponents_case1(prof_case1):
    t = prof_case1.tail
    assert t.exp_U == pytest.approx(2.0, rel=0.01)
    assert t.exp_V == pytest.approx(2.0, rel=0.01)


def test_decay_exponents_case2(prof_case2):
    t = prof_case2.tail
    assert t.exp_U == pytest.approx(1.8, rel=0.02)
    assert t.exp_V == pytest.approx(2.0, rel=0.01)


def test_decay_relation_case2(prof_case2):
    # the two tail coefficients are slaved in the subcritical coupling range
    t = prof_case2.tail
    p = prof_case2.params.p
    lhs = t.b ** p
    rhs = t.a * (2 * p - 2.0) * (4.0 - 2.0 * p)
    assert abs(lhs - rhs) / lhs < 0.02


def test_derivative_bound_constant(prof_sym, prof_case2):
    # |r U' + n U/(q+1)| <= C U with C = 1 exactly at the symmetric point
    assert derivative_bound_constant(prof_sym) == pytest.approx(1.0, rel=1e-6)
    assert np.isfinite(derivative_bound_constant(prof_case2))


def test_border_and_outside_rejected():
    with pytest.raises(DomainError):
        find_ground_state(ProblemParams(n=4, p=2.0))
    with pytest.raises(DomainError):
        find_ground_state(ProblemParams(n=4, p=1.5))


def test_fit_tail_window_validation(prof_sym):
    with pytest.raises(WindowTooNarrow):
        fit_tail(prof_sym, (2e3, 1e4))
    with pytest.raises(DomainError):
        fit_tail(prof_sym, (1.0, 1e4))


def test_profile_roundtrip(tmp_path, prof_sym, prof_case2):
    # prof_case2 carries the two-term U tail (cu2 != 0)
    assert prof_case2.interp_pack.cu2 != 0.0
    for prof in (prof_sym, prof_case2):
        csv = tmp_path / "p.csv"
        side = tmp_path / "p.json"
        prof.to_csv(csv, side)
        back = load_profile(csv, side)
        r = np.geomspace(1e-2, 2e4, 50)
        for got, want in zip(back.eval_many(r), prof.eval_many(r)):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-300)
        assert back.v0 == prof.v0
        assert back.tail.a == prof.tail.a
        # 17 significant digits in the CSV make the pack round-trip exactly
        for key in prof.interp_pack._fields:
            got, want = getattr(back.interp_pack, key), getattr(prof.interp_pack, key)
            assert np.array_equal(got, want), key
