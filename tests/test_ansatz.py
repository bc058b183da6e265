import dataclasses

import numpy as np
import pytest

from laneemden import ansatz
from laneemden.ansatz import (PW1_APPROX, PW2_APPROX, TABLE_REACH, W1, W2,
                              AnsatzField, bubble_eval, bubble_uv,
                              symmetry_and_compatibility_check)
from laneemden.ballquad import BallQuadrature, get_quadrature
from laneemden.errors import DomainError, QuadratureAsymmetry
from laneemden.halfspace import PHI1, PHI2, HalfSpaceCorrection, PhiTable

# extent 220 covers every delta >= 0.01; the session corrections already
# build these tables for the acceptance checks at the default deltas
EXT = TABLE_REACH / 0.01


def test_bubble_center_values(prof_sym):
    delta = 0.1
    e4 = np.array([0.0, 0.0, 0.0, 1.0])
    U, V = bubble_eval(prof_sym, e4, delta, e4)
    assert U == pytest.approx(delta ** -1.0, rel=1e-12)
    assert V == pytest.approx(delta ** -1.0 * prof_sym.v0, rel=1e-12)


def test_bubble_scaling_identity(prof_case1):
    # first component at (xi, 2 delta, xi + 2 delta e) is 2^{-su} times
    # the value at (xi, delta, xi + delta e): exact scaling of the family
    su = prof_case1.params.n / (prof_case1.params.q + 1.0)
    xi = np.zeros(4)
    e = np.array([1.0, 0.0, 0.0, 0.0])
    delta = 0.07
    u1, _ = bubble_eval(prof_case1, xi, delta, xi + delta * e)
    u2, _ = bubble_eval(prof_case1, xi, 2 * delta, xi + 2 * delta * e)
    assert u2 == pytest.approx(2.0 ** -su * u1, rel=1e-14)


def test_bubble_closed_form_point(prof_sym):
    e4 = np.array([0.0, 0.0, 0.0, 1.0])
    x = e4 + np.array([0.1, 0.0, 0.0, 0.0])
    U, _ = bubble_eval(prof_sym, e4, 0.1, x)
    assert U == pytest.approx(10.0 * 8.0 / 9.0, rel=1e-7)


@pytest.fixture(scope="module")
def fields_sym(prof_sym, corr1_sym, corr2_sym):
    delta = 0.1
    return {
        W1: AnsatzField(prof_sym, W1, delta),
        W2: AnsatzField(prof_sym, W2, delta),
        PW1_APPROX: AnsatzField(prof_sym, PW1_APPROX, delta, table=corr1_sym.table(EXT)),
        PW2_APPROX: AnsatzField(prof_sym, PW2_APPROX, delta, table=corr2_sym.table(EXT)),
    }


def test_equator_zero(fields_sym):
    s = np.linspace(0.0, 0.98, 12)
    t = np.zeros_like(s)
    for fld in fields_sym.values():
        assert np.all(fld.eval_st(s, t) == 0.0)


def test_oddness_exact(fields_sym):
    s = np.linspace(0.0, 0.9, 9)
    t = np.linspace(0.05, 0.9, 9)
    for fld in fields_sym.values():
        assert np.array_equal(fld.eval_st(s, -t), -fld.eval_st(s, t))


def test_first_bubble_dominates_near_pole(prof_sym, corr1_sym):
    # at x = 0.9 e_n all correction pieces scale like the local bubble
    # value itself (first order in delta), so the relative gap levels off
    # near 6% rather than vanishing; the near bubble still dominates
    delta = 0.05
    fld = AnsatzField(prof_sym, PW1_APPROX, delta, table=corr1_sym.table(EXT))
    x = np.array([0.0, 0.0, 0.0, 0.9])
    got = fld.eval_st(np.array([0.0]), np.array([0.9]))[0]
    U, _ = bubble_eval(prof_sym, np.array([0, 0, 0, 1.0]), delta, x)
    assert got == pytest.approx(U, rel=0.10)
    far, _ = bubble_eval(prof_sym, np.array([0, 0, 0, -1.0]), delta, x)
    assert abs(far) < 0.01 * U


def test_symmetry_and_compatibility(fields_sym):
    quad = get_quadrature(4, 0.025)
    res = symmetry_and_compatibility_check(fields_sym[W1], quad)
    assert res["mean"] == 0.0
    assert res["signed_power_mean"] == 0.0
    res = symmetry_and_compatibility_check(fields_sym[PW2_APPROX], quad)
    assert res["mean"] == 0.0


def test_shifted_pair_fails_compatibility(prof_sym):
    # negative control: a single off-centre bubble has nonzero mean
    class Shifted:
        profile = prof_sym
        kind = W1

        def eval_st(self, s, t):
            d = np.sqrt(s ** 2 + (t - 0.9) ** 2) / 0.1
            return 0.1 ** -1.0 * prof_sym.eval_many(d)[0]

    quad = get_quadrature(4, 0.025)
    with pytest.raises(QuadratureAsymmetry):
        symmetry_and_compatibility_check(Shifted(), quad)


def test_projection_gap_bound_shape(prof_sym, corr1_sym, prof_case2, corr1_case2):
    """|PW - W| along the axis follows delta^(1-su) (1+|x-e_n|/delta)^-(n-3)
    (exponent (n-2)p-3 in the subcritical coupling range)."""
    for prof, corr, kappa in ((prof_sym, corr1_sym, 1.0),
                              (prof_case2, corr1_case2, 0.8)):
        su = prof.params.n / (prof.params.q + 1.0)
        ratios = []
        for delta in (0.1, 0.05):
            fld = AnsatzField(prof, PW1_APPROX, delta, table=corr.table(EXT))
            t = 1.0 - np.geomspace(2 * delta, 0.5, 8)
            s = np.zeros_like(t)
            gap = np.abs(fld.correction_st(s, t))
            envelope = delta ** (1.0 - su) * (1.0 + (1.0 - t) / delta) ** -kappa
            ratios.append(gap / envelope)
        ratios = np.concatenate(ratios)
        assert ratios.max() < 10 * ratios.min()


def test_delta_derivative_order_bump(prof_sym, corr1_sym):
    """d/d delta of the correction carries one less power of delta.

    Checked two ways: the envelope delta^-su (1 + |x-e_n|/delta)^-(n-3)
    bounds the derivative with an O(1) constant at fixed bubble-scale
    offsets k, and at a fixed point the ratio |d corr| * delta / |corr|
    stays O(1) as delta halves."""
    su = 1.0
    ks = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    sup_norm = []
    order_ratio = []
    x_fix = np.array([0.0]), np.array([0.9])
    tab = corr1_sym.table(EXT)
    for delta in (0.1, 0.05, 0.025):
        h = 1e-3 * delta
        up = AnsatzField(prof_sym, PW1_APPROX, delta + h, table=tab)
        dn = AnsatzField(prof_sym, PW1_APPROX, delta - h, table=tab)
        mid = AnsatzField(prof_sym, PW1_APPROX, delta, table=tab)
        t = 1.0 - ks * delta
        s = np.zeros_like(t)
        dd = (up.correction_st(s, t) - dn.correction_st(s, t)) / (2 * h)
        sup_norm.append(np.max(np.abs(dd) * delta ** su * (1.0 + ks) ** 1.0))
        s_f, t_f = x_fix
        dfix = (up.correction_st(s_f, t_f) - dn.correction_st(s_f, t_f)) / (2 * h)
        order_ratio.append(abs(dfix[0]) * delta / abs(mid.correction_st(s_f, t_f)[0]))
    assert max(sup_norm) < 6.0
    assert all(0.05 < r < 5.0 for r in order_ratio)


def test_delta_cap(prof_sym, corr1_sym):
    tab = corr1_sym.table(EXT)
    with pytest.raises(DomainError):
        AnsatzField(prof_sym, W1, 0.3)
    with pytest.raises(DomainError, match="needs a phi table"):
        AnsatzField(prof_sym, PW1_APPROX, 0.1)
    with pytest.raises(DomainError, match="takes no phi table"):
        AnsatzField(prof_sym, W1, 0.1, table=tab)
    # extent 220 reaches 2/delta for delta >= 1/110, not for delta = 0.009
    AnsatzField(prof_sym, PW1_APPROX, 0.01, table=tab)
    with pytest.raises(DomainError, match="extent"):
        AnsatzField(prof_sym, PW1_APPROX, 0.009, table=tab)


def test_field_takes_only_its_own_correction(prof_case1):
    """At p = 2.5 phi1 and phi2 differ: PW1 takes phi1's table and PW2 phi2's."""
    tabs = {w: HalfSpaceCorrection(prof_case1, w).table(30.0, m=41) for w in (PHI1, PHI2)}
    with pytest.raises(DomainError, match="needs a PHI1 table"):
        AnsatzField(prof_case1, PW1_APPROX, 0.1, table=tabs[PHI2])
    with pytest.raises(DomainError, match="needs a PHI2 table"):
        AnsatzField(prof_case1, PW2_APPROX, 0.1, table=tabs[PHI1])
    # at 0.9 e_n phi2's table would give 0.6213
    fld = AnsatzField(prof_case1, PW1_APPROX, 0.1, table=tabs[PHI1])
    assert fld.correction_st(np.array([0.0]), np.array([0.9]))[0] == pytest.approx(0.7775, abs=1e-4)
    AnsatzField(prof_case1, PW2_APPROX, 0.1, table=tabs[PHI2])


def test_eval_st_evaluates_only_its_component(prof_sym, corr2_sym, monkeypatch):
    """W1 asks the profile for U alone and PW2 for V alone, once per bubble."""
    s, t = np.array([0.1, 0.3]), np.array([0.5, -0.2])
    fields = {"U": AnsatzField(prof_sym, W1, 0.1),
              "V": AnsatzField(prof_sym, PW2_APPROX, 0.1, table=corr2_sym.table(EXT))}
    want = {part: fld.eval_st(s, t) for part, fld in fields.items()}
    real, calls = ansatz.profile_eval, []

    def recording(r, pack, parts):
        calls.append(parts)
        return real(r, pack, parts)

    monkeypatch.setattr(ansatz, "profile_eval", recording)
    for part, fld in fields.items():
        calls.clear()
        assert np.array_equal(fld.eval_st(s, t), want[part])
        assert calls == [(part,)] * 2


def test_bubble_uv_scales_profile_bitwise(prof_case1):
    """At p = 2.5, su != sv: U carries delta^-su and V delta^-sv."""
    s = np.array([0.0, 0.2, 0.5, 0.9])
    t = np.array([0.9, 0.6, 0.0, -0.3])
    delta = 0.05
    pp = prof_case1.params
    U, _, V, _ = prof_case1.eval_many(np.sqrt(s * s + (t - 1.0) * (t - 1.0)) / delta)
    got_u, got_v = bubble_uv(s, t, 1.0, delta, prof_case1, ("U", "V"))
    assert np.array_equal(got_u, delta ** -pp.su * U)
    assert np.array_equal(got_v, delta ** -pp.sv * V)
    (only_v,) = bubble_uv(s, t, 1.0, delta, prof_case1, ("V",))
    assert np.array_equal(only_v, got_v)


def test_array_holders_compare_by_identity(prof_sym):
    """== on two array-holding records with equal content answers False, not ValueError."""
    pairs = [(PhiTable(1.0, 4, 0.1, np.arange(16.0), PHI1),
              PhiTable(1.0, 4, 0.1, np.arange(16.0), PHI1)),
             (BallQuadrature(4, 0.2), BallQuadrature(4, 0.2)),
             (prof_sym, dataclasses.replace(prof_sym)),
             (HalfSpaceCorrection(prof_sym, PHI1), HalfSpaceCorrection(prof_sym, PHI1)),
             (AnsatzField(prof_sym, W1, 0.1), AnsatzField(prof_sym, W1, 0.1))]
    for a, b in pairs:
        assert a != b and not a == b
        assert a == a and b == b
        assert {a, b} == {b, a} and len({a, b}) == 2
