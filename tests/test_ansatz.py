import dataclasses

import numpy as np
import pytest

from laneemden import ansatz
from laneemden.ansatz import TABLE_REACH, AnsatzField, bubble_uv
from laneemden.ballquad import BallQuadrature, get_quadrature
from laneemden.errors import DomainError
from laneemden.halfspace import PHI1, PHI2, HalfSpaceCorrection, PhiTable

# extent 220 covers every delta >= 0.01; the session corrections already
# build these tables for the acceptance checks at the default deltas
EXT = TABLE_REACH / 0.01


def test_bubble_center_values(prof_sym):
    delta = 0.1
    U, V = bubble_uv(np.array([0.0]), np.array([1.0]), 1.0, delta, prof_sym, ("U", "V"))
    assert U[0] == pytest.approx(delta ** -1.0, rel=1e-12)
    assert V[0] == pytest.approx(delta ** -1.0 * prof_sym.v0, rel=1e-12)


def test_bubble_scaling_identity(prof_case1):
    # first component at (xi, 2 delta, xi + 2 delta e) is 2^{-su} times
    # the value at (xi, delta, xi + delta e): exact scaling of the family
    su = prof_case1.params.n / (prof_case1.params.q + 1.0)
    delta = 0.07
    t = np.array([0.0])
    (u1,) = bubble_uv(np.array([delta]), t, 0.0, delta, prof_case1, ("U",))
    (u2,) = bubble_uv(np.array([2 * delta]), t, 0.0, 2 * delta, prof_case1, ("U",))
    assert u2[0] == pytest.approx(2.0 ** -su * u1[0], rel=1e-14)


def test_bubble_closed_form_point(prof_sym):
    (U,) = bubble_uv(np.array([0.1]), np.array([1.0]), 1.0, 0.1, prof_sym, ("U",))
    assert U[0] == pytest.approx(10.0 * 8.0 / 9.0, rel=1e-7)


def bare_pair(prof, delta, part):
    """The bubble at +e_n less the one at -e_n, as check_gradient_expansion forms it."""
    def f(s, t):
        (plus,) = bubble_uv(s, t, 1.0, delta, prof, (part,))
        (minus,) = bubble_uv(s, t, -1.0, delta, prof, (part,))
        return plus - minus
    return f


@pytest.fixture(scope="module")
def fields_sym(prof_sym, corr1_sym, corr2_sym):
    """The bare U and V pairs and PW1, PW2 at delta = 0.1, as functions of (s, t)."""
    delta = 0.1
    return {"U pair": bare_pair(prof_sym, delta, "U"), "V pair": bare_pair(prof_sym, delta, "V"),
            "PW1": AnsatzField(prof_sym, delta, corr1_sym.table(EXT)).eval_st,
            "PW2": AnsatzField(prof_sym, delta, corr2_sym.table(EXT)).eval_st}


def test_equator_zero(fields_sym):
    s = np.linspace(0.0, 0.98, 12)
    t = np.zeros_like(s)
    for name, f in fields_sym.items():
        assert np.all(f(s, t) == 0.0), name


def test_oddness_exact(fields_sym):
    s = np.linspace(0.0, 0.9, 9)
    t = np.linspace(0.05, 0.9, 9)
    for name, f in fields_sym.items():
        assert np.array_equal(f(s, -t), -f(s, t)), name


def test_first_bubble_dominates_near_pole(prof_sym, corr1_sym):
    # at x = 0.9 e_n all correction pieces scale like the local bubble
    # value itself (first order in delta), so the relative gap levels off
    # near 6% rather than vanishing; the near bubble still dominates
    delta = 0.05
    fld = AnsatzField(prof_sym, delta, corr1_sym.table(EXT))
    s, t = np.array([0.0]), np.array([0.9])
    got = fld.eval_st(s, t)[0]
    (U,) = bubble_uv(s, t, 1.0, delta, prof_sym, ("U",))
    assert got == pytest.approx(U[0], rel=0.10)
    (far,) = bubble_uv(s, t, -1.0, delta, prof_sym, ("U",))
    assert abs(far[0]) < 0.01 * U[0]


def test_symmetry_and_compatibility(fields_sym, prof_sym):
    """The zero-average condition: the integrals over the ball of each field and of
    its signed power (q for the U fields, p for the V fields) come out exactly 0.0,
    while a single bubble's do not."""
    quad = get_quadrature(4, 0.025)
    pp = prof_sym.params
    power = {"U pair": pp.q, "V pair": pp.p, "PW1": pp.q, "PW2": pp.p}

    def integrands(s, t):
        rows = []
        for name, f in fields_sym.items():
            v = f(s, t)
            rows += [v, np.sign(v) * np.abs(v) ** power[name]]
        return rows

    assert quad.integrate(integrands).tolist() == [0.0] * 8
    assert quad.integrate(lambda s, t: bubble_uv(s, t, 1.0, 0.1, prof_sym, ("U",))[0]) > 0.0


def test_projection_gap_bound_shape(prof_sym, corr1_sym, prof_case2, corr1_case2):
    """|PW1 - U pair| along the axis follows delta^(1-su) (1+|x-e_n|/delta)^-(n-3)
    (exponent (n-2)p-3 in the subcritical coupling range)."""
    for prof, corr, kappa in ((prof_sym, corr1_sym, 1.0),
                              (prof_case2, corr1_case2, 0.8)):
        su = prof.params.n / (prof.params.q + 1.0)
        ratios = []
        for delta in (0.1, 0.05):
            fld = AnsatzField(prof, delta, corr.table(EXT))
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
        up = AnsatzField(prof_sym, delta + h, tab)
        dn = AnsatzField(prof_sym, delta - h, tab)
        mid = AnsatzField(prof_sym, delta, tab)
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
    with pytest.raises(DomainError, match="outside"):
        AnsatzField(prof_sym, 0.3, tab)
    # extent 220 reaches 2/delta for delta >= 1/110, not for delta = 0.009
    AnsatzField(prof_sym, 0.01, tab)
    with pytest.raises(DomainError, match="extent"):
        AnsatzField(prof_sym, 0.009, tab)


def test_field_takes_only_its_own_correction(prof_case1):
    """At p = 2.5 phi1 and phi2 differ, and so do su and sv: the PHI1 table makes
    PW1, the U pair plus phi1's correction at delta^(1-su), and the PHI2 table
    makes PW2, the V pair plus phi2's correction at delta^(1-sv)."""
    tabs = {w: HalfSpaceCorrection(prof_case1, w).table(30.0, m=41) for w in (PHI1, PHI2)}
    s, t = np.array([0.0, 0.3]), np.array([0.9, -0.4])
    # at 0.9 e_n phi2's table at delta^(1-su) would give 0.6213
    for which, part, want in ((PHI1, "U", 0.7775), (PHI2, "V", 1.1995)):
        fld = AnsatzField(prof_case1, 0.1, tabs[which])
        corr = fld.correction_st(s, t)
        assert corr[0] == pytest.approx(want, abs=1e-4)
        assert np.array_equal(fld.eval_st(s, t), bare_pair(prof_case1, 0.1, part)(s, t) + corr)


def test_eval_st_evaluates_only_its_component(prof_sym, corr1_sym, corr2_sym, monkeypatch):
    """PW1 asks the profile for U alone and PW2 for V alone, once per bubble."""
    s, t = np.array([0.1, 0.3]), np.array([0.5, -0.2])
    fields = {"U": AnsatzField(prof_sym, 0.1, corr1_sym.table(EXT)),
              "V": AnsatzField(prof_sym, 0.1, corr2_sym.table(EXT))}
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


def test_array_holders_compare_by_identity(prof_sym, corr1_sym):
    """== on two array-holding records with equal content answers False, not ValueError."""
    pairs = [(PhiTable(1.0, 4, 0.1, np.arange(16.0), PHI1),
              PhiTable(1.0, 4, 0.1, np.arange(16.0), PHI1)),
             (BallQuadrature(4, 0.2), BallQuadrature(4, 0.2)),
             (prof_sym, dataclasses.replace(prof_sym)),
             (HalfSpaceCorrection(prof_sym, PHI1), HalfSpaceCorrection(prof_sym, PHI1)),
             (AnsatzField(prof_sym, 0.1, corr1_sym.table(EXT)),
              AnsatzField(prof_sym, 0.1, corr1_sym.table(EXT)))]
    for a, b in pairs:
        assert a != b and not a == b
        assert a == a and b == b
        assert {a, b} == {b, a} and len({a, b}) == 2
