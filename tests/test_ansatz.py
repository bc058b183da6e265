import numpy as np
import pytest

from laneemden.ansatz import (PW1_APPROX, PW2_APPROX, TABLE_REACH, W1, W2,
                              AnsatzField, bubble_eval,
                              symmetry_and_compatibility_check)
from laneemden.ballquad import get_quadrature
from laneemden.errors import DomainError, QuadratureAsymmetry


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
        PW1_APPROX: AnsatzField(prof_sym, PW1_APPROX, delta, phi1=corr1_sym),
        PW2_APPROX: AnsatzField(prof_sym, PW2_APPROX, delta, phi2=corr2_sym),
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
    fld = AnsatzField(prof_sym, PW1_APPROX, delta, phi1=corr1_sym)
    x = np.array([0.0, 0.0, 0.0, 0.9])
    got = fld.field_eval(x)
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
        symmetry_and_compatibility_check(Shifted(), quad, t_exponent=3.0)


def test_projection_gap_bound_shape(prof_sym, corr1_sym, prof_case2, corr1_case2):
    """|PW - W| along the axis follows delta^(1-su) (1+|x-e_n|/delta)^-(n-3)
    (exponent (n-2)p-3 in the subcritical coupling range)."""
    for prof, corr, kappa in ((prof_sym, corr1_sym, 1.0),
                              (prof_case2, corr1_case2, 0.8)):
        su = prof.params.n / (prof.params.q + 1.0)
        ratios = []
        for delta in (0.1, 0.05):
            fld = AnsatzField(prof, PW1_APPROX, delta, phi1=corr)
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
    ext = TABLE_REACH / 0.02
    ks = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    sup_norm = []
    order_ratio = []
    x_fix = np.array([0.0]), np.array([0.9])
    for delta in (0.1, 0.05, 0.025):
        h = 1e-3 * delta
        up = AnsatzField(prof_sym, PW1_APPROX, delta + h, phi1=corr1_sym,
                         table_extent=ext)
        dn = AnsatzField(prof_sym, PW1_APPROX, delta - h, phi1=corr1_sym,
                         table_extent=ext)
        mid = AnsatzField(prof_sym, PW1_APPROX, delta, phi1=corr1_sym,
                          table_extent=ext)
        t = 1.0 - ks * delta
        s = np.zeros_like(t)
        dd = (up.correction_st(s, t) - dn.correction_st(s, t)) / (2 * h)
        sup_norm.append(np.max(np.abs(dd) * delta ** su * (1.0 + ks) ** 1.0))
        s_f, t_f = x_fix
        dfix = (up.correction_st(s_f, t_f) - dn.correction_st(s_f, t_f)) / (2 * h)
        order_ratio.append(abs(dfix[0]) * delta / abs(mid.correction_st(s_f, t_f)[0]))
    assert max(sup_norm) < 6.0
    assert all(0.05 < r < 5.0 for r in order_ratio)


def test_delta_cap(prof_sym):
    with pytest.raises(DomainError):
        AnsatzField(prof_sym, W1, 0.3)
    with pytest.raises(DomainError):
        AnsatzField(prof_sym, PW1_APPROX, 0.1)  # missing correction


def test_field_eval_rejects_outside(prof_sym):
    fld = AnsatzField(prof_sym, W1, 0.1)
    with pytest.raises(DomainError):
        fld.field_eval(np.array([0.0, 0.0, 0.0, 1.5]))


def test_slice_export(tmp_path, prof_sym):
    fld = AnsatzField(prof_sym, W1, 0.1)
    path = tmp_path / "w1_slice.csv"
    fld.slice_to_csv(path, n_s=10, n_t=21)
    rows = path.read_text().splitlines()
    assert rows[0] == "s,t,value"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.all(data[:, 0] ** 2 + data[:, 1] ** 2 <= 1.0 + 1e-12)
    mirror = {(round(s, 12), round(t, 12)): v for s, t, v in data}
    for s, t, v in data:
        assert mirror[(round(s, 12), round(-t, 12))] == -v
