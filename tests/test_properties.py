"""Property tests over random inputs for the quadrature rules, the half-space
kernel and the two-bubble fields."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from laneemden.ansatz import (PW1_APPROX, PW2_APPROX, TABLE_REACH, W1, W2,  # noqa: E402
                              AnsatzField)
from laneemden.ballquad import gauss_panels  # noqa: E402
from laneemden.halfspace import panel_edges  # noqa: E402

coords = st.one_of(st.just(0.0), st.floats(0.0, 1e4))


@settings(max_examples=100, deadline=None)
@given(lo=st.floats(-3.0, 2.0), width=st.floats(1e-3, 3.0),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=7), k=st.sampled_from([4, 12, 20, 24]))
def test_gauss_panels_exact_on_monomials(lo, width, cuts, k):
    """k nodes per panel integrate x^m exactly for every m <= 2k - 1."""
    e = np.unique(lo + width * np.array([0.0, 1.0] + cuts))
    x, w = gauss_panels(e, k)
    assert x.shape == w.shape == (e.size - 1, k)
    m = np.arange(2 * k)
    got = np.sum(w[..., None] * x[..., None] ** m, axis=(0, 1))
    lo, hi = e[0], e[-1]
    exact = (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
    # bounds int |x|^m over [lo, hi], the size of the terms summed
    scale = (abs(hi) ** (m + 1) + abs(lo) ** (m + 1)) / (m + 1)
    assert np.all(np.abs(got - exact) <= 1e-12 * scale)


def panel_edges_loop(sig, tau, rho_big):
    """Reference: the edge builder written as scalar loops."""
    base = [0.0]
    lo, nlog = 1e-3, 40
    ratio = (rho_big / lo) ** (1.0 / nlog)
    v = lo
    for _ in range(nlog):
        base.append(v)
        v *= ratio
    base.append(rho_big)
    if sig > 0.0:
        w0 = tau
        floor = 1e-9 * (sig if sig > 1.0 else 1.0)
        if w0 < floor:
            w0 = floor
        half = 0.5
        while sig * half > 0.25 * w0:
            for x in (sig * (1.0 - half), sig * (1.0 + half)):
                if 0.0 < x < rho_big:
                    base.append(x)
            half *= 0.5
        if sig < rho_big:
            base.append(sig)
    out = []
    for x in sorted(base):
        if not out or x > out[-1] * (1.0 + 1e-14) + 1e-150:
            out.append(x)
    return np.array(out)


@settings(max_examples=300, deadline=None)
@given(sig=coords, tau=coords, scale=st.floats(1.0, 1e3))
def test_panel_edges_shape(sig, tau, scale):
    # rho_big as phi4_point chooses it: at least 60 (sigma + tau + 1)
    rho_big = 60.0 * (sig + tau + 1.0) * scale
    e = panel_edges(sig, tau, rho_big)
    assert e[0] == 0.0 and e[-1] == rho_big
    assert np.all(np.diff(e) > 0)
    assert e.size <= 105
    if 1e-150 < sig < rho_big:
        assert sig in e
    assert np.array_equal(e, panel_edges_loop(sig, tau, rho_big))


@settings(max_examples=60, deadline=None)
@given(sig=st.floats(0.0, 1e3), tau=st.floats(0.0, 1e3))
def test_phi_positive_and_finite(corr1_sym, corr2_sym, corr1_case2, sig, tau):
    for corr in (corr1_sym, corr2_sym, corr1_case2):
        v = corr.eval_points([sig], [tau])[0]
        assert np.isfinite(v) and v > 0.0


@settings(max_examples=50, deadline=None)
@given(rho=st.floats(0.0, 1.0), theta=st.floats(0.0, np.pi), delta=st.floats(0.01, 0.2))
def test_fields_odd_in_t(prof_sym, corr1_sym, corr2_sym, rho, theta, delta):
    """Every field kind is exactly odd under x_n -> -x_n over the half-disc."""
    s = np.array([rho * np.sin(theta)])
    t = np.array([rho * np.cos(theta)])
    # the extent-220 tables cover (1 +- t)/delta for every delta >= 0.01
    ext = TABLE_REACH / 0.01
    for kind in (W1, W2, PW1_APPROX, PW2_APPROX):
        fld = AnsatzField(prof_sym, kind, delta, phi1=corr1_sym, phi2=corr2_sym,
                          table_extent=ext)
        assert np.array_equal(fld.eval_st(s, -t), -fld.eval_st(s, t))
