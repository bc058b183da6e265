"""Property tests over random inputs for the half-space kernel."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from laneemden.halfspace import panel_edges  # noqa: E402

coords = st.one_of(st.just(0.0), st.floats(0.0, 1e4))


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
