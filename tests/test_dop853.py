"""Oracles for laneemden._dop853: scipy's tableau, error scale, brentq and its
failure on a NaN right-hand side, bit for bit.

The stepper itself is checked end to end against solve_ivp in
test_radial.test_shoot_matches_solve_ivp.
"""

import numpy as np
import pytest

from laneemden import _dop853
from laneemden.errors import StepFailure

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

XTOL = RTOL = 4 * float(np.finfo(float).eps)  # as radial.shoot calls brentq


def test_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref
    for name in ("A", "B", "C", "E3", "E5", "D"):
        got, want = getattr(_dop853, name), getattr(ref, name)
        assert got.shape == want.shape and np.array_equal(got, want), name
    # the stages each step and each dense output reads, the extra rows 13-15 included
    for s, (c, a) in enumerate(_dop853.STAGES):
        assert c == ref.C[s] and np.array_equal(a, ref.A[s, :s]), s
    assert np.array_equal(_dop853.B, ref.A[ref.N_STAGES, :ref.N_STAGES])


coef = st.floats(-10.0, 10.0, allow_subnormal=False)


def _between(lo, hi, **exclude):
    return st.floats(lo, hi, allow_subnormal=False, **exclude)


def cubic(form, coefs):
    """k (x - r1)(x - r2)(x - r3) for form "roots", Horner's ((c0 x + c1) x + c2) x + c3."""
    if form == "roots":
        k, r1, r2, r3 = coefs
        return lambda x: k * (x - r1) * (x - r2) * (x - r3)
    c0, c1, c2, c3 = coefs
    return lambda x: ((c0 * x + c1) * x + c2) * x + c3


@st.composite
def cubic_brackets(draw):
    """(form, coefs, a, b): a cubic and a bracket a < b at whose ends it is zero or
    of opposite signs, by construction.  The sign of a float difference, product
    or sum is the sign of the exact one, or it is zero.

    Product form: [a, b] holds one root of the sorted three strictly inside and
    the others at most at its ends.  Horner form: c3 lies between -g(a) and -g(b)
    for g = ((c0 x + c1) x + c2) x, so g + c3 changes sign on [a, b].  end puts
    a root at a or at b.
    """
    form = draw(st.sampled_from(["roots", "horner"]))
    end = draw(st.sampled_from([None, "a", "b"]))
    if form == "roots":
        k = draw(coef)
        roots = sorted(r + 0.0 for r in draw(st.lists(coef, min_size=3, max_size=3)))  # no -0.0
        i = draw(st.integers(0, 2))
        root = roots[i]
        a = root if end == "a" else draw(_between(roots[i - 1] if i else -10.0, root))
        b = root if end == "b" else draw(_between(root, roots[i + 1] if i < 2 else 10.0))
        if a == b:  # f(a) = 0 either way, so any other end will do
            if end == "b":
                a = draw(_between(-11.0, b, exclude_max=True))
            else:
                b = draw(_between(a, 11.0, exclude_min=True))
        return form, (k, *roots), a, b
    c0, c1, c2 = draw(st.lists(coef, min_size=3, max_size=3))
    a = draw(_between(-10.0, 10.0, exclude_max=True))
    b = draw(_between(a, 10.0, exclude_min=True))
    ga, gb = (((c0 * x + c1) * x + c2) * x for x in (a, b))
    lo, hi = sorted((-ga, -gb))
    c3 = {"a": -ga, "b": -gb}.get(end)
    if c3 is None:
        c3 = min(max(lo + draw(_between(0.0, 1.0)) * (hi - lo), lo), hi)
    return form, (c0, c1, c2, c3), a, b


@settings(max_examples=300, deadline=None)
@given(case=cubic_brackets())
@example(case=("roots", (1.0, -3.0, 0.5, 2.0), 0.5, 1.0))
@example(case=("roots", (1.0, -3.0, 0.5, 2.0), 0.0, 2.0))
def test_brentq_is_scipys(case):
    """The port returns scipy.optimize.brentq's root to the last bit, on cubics
    in product and in Horner form, with roots inside and at an end of [a, b]."""
    from scipy.optimize import brentq
    form, coefs, a, b = case
    f = cubic(form, coefs)
    fa, fb = f(a), f(b)
    assert a < b and (fa == 0 or fb == 0 or (fa < 0) != (fb < 0))
    try:
        want = brentq(f, a, b, xtol=XTOL, rtol=RTOL)
    except RuntimeError:  # no convergence in 100 iterations, as on a triple root
        with pytest.raises(RuntimeError):
            _dop853.brentq(f, a, b, xtol=XTOL, rtol=RTOL)
        return
    got = _dop853.brentq(f, a, b, xtol=XTOL, rtol=RTOL)
    assert type(got) is float and got.hex() == want.hex()


def test_brentq_refuses_what_scipy_refuses():
    from scipy.optimize import brentq
    for f, a, b in ((lambda x: x * x + 1.0, -1.0, 1.0), (lambda x: float("nan"), 0.0, 1.0)):
        with pytest.raises(ValueError):
            brentq(f, a, b, xtol=XTOL, rtol=RTOL)
        with pytest.raises(ValueError):
            _dop853.brentq(f, a, b, xtol=XTOL, rtol=RTOL)


_component = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]))


@settings(max_examples=300, deadline=None)
@given(y=st.lists(_component, min_size=4, max_size=4),
       y_new=st.lists(_component, min_size=4, max_size=4),
       rtol=st.sampled_from([3e-14, 1e-10, 1e-4]))
@example(y=[1.0, np.nan, 2.0, -0.0], y_new=[np.nan, 1.0, -3.0, 0.0], rtol=3e-14)
def test_error_scale_is_numpys(y, y_new, rtol):
    """The float error scale, component by component, is scipy's numpy one bit
    for bit, NaN where either state is NaN in either argument position."""
    atol = max(rtol * 1e-4, 1e-16)
    with np.errstate(over="ignore"):
        want = atol + np.maximum(np.abs(np.array(y)), np.abs(np.array(y_new))) * rtol
    got = np.array([_dop853.error_scale(atol, rtol, a, b) for a, b in zip(y, y_new)])
    assert got.tobytes() == want.tobytes()


def _oscillators(r_bad, parts):
    """Two linear oscillators whose slopes named in parts are NaN from r_bad on."""
    def fun(t, y):
        f = [y[1], -y[0], y[3], -4.0 * y[2]]
        return [float("nan") if t >= r_bad and i in parts else float(v)
                for i, v in enumerate(f)]
    return fun


@pytest.mark.parametrize("r_bad, parts", [(0.3, (0, 1, 2, 3)), (0.3, (2,)), (2.5, (1,))])
def test_nan_stage_fails_where_scipys_loop_fails(r_bad, parts):
    """A right-hand side that turns NaN past r_bad rejects every step from there;
    the steps up to it, the radius of the StepFailure and its message are those
    of scipy's DOP853 loop."""
    from scipy.integrate import DOP853
    fun, y0 = _oscillators(r_bad, parts), (1.0, 0.0, 0.5, -0.25)
    ref = DOP853(fun, 0.0, np.array(y0), 10.0, rtol=1e-10, atol=1e-14)
    want = [ref.t]
    while ref.status == "running":
        message = ref.step()
        want.append(ref.t)
    assert ref.status == "failed" and 0 < ref.t < r_bad
    got = _dop853.DOP853(fun, 0.0, y0, 10.0, rtol=1e-10, atol=1e-14)
    ts = [got.t]
    with pytest.raises(StepFailure) as failure:
        while True:
            got.step()
            ts.append(got.t)
    assert ts == want[:-1] and got.t == ref.t
    assert str(failure.value) == f"integrator failed at r={ref.t:.4g}: {message}"
