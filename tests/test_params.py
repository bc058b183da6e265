import numpy as np
import pytest

from laneemden.errors import DomainError
from laneemden.params import (CASE_BORDER, CASE_SUB, CASE_SUPER, ProblemParams,
                              check_condition_P, check_solvable, critical_exponent,
                              p_threshold, parse_exponent)


def test_critical_exponent_examples():
    assert critical_exponent(4, 3.0) == pytest.approx(3.0, abs=1e-14)
    # solve 1/3.5 + 1/(q+1) = 1/2 by hand: q = 11/3
    assert critical_exponent(4, 2.5) == pytest.approx(11.0 / 3.0, abs=1e-12)
    assert critical_exponent(5, 7.0 / 3.0) == pytest.approx(7.0 / 3.0, abs=1e-12)


def test_critical_exponent_domain_error():
    with pytest.raises(DomainError):
        critical_exponent(4, 1.0)  # (n-2)/n = 1/(p+1): no positive partner
    with pytest.raises(DomainError):
        critical_exponent(2, 3.0)


@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_hyperbola_residual_invariant(n):
    top = (n + 2.0) / (n - 2.0)
    for p in np.linspace(1.05, top, 40):
        pp = ProblemParams(n=n, p=float(p))
        resid = abs(1 / (pp.p + 1) + 1 / (pp.q + 1) - (n - 2) / n)
        assert resid < 1e-12
        assert pp.su + pp.sv == pytest.approx(n - 2.0, abs=1e-12)


def test_scaling_exponents_examples():
    pp = ProblemParams(n=4, p=3.0)
    assert pp.su == pytest.approx(1.0) and pp.sv == pytest.approx(1.0)
    pp = ProblemParams(n=4, p=2.5)
    assert pp.su == pytest.approx(6.0 / 7.0, abs=1e-12)
    assert pp.sv == pytest.approx(8.0 / 7.0, abs=1e-12)


def test_condition_P_examples():
    label, _ = check_condition_P(ProblemParams(n=4, p=2.5))
    assert label == "case_i"
    label, p4 = check_condition_P(ProblemParams(n=4, p=1.9))
    assert label == "case_ii"
    assert p4 == pytest.approx((9 + np.sqrt(33)) / 8, abs=1e-12)
    label, _ = check_condition_P(ProblemParams(n=4, p=1.5))
    assert label == "outside"


def test_condition_P_partition():
    n = 4
    pn = p_threshold(n)
    border = n / (n - 2.0)
    top = (n + 2.0) / (n - 2.0)
    prev = "outside"
    for p in np.linspace(1.02, top - 1e-9, 300):
        label, _ = check_condition_P(ProblemParams(n=n, p=float(p)))
        if p < pn:
            assert label == "outside"
        elif pn < p < border:
            assert label == "case_ii"
        elif border < p < top:
            assert label == "case_i"
        # labels change monotonically: outside -> case_ii -> case_i
        order = {"outside": 0, "case_ii": 1, "case_i": 2}
        assert order[label] >= order[prev] or label == prev
        prev = label


def test_case_tags():
    assert ProblemParams(n=4, p=2.5).case_tag == CASE_SUPER
    assert ProblemParams(n=4, p=1.9).case_tag == CASE_SUB
    assert ProblemParams(n=4, p=2.0).case_tag == CASE_BORDER


def test_check_solvable_admits_both_ranges_and_the_top():
    """The solver's refusal, which the CLI makes before its numerics load: the
    border p = n/(n-2) and p below p_n; case ii, case i and the top p = (n+2)/(n-2) pass."""
    for n in (4, 5, 6):
        border, top = n / (n - 2.0), (n + 2.0) / (n - 2.0)
        for p in (0.5 * (p_threshold(n) + border), 0.5 * (border + top), top):
            check_solvable(ProblemParams(n=n, p=p))
        for p in (border, 0.5 * (1.0 + p_threshold(n))):
            with pytest.raises(DomainError):
                check_solvable(ProblemParams(n=n, p=p))


def test_q_always_derived():
    pp = ProblemParams(n=4, p=2.5)
    assert pp.q == critical_exponent(4, 2.5)
    with pytest.raises(TypeError):
        ProblemParams(n=4, p=2.5, q=3.0)  # q is not an input


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        ProblemParams(n=3, p=3.0)
    with pytest.raises(DomainError):
        ProblemParams(n=4, p=0.9)
    with pytest.raises(DomainError):
        ProblemParams(n=4, p=3.2)
    for slope in ("alpha", "beta"):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                ProblemParams(n=4, p=3.0, **{slope: bad})


def test_parse_exponent():
    assert parse_exponent("11/3") == pytest.approx(11.0 / 3.0, abs=1e-16)
    assert parse_exponent("2.5") == 2.5
    assert parse_exponent(3) == 3.0
    # a zero denominator is a bad value, which the CLI turns into exit 2
    with pytest.raises(ValueError):
        parse_exponent("1/0")

