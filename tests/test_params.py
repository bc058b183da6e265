import numpy as np
import pytest

from laneemden.errors import DomainError
from laneemden.params import (CASE_BORDER, CASE_SUB, CASE_SUPER, ProblemParams,
                              check_solvable, critical_exponent, p_threshold,
                              parse_exponent)


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


def _partition_inputs(n):
    """The p that the case split is tested on at n: a 300-point grid over
    (1, (n+2)/(n-2)), and n/(n-2), p_n and (n+2)/(n-2) with their neighbours
    1 to 4 ulps away that ProblemParams admits."""
    top = (n + 2.0) / (n - 2.0)
    ps = [float(p) for p in np.linspace(1.02, top - 1e-9, 300)]
    for x in (n / (n - 2.0), p_threshold(n), top):
        up = down = x
        ps.append(x)
        for _ in range(4):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            ps += [float(y) for y in (up, down) if y <= top]
    return ps


def _solvable(pp):
    try:
        check_solvable(pp)
    except DomainError:
        return False
    return True


def test_condition_P_examples():
    """Condition (P) at n = 4: p_4 = (9 + sqrt 33)/8 < p <= 3, p outside the
    border band around n/(n-2) = 2; p < 2 is SUB, p > 2 SUPER."""
    assert p_threshold(4) == pytest.approx((9 + np.sqrt(33)) / 8, abs=1e-12)
    for p, tag, solvable in ((2.5, CASE_SUPER, True), (1.9, CASE_SUB, True),
                             (1.5, CASE_SUB, False), (3.0, CASE_SUPER, True)):
        pp = ProblemParams(n=4, p=p)
        assert (pp.case_tag, _solvable(pp)) == (tag, solvable), p


def test_condition_P_partition():
    """case_tag is the one split of p: SUB below n/(n-2), SUPER above, BORDER within
    4 eps of it; check_solvable refuses exactly BORDER and p <= p_n, and admits the top."""
    for n in range(4, 9):
        border, pn, top = n / (n - 2.0), p_threshold(n), (n + 2.0) / (n - 2.0)
        for p in _partition_inputs(n):
            pp = ProblemParams(n=n, p=p)
            in_band = abs(p - border) <= 4 * np.finfo(float).eps * border
            assert pp.case_tag == (CASE_BORDER if in_band else
                                   CASE_SUB if p < border else CASE_SUPER), (n, p)
            assert _solvable(pp) == (not in_band and p > pn), (n, p)
        check_solvable(ProblemParams(n=n, p=top))


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

