"""Hypothesis strategies that more than one test module draws from."""

from hypothesis import strategies as st

from laneemden.params import CASE_BORDER, ProblemParams, p_threshold


@st.composite
def admissible(draw):
    """(n, p) with p in either coupling range: p_n < p < (n+2)/(n-2), p outside the
    border band that ProblemParams tags CASE_BORDER."""
    n = draw(st.integers(4, 8))
    p = draw(st.floats(p_threshold(n), (n + 2.0) / (n - 2.0),
                       exclude_min=True, exclude_max=True)
             .filter(lambda p: ProblemParams(n=n, p=p).case_tag != CASE_BORDER))
    return n, p
