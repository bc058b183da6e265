"""Hypothesis strategies that more than one test module draws from."""

from hypothesis import strategies as st

from laneemden.params import p_threshold


@st.composite
def admissible(draw):
    """(n, p) with p in either coupling range: p_n < p < (n+2)/(n-2), p != n/(n-2)."""
    n = draw(st.integers(4, 8))
    p = draw(st.floats(p_threshold(n), (n + 2.0) / (n - 2.0),
                       exclude_min=True, exclude_max=True)
             .filter(lambda p: p != n / (n - 2.0)))
    return n, p
