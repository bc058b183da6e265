"""Shared fixtures: ground states and corrections are expensive, solve once."""

import numpy as np
import pytest

from laneemden import ProblemParams, find_ground_state
from laneemden.constants import compute_constants
from laneemden.halfspace import PHI1, PHI2, HalfSpaceCorrection


@pytest.fixture(scope="session")
def prof_sym():
    return find_ground_state(ProblemParams(n=4, p=3.0, alpha=1.0, beta=1.0))


@pytest.fixture(scope="session")
def prof_case1():
    return find_ground_state(ProblemParams(n=4, p=2.5, alpha=1.0, beta=1.0))


@pytest.fixture(scope="session")
def prof_case2():
    return find_ground_state(ProblemParams(n=4, p=1.9, alpha=1.0, beta=1.0))


@pytest.fixture(scope="session")
def consts_sym(prof_sym):
    return compute_constants(prof_sym)


@pytest.fixture(scope="session")
def consts_case1(prof_case1):
    return compute_constants(prof_case1)


@pytest.fixture(scope="session")
def consts_case2(prof_case2):
    return compute_constants(prof_case2)


@pytest.fixture(scope="session")
def corr1_sym(prof_sym):
    return HalfSpaceCorrection(prof_sym, PHI1)


@pytest.fixture(scope="session")
def corr2_sym(prof_sym):
    return HalfSpaceCorrection(prof_sym, PHI2)


@pytest.fixture(scope="session")
def corr1_case2(prof_case2):
    return HalfSpaceCorrection(prof_case2, PHI1)


@pytest.fixture(scope="session")
def corr2_case2(prof_case2):
    return HalfSpaceCorrection(prof_case2, PHI2)


def closed_form_bubble(n=4):
    """Independent oracle: the explicit symmetric-point ground state."""
    c = 1.0 / (n * (n - 2.0))
    m = (n - 2.0) / 2.0

    def u(r):
        r = np.asarray(r, dtype=float)
        return (1.0 + c * r * r) ** -m

    def du(r):
        r = np.asarray(r, dtype=float)
        return -2.0 * m * c * r * (1.0 + c * r * r) ** -(m + 1.0)

    return u, du
