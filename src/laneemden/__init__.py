"""Lane-Emden system ground states on the critical hyperbola, two-bubble
ansatz fields on the unit ball, and verification of their small-parameter
expansions."""

__version__ = "0.1.0"

import os

# numpy's bundled OpenBLAS starts a thread pool sized to the cores when it
# loads, and its workers spin on the CPU between calls.  The package's largest
# BLAS calls are the `ker @ wg` gemvs of HalfSpaceCorrection.rule, one per kind
# and block, with at most 32 rows, too small to gain from a second thread; so
# the pool is one thread unless the caller has set OPENBLAS_NUM_THREADS.  This must run
# before the first import below loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .params import ProblemParams, check_condition_P, critical_exponent, scaling_exponents
from .radial import RadialProfile, TailFit, find_ground_state, fit_tail, shoot
from .halfspace import PHI1, PHI2, HalfSpaceCorrection
from .ansatz import AnsatzField, bubble_eval, symmetry_and_compatibility_check
from .ballquad import BallQuadrature, get_quadrature
from .constants import EnergyConstants, compute_constants
from .reduced import ReducedEnergy, G, J_expansion, d_star

__all__ = [
    "__version__",
    "ProblemParams", "check_condition_P", "critical_exponent", "scaling_exponents",
    "RadialProfile", "TailFit", "find_ground_state", "fit_tail", "shoot",
    "PHI1", "PHI2", "HalfSpaceCorrection",
    "AnsatzField", "bubble_eval", "symmetry_and_compatibility_check",
    "BallQuadrature", "get_quadrature",
    "EnergyConstants", "compute_constants",
    "ReducedEnergy", "G", "J_expansion", "d_star",
]
