"""Lane-Emden system ground states on the critical hyperbola, two-bubble
ansatz fields on the unit ball, and verification of their small-parameter
expansions."""

__version__ = "0.1.0"

import importlib
import os

# numpy's bundled OpenBLAS starts a thread pool sized to the cores when it
# loads, and its workers spin on the CPU between calls.  The package's largest
# BLAS calls are the `ker @ wg` gemvs of HalfSpaceCorrection.rule, one per kind
# and block, with at most 32 rows, too small to gain from a second thread; so
# the pool is one thread unless the caller has set OPENBLAS_NUM_THREADS.  This must run
# before any module of the package loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The public names, by the module that defines them.  A name is read from its
# module each time it is read here (PEP 562), so importing the package, or the
# CLI, loads no numerics until a command needs them.
_EXPORTS = {
    "params": ("ProblemParams", "critical_exponent"),
    "radial": ("RadialProfile", "find_ground_state", "shoot"),
    "halfspace": ("PHI1", "PHI2", "HalfSpaceCorrection"),
    "ansatz": ("AnsatzField",),
    "ballquad": ("BallQuadrature", "get_quadrature"),
    "constants": ("EnergyConstants", "compute_constants"),
    "reduced": ("ReducedEnergy", "G", "J_expansion", "d_star"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
