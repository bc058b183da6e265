"""Per-layer spans and counters, recorded from outside the program.

`install()` replaces the public functions of each laneemden module with
wrappers that record a span (name, layer, start, end, parent span) and
count the work done at the same boundary.  Names that a module binds at
import (``from .radial import find_ground_state``) are replaced on the
importing module as well, so every call path is seen once.  Spans stay in
memory; the worker writes them out when its pass ends.
"""

from __future__ import annotations

import collections
import functools
import os
import time

# run_suite check name of each verify function
CHECK_FUNCTIONS = {
    "check_bubble_mass": "bubble_mass",
    "check_cross_terms": "cross_terms",
    "check_phi_pairing": "boundary_pairing",
    "check_gradient_expansion": "gradient_energy",
    "check_nonlinear_expansion": "nonlinear_energy",
    "check_kernel": "linearized_kernel",
    "check_scaling_table": "scaling_table",
    "check_f_taylor": "exponent_taylor",
    "check_norm_orders": "perturbed_norms",
}


class Recorder:
    """Spans as [name, layer, start, end, parent index] plus named counts."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []

    def wrap(self, layer, name, fn, enter=None, leave=None):
        """Wrap fn in a span; enter(args) runs first, leave(...) after success."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = enter(self.counts, args) if enter else None
            span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if leave:
                leave(self.counts, args, out, ctx, span)
            return out

        return wrapper


def _count(key):
    def enter(counts, args):
        counts[key] += 1
    return enter


def _shot(counts, args, res, ctx, span):
    counts["radial.shots"] += 1
    counts["radial.ode_steps"] += int(res.sol.t.size)
    counts["radial.rhs_evals"] += int(res.sol.nfev)


def _cache_size(attr):
    def enter(counts, args):
        return len(getattr(args[0], attr))
    return enter


def _table(counts, args, tab, before, span):
    if len(args[0]._tables) > before:
        counts["halfspace.table_builds"] += 1
        counts["halfspace.table_points"] += int(tab.tab.size)
        span[0] = "halfspace.table_build"
    else:
        counts["halfspace.table_hits"] += 1


def _lookup(counts, args, out, ctx, span):
    counts["halfspace.lookup_points"] += int(out.size)


def _bubble(counts, args, out, ctx, span):
    counts["ansatz.bubble_points"] += int(out[0].size)


def _mesh(cache):
    def enter(counts, args):
        return len(cache)

    def leave(counts, args, quad, before, span):
        if len(cache) > before:
            counts["ballquad.mesh_builds"] += 1
            span[0] = "ballquad.mesh_build"
        else:
            counts["ballquad.mesh_hits"] += 1
    return enter, leave


def _integral(counts, args):
    counts["ballquad.integrals"] += 1
    counts["ballquad.nodes"] += int(args[0].n_points)


def _verdict(counts, args, report, ctx, span):
    if report.verdict != "PASS":
        counts["verify.checks_failed"] += 1


def _written(counts, args, out, ctx, span):
    counts["reporting.files"] += 1
    counts["reporting.bytes"] += os.path.getsize(args[0])


def install():
    """Wrap the program's public functions; returns the Recorder."""
    import laneemden
    from laneemden import (ansatz, ballquad, cli, constants, halfspace, radial,
                           reporting, verify)

    rec = Recorder()

    def patch(owners, attr, layer, name, enter=None, leave=None):
        fn = getattr(owners[0], attr)
        w = rec.wrap(layer, name, fn, enter, leave)
        for owner in owners:
            if getattr(owner, attr, None) is fn:
                setattr(owner, attr, w)

    patch([radial, cli, laneemden], "find_ground_state", "radial",
          "radial.find_ground_state", enter=_count("radial.solves"))
    patch([radial, laneemden], "shoot", "radial", "radial.shoot", leave=_shot)
    patch([radial], "load_profile", "radial", "radial.load_profile")
    patch([constants, cli, laneemden], "compute_constants", "constants",
          "constants.compute_constants", enter=_count("constants.calls"))
    patch([halfspace.HalfSpaceCorrection], "table", "halfspace", "halfspace.table_hit",
          enter=_cache_size("_tables"), leave=_table)
    patch([halfspace.PhiTable], "eval_many", "halfspace", "halfspace.lookup",
          leave=_lookup)
    patch([ansatz.AnsatzField], "__init__", "ansatz", "ansatz.field",
          enter=_count("ansatz.fields"))
    patch([ansatz.AnsatzField], "eval_st", "ansatz", "ansatz.eval_st")
    patch([ansatz, verify], "bubble_uv", "ansatz", "ansatz.bubble_uv", leave=_bubble)
    enter, leave = _mesh(ballquad._MESH_CACHE)
    patch([ballquad, verify, laneemden], "get_quadrature", "ballquad",
          "ballquad.mesh_hit", enter=enter, leave=leave)
    patch([ballquad.BallQuadrature], "integrate", "ballquad", "ballquad.integrate",
          enter=_integral)
    for fname, check in CHECK_FUNCTIONS.items():
        patch([verify], fname, "verify", f"verify.{check}", leave=_verdict)
    patch([cli], "main", "cli", "cli.main", enter=_count("cli.commands"))
    patch([cli], "run_suite", "cli", "cli.run_suite")
    for fname in ("write_json", "write_csv"):
        patch([reporting, cli], fname, "reporting", f"reporting.{fname}", leave=_written)
    return rec
