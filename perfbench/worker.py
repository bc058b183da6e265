"""One process of a benchmark pass.

Usage: python3 perfbench/worker.py JOB.json RESULT.json SPAWN_TIME

The parent starts every worker fresh, as a user starts the CLI.  The worker
imports the program, reads its generated inputs, notes when set-up ended
(SPAWN_TIME is the parent's time.monotonic() just before the start, a
clock every process on the machine shares), optionally installs the
tracing wrappers, does its job and writes RESULT.json.
"""

from __future__ import annotations

import json
import sys
import time


def op_probe(job):
    import importlib.util
    import laneemden
    from laneemden import _accel
    return {"laneemden_file": laneemden.__file__, "using_numba": bool(_accel.USING_NUMBA),
            "numba_importable": importlib.util.find_spec("numba") is not None}


def op_cli(job):
    from laneemden import cli
    return {"rc": cli.main(list(job["argv"]))}


def sweep_pair(n, p):
    """Ground state, constants and d* at (n, p) with unit slopes."""
    from laneemden import constants, params, radial, reduced
    pp = params.ProblemParams(n=n, p=p, alpha=1.0, beta=1.0)
    prof = radial.find_ground_state(pp)
    c = constants.compute_constants(prof)
    re = reduced.ReducedEnergy(constants=c, n=n, p=pp.p, q=pp.q, alpha=1.0, beta=1.0)
    out = {k: float(getattr(c, k)) for k in ("A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2")}
    out.update(v0=float(prof.v0), d_star=float(reduced.d_star(re)))
    return out


def op_sweep(job):
    rows = []
    for n, p in job["pairs"]:
        t0 = time.perf_counter()
        try:
            row = sweep_pair(int(n), float(p))
        except Exception as e:  # every failure is an outcome the parent records
            row = {"error": type(e).__name__, "message": str(e)}
        row.update(n=n, p=p, wall_s=time.perf_counter() - t0)
        rows.append(row)
    return {"pairs": rows}


def phi_tables(prof, extents, m, check_points, lookups=0, lookup_seed=0):
    """Build each correction's tables, look them up, and sample them."""
    import numpy as np
    from laneemden import halfspace
    cs = np.array([c[0] for c in check_points], dtype=float)
    ct = np.array([c[1] for c in check_points], dtype=float)
    rng = np.random.default_rng(lookup_seed)
    out = {}
    for which in (halfspace.PHI1, halfspace.PHI2):
        corr = halfspace.HalfSpaceCorrection(prof, which)
        for ext in extents:
            tab = corr.table(ext, m=m)
            reused = corr.table(ext, m=m) is tab
            rec = {"reused": reused, "sum": float(np.sum(tab.tab)),
                   "sample": [float(v) for v in tab.tab[::max(1, tab.tab.size // 97)]],
                   "lookup": [float(v) for v in tab.eval_many(cs, ct)],
                   "direct": [float(v) for v in corr.eval_points(cs, ct)]}
            if lookups:
                vals = tab.eval_many(ext * rng.random(lookups), ext * rng.random(lookups))
                rec["lookups_finite"] = bool(np.all(np.isfinite(vals)))
            out[f"{which}/{ext:g}"] = rec
    return out


def op_phi(job):
    from laneemden import radial
    prof = radial.load_profile(job["profile_csv"], job["profile_json"])
    return {"tables": phi_tables(prof, job["extents"], job["m"], job["check_points"],
                                 job["lookups"], job["lookup_seed"])}


OPS = {"probe": op_probe, "cli": op_cli, "sweep": op_sweep, "phi": op_phi}


def main(argv):
    job_path, result_path, t_spawn = argv[1], argv[2], float(argv[3])
    import laneemden.cli  # noqa: F401  (the whole program, as the CLI loads it)
    with open(job_path, encoding="utf-8") as f:
        job = json.load(f)
    setup_s = time.monotonic() - t_spawn
    rec = None
    if job.get("trace"):
        import tracer
        rec = tracer.install()
    result = {"setup_s": setup_s}
    try:
        result["out"] = OPS[job["op"]](job)
    except Exception as e:  # recorded as the job's outcome
        result["error"] = type(e).__name__
        result["message"] = str(e)
    if rec is not None:
        result["spans"] = rec.spans
        result["counts"] = dict(rec.counts)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
