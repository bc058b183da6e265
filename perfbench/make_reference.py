"""Record the reference outputs the benchmark checks every pass against.

Usage, from the repository root:
    python3 perfbench/make_reference.py exponent-sweep cli-pipeline phi-tables verify-default

Each named workload gets perfbench/reference/<name>.json, computed in
process through the same library calls and CLI internals the passes use.
Run it on the commit whose outputs are the reference, and only there: a
later change is judged against these files, within the tolerances stated
in workloads.py.  verify-default takes minutes; the others about a minute.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from worker import phi_tables, sweep_pair  # noqa: E402


def check_record(rep):
    rec = rep.to_record()
    return {k: rec[k] for k in ("name", "verdict", "deviation", "tol")}


def exponent_sweep():
    from laneemden.params import p_threshold
    strata, pairs = {}, {}
    for n in (4, 5, 6):
        border, top = n / (n - 2.0), (n + 2.0) / (n - 2.0)
        for case, lo, hi in (("case_ii", p_threshold(n), border), ("case_i", border, top)):
            grid = [round(lo + (i + 0.5) * (hi - lo) / W.SWEEP_GRID, 4)
                    for i in range(W.SWEEP_GRID)]
            strata[f"{n}/{case}"] = grid
            for p in grid:
                try:
                    pairs[f"{n}/{p:g}"] = sweep_pair(n, p)
                except Exception as e:  # the failure is the recorded outcome
                    pairs[f"{n}/{p:g}"] = {"error": type(e).__name__}
                print(n, p, pairs[f"{n}/{p:g}"].get("error", "ok"), flush=True)
    return {"strata": strata, "pairs": pairs}


def cli_pipeline():
    from laneemden import cli, verify
    from laneemden.params import ProblemParams
    from laneemden.reduced import G, ReducedEnergy, d_star
    cfg = cli.RunConfig(n=4, p=W.PIPELINE_P, mesh_level=3,
                        checks=tuple(W.PIPELINE_CHECKS.split(",")))
    params, prof = cli._ground_state(cfg)
    consts = cli.compute_constants(prof)
    values = {k: getattr(consts, k) for k in W.CONST_KEYS}
    values["v0"] = prof.v0
    checks = [check_record(r) for r in cli.run_suite(cfg) if r.name != "exponent_taylor"]
    by_slopes = {}
    for a in W.SLOPES:
        for b in W.SLOPES:
            pp = ProblemParams(n=4, p=W.PIPELINE_P, alpha=a, beta=b)
            re = ReducedEnergy(constants=consts, n=4, p=pp.p, q=pp.q, alpha=a, beta=b)
            ds = d_star(re)
            by_slopes[W.slopes_key(a, b)] = {
                "d_star": ds, "G_at_d_star": G(re, ds),
                "exponent_taylor": check_record(verify.check_f_taylor(pp))}
    return {"values": values, "checks": checks, "by_slopes": by_slopes}


def phi_tables_ref():
    from laneemden.params import ProblemParams
    from laneemden.radial import find_ground_state, load_profile
    profiles, tables = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for p in W.FIXTURE_P:
            prof = find_ground_state(ProblemParams(n=4, p=p, alpha=1.0, beta=1.0))
            csv, side = Path(tmp) / f"{p:g}.csv", Path(tmp) / f"{p:g}.json"
            prof.to_csv(csv, side)
            profiles[f"{p:g}"] = {"v0": prof.v0}
            got = phi_tables(load_profile(csv, side), W.PHI_EXTENTS, W.PHI_M,
                             W.PHI_CHECK_POINTS)
            for key, rec in got.items():
                tables[f"{p:g}/{key}"] = {k: rec[k] for k in ("sum", "sample", "lookup",
                                                              "direct")}
    return {"profiles": profiles, "tables": tables}


def verify_default():
    from laneemden import cli
    return {"checks": [check_record(r) for r in cli.run_suite(cli.RunConfig())]}


PARTS = {"exponent-sweep": exponent_sweep, "cli-pipeline": cli_pipeline,
         "phi-tables": phi_tables_ref, "verify-default": verify_default}


def main(names):
    unknown = [n for n in names if n not in PARTS]
    if unknown or not names:
        print(f"usage: make_reference.py {' '.join(PARTS)}", file=sys.stderr)
        return 2
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        data = PARTS[name]()
        with open(W.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as f:
            json.dump(data, f, sort_keys=True, indent=1)
            f.write("\n")
        print(f"wrote reference/{name}.json", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
