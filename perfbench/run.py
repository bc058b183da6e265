"""Benchmark of the laneemden package, driven through its public entry points.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one client: passes run one at a time, each job
of a pass in a fresh single-threaded worker process, as a user runs the
CLI.  With --trace 0 the run repeats untraced passes for about S seconds
and reports the end-to-end metrics of BENCHMARK.json as medians over the
passes.  With --trace 1 it runs the seed's first pass twice, untraced and
then with every public function of the program wrapped in a span, and
reports the per-layer metrics of the traced pass.  Every pass's outputs are
checked against perfbench/reference/.  A JSON record of the run (samples,
environment, failing inputs) is printed first and kept under .perfbench/;
the last line of output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import tracer
import workloads as W

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 1  # a set-up-only process; the passes' workers add more samples
DEADLINE_S = 170.0  # runs of the listed workloads end well inside 180 s
JOB_LIMIT_S = 900.0
LAYERS = ("radial", "constants", "halfspace", "ansatz", "ballquad", "verify", "cli",
          "reporting")


class Runner:
    """Runs the jobs of a pass one after another, each in a fresh worker."""

    def __init__(self, root, jobdir, deadline):
        self.root = root
        self.jobdir = jobdir
        self.deadline = deadline
        self.count = 0
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def _wait(self, proc):
        limit = JOB_LIMIT_S
        if self.deadline is not None:
            limit = min(limit, self.deadline - time.monotonic())
        timer = threading.Timer(max(limit, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def run_jobs(self, jobs, trace=False):
        """Run one pass; returns (worker results, pass statistics)."""
        results, setups = [], []
        cpu, rss = 0.0, 0
        t0 = time.monotonic()
        for job in jobs:
            stem = self.jobdir / f"{self.count:04d}"
            self.count += 1
            job_path, res_path = stem.with_suffix(".job.json"), stem.with_suffix(".out.json")
            job_path.write_text(json.dumps(dict(job, trace=trace)), encoding="utf-8")
            with open(stem.with_suffix(".log"), "w", encoding="utf-8") as log:
                t_spawn = time.monotonic()
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "worker.py"), str(job_path), str(res_path),
                     repr(t_spawn)],
                    cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=log,
                    stderr=subprocess.STDOUT)
                code, usage = self._wait(proc)
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss)
            try:
                res = json.loads(res_path.read_text(encoding="utf-8"))
                setups.append(res["setup_s"])
            except (OSError, ValueError, KeyError):
                res = {"error": "WorkerDied", "message": f"exit {code}, log {stem}.log"}
            res["exit_code"] = code
            results.append(res)
        stats = {"wall_s": time.monotonic() - t0, "cpu_s": cpu,
                 "peak_rss_mb": rss / 1024.0, "setup_s": setups, "traced": trace}
        return results, stats


def program_sha256(root):
    h = hashlib.sha256()
    for f in sorted((root / "src" / "laneemden").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def environment(probe):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in f
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "python": platform.python_version(), **versions,
            "numba_importable": probe.get("numba_importable"),
            "using_numba": probe.get("using_numba")}


def layer_values(results, wall):
    """Per-layer metrics of one traced pass from its workers' spans and counts."""
    counts, dur, self_name, self_layer = Counter(), Counter(), Counter(), Counter()
    for res in results:
        spans = res.get("spans", [])
        child = [0.0] * len(spans)
        for name, layer, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, layer, t0, t1, parent), covered in zip(spans, child):
            dur[name] += t1 - t0
            self_name[name] += t1 - t0 - covered
            self_layer[layer] += t1 - t0 - covered
        counts.update(res.get("counts", {}))
    v = {k: counts[k] for k in (
        "radial.solves", "radial.shots", "radial.ode_steps", "radial.rhs_evals",
        "constants.calls", "halfspace.table_builds", "halfspace.table_hits",
        "halfspace.table_points", "halfspace.lookup_points", "ansatz.fields",
        "ansatz.bubble_points", "ballquad.mesh_builds", "ballquad.mesh_hits",
        "ballquad.integrals", "ballquad.nodes", "verify.checks_failed", "cli.commands",
        "reporting.files", "reporting.bytes")}
    table_s = dur["halfspace.table_build"]
    v.update({
        "radial.solve_s": dur["radial.find_ground_state"],
        "constants.s": dur["constants.compute_constants"],
        "halfspace.table_s": table_s,
        "halfspace.points_per_s": counts["halfspace.table_points"] / table_s if table_s else 0.0,
        "halfspace.lookup_s": dur["halfspace.lookup"],
        "ansatz.bubble_s": dur["ansatz.bubble_uv"],
        "ballquad.mesh_s": dur["ballquad.mesh_build"],
        "ballquad.integrate_self_s": self_name["ballquad.integrate"],
        "reporting.write_s": dur["reporting.write_json"] + dur["reporting.write_csv"],
        "trace.pass_s": wall,
    })
    for check in tracer.CHECK_FUNCTIONS.values():
        v[f"verify.{check}_s"] = dur[f"verify.{check}"]
    for layer in LAYERS:
        v[f"{layer}.share"] = self_layer[layer] / wall
    v["other.share"] = 1.0 - sum(self_layer[layer] for layer in LAYERS) / wall
    return v


def describe(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "samples": len(values)}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "laneemden" / "cli.py").is_file():
        return fail(f"no program source at {root / 'src' / 'laneemden'}; "
                    "run from the root of a checkout")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in W.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {', '.join(W.WORKLOADS)}")
    listed = args.workload in {w["name"] for w in spec["workloads"]}

    t_start = time.monotonic()
    program = program_sha256(root)
    work = root / W.WORK
    jobdir = work / "jobs" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(jobdir, ignore_errors=True)
    jobdir.mkdir(parents=True)
    wl = W.WORKLOADS[args.workload](args.seed, work / "state" / program[:16])
    runner = Runner(root, jobdir, t_start + DEADLINE_S if listed else None)

    setups = []
    for _ in range(SETUP_PROBES):
        (probe,), stats = runner.run_jobs([{"op": "probe"}])
        setups += stats["setup_s"]
    where = probe.get("out", {}).get("laneemden_file", "")
    if not Path(where).resolve().is_relative_to((root / "src").resolve()):
        return fail(f"workers import laneemden from {where!r}, not from {root / 'src'}")

    ops = wl.prepare(runner.run_jobs)
    passes = []
    if args.trace:
        for traced in (False, True):
            results, stats = runner.run_jobs(wl.jobs(0), trace=traced)
            ops += wl.check(0, results)
            passes.append(stats)
        overhead = passes[1]["wall_s"] - passes[0]["wall_s"]
        values = layer_values(results, passes[1]["wall_s"])
        values["trace.overhead_s"] = overhead
    else:
        overhead = None
        t_measure = time.monotonic()
        while True:
            results, stats = runner.run_jobs(wl.jobs(len(passes)))
            ops += wl.check(len(passes), results)
            passes.append(stats)
            # one more pass if it ends nearer to S seconds than stopping now
            # would, so passes of any length fill about S seconds
            typical = statistics.median(p["wall_s"] for p in passes)
            now = time.monotonic()
            if now - t_measure + typical / 2 > args.seconds or (
                    runner.deadline is not None and now + typical > runner.deadline):
                break
        values = {k: statistics.median(p[k] for p in passes)
                  for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    setups += [s for p in passes for s in p["setup_s"]]

    failed = [o for o in ops if o["failed"]]
    unexpected = [o for o in failed if not o["known"]]
    fail_rate = len(failed) / len(ops) if ops else 1.0
    if args.trace:
        values["fail_rate"] = fail_rate
    else:
        values["setup_s"] = statistics.median(setups)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "seeded": wl.seeded, "program_sha256": program,
        "environment": dict(environment(probe.get("out", {})), trace_overhead_s=overhead),
        "passes": passes,
        "summary": {k: describe([p[k] for p in passes if not p["traced"]])
                    for k in ("wall_s", "cpu_s", "peak_rss_mb")},
        "setup_s": describe(setups),
        "operations": {"attempted": len(ops), "failed": len(failed),
                       "known_failures": len(failed) - len(unexpected),
                       "unexpected_failures": len(unexpected),
                       "fail_rate": fail_rate,
                       "failing": failed},
        "metrics": metrics,
        "run_s": time.monotonic() - t_start,
    }
    out_dir = work / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        pass_id = f"{args.workload}:{args.seed}:0:traced"
        spans = [dict(pass_id=pass_id, process=i, spans=r.get("spans", []))
                 for i, r in enumerate(results)]
        Path(f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps(record, indent=1))
    print(json.dumps({"correct": not unexpected, "attempted": len(ops),
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
