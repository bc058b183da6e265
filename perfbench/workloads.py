"""The benchmark's workloads.

Each workload draws its inputs from the seed, lists the jobs of one pass
(one fresh worker process per job) and checks the pass's outputs against
the reference outputs in `reference/`.  Every attempted operation becomes
a record {op, input, outcome, failed, known, note}: `failed` for a nonzero
exit, a raised error, a FAIL verdict or an output outside tolerance;
`known` when the reference shows the same failure, so it is an outcome of
the program as recorded rather than a change in it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
WORK = Path(".perfbench")  # relative to the checkout root, where workers run

# Stated tolerances of the outputs against the reference.
V0_RTOL = 1e-9
CONST_RTOL = 1e-6
PHI_RTOL = 1e-6
DEV_SHARE_OF_TOL = 1e-3  # a check's deviation may move by this share of its tol

CONST_KEYS = ("A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2")
FIXTURE_P = (3.0, 2.5, 1.9)
SLOPES = (0.5, 1.0, 1.5, 2.0)
PIPELINE_P = 3.0
PIPELINE_CHECKS = "bubble_mass,cross_terms,linearized_kernel,scaling_table,exponent_taylor"
PHI_P = 3.0
PHI_EXTENTS = (220.0, 1100.0)
PHI_M = 41
PHI_LOOKUPS = 200_000
PHI_CHECK_POINTS = ((0.0, 0.0), (0.5, 0.1), (1.0, 1.0), (2.0, 0.5), (5.0, 5.0),
                    (10.0, 1.0), (30.0, 30.0), (100.0, 10.0), (150.0, 200.0), (200.0, 0.0))
SWEEP_GRID = 8  # exponents per admissible interval


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as f:
        return json.load(f)


def slopes_key(alpha, beta):
    return f"{alpha:g}/{beta:g}"


def op(name, inp, outcome="ok", failed=False, known=False, note=""):
    return {"op": name, "input": inp, "outcome": outcome, "failed": bool(failed),
            "known": bool(known), "note": note}


def rel_err(got, ref):
    return abs(got - ref) / max(abs(ref), 1e-300)


def mismatches(got, ref, keys, rtol):
    """Names of the values of `got` outside rtol of `ref`."""
    bad = []
    for k in keys:
        g, r = got.get(k), ref[k]
        if not isinstance(g, (int, float)) or not math.isfinite(g) or rel_err(g, r) > rtol:
            bad.append(f"{k}={g!r} vs {r!r}")
    return bad


def _leaves(v):
    if isinstance(v, dict):
        for k in sorted(v):
            yield from _leaves(v[k])
    elif isinstance(v, (list, tuple)):
        for x in v:
            yield from _leaves(x)
    elif isinstance(v, (int, float)) and not isinstance(v, bool):
        yield float(v)


def check_records(got, ref, inp):
    """Compare verify check records with the reference, matched by name and order."""
    ops = []
    refs = {}
    seen = Counter()
    for r in ref:
        refs[(r["name"], seen[r["name"]])] = r
        seen[r["name"]] += 1
    seen = Counter()
    for g in got:
        key = (g["name"], seen[g["name"]])
        seen[g["name"]] += 1
        r = refs.pop(key, None)
        name = f"check:{g['name']}"
        failed = g["verdict"] != "PASS"
        if r is None:
            ops.append(op(name, inp, g["verdict"], True, note="no reference record"))
        elif g["verdict"] != r["verdict"]:
            ops.append(op(name, inp, g["verdict"], True,
                          note=f"verdict {r['verdict']} in the reference"))
        else:
            lim = DEV_SHARE_OF_TOL * abs(r["tol"])
            gd, rd = list(_leaves(g["deviation"])), list(_leaves(r["deviation"]))
            if len(gd) != len(rd) or any(abs(a - b) > lim for a, b in zip(gd, rd)):
                ops.append(op(name, inp, "deviation moved", True,
                              note=f"deviation {g['deviation']} vs {r['deviation']}"))
            else:
                ops.append(op(name, inp, g["verdict"], failed, known=failed))
    for (name, _), r in refs.items():
        ops.append(op(f"check:{name}", inp, "missing", True, note="check not reported"))
    return ops


def tree_sha256(path):
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def job_outcome(res, ref_checks=()):
    """(outcome, failed, known) of one worker job from its result.

    A command exits 1 when a check fails; that is known when the reference
    records a failing check too.
    """
    if "error" in res:
        return res["error"], True, False
    rc = res.get("out", {}).get("rc", 0)
    if rc != 0:
        return f"exit {rc}", True, rc == 1 and any(r["verdict"] != "PASS" for r in ref_checks)
    return "ok", False, False


class Workload:
    """Base: one pass is a list of jobs; prepare() runs once per run, untimed."""

    name = ""
    seeded = True

    def __init__(self, seed, state_dir):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.state_dir = state_dir

    def prepare(self, run_jobs):
        return []

    def jobs(self, k):
        raise NotImplementedError

    def check(self, k, results):
        raise NotImplementedError


class ExponentSweep(Workload):
    """find_ground_state -> compute_constants -> d_star over exponent pairs."""

    name = "exponent-sweep"

    def __init__(self, seed, state_dir):
        super().__init__(seed, state_dir)
        self.ref = load_reference(self.name)

    def pairs(self, k):
        # one exponent from each admissible interval of each n, so every pass
        # covers the same strata and only the point inside each one varies
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        out = []
        for stratum, grid in sorted(self.ref["strata"].items()):
            n = int(stratum.split("/")[0])
            out.append([n, rng.choice(grid)])
        return out

    def jobs(self, k):
        return [{"op": "sweep", "pairs": self.pairs(k)}]

    def check(self, k, results):
        res = results[0]
        if "out" not in res:
            return [op("sweep", str(self.pairs(k)), res.get("error", "crash"), True)]
        ops = []
        for row in res["out"]["pairs"]:
            inp = f"n={row['n']},p={row['p']:g}"
            ref = self.ref["pairs"].get(f"{row['n']}/{row['p']:g}")
            name = "ground_state+constants+d_star"
            if ref is None:
                ops.append(op(name, inp, "unreferenced", True, note="input not in reference"))
            elif "error" in row:
                known = ref.get("error") == row["error"]
                ops.append(op(name, inp, row["error"], True, known,
                              note=row["message"][:120]))
            elif "error" in ref:
                ok = all(math.isfinite(row[k_]) for k_ in CONST_KEYS + ("v0", "d_star"))
                ops.append(op(name, inp, "ok" if ok else "non-finite", not ok,
                              note=f"reference failed with {ref['error']}"))
            else:
                bad = (mismatches(row, ref, ("v0",), V0_RTOL)
                       + mismatches(row, ref, CONST_KEYS + ("d_star",), CONST_RTOL))
                ops.append(op(name, inp, "outside tolerance" if bad else "ok", bool(bad),
                              note="; ".join(bad)))
        return ops


class CliPipeline(Workload):
    """Five CLI commands, each in a fresh process, sharing one --out directory."""

    name = "cli-pipeline"

    def __init__(self, seed, state_dir):
        super().__init__(seed, state_dir)
        self.ref = load_reference(self.name)
        self.alpha = self.rng.choice(SLOPES)
        self.beta = self.rng.choice(SLOPES)
        self.out = WORK / self.name / "out"

    def commands(self):
        common = ["--n", "4", "--p", f"{PIPELINE_P:g}", "--alpha", f"{self.alpha:g}",
                  "--beta", f"{self.beta:g}", "--out", str(self.out)]
        return [["ground-state"] + common, ["constants"] + common,
                ["reduced-energy"] + common,
                ["verify"] + common + ["--mesh-level", "3", "--checks", PIPELINE_CHECKS],
                ["report", "--out", str(self.out)]]

    def jobs(self, k):
        shutil.rmtree(self.out, ignore_errors=True)
        return [{"op": "cli", "argv": argv} for argv in self.commands()]

    def check(self, k, results):
        ref = self.ref
        sk = slopes_key(self.alpha, self.beta)
        inp = f"n=4,p={PIPELINE_P:g},alpha={self.alpha:g},beta={self.beta:g}"
        ops = []
        outputs = {
            "ground-state": (_read_json(self.out / "profile.json"), ("v0",), V0_RTOL),
            "constants": (_read_json(self.out / "constants.json"), CONST_KEYS, CONST_RTOL),
            "reduced-energy": (_read_json(self.out / "reduced_energy.json"),
                               ("d_star", "G_at_d_star"), CONST_RTOL),
        }
        expected = dict(ref["values"], **ref["by_slopes"][sk])
        refs = ref["checks"] + [ref["by_slopes"][sk]["exponent_taylor"]]
        for argv, res in zip(self.commands(), results):
            cmd = argv[0]
            outcome, failed, known = job_outcome(res, refs if cmd in ("verify", "report") else ())
            note = ""
            if cmd in outputs and not failed:
                got, keys, rtol = outputs[cmd]
                bad = mismatches(got, expected, keys, rtol)
                if bad:
                    outcome, failed, note = "outside tolerance", True, "; ".join(bad)
            if cmd == "report" and not failed:
                rep = _read_json(self.out / "report.json")
                if rep.get("n_checks") != len(ref["checks"]) + 1:
                    outcome, failed, note = "wrong record count", True, str(rep.get("n_checks"))
            ops.append(op(cmd, inp, outcome, failed, known and not note, note))
        summary = _read_json(self.out / "summary.json")
        ops += check_records(summary.get("checks", []), refs, inp)
        ops.append(self._determinism(inp))
        return ops

    def _determinism(self, inp):
        """Byte-identity of the output tree against every earlier pass on this input."""
        digest = tree_sha256(self.out)
        path = self.state_dir / f"{self.name}-{self.alpha:g}-{self.beta:g}.sha256"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(digest + "\n", encoding="utf-8")
            return op("output-bytes", inp, "recorded")
        first = path.read_text(encoding="utf-8").strip()
        if first != digest:
            return op("output-bytes", inp, "differs", True,
                      note=f"sha256 {digest[:12]} vs {first[:12]} of an earlier pass")
        return op("output-bytes", inp, "identical")


class PhiTables(Workload):
    """Phi-table builds, cache hits and lookups on a profile solved in set-up.

    The profile is the same in every run (p = PHI_P; the seed draws the
    lookup points), so runs of different seeds do the same table work.  It
    is solved once per program version and kept under the state directory.
    """

    name = "phi-tables"

    def __init__(self, seed, state_dir):
        super().__init__(seed, state_dir)
        self.ref = load_reference(self.name)
        self.p = PHI_P
        self.dir = state_dir / f"{self.name}-p{self.p:g}"

    def prepare(self, run_jobs):
        inp = f"n=4,p={self.p:g}"
        profile = _read_json(self.dir / "profile.json")
        if profile and (self.dir / "profile.csv").is_file():
            outcome, failed = "solved in an earlier run", False
        else:
            shutil.rmtree(self.dir, ignore_errors=True)
            argv = ["ground-state", "--n", "4", "--p", f"{self.p:g}", "--out", str(self.dir)]
            (res,), _ = run_jobs([{"op": "cli", "argv": argv}])
            outcome, failed, _ = job_outcome(res)
            profile = _read_json(self.dir / "profile.json")
        note = ""
        if not failed:
            bad = mismatches(profile, self.ref["profiles"][f"{self.p:g}"], ("v0",), V0_RTOL)
            if bad:
                outcome, failed, note = "outside tolerance", True, "; ".join(bad)
        if failed:
            shutil.rmtree(self.dir, ignore_errors=True)  # solve again next run
        return [op("ground-state", inp, outcome, failed, note=note)]

    def jobs(self, k):
        return [{"op": "phi", "profile_csv": str(self.dir / "profile.csv"),
                 "profile_json": str(self.dir / "profile.json"),
                 "extents": list(PHI_EXTENTS), "m": PHI_M,
                 "check_points": [list(c) for c in PHI_CHECK_POINTS],
                 "lookups": PHI_LOOKUPS,
                 "lookup_seed": random.Random(f"{self.name}:{self.seed}:{k}").randrange(2**32)}]

    def check(self, k, results):
        res = results[0]
        if "out" not in res:
            return [op("phi", f"p={self.p:g}", res.get("error", "crash"), True)]
        ops = []
        refs = self.ref["tables"]
        for key, got in sorted(res["out"]["tables"].items()):
            inp = f"p={self.p:g},{key},m={PHI_M}"
            ref = refs.get(f"{self.p:g}/{key}")
            bad = []
            if ref is None:
                bad.append("no reference")
            else:
                for field in ("sum", "sample", "lookup", "direct"):
                    g, r = got[field], ref[field]
                    g = g if isinstance(g, list) else [g]
                    r = r if isinstance(r, list) else [r]
                    if len(g) != len(r) or any(
                            abs(a - b) > PHI_RTOL * max(abs(b), 1e-12) for a, b in zip(g, r)):
                        bad.append(field)
            if not got["reused"]:
                bad.append("second table() call rebuilt the table")
            if not got.get("lookups_finite", True):
                bad.append("non-finite lookups")
            ops.append(op("phi-table", inp, "outside tolerance" if bad else "ok", bool(bad),
                          note="; ".join(bad)))
        return ops


class VerifyDefault(Workload):
    """`laneemden verify` with the RunConfig defaults (seed unused)."""

    name = "verify-default"
    seeded = False

    def __init__(self, seed, state_dir):
        super().__init__(seed, state_dir)
        self.out = WORK / self.name / "out"

    def argv(self):
        return ["verify", "--out", str(self.out)]

    def reference_checks(self):
        return load_reference(self.name)["checks"]

    def jobs(self, k):
        shutil.rmtree(self.out, ignore_errors=True)
        return [{"op": "cli", "argv": self.argv()}]

    def check(self, k, results):
        inp = " ".join(self.argv())
        refs = self.reference_checks()
        outcome, failed, known = job_outcome(results[0], refs)
        ops = [op(self.argv()[0], inp, outcome, failed, known)]
        summary = _read_json(self.out / "summary.json")
        return ops + check_records(summary.get("checks", []), refs, inp)


class SelfTest(VerifyDefault):
    """Toy size for the harness's own test: two params-only checks, mesh level 1."""

    name = "selftest"

    def argv(self):
        return ["verify", "--n", "4", "--p", "3", "--checks", "exponent_taylor,scaling_table",
                "--mesh-level", "1", "--out", str(self.out)]

    def reference_checks(self):
        ref = load_reference(CliPipeline.name)
        return ([r for r in ref["checks"] if r["name"] == "scaling_table"]
                + [ref["by_slopes"][slopes_key(1.0, 1.0)]["exponent_taylor"]])


WORKLOADS = {w.name: w for w in (PhiTables, ExponentSweep, CliPipeline, VerifyDefault,
                                 SelfTest)}
