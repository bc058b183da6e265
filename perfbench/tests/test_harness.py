"""Self-test of the benchmark harness at toy size.

Run from the repository root:  python3 -m pytest -q perfbench/tests

Runs the `selftest` workload (one exponent, `verify --checks
exponent_taylor,scaling_table`, mesh level 1) untraced and traced, and
asserts that every metric BENCHMARK.json names is emitted with its unit,
that the outputs check out against the reference, and that the counts a
later change may cite are exact.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def result(trace):
    proc = run("--workload", "selftest", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(res, kind):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_untraced_emits_every_end_to_end_metric():
    res = result(0)
    assert_metrics(res, "end_to_end")
    m = res["metrics"]
    assert m["wall_s"]["value"] > m["setup_s"]["value"] > 0
    assert m["cpu_s"]["value"] > 0 and m["peak_rss_mb"]["value"] > 0


def test_traced_emits_every_per_layer_metric_with_exact_counts():
    res = result(1)
    assert_metrics(res, "per_layer")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["cli.commands"] == 1 and m["radial.solves"] == 1
    assert m["radial.shots"] == 95 and m["radial.ode_steps"] == 23225
    assert m["halfspace.table_builds"] == 0 and m["ballquad.integrals"] == 0
    assert m["verify.checks_failed"] == 0 and m["fail_rate"] == 0
    assert 0.5 < m["radial.share"] < 1.0


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = run("--workload", "selftest", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
