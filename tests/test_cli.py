import argparse
import ast
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import laneemden.constants as constants_mod
from laneemden import halfspace, radial
from laneemden.cli import (CHECK_READS, RunConfig, _meta, build_config, load_config, main,
                           make_parser)
from laneemden.constants import compute_B_delta, compute_constants
from laneemden.errors import ConfigError, NumericalFailure
from laneemden import verify as V
from laneemden.verify import ExpansionReport

COMMANDS = ("ground-state", "constants", "reduced-energy", "verify", "report")


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\n"
        "n = 4\n"
        "p = 11/3\n"
        "deltas = 0.04, 0.02\n"
        "checks = bubble_mass, exponent_taylor\n")
    got = load_config(cfg_file)
    assert got["n"] == 4
    assert got["p"] == pytest.approx(11.0 / 3.0)
    assert got["deltas"] == (0.04, 0.02)
    assert got["checks"] == ("bubble_mass", "exponent_taylor")


def test_config_unknown_key(monkeypatch, tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("nope = 1\n")
    with pytest.raises(ConfigError):
        load_config(cfg_file)
    for key in ("threads", "quad_tol", "fit_tol"):
        cfg_file.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError):
            load_config(cfg_file)
    # b_delta alone selects B, and no module draws random numbers
    monkeypatch.setattr(radial, "find_ground_state", _no_solve)
    out = tmp_path / "out"
    for line in ("b_mode = DELTA", "b_mode = LIMIT", "seed_free = true", "seed_free = no"):
        cfg_file.write_text(line + "\n")
        with pytest.raises(ConfigError):
            load_config(cfg_file)
        for command in COMMANDS:
            assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 2
    assert not out.exists()


def test_config_repeated_key(monkeypatch, tmp_path):
    """A key set twice in one file is refused, naming the key and both lines,
    rather than the later value silently winning."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("p = 3\n# p = 2\nalpha = 1\n\np = 2.5\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:5: p is set again \(first at line 1\)"):
        load_config(cfg_file)
    monkeypatch.setattr(radial, "find_ground_state", _no_solve)
    out = tmp_path / "out"
    for command in COMMANDS:
        assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 2
    assert not out.exists()


def test_config_malformed_line(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("just words\n")
    with pytest.raises(ConfigError):
        load_config(cfg_file)


def test_flags_override_config(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("p = 2.5\nout = fromfile\n")
    ap = make_parser()
    args = ap.parse_args(["verify", "--config", str(cfg_file), "--p", "3.0"])
    cfg = build_config(args)
    assert cfg.p == 3.0          # flag wins
    assert cfg.out == "fromfile"  # file value survives


def test_validate_ode_tol_bounds(monkeypatch, tmp_path):
    """ode_tol runs only in [100 eps, 1e-4], where DOP853 takes it as given;
    outside, every command exits 2 before any solve."""
    lo = 100 * np.finfo(float).eps
    for tol in (lo, 1e-4):
        for command in COMMANDS:
            RunConfig(ode_tol=tol).validate(command)
    for tol in (np.nextafter(lo, 0.0), np.nextafter(1e-4, 1.0)):
        for command in COMMANDS:
            with pytest.raises(ConfigError, match="ode_tol"):
                RunConfig(ode_tol=tol).validate(command)
    monkeypatch.setattr(radial, "find_ground_state", _no_solve)
    for tol in ("1e-16", "1e-3"):
        assert main(["ground-state", "--ode-tol", tol, "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_validate_rejects_bad_samples():
    with pytest.raises(ConfigError):
        RunConfig(deltas=(0.5,)).validate()
    with pytest.raises(ConfigError):
        RunConfig(eps=(0.2,)).validate()
    with pytest.raises(ConfigError):
        RunConfig(checks=("nope",)).validate()
    with pytest.raises(ConfigError):
        RunConfig(ode_tol=-1.0).validate()
    nan, inf = float("nan"), float("inf")
    # every range test is false for NaN; an infinite r_max starts a solve with no end
    for bad in ({"deltas": (nan, 0.02)}, {"eps": (0.02, nan)}, {"d": nan}, {"alpha": nan},
                {"beta": inf}, {"p": nan}, {"ode_tol": nan}, {"r_max": inf}, {"r_max": 0.0},
                {"r_max": -1.0}, {"b_delta": nan}, {"b_delta": 0.5}, {"b_delta": -0.01}):
        for command in COMMANDS:
            with pytest.raises(ConfigError):
                RunConfig(**bad).validate(command)
    # b_delta 0 is the delta -> 0 limit of B
    for command in COMMANDS:
        RunConfig(b_delta=0.0).validate(command)
    # the perturbed exponents p + alpha eps, q + beta eps need slopes > 0, whatever runs
    for slopes in ({"alpha": 0.0}, {"beta": 0.0}, {"alpha": -1.0}, {"beta": -1.0}):
        for checks in (tuple(CHECK_READS), ("nonlinear_energy",), ("bubble_mass",)):
            for command in COMMANDS:
                with pytest.raises(ConfigError, match="alpha and beta"):
                    RunConfig(checks=checks, **slopes).validate(command)
    for command in COMMANDS:
        for empty in ("checks", "deltas", "eps"):
            with pytest.raises(ConfigError):
                RunConfig(**{empty: ()}).validate(command)
    # verify's fits need two samples and no repeat; one is enough elsewhere
    for few in ({"deltas": (0.04,)}, {"deltas": (0.02, 0.02)}, {"eps": (0.04,)},
                {"eps": (0.01, 0.01, 0.01)}, {"deltas": (0.02, 0.02, 0.04)},
                {"eps": (0.04, 0.01, 0.04)}):
        with pytest.raises(ConfigError):
            RunConfig(**few).validate("verify")
        RunConfig(**few).validate("reduced-energy")


def test_exit_code_config_error(tmp_path):
    rc = main(["verify", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("alpha = 1/0\n")
    for bad in (["--config", str(cfg_file)], ["--alpha", "1/0"], ["--alpha", "half"],
                ["--n", "4.0"], ["--b-mode", "none"]):
        assert main(["constants", "--out", str(tmp_path)] + bad) == 2


def test_flag_value_that_argparse_drops(monkeypatch, tmp_path):
    """argparse reads --out=-- as an empty list; it is rejected, not written to "[]"."""
    monkeypatch.chdir(tmp_path)
    assert main(["constants", "--out=--"]) == 2
    assert not any(tmp_path.iterdir())


def test_every_numeric_flag_takes_a_rational():
    args = make_parser().parse_args(["verify", "--alpha", "1/2", "--beta", "3/4", "--d", "1/5",
                                     "--deltas", "1/25, 1/50", "--r-max", "20000/2"])
    cfg = build_config(args)
    assert (cfg.alpha, cfg.beta, cfg.d, cfg.r_max) == (0.5, 0.75, 0.2, 1e4)
    assert cfg.deltas == (0.04, 0.02)


def test_each_flag_is_a_config_field():
    """A command's flags are --config and RunConfig fields; every field is some command's flag."""
    (sub,) = [a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(COMMANDS)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    seen = set()
    for command, parser in sub.choices.items():
        flags = {a.dest: a.option_strings for a in parser._actions if a.dest != "help"}
        assert "config" in flags and set(flags) - {"config"} <= fields, command
        assert all(opts == ["--" + k.replace("_", "-")] for k, opts in flags.items())
        seen |= set(flags)
    assert seen == fields | {"config"}


def test_exit_code_usage_error(monkeypatch, tmp_path, capsys):
    assert main(["ground-state", "--p", "2.0", "--out", "/tmp/x"]) == 2
    assert main(["ground-state", "--p", "1.5", "--out", "/tmp/x"]) == 2
    # flags with no effect on a run do not exist, so argparse rejects them
    assert main(["ground-state", "--threads", "2"]) == 2
    assert main(["constants", "--quad-tol", "1e-30"]) == 2
    assert main(["constants", "--fit-tol", "1e-30"]) == 2
    # the mesh is only used by verify's checks
    assert main(["ground-state", "--mesh-level", "3"]) == 2
    assert "accelerated" not in _meta(RunConfig())
    # b_delta alone selects B, no module draws random numbers, and the perturbed
    # exponents take slopes > 0: refused on every command before any solve
    out = tmp_path / "out"
    monkeypatch.setattr(radial, "find_ground_state", _no_solve)
    for command in COMMANDS:
        for bad in (["--b-mode", "DELTA"], ["--b-mode", "LIMIT"], ["--seed-free"],
                    ["--alpha", "0"], ["--beta", "-1"], ["--alpha", "0", "--beta", "0"]):
            assert main([command, "--out", str(out)] + bad) == 2, (command, bad)
    assert not out.exists()


def test_exit_code_check_failure(monkeypatch, tmp_path):
    import laneemden.cli as cli
    fail = ExpansionReport(name="bubble_mass", samples={}, fit={}, target=0.0,
                           deviation=1.0, tol=0.1, verdict="FAIL")
    monkeypatch.setattr(cli, "run_suite", lambda cfg: [fail])
    rc = main(["verify", "--out", str(tmp_path)])
    assert rc == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["overall"] == "FAIL"


def test_check_selection_semantics(monkeypatch, tmp_path):
    import laneemden.cli as cli
    seen = {}

    def fake_suite(cfg):
        seen["checks"] = cfg.checks
        return [ExpansionReport(name=c, samples={"delta": [0.1], "value": [1.0]},
                                fit={}, target=0.0, deviation=0.0, tol=1.0,
                                verdict="PASS") for c in cfg.checks]

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    rc = main(["verify", "--out", str(tmp_path),
               "--checks", "bubble_mass,boundary_pairing"])
    assert rc == 0
    assert seen["checks"] == ("bubble_mass", "boundary_pairing")
    recs = sorted(tmp_path.glob("check_*.json"))
    assert len(recs) == 2
    names = {json.loads(r.read_text())["name"] for r in recs}
    assert names == {"bubble_mass", "boundary_pairing"}


@pytest.mark.parametrize("error", NumericalFailure.__subclasses__(), ids=lambda e: e.__name__)
def test_exit_code_numerical_failure(monkeypatch, tmp_path, error):
    import laneemden.cli as cli

    def boom(cfg):
        raise error("computation failed")

    monkeypatch.setattr(cli, "run_suite", boom)
    assert main(["verify", "--out", str(tmp_path)]) == 3


def test_report_aggregation(monkeypatch, tmp_path):
    import laneemden.cli as cli
    ok = ExpansionReport(name="cross_terms", samples={}, fit={}, target=0.0,
                         deviation=0.0, tol=1.0, verdict="PASS")
    monkeypatch.setattr(cli, "run_suite", lambda cfg: [ok])
    assert main(["verify", "--out", str(tmp_path)]) == 0
    assert main(["report", "--out", str(tmp_path)]) == 0
    agg = json.loads((tmp_path / "report.json").read_text())
    assert agg["overall"] == "PASS"
    assert agg["n_checks"] == 1
    assert agg["version"]


def test_report_reads_the_last_verify_run(monkeypatch, tmp_path, solves):
    """report aggregates the checks of the last verify run, not older check files."""
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--out", "out"]) == 1
    agg = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (agg["overall"], agg["n_checks"], agg["checks"]) == ("FAIL", 0, [])
    assert main(["verify", "--out", "out", "--checks", "exponent_taylor,scaling_table"]) == 0
    assert main(["verify", "--out", "out", "--checks", "exponent_taylor"]) == 0
    assert len(list((tmp_path / "out").glob("check_*.json"))) == 1
    assert main(["report", "--out", "out"]) == 0
    agg = json.loads((tmp_path / "out" / "report.json").read_text())
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert agg["n_checks"] == 1
    assert agg["checks"] == summary["checks"]
    assert agg["checks"][0]["name"] == "exponent_taylor"


def test_verify_removes_the_check_files_of_an_earlier_run(monkeypatch, tmp_path):
    """verify deletes check_NN_*.json and .csv in --out before writing, and no other file."""
    import laneemden.cli as cli
    ok = ExpansionReport(name="cross_terms", samples={}, fit={}, target=0.0,
                         deviation=0.0, tol=1.0, verdict="PASS")
    monkeypatch.setattr(cli, "run_suite", lambda cfg: [ok])
    stale = ("check_00_bubble_mass.csv", "check_03_scaling_table.json",
             "check_03_scaling_table.csv", "check_17_x.json")
    kept = ("check_1_x.json", "check_00_x.txt", "my_check_00_x.json", "profile.csv")
    for name in stale + kept:
        (tmp_path / name).write_text("old\n")
    assert main(["verify", "--out", str(tmp_path)]) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"check_00_cross_terms.json", "summary.json", *kept}
    assert (tmp_path / "check_1_x.json").read_text() == "old\n"


DAMAGED_SUMMARIES = {"cut_mid_list": '{"checks": [{"name": "a", "verdict": "PASS"}, ',
                     "not_an_object": '[{"name": "a", "verdict": "PASS"}]',
                     "checks_not_a_list": '{"checks": {"name": "a", "verdict": "PASS"}}',
                     "record_not_an_object": '{"checks": ["PASS"]}',
                     "no_checks": '{"overall": "PASS"}',
                     "not_utf8": b'{"checks": ["\xff"]}'}


def test_report_takes_only_out_and_echoes_the_runs_config(monkeypatch, tmp_path):
    """report has no flag of a run: one exits 2 and writes nothing.  report.json
    carries the config of the verify run it aggregates, or None without one."""
    import laneemden.cli as cli
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert json.loads((tmp_path / "report.json").read_text())["config"] is None
    (tmp_path / "report.json").unlink()
    ok = ExpansionReport(name="cross_terms", samples={}, fit={}, target=0.0,
                         deviation=0.0, tol=1.0, verdict="PASS")
    monkeypatch.setattr(cli, "run_suite", lambda cfg: [ok])
    assert main(["verify", "--out", str(tmp_path), "--p", "2.5", "--alpha", "1.5",
                 "--mesh-level", "3", "--checks", "cross_terms"]) == 0
    for flag in (["--n", "5"], ["--p", "2.5"], ["--alpha", "2"], ["--beta", "2"],
                 ["--r-max", "7"], ["--ode-tol", "1e-10"], ["--mesh-level", "2"],
                 ["--checks", "cross_terms"], ["--b-delta", "0.05"]):
        assert main(["report", "--out", str(tmp_path)] + flag) == 2, flag
    assert not (tmp_path / "report.json").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"out = {tmp_path}\np = 3\nalpha = 2\n")
    for argv in (["--out", str(tmp_path)], ["--config", str(cfg_file)]):
        assert main(["report"] + argv) == 0
        agg = json.loads((tmp_path / "report.json").read_text())
        assert agg["config"] == summary["config"]
        assert (agg["config"]["p"], agg["config"]["alpha"], agg["config"]["mesh_level"],
                agg["config"]["checks"]) == (2.5, 1.5, 3, ["cross_terms"])


@pytest.mark.parametrize("case", sorted(DAMAGED_SUMMARIES))
def test_report_refuses_a_damaged_summary(tmp_path, capsys, case):
    """A damaged summary.json is a usage error (exit 2, one line), not a traceback."""
    text = DAMAGED_SUMMARIES[case]
    summary = tmp_path / "summary.json"
    summary.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["report", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {summary}: ")
    assert not (tmp_path / "report.json").exists()


def test_outputs_embed_config_and_version(monkeypatch, tmp_path):
    import laneemden.cli as cli
    ok = ExpansionReport(name="cross_terms", samples={}, fit={}, target=0.0,
                         deviation=0.0, tol=1.0, verdict="PASS")
    monkeypatch.setattr(cli, "run_suite", lambda cfg: [ok])
    main(["verify", "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["n"] == 4
    assert summary["config"]["deltas"] == [0.04, 0.02, 0.01]
    assert isinstance(summary["version"], str)


def test_all_check_names_wired():
    cfg = RunConfig()
    assert set(cfg.checks) == set(CHECK_READS)


def test_cli_check_names_are_verify_checks_in_order():
    """The check names the CLI states without importing verify, as CHECK_READS's
    keys, RunConfig's default and in --help, are the keys of verify.CHECKS in
    order, and each check's reads are the parameter names of its entry."""
    (sub,) = [a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (checks,) = [a for a in sub.choices["verify"]._actions if a.dest == "checks"]
    assert tuple(CHECK_READS) == RunConfig().checks == tuple(V.CHECKS)
    assert checks.help == "comma-separated subset of: " + ",".join(V.CHECKS)
    assert CHECK_READS == {name: tuple(inspect.signature(run).parameters)
                           for name, run in V.CHECKS.items()}


def test_check_reads_name_run_inputs():
    """Every check reads only inputs that run_suite provides; four read a
    correction, and two read d."""
    assert set().union(*CHECK_READS.values()) == {
        "params", "profile", "constants", "corr1", "corr2", "deltas", "eps", "d", "alpha",
        "beta", "level"}
    assert {c for c, reads in CHECK_READS.items() if {"corr1", "corr2"} & set(reads)} == {
        "boundary_pairing", "gradient_energy", "nonlinear_energy", "perturbed_norms"}
    assert {c for c, reads in CHECK_READS.items() if "d" in reads} == {
        "nonlinear_energy", "perturbed_norms"}


def test_run_suite_builds_only_what_the_checks_read(monkeypatch, tmp_path, solves):
    """The constants and each correction are built once, and only for a check that reads them."""
    built = []

    def record(name):
        def build(*args):
            built.append(name)
            return name
        return build

    def runs(checks, extra=()):
        built.clear()
        assert main(["verify", "--out", str(tmp_path), "--checks", checks, *extra]) in (0, 1)
        return list(built)

    monkeypatch.setattr(constants_mod, "compute_constants", record("constants"))
    monkeypatch.setattr(halfspace, "HalfSpaceCorrection", lambda prof, which: record(which)())
    # the phi and mass checks are stubbed; each receives what its entry passes on
    for fname in ("check_bubble_mass", "check_phi_pairing", "check_gradient_expansion",
                  "check_nonlinear_expansion", "check_norm_orders"):
        monkeypatch.setattr(V, fname, lambda *args, **kwargs: ExpansionReport(
            name="stub", samples={}, fit={}, target=0.0, deviation=0.0, tol=1.0,
            verdict="PASS", details={"args": [a for a in args if isinstance(a, str)]}))
    assert runs("cross_terms,linearized_kernel,scaling_table,exponent_taylor") == []
    assert runs("perturbed_norms") == ["PHI1"]
    assert runs("nonlinear_energy") == ["constants", "PHI2"]
    assert runs("bubble_mass,gradient_energy,boundary_pairing,nonlinear_energy") == [
        "constants", "PHI1", "PHI2"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [c["details"]["args"] for c in summary["checks"]] == [
        ["constants"], ["PHI1", "constants"], ["PHI1", "PHI2", "constants"],
        ["PHI2", "constants"]]


def test_phi_checks_rejected_for_n5_before_any_solve(monkeypatch, tmp_path):

    def no_solve(*args, **kwargs):
        raise AssertionError("ground state solved before the config was rejected")

    monkeypatch.setattr(radial, "find_ground_state", no_solve)
    assert main(["verify", "--n", "5", "--p", "2", "--out", str(tmp_path)]) == 2
    assert main(["verify", "--n", "5", "--p", "2", "--out", str(tmp_path),
                 "--checks", "exponent_taylor,perturbed_norms"]) == 2
    with pytest.raises(ConfigError):
        RunConfig(n=5, p=2.0).validate()
    RunConfig(n=5, p=2.0).validate("ground-state")


def test_delta_cap_rejected_before_any_solve(monkeypatch, tmp_path):
    """A check that reads d samples delta = d * eps; a product above DELTA_CAP
    exits 2 before the ground state, the constants or a table is built."""

    def no_solve(*args, **kwargs):
        raise AssertionError("ground state solved before the config was rejected")

    monkeypatch.setattr(radial, "find_ground_state", no_solve)
    for argv in (["--d", "10", "--checks", "nonlinear_energy"],
                 ["--d", "3", "--eps", "0.1,0.05", "--checks", "perturbed_norms"],
                 ["--d", "2.01", "--eps", "0.1,0.05"]):
        assert main(["verify", "--out", str(tmp_path / "out")] + argv) == 2, argv
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match=r"delta = d \* eps up to 0\.4, outside \(0, 0\.2\]"):
        RunConfig(d=10.0, checks=("nonlinear_energy",)).validate()
    # d * eps = 0.2 exactly is the cap itself; d is not read by the other checks
    RunConfig(d=2.0, eps=(0.1, 0.05)).validate()
    RunConfig(d=10.0, checks=("bubble_mass", "cross_terms")).validate()
    for command in ("ground-state", "constants", "reduced-energy"):
        RunConfig(d=10.0).validate(command)


def test_degenerate_lists_rejected_before_any_solve(monkeypatch, tmp_path):

    def no_solve(*args, **kwargs):
        raise AssertionError("ground state solved before the config was rejected")

    monkeypatch.setattr(radial, "find_ground_state", no_solve)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("checks =\n")
    for argv in (["verify", "--checks", ""],
                 ["verify", "--config", str(cfg_file)],
                 ["verify", "--checks", "bubble_mass", "--deltas", "0.04"],
                 ["verify", "--checks", "bubble_mass", "--deltas", "0.02,0.02"],
                 ["verify", "--checks", "nonlinear_energy", "--eps", "0.04"],
                 # a repeated sample makes a zero-width step in verify's fits
                 ["verify", "--checks", "bubble_mass,cross_terms", "--deltas", "0.02,0.02,0.04"],
                 ["verify", "--checks", "nonlinear_energy", "--eps", "0.04,0.01,0.04"],
                 # a repeated check would run twice
                 ["verify", "--checks", "exponent_taylor,exponent_taylor"],
                 ["verify", "--checks", "bubble_mass,cross_terms,bubble_mass"],
                 ["reduced-energy", "--eps", ""],
                 # numbers no run can use
                 ["verify", "--deltas", "nan,0.02"],
                 ["verify", "--d", "nan"],
                 ["reduced-energy", "--alpha", "nan"],
                 ["reduced-energy", "--eps", "0.02,nan"],
                 ["constants", "--ode-tol", "nan"],
                 ["ground-state", "--r-max", "inf"],
                 ["ground-state", "--r-max", "0"],
                 ["ground-state", "--r-max=-1"],
                 ["verify", "--alpha", "0", "--checks", "nonlinear_energy"],
                 ["verify", "--alpha", "0"],
                 ["verify", "--beta", "0", "--checks", "perturbed_norms"],
                 ["verify", "--alpha", "0", "--beta", "0", "--checks", "exponent_taylor"],
                 # G is defined for slopes > 0 only; refused before the solve, not after
                 ["reduced-energy", "--alpha", "0", "--beta", "0"],
                 ["reduced-energy", "--beta=-1"],
                 ["constants", "--b-delta", "0.5"],
                 ["constants", "--b-delta=-0.01"]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2, argv
    assert not (tmp_path / "out").exists()


def test_params_check_runs_for_n5(tmp_path):
    assert main(["verify", "--n", "5", "--p", "2", "--out", str(tmp_path),
                 "--checks", "exponent_taylor"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [c["name"] for c in summary["checks"]] == ["exponent_taylor"]


def test_verify_prints_plain_float_deviations(monkeypatch, tmp_path, capsys):
    import laneemden.cli as cli
    rep = ExpansionReport(name="boundary_pairing", samples={}, fit={}, target=0.0,
                          deviation={"matched_1": np.float64(0.5)}, tol=1.0,
                          verdict="PASS")
    monkeypatch.setattr(cli, "run_suite", lambda cfg: [rep])
    assert main(["verify", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "deviation={'matched_1': 0.5}" in out
    assert "np.float64" not in out


def test_verify_prints_min_type_targets(monkeypatch, tmp_path, capsys):
    """A string target (a lower bound) is printed in place of the bare tol."""
    import laneemden.cli as cli
    reps = [ExpansionReport(name="cross_terms", samples={}, fit={},
                            target=">= 1.5 per halving", deviation=1.93, tol=1.5,
                            verdict="PASS"),
            ExpansionReport(name="bubble_mass", samples={}, fit={}, target=-1.0,
                            deviation=0.01, tol=0.05, verdict="PASS")]
    monkeypatch.setattr(cli, "run_suite", lambda cfg: reps)
    assert main(["verify", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[PASS] cross_terms: deviation=1.93 (target >= 1.5 per halving)"
    assert lines[1] == "[PASS] bubble_mass: deviation=0.01 (tol=0.05)"


# Reuse of the profile that ground-state writes to --out.  The solver is
# replaced by the session's p = 3 ground state, so these tests add no solve;
# like find_ground_state, it carries the params it was called with.

@pytest.fixture
def solves(monkeypatch, prof_sym):
    calls = []

    def fake_solve(params, ode_tol, r_max):
        calls.append(params)
        return dataclasses.replace(prof_sym, params=params)

    monkeypatch.setattr(radial, "find_ground_state", fake_solve)
    return calls


def _no_solve(*args, **kwargs):
    raise AssertionError("ground state solved although out/ holds a matching profile")


def _run_quietly(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return rc


def _outputs(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())
            if not p.name.startswith("profile.")}


def test_saved_profile_reused(monkeypatch, tmp_path, solves):
    # relative --out, so config.out in the outputs is the same in both dirs
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    monkeypatch.chdir(a)
    assert main(["ground-state", "--out", "out"]) == 0
    # ground-state writes the profile, so it solves even when one is there
    assert main(["ground-state", "--out", "out"]) == 0
    assert len(solves) == 2
    with monkeypatch.context() as m:
        m.setattr(radial, "find_ground_state", _no_solve)
        assert main(["constants", "--out", "out"]) == 0
        assert main(["reduced-energy", "--out", "out"]) == 0
    monkeypatch.chdir(b)
    assert main(["constants", "--out", "out"]) == 0
    assert main(["reduced-energy", "--out", "out"]) == 0
    assert len(solves) == 4
    got, want = _outputs(a / "out"), _outputs(b / "out")
    assert set(got) == {"constants.json", "reduced_energy.json",
                        "reduced_energy_samples.csv"}
    assert got == want


def test_saved_profile_takes_the_commands_slopes(monkeypatch, tmp_path, solves):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    slopes = ["--alpha", "2", "--beta", "0.5"]
    monkeypatch.chdir(a)
    assert main(["ground-state", "--out", "out", "--alpha", "1", "--beta", "1"]) == 0
    used = []

    def constants_of(prof, **kwargs):
        used.append(prof.params)
        return compute_constants(prof, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(radial, "find_ground_state", _no_solve)
        m.setattr(constants_mod, "compute_constants", constants_of)
        assert main(["reduced-energy", "--out", "out"] + slopes) == 0
    assert (used[0].alpha, used[0].beta) == (2.0, 0.5)
    monkeypatch.chdir(b)
    assert main(["reduced-energy", "--out", "out"] + slopes) == 0
    assert solves[-1].alpha == 2.0 and solves[-1].beta == 0.5
    assert _outputs(a / "out") == _outputs(b / "out")


def test_b_delta_alone_selects_the_strip_value(monkeypatch, tmp_path, solves, prof_sym):
    """constants --b-delta 0.05 writes B1, B2 of the boundary strip at 0.05, and
    --b-delta 0 writes what the default, the delta -> 0 limit, writes."""
    monkeypatch.chdir(tmp_path)

    def constants(*flags):
        assert main(["constants", "--out", "out", *flags]) == 0
        rec = json.loads((tmp_path / "out" / "constants.json").read_text())
        return rec, {k: v for k, v in rec.items() if k not in (
            "B1", "B2", "err_B1", "err_B2", "delta_used", "config")}

    (limit, rest), (zero, _), (strip, strip_rest) = (
        constants(), constants("--b-delta", "0"), constants("--b-delta", "0.05"))
    assert zero == limit and limit["delta_used"] == 0.0
    assert strip["delta_used"] == 0.05 and strip["config"]["b_delta"] == 0.05
    want = compute_B_delta(prof_sym, 0.05)
    assert (strip["B1"], strip["B2"]) == (want["B1"], want["B2"])
    assert strip["B1"] != limit["B1"] and strip["B2"] != limit["B2"]
    assert strip_rest == rest


def test_profile_with_an_epsilon_param_loads(tmp_path, prof_sym):
    """A sidecar whose params carry "epsilon": 0.0, as ground-state wrote before
    ProblemParams lost that field, loads to the same profile."""
    import laneemden.cli as cli
    from laneemden.radial import load_profile
    prof_sym.to_csv(tmp_path / "profile.csv", tmp_path / "profile.json")
    side = json.loads((tmp_path / "profile.json").read_text())
    assert "epsilon" not in side["params"]
    side["params"]["epsilon"] = 0.0
    (tmp_path / "profile.json").write_text(json.dumps(side))
    cfg = RunConfig(out=str(tmp_path))
    for prof in (load_profile(tmp_path / "profile.csv", tmp_path / "profile.json"),
                 cli._saved_profile(cfg, prof_sym.params)):
        assert prof.params == prof_sym.params
        assert (prof.v0, prof.r_max, prof.ode_tol) == (
            prof_sym.v0, prof_sym.r_max, prof_sym.ode_tol)
        for name, got, want in zip(prof.interp_pack._fields, prof.interp_pack,
                                   prof_sym.interp_pack):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def _cut_mid_row(d):
    data = (d / "profile.csv").read_bytes()
    (d / "profile.csv").write_bytes(data[:len(data) // 2])


def _cut_in_last_number(d):
    # the last value keeps its leading digits and loses its exponent
    data = (d / "profile.csv").read_bytes()
    (d / "profile.csv").write_bytes(data[:data.rindex(b"e")])


def _header_only(d):
    text = (d / "profile.csv").read_text()
    (d / "profile.csv").write_text(text[:text.index("\n") + 1])


def _drop_last_row(d):
    lines = (d / "profile.csv").read_text().splitlines(keepends=True)
    (d / "profile.csv").write_text("".join(lines[:-1]))


def _other_v0(d):
    # the CSV of another solve next to this sidecar
    header, first, rest = (d / "profile.csv").read_text().split("\n", 2)
    r, u, du, v, dv = first.split(",")
    (d / "profile.csv").write_text("\n".join([header, ",".join([r, u, du, "0.5", dv]), rest]))


def _nan_slope(d):
    # a slope is Hermite data for U as well as its own cubic's sample
    lines = (d / "profile.csv").read_text().splitlines(keepends=True)
    r, u, du, v, dv = lines[100].split(",")
    lines[100] = ",".join([r, u, "nan", v, dv])
    (d / "profile.csv").write_text("".join(lines))


MISSES = {
    "r_max": ([], ["--r-max", "5000"], None),
    "ode_tol": ([], ["--ode-tol", "1e-13"], None),
    "p": (["--p", "2.5"], [], None),
    "missing_csv": ([], [], lambda d: (d / "profile.csv").unlink()),
    "csv_cut_mid_row": ([], [], _cut_mid_row),
    "csv_cut_in_last_number": ([], [], _cut_in_last_number),
    "csv_cut_between_rows": ([], [], _drop_last_row),
    "csv_header_only": ([], [], _header_only),
    "json_unparseable": ([], [], lambda d: (d / "profile.json").write_text('{"v0": 1.0,')),
    "csv_of_another_v0": ([], [], _other_v0),
    "csv_nan_slope": ([], [], _nan_slope),
}


@pytest.mark.parametrize("case", sorted(MISSES))
def test_saved_profile_miss_solves_once(tmp_path, solves, case):
    saved_flags, flags, damage = MISSES[case]
    out = tmp_path / "out"
    assert main(["ground-state", "--out", str(out)] + saved_flags) == 0
    if damage is not None:
        damage(out)
    del solves[:]
    assert _run_quietly(["constants", "--out", str(out)] + flags) == 0
    assert len(solves) == 1


NO_SCIPY = """
import sys


class NoScipy:
    \"\"\"A meta-path finder that refuses scipy and its submodules.\"\"\"

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")


sys.meta_path.insert(0, NoScipy())
import numpy as np
from laneemden import ProblemParams
from laneemden.cli import main
from laneemden.halfspace import PHI1, HalfSpaceCorrection
from laneemden.radial import load_profile, shoot

out = sys.argv[1]
for argv in (["constants"], ["reduced-energy"],
             ["verify", "--checks", "bubble_mass,scaling_table"]):
    assert main(argv + ["--out", out]) == 0, argv
prof = load_profile(out + "/profile.csv", out + "/profile.json")
HalfSpaceCorrection(prof, PHI1).table(220.0, m=9)
# a dense shot and its solution
shoot(ProblemParams(n=4, p=3.0), 1.0, r_max=5.0, dense=True).sol.sol(np.geomspace(1e-3, 5.0, 9))
# p < n/(n-2): the solve and its tail's forced amplitude and gate
assert main(["ground-state", "--n", "4", "--p", "1.9", "--out", out + "/case2"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _child_env(**extra):
    """os.environ with src/ on PYTHONPATH, without OPENBLAS_NUM_THREADS, plus extra."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(env, **extra)


def test_commands_on_a_saved_profile_import_no_scipy(tmp_path, prof_sym):
    """constants, reduced-energy, two mesh checks, a phi table, a shot and a
    ground state below n/(n-2) (p = 1.9) run with scipy's import blocked."""
    prof_sym.to_csv(tmp_path / "profile.csv", tmp_path / "profile.json")
    env = _child_env()
    run = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "case2" / "profile.json").is_file()


NO_NUMPY = """
import sys


class NoNumpy:
    \"\"\"A meta-path finder that refuses numpy and its submodules.\"\"\"

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError(f"numpy is blocked: {name}")


sys.meta_path.insert(0, NoNumpy())
from laneemden.cli import main

out = sys.argv[1]
assert main(["--version"]) == 0
assert main(["--help"]) == 0
assert main(["report", "--out", out]) == 0
# a slope, a dimension and two exponents the solver has no ground state for
for bad in (["--alpha", "0"], ["--n", "3"], ["--p", "1.5"], ["--p", "2"]):
    assert main(["ground-state", "--out", out + "/refused"] + bad) == 2, bad
# a phi check at n = 5, a bubble scale d * eps above the cap, a key set twice
for bad in (["--n", "5", "--p", "2", "--checks", "boundary_pairing"],
            ["--d", "10", "--checks", "nonlinear_energy"],
            ["--config", out + "/repeated.cfg"]):
    assert main(["verify", "--out", out + "/refused"] + bad) == 2, bad
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""

CONSTANTS_LOADS = """
import sys
from laneemden.cli import main

assert main(["constants", "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m in (
    "laneemden.verify", "laneemden.halfspace", "laneemden.ansatz")))
"""


def test_cli_loads_only_the_numerics_its_command_runs(tmp_path, prof_sym):
    """With numpy's import blocked, the CLI imports, prints its version and help,
    reports on a saved summary and refuses bad inputs (exit 2); constants on a
    saved profile loads neither verify nor the half-space corrections nor the ansatz."""
    summary = {"overall": "PASS", "checks": [{"name": "exponent_taylor", "verdict": "PASS"}],
               "config": RunConfig(alpha=1.5, mesh_level=3).as_dict(), "version": "0.1.0"}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    (tmp_path / "repeated.cfg").write_text("p = 3\np = 2.5\n")
    run = subprocess.run([sys.executable, "-c", NO_NUMPY, str(tmp_path)], env=_child_env(),
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "report.json").read_text())["config"] == summary["config"]
    assert not (tmp_path / "refused").exists()
    prof_sym.to_csv(tmp_path / "profile.csv", tmp_path / "profile.json")
    run = subprocess.run([sys.executable, "-c", CONSTANTS_LOADS, str(tmp_path)],
                         env=_child_env(), capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _package_nodes():
    """(module file name, node) for every AST node of every module under src/laneemden."""
    pkg = os.path.join(ROOT, "src", "laneemden")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), name)
            yield from ((name, node) for node in ast.walk(tree))


def _imported(node):
    """The absolute module names an import names: numpy for import numpy, and
    numpy and numpy.random for from numpy import random."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
    return []


def test_no_module_draws_random_numbers():
    """No module under src/laneemden imports random, refers to numpy.random or
    names default_rng, so no run draws random numbers; criterion 15 checks that
    repeated runs write the same bytes."""
    for name, node in _package_nodes():
        where = (name, getattr(node, "lineno", None))
        assert not any(m.split(".")[0] == "random" or m.startswith("numpy.random")
                       or m.endswith("default_rng") for m in _imported(node)), where
        assert not (isinstance(node, ast.Attribute) and node.attr == "random"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")), where
        assert not (isinstance(node, ast.Attribute) and node.attr == "default_rng"), where
        assert not (isinstance(node, ast.Name) and node.id == "default_rng"), where


def test_runtime_dependencies_are_numpy_only():
    """No module under src/laneemden imports scipy, and pyproject.toml's run-time
    dependencies name numpy alone (scipy is in the test extra, as an oracle)."""
    tomllib = pytest.importorskip("tomllib")
    for name, node in _package_nodes():
        assert all(m.split(".")[0] != "scipy" for m in _imported(node)), (name, node.lineno)
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in project["dependencies"]]
    assert names == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


THREADS = """
import os
import laneemden.cli
import laneemden.radial  # a command's numerics, which load numpy
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_runs_one_thread_unless_the_caller_sets_blas_threads():
    """Importing the CLI and the numerics of a command leaves the process one
    thread, with OPENBLAS_NUM_THREADS=1; a value the caller sets is kept."""
    def child(**extra):
        run = subprocess.run([sys.executable, "-c", THREADS], env=_child_env(**extra),
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        return run.stdout.split()

    assert child() == ["1", "1"]
    assert child(OPENBLAS_NUM_THREADS="2")[1] == "2"
