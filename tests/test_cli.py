import json
import pytest

from laneemden.cli import RunConfig, _meta, build_config, load_config, main, make_parser
from laneemden.errors import ConfigError
from laneemden.verify import CHECK_NAMES, CHECK_NEEDS, ExpansionReport


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\n"
        "n = 4\n"
        "p = 11/3\n"
        "deltas = 0.04, 0.02\n"
        "checks = bubble_mass, exponent_taylor\n"
        "b_mode = delta\n"
        "seed_free = true\n")
    got = load_config(cfg_file)
    assert got["n"] == 4
    assert got["p"] == pytest.approx(11.0 / 3.0)
    assert got["deltas"] == (0.04, 0.02)
    assert got["checks"] == ("bubble_mass", "exponent_taylor")
    assert got["b_mode"] == "DELTA"
    assert got["seed_free"] is True


def test_config_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("nope = 1\n")
    with pytest.raises(ConfigError):
        load_config(cfg_file)
    for key in ("threads", "quad_tol", "fit_tol"):
        cfg_file.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError):
            load_config(cfg_file)


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


def test_validate_rejects_bad_samples():
    with pytest.raises(ConfigError):
        RunConfig(deltas=(0.5,)).validate()
    with pytest.raises(ConfigError):
        RunConfig(eps=(0.2,)).validate()
    with pytest.raises(ConfigError):
        RunConfig(checks=("nope",)).validate()
    with pytest.raises(ConfigError):
        RunConfig(ode_tol=-1.0).validate()


def test_exit_code_config_error(tmp_path):
    rc = main(["verify", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2


def test_exit_code_usage_error(capsys):
    assert main(["ground-state", "--p", "2.0", "--out", "/tmp/x"]) == 2
    assert main(["ground-state", "--p", "1.5", "--out", "/tmp/x"]) == 2
    # flags with no effect on a run do not exist, so argparse rejects them
    assert main(["ground-state", "--threads", "2"]) == 2
    assert main(["constants", "--quad-tol", "1e-30"]) == 2
    assert main(["constants", "--fit-tol", "1e-30"]) == 2
    # the mesh is only used by verify's checks
    assert main(["ground-state", "--mesh-level", "3"]) == 2
    assert "accelerated" not in _meta(RunConfig())


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


def test_exit_code_numerical_failure(monkeypatch, tmp_path):
    import laneemden.cli as cli
    from laneemden.errors import StepFailure

    def boom(cfg):
        raise StepFailure("integrator stalled")

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
    assert set(cfg.checks) == set(CHECK_NAMES)


def test_check_needs_cover_check_names():
    assert set(CHECK_NEEDS) == set(CHECK_NAMES)
    assert set(CHECK_NEEDS.values()) == {"params", "profile", "phi"}


def test_phi_checks_rejected_for_n5_before_any_solve(monkeypatch, tmp_path):
    import laneemden.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("ground state solved before the config was rejected")

    monkeypatch.setattr(cli, "find_ground_state", no_solve)
    assert main(["verify", "--n", "5", "--p", "2", "--out", str(tmp_path)]) == 2
    assert main(["verify", "--n", "5", "--p", "2", "--out", str(tmp_path),
                 "--checks", "exponent_taylor,perturbed_norms"]) == 2
    with pytest.raises(ConfigError):
        RunConfig(n=5, p=2.0).validate()
    RunConfig(n=5, p=2.0).validate("ground-state")


def test_params_check_runs_for_n5(tmp_path):
    assert main(["verify", "--n", "5", "--p", "2", "--out", str(tmp_path),
                 "--checks", "exponent_taylor"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [c["name"] for c in summary["checks"]] == ["exponent_taylor"]
