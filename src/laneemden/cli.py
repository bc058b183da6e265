"""Command-line front end.

Commands: ground-state, constants, reduced-energy, verify, report.
Exit codes: 0 success / all checks pass, 1 check failure, 2 usage or
configuration error, 3 numerical failure.

Configuration comes from an optional key = value file plus flags; flags
win.  Identical resolved configurations produce byte-identical outputs
(sorted JSON keys, shortest round-trip floats, no timestamps).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .constants import compute_constants
from .errors import ConfigError
from .halfspace import PHI1, PHI2, HalfSpaceCorrection
from .params import ProblemParams, parse_exponent
from .radial import find_ground_state
from .reduced import G, ReducedEnergy, d_star, eta_window, J_expansion
from .reporting import write_csv, write_json
from . import verify as V
from .errors import (BracketingFailure, DomainError, MonotonicityViolation,
                     PoorFit, QuadratureAsymmetry, QuadratureNonConvergent,
                     StepFailure, TailDivergent, WindowTooNarrow)

NUMERICAL_ERRORS = (BracketingFailure, MonotonicityViolation, PoorFit,
                    QuadratureAsymmetry, QuadratureNonConvergent, StepFailure,
                    TailDivergent, WindowTooNarrow)


@dataclass
class RunConfig:
    n: int = 4
    p: float = 3.0
    alpha: float = 1.0
    beta: float = 1.0
    deltas: tuple = (0.04, 0.02, 0.01)
    eps: tuple = (0.04, 0.02, 0.01)
    d: float = 0.2
    ode_tol: float = 3e-14
    r_max: float = 1e4
    mesh_level: int = 1
    out: str = "out"
    checks: tuple = V.CHECK_NAMES
    b_mode: str = "LIMIT"
    b_delta: float = 0.01
    seed_free: bool = False

    def validate(self, command="verify"):
        """Reject bad settings up front; the phi checks' n = 4 limit binds verify only."""
        if self.ode_tol <= 0:
            raise ConfigError("ode_tol must be positive")
        if any(d <= 0 or d > 0.2 for d in self.deltas):
            raise ConfigError("delta samples must lie in (0, 0.2]")
        if any(e <= 0 or e > 0.1 for e in self.eps):
            raise ConfigError("eps samples must lie in (0, 0.1]")
        if self.d <= 0:
            raise ConfigError("d must be positive")
        if self.b_mode not in ("LIMIT", "DELTA"):
            raise ConfigError("b_mode must be LIMIT or DELTA")
        unknown = [c for c in self.checks if c not in V.CHECK_NAMES]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}")
        if self.mesh_level < 1:
            raise ConfigError("mesh_level must be >= 1")
        phi_checks = [c for c in self.checks if V.CHECK_NEEDS[c] == "phi"]
        if command == "verify" and self.n != 4 and phi_checks:
            raise ConfigError(f"checks {phi_checks} need the half-space corrections, "
                              "implemented for n = 4 only")
        return self

    def as_dict(self):
        d = {}
        for f_ in fields(self):
            v = getattr(self, f_.name)
            d[f_.name] = list(v) if isinstance(v, tuple) else v
        return d


_FLOAT_KEYS = {"p", "alpha", "beta", "d", "ode_tol", "r_max", "b_delta"}
_INT_KEYS = {"n", "mesh_level"}
_LIST_KEYS = {"deltas", "eps", "checks"}
_BOOL_KEYS = {"seed_free"}


def _coerce(key, raw):
    if key in _FLOAT_KEYS:
        return parse_exponent(raw)
    if key in _INT_KEYS:
        return int(raw)
    if key in _BOOL_KEYS:
        return str(raw).strip().lower() in ("1", "true", "yes")
    if key in _LIST_KEYS:
        items = [s.strip() for s in str(raw).split(",") if s.strip()]
        if key == "checks":
            return tuple(items)
        return tuple(parse_exponent(s) for s in items)
    if key == "b_mode":
        return str(raw).strip().upper()
    if key == "out":
        return str(raw).strip()
    raise ConfigError(f"unknown configuration key {key!r}")


def load_config(path) -> dict:
    out = {}
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        k, v = (t.strip() for t in s.split("=", 1))
        out[k] = _coerce(k, v)
    return out


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = replace(cfg, **load_config(args.config))
    overrides = {}
    for key in ("n", "p", "alpha", "beta", "d", "ode_tol", "r_max", "mesh_level",
                "out", "b_mode", "b_delta"):
        v = getattr(args, key.replace("-", "_"), None)
        if v is not None:
            overrides[key] = _coerce(key, v) if isinstance(v, str) else v
    for key in ("deltas", "eps", "checks"):
        v = getattr(args, key, None)
        if v is not None:
            overrides[key] = _coerce(key, v)
    if getattr(args, "seed_free", False):
        overrides["seed_free"] = True
    cfg = replace(cfg, **overrides)
    cfg.validate(args.command)
    return cfg


def _meta(cfg):
    return {"config": cfg.as_dict(), "version": __version__}


def _ground_state(cfg):
    params = ProblemParams(n=cfg.n, p=cfg.p, alpha=cfg.alpha, beta=cfg.beta)
    return params, find_ground_state(params, ode_tol=cfg.ode_tol, r_max=cfg.r_max)


def cmd_ground_state(cfg):
    params, prof = _ground_state(cfg)
    out = Path(cfg.out)
    prof.to_csv(out / "profile.csv", out / "profile.json")
    t = prof.tail
    print(f"v0 = {prof.v0:.12g}")
    print(f"tail: a = {t.a:.8g}  b = {t.b:.8g}  exp_U = {t.exp_U:.6g}  exp_V = {t.exp_V:.6g}")
    return 0


def cmd_constants(cfg):
    params, prof = _ground_state(cfg)
    consts = compute_constants(prof, b_mode=cfg.b_mode, b_delta=cfg.b_delta)
    rec = consts.as_dict()
    rec.update(_meta(cfg))
    write_json(Path(cfg.out) / "constants.json", rec)
    rel = abs(consts.A1 - consts.A2) / consts.A1
    print(f"A1 = {consts.A1:.8g}  A2 = {consts.A2:.8g}  |A1-A2|/A1 = {rel:.3e}")
    print(f"B1 = {consts.B1:.8g}  B2 = {consts.B2:.8g}")
    print(f"C1 = {consts.C1:.8g}  C2 = {consts.C2:.8g}")
    print(f"D1 = {consts.D1:.8g}  D2 = {consts.D2:.8g}")
    if cfg.b_mode == "DELTA":
        print(f"B mode DELTA at delta = {cfg.b_delta}")
    return 0


def cmd_reduced_energy(cfg):
    params, prof = _ground_state(cfg)
    consts = compute_constants(prof)
    re = ReducedEnergy(constants=consts, n=params.n, p=params.p, q=params.q,
                       alpha=cfg.alpha, beta=cfg.beta)
    ds = d_star(re)
    rec = {
        "d_star": ds,
        "G_at_d_star": G(re, ds),
        "coefficients": {"leading": 2.0 / params.n * consts.A1,
                         "eps_log_eps": re.log_coeff,
                         "log_d": re.log_coeff,
                         "linear_d": re.linear_coeff,
                         "constant": re.const_term},
        "eta_window": eta_window(re),
        "expansion_at_d_star": J_expansion(re, min(cfg.eps), ds),
    }
    rec.update(_meta(cfg))
    out = Path(cfg.out)
    write_json(out / "reduced_energy.json", rec)
    dgrid = np.geomspace(ds / 20.0, ds * 20.0, 200)
    write_csv(out / "reduced_energy_samples.csv", ["d", "G"],
              [dgrid, [G(re, float(x)) for x in dgrid]])
    import json
    print(json.dumps({k: rec[k] for k in ("d_star", "G_at_d_star", "coefficients")},
                     sort_keys=True, indent=2))
    return 0


def run_suite(cfg) -> list:
    """Run the selected verification checks; returns ExpansionReports."""
    params, prof = _ground_state(cfg)
    consts = compute_constants(prof)
    corr1 = corr2 = None
    if any(V.CHECK_NEEDS[c] == "phi" for c in cfg.checks):
        corr1 = HalfSpaceCorrection(prof, PHI1)
        corr2 = HalfSpaceCorrection(prof, PHI2)
    lvl = cfg.mesh_level
    reports = []
    for name in cfg.checks:
        if name == "bubble_mass":
            reports.append(V.check_bubble_mass(prof, consts, cfg.deltas, level=lvl))
        elif name == "cross_terms":
            reports.append(V.check_cross_terms(prof, cfg.deltas, level=lvl))
        elif name == "boundary_pairing":
            reports.append(V.check_phi_pairing(prof, corr1, corr2, consts,
                                               cfg.deltas, level=lvl))
        elif name == "gradient_energy":
            reports.append(V.check_gradient_expansion(prof, corr1, consts,
                                                      cfg.deltas, level=lvl))
        elif name == "nonlinear_energy":
            reports.append(V.check_nonlinear_expansion(prof, corr2, consts, cfg.eps,
                                                       d=cfg.d, alpha=cfg.alpha,
                                                       level=lvl))
        elif name == "linearized_kernel":
            reports.append(V.check_kernel(prof, mode="fd"))
        elif name == "scaling_table":
            for (t, row) in ((params.q + 1.0, "u1"), (1.0, "u1"), (2.0, "v2")):
                reports.append(V.check_scaling_table(params, t, row))
        elif name == "exponent_taylor":
            reports.append(V.check_f_taylor(params))
        elif name == "perturbed_norms":
            reports.append(V.check_norm_orders(prof, corr1, cfg.eps,
                                               d=cfg.d, level=lvl,
                                               beta=cfg.beta if cfg.beta > 0 else 1.0))
    return reports


def cmd_verify(cfg):
    reports = run_suite(cfg)
    out = Path(cfg.out)
    records = []
    for i, rep in enumerate(reports):
        rec = rep.to_record()
        records.append(rec)
        write_json(out / f"check_{i:02d}_{rep.name}.json", rec)
        samples = rep.samples
        num_cols = {k: v for k, v in samples.items()
                    if isinstance(v, (list, np.ndarray))
                    and len(v) and isinstance(v[0], (int, float, np.floating))}
        if num_cols:
            lens = {len(v) for v in num_cols.values()}
            if len(lens) == 1:
                write_csv(out / f"check_{i:02d}_{rep.name}.csv",
                          list(num_cols.keys()), list(num_cols.values()))
        status = "PASS" if rep.passed else "FAIL"
        print(f"[{status}] {rep.name}: deviation={rep.deviation} (tol={rep.tol})")
    overall = all(r.passed for r in reports)
    summary = {"overall": "PASS" if overall else "FAIL", "checks": records}
    summary.update(_meta(cfg))
    write_json(out / "summary.json", summary)
    print(f"overall: {summary['overall']}")
    return 0 if overall else 1


def cmd_report(cfg):
    out = Path(cfg.out)
    records = []
    for path in sorted(out.glob("check_*.json")):
        import json
        records.append(json.loads(path.read_text(encoding="utf-8")))
    overall = all(r.get("verdict") == "PASS" for r in records) if records else False
    agg = {"overall": "PASS" if overall else "FAIL", "n_checks": len(records),
           "checks": records}
    agg.update(_meta(cfg))
    write_json(out / "report.json", agg)
    print(f"aggregated {len(records)} records -> {out / 'report.json'}: "
          f"{agg['overall']}")
    return 0 if overall else 1


def make_parser():
    ap = argparse.ArgumentParser(prog="laneemden", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key = value file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed-free", dest="seed_free", action="store_true",
                        help="assert that the run draws no random numbers")
    common.add_argument("--n", type=int, default=None)
    common.add_argument("--p", type=str, default=None,
                        help="exponent p (decimal or rational like 11/3)")
    common.add_argument("--alpha", type=float, default=None)
    common.add_argument("--beta", type=float, default=None)
    common.add_argument("--r-max", dest="r_max", type=float, default=None)
    common.add_argument("--ode-tol", dest="ode_tol", type=float, default=None)

    sub.add_parser("ground-state", parents=[common])
    pc = sub.add_parser("constants", parents=[common])
    pc.add_argument("--b-mode", dest="b_mode", choices=["LIMIT", "DELTA", "limit", "delta"],
                    default=None)
    pc.add_argument("--b-delta", dest="b_delta", type=float, default=None)
    pr = sub.add_parser("reduced-energy", parents=[common])
    pr.add_argument("--eps", type=str, default=None)
    pv = sub.add_parser("verify", parents=[common])
    pv.add_argument("--checks", type=str, default=None,
                    help="comma-separated subset of: " + ",".join(V.CHECK_NAMES))
    pv.add_argument("--deltas", type=str, default=None)
    pv.add_argument("--eps", type=str, default=None)
    pv.add_argument("--d", type=float, default=None)
    pv.add_argument("--mesh-level", dest="mesh_level", type=int, default=None)
    sub.add_parser("report", parents=[common])
    return ap


def main(argv=None):
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if (e.code not in (0, None)) else 0
    try:
        cfg = build_config(args)
    except (ConfigError, ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    rng_state = np.random.get_state()[1].copy() if cfg.seed_free else None
    try:
        handler = {"ground-state": cmd_ground_state, "constants": cmd_constants,
                   "reduced-energy": cmd_reduced_energy, "verify": cmd_verify,
                   "report": cmd_report}[args.command]
        rc = handler(cfg)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    if cfg.seed_free:
        if not np.array_equal(rng_state, np.random.get_state()[1]):
            print("seed-free assertion failed: global RNG state changed",
                  file=sys.stderr)
            return 3
    return rc


if __name__ == "__main__":
    sys.exit(main())
