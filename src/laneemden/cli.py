"""Command-line front end.

Commands: ground-state, constants, reduced-energy, verify, report.
Exit codes: 0 success / all checks pass, 1 check failure, 2 usage or
configuration error, 3 numerical failure.

Configuration comes from an optional key = value file plus flags; flags
win.  Identical resolved configurations produce byte-identical outputs
(sorted JSON keys, shortest round-trip floats, no timestamps).

Importing this module loads no numpy: each command imports the modules it
runs when it runs, and --help, --version, report and every refused input
load none of the numerics.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .errors import ConfigError, DomainError, NumericalFailure
from .params import (B_DELTA_CAP, CORRECTION_N, DELTA_CAP, EPS_CAP, ProblemParams,
                     check_solvable, parse_exponent)
from .reporting import write_csv, write_json

# Each check, in run order: the verify function that runs it and the run inputs it
# reads, that function's parameters without a default, which run_suite passes in
# order.  The function is named, not bound, so that validate and --help load no
# numerics, and run_suite looks it up on verify, so a wrapper put there later is the
# one called.  tests/test_package.py pins the reads to the signatures.
CHECKS = {
    "bubble_mass": ("check_bubble_mass", ("profile", "constants", "deltas", "level")),
    "cross_terms": ("check_cross_terms", ("profile", "deltas", "level")),
    "boundary_pairing": ("check_phi_pairing",
                         ("profile", "phi1", "phi2", "constants", "deltas", "level")),
    "gradient_energy": ("check_gradient_expansion",
                        ("profile", "phi1", "constants", "deltas", "level")),
    "nonlinear_energy": ("check_nonlinear_expansion",
                         ("profile", "phi2", "constants", "eps", "d", "level")),
    "linearized_kernel": ("check_kernel", ("profile",)),
    "scaling_table": ("check_scaling_rows", ("params",)),
    "exponent_taylor": ("check_f_taylor", ("params",)),
    "perturbed_norms": ("check_norm_orders", ("profile", "phi1", "eps", "d", "level")),
}
CHECK_READS = {name: reads for name, (_, reads) in CHECKS.items()}
# the phi tables reach TABLE_REACH / (smallest delta); a field needs 2/delta, the
# bound of (1 +- x_n)/delta in the ball
TABLE_REACH = 2.2


def __getattr__(name):
    # perfbench/make_reference.py reads cli.compute_constants: the constants
    # module's, looked up when read (PEP 562), so importing cli loads no numerics
    if name == "compute_constants":
        from .constants import compute_constants
        return compute_constants
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    checks: tuple = tuple(CHECK_READS)
    b_delta: float = 0.0

    def validate(self, command="verify"):
        """Reject bad settings up front; verify's sample lists and the inputs its
        checks read (CHECK_READS) are checked for verify only."""
        # a NaN passes every range test below
        nonfinite = [k for k, v in asdict(self).items()
                     if any(isinstance(x, float) and not math.isfinite(x)
                            for x in (v if isinstance(v, tuple) else (v,)))]
        if nonfinite:
            raise ConfigError(f"non-finite values in {nonfinite}")
        # the range radial.shoot's stepper honours as given
        if not 100 * sys.float_info.epsilon <= self.ode_tol <= 1e-4:
            raise ConfigError(f"ode_tol={self.ode_tol!r} outside [100 eps, 1e-4]")
        if self.r_max <= 0:
            raise ConfigError("r_max must be positive")
        if any(d <= 0 or d > DELTA_CAP for d in self.deltas):
            raise ConfigError(f"delta samples must lie in (0, {DELTA_CAP}]")
        if any(e <= 0 or e > EPS_CAP for e in self.eps):
            raise ConfigError(f"eps samples must lie in (0, {EPS_CAP}]")
        if self.d <= 0:
            raise ConfigError("d must be positive")
        # the paper's perturbed exponents p + alpha eps, q + beta eps have slopes > 0
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("alpha and beta must be positive")
        if not 0 <= self.b_delta <= B_DELTA_CAP:
            raise ConfigError("b_delta must be 0 (the delta -> 0 limit) or lie in "
                              f"(0, {B_DELTA_CAP}]")
        unknown = [c for c in self.checks if c not in CHECK_READS]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}")
        if self.mesh_level < 1:
            raise ConfigError("mesh_level must be >= 1")
        empty = [k for k in ("checks", "deltas", "eps") if not getattr(self, k)]
        if empty:
            raise ConfigError(f"empty lists: {empty}")
        if command != "verify":
            return self
        # verify runs each check once, and its fits divide by the differences of its
        # samples, which a repeat makes 0
        for key, least in (("checks", 1), ("deltas", 2), ("eps", 2)):
            xs = getattr(self, key)
            if not least <= len(xs) == len(set(xs)):
                raise ConfigError(f"verify needs at least {least} {key} and no repeated one")
        phi_checks = [c for c in self.checks if {"phi1", "phi2"} & set(CHECK_READS[c])]
        if phi_checks and self.n != CORRECTION_N:
            raise ConfigError(f"checks {phi_checks} need the half-space corrections, "
                              f"implemented for n = {CORRECTION_N} only")
        d_checks = [c for c in self.checks if "d" in CHECK_READS[c]]
        top = max(self.sampled_deltas("d"), default=0.0)
        if top > DELTA_CAP:
            raise ConfigError(f"checks {d_checks} sample delta = d * eps up to {top!r}, "
                              f"outside (0, {DELTA_CAP}]")
        return self

    def sampled_deltas(self, *keys):
        """The bubble scales delta of the selected checks that read any of the inputs
        keys: d * eps for a check that reads d, else deltas."""
        return [x for c in self.checks if set(keys) & set(CHECK_READS[c])
                for x in ([self.d * e for e in self.eps] if "d" in CHECK_READS[c]
                          else self.deltas)]


_DEFAULTS = asdict(RunConfig())


def _coerce(key, raw):
    """Parse a flag or config-file value by the type of its RunConfig field.

    A float takes a decimal or a rational like 11/3, an integer (n, mesh_level)
    an integer literal only; a list is comma-separated.
    """
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown configuration key {key!r}")
    if not isinstance(raw, str):  # argparse reads --out=-- as []
        raise ConfigError(f"{key} takes a text value, not {raw!r}")
    default, s = _DEFAULTS[key], raw.strip()
    if isinstance(default, int):
        return int(s)
    if isinstance(default, float):
        return parse_exponent(s)
    if isinstance(default, tuple):
        items = [t.strip() for t in s.split(",") if t.strip()]
        return tuple(items) if key == "checks" else tuple(parse_exponent(t) for t in items)
    return s


def load_config(path) -> dict:
    """The key = value pairs of a config file; a key set twice is refused.  A # at a
    line's start or after whitespace starts a comment; any other # is in the value."""
    out, line_of = {}, {}
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        s = re.split(r"(?<!\S)#", line, maxsplit=1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        k, v = (t.strip() for t in s.split("=", 1))
        if k in line_of:
            raise ConfigError(f"{path}:{ln}: {k} is set again (first at line {line_of[k]})")
        out[k], line_of[k] = _coerce(k, v), ln
    return out


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = replace(cfg, **load_config(args.config))
    flags = {k: getattr(args, k, None) for k in _DEFAULTS}
    # "is not None", not truth: --checks "" must reach validate
    cfg = replace(cfg, **{k: _coerce(k, v) for k, v in flags.items() if v is not None})
    cfg.validate(args.command)
    return cfg


def _meta(cfg):
    # json writes each tuple field as a list
    return {"config": asdict(cfg), "version": __version__}


def _saved_profile(cfg, params):
    """The profile ground-state wrote to cfg.out, if it is the one cfg would solve.

    The solve reads only n, p, r_max and ode_tol, so a saved profile that
    matches them exactly is the same ground state, and the CSV's 17
    significant digits rebuild it bit for bit; alpha and beta come from
    ``params``.  Returns None when radial.load_profile rejects the pair or
    the settings disagree.
    """
    from . import radial
    out = Path(cfg.out)
    try:
        prof = radial.load_profile(out / "profile.csv", out / "profile.json")
    except (OSError, ValueError, LookupError, TypeError, ArithmeticError):
        return None
    if (prof.params.n, prof.params.p, prof.r_max, prof.ode_tol) != (
            cfg.n, cfg.p, cfg.r_max, cfg.ode_tol):
        return None
    return replace(prof, params=params)


def _ground_state(cfg, reuse=True):
    """(params, profile): the profile saved in cfg.out when it matches, else a solve.

    Parameters the solver refuses are refused before its modules load.
    """
    params = ProblemParams(n=cfg.n, p=cfg.p, alpha=cfg.alpha, beta=cfg.beta)
    check_solvable(params)
    from . import radial
    prof = _saved_profile(cfg, params) if reuse else None
    if prof is None:
        prof = radial.find_ground_state(params, ode_tol=cfg.ode_tol, r_max=cfg.r_max)
    return params, prof


def cmd_ground_state(cfg):
    params, prof = _ground_state(cfg, reuse=False)
    out = Path(cfg.out)
    prof.to_csv(out / "profile.csv", out / "profile.json")
    pk = prof.interp_pack
    print(f"v0 = {prof.v0:.12g}")
    print(f"tail: a = {pk.au:.8g}  c2 = {pk.cu2:.8g}  b = {pk.bv:.8g}")
    return 0


def cmd_constants(cfg):
    from .constants import compute_constants
    params, prof = _ground_state(cfg)
    consts = compute_constants(prof, b_delta=cfg.b_delta)
    rec = consts.as_dict()
    rec.update(_meta(cfg))
    write_json(Path(cfg.out) / "constants.json", rec)
    rel = abs(consts.A1 - consts.A2) / consts.A1
    print(f"A1 = {consts.A1:.8g}  A2 = {consts.A2:.8g}  |A1-A2|/A1 = {rel:.3e}")
    print(f"B1 = {consts.B1:.8g}  B2 = {consts.B2:.8g}")
    print(f"C1 = {consts.C1:.8g}  C2 = {consts.C2:.8g}")
    print(f"D1 = {consts.D1:.8g}  D2 = {consts.D2:.8g}")
    if cfg.b_delta:
        print(f"B1, B2 at delta = {cfg.b_delta}")
    return 0


def cmd_reduced_energy(cfg):
    import numpy as np
    from .constants import compute_constants
    from .reduced import G, ReducedEnergy, d_star, eta_window, J_expansion
    params, prof = _ground_state(cfg)
    consts = compute_constants(prof)
    re = ReducedEnergy(constants=consts, n=params.n, p=params.p, q=params.q,
                       alpha=params.alpha, beta=params.beta)
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
    print(json.dumps({k: rec[k] for k in ("d_star", "G_at_d_star", "coefficients")},
                     sort_keys=True, indent=2))
    return 0


def run_suite(cfg) -> list:
    """Run cfg.checks in order and return their ExpansionReports.

    Each check's function (CHECKS) takes the inputs it reads.  The ground
    state is always taken (from _ground_state); the energy constants and the
    phi tables phi1 and phi2 are built once each, and only when a selected check
    reads them; both reach TABLE_REACH / (the smallest delta a phi check samples).
    """
    from . import verify as V
    from .constants import compute_constants
    from .halfspace import PHI1, PHI2, HalfSpaceCorrection
    params, prof = _ground_state(cfg)
    inputs = {"params": params, "profile": prof, "deltas": cfg.deltas, "eps": cfg.eps,
              "d": cfg.d, "level": cfg.mesh_level}
    read = {key for name in cfg.checks for key in CHECK_READS[name]}
    if "constants" in read:
        inputs["constants"] = compute_constants(prof)
    if {"phi1", "phi2"} & read:  # one reach for both kinds: one table miss builds the pair
        reach = TABLE_REACH / min(cfg.sampled_deltas("phi1", "phi2"))
        inputs.update({key: HalfSpaceCorrection(prof, which).table(reach)
                       for key, which in (("phi1", PHI1), ("phi2", PHI2)) if key in read})
    reports = []
    for name in cfg.checks:
        fname, reads = CHECKS[name]
        out = getattr(V, fname)(*(inputs[key] for key in reads))
        reports += out if isinstance(out, list) else [out]  # check_scaling_rows' is a list
    return reports


def cmd_verify(cfg):
    reports = run_suite(cfg)
    out = Path(cfg.out)
    for old in (*out.glob("check_[0-9][0-9]_*.json"), *out.glob("check_[0-9][0-9]_*.csv")):
        old.unlink()  # an earlier run's, which may have had more checks
    records = []
    for i, rep in enumerate(reports):
        rec = rep.to_record()
        records.append(rec)
        write_json(out / f"check_{i:02d}_{rep.name}.json", rec)
        # to_record has made each array of samples a list of floats
        num_cols = {k: v for k, v in rec["samples"].items()
                    if isinstance(v, list) and len(v) and isinstance(v[0], (int, float))}
        if num_cols and len({len(v) for v in num_cols.values()}) == 1:
            write_csv(out / f"check_{i:02d}_{rep.name}.csv",
                      list(num_cols.keys()), list(num_cols.values()))
        status = "PASS" if rep.passed else "FAIL"
        # a string target states the gate's direction (">= 0.9"), which tol alone hides
        bound = f"target {rep.target}" if isinstance(rep.target, str) else f"tol={rep.tol}"
        print(f"[{status}] {rep.name}: deviation={rec['deviation']} ({bound})")
    overall = all(r.passed for r in reports)
    summary = {"overall": "PASS" if overall else "FAIL", "checks": records}
    summary.update(_meta(cfg))
    write_json(out / "summary.json", summary)
    print(f"overall: {summary['overall']}")
    return 0 if overall else 1


def cmd_report(cfg):
    """Aggregate the check records of the last verify run into report.json.

    report.json carries that run's config (None when there is no summary):
    report takes no flag of a run, so its own config would describe nothing.
    """
    out = Path(cfg.out)
    summary = out / "summary.json"
    try:
        run = json.loads(summary.read_text(encoding="utf-8"))
        records, config = run["checks"], run.get("config")
    except FileNotFoundError:
        records, config = [], None
    except (ValueError, LookupError, TypeError) as e:  # cut, not UTF-8, or not an object
        raise DomainError(f"{summary}: not a verify summary ({e!r})") from e
    if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
        raise DomainError(f"{summary}: checks is not a list of records")
    overall = all(r.get("verdict") == "PASS" for r in records) if records else False
    agg = {"overall": "PASS" if overall else "FAIL", "n_checks": len(records),
           "checks": records, "config": config, "version": __version__}
    write_json(out / "report.json", agg)
    print(f"aggregated {len(records)} records -> {out / 'report.json'}: "
          f"{agg['overall']}")
    return 0 if overall else 1


_COMMON_KEYS = ("out",)
# the keys of the ground state, which every command but report solves or reuses
_SOLVE_KEYS = ("n", "p", "alpha", "beta", "r_max", "ode_tol")
# each command's handler and flag keys; every RunConfig field is a common key or some
# command's key
COMMANDS = {"ground-state": (cmd_ground_state, _SOLVE_KEYS),
            "constants": (cmd_constants, _SOLVE_KEYS + ("b_delta",)),
            "reduced-energy": (cmd_reduced_energy, _SOLVE_KEYS + ("eps",)),
            "verify": (cmd_verify, _SOLVE_KEYS + ("checks", "deltas", "eps", "d", "mesh_level")),
            "report": (cmd_report, ())}
_HELP = {"out": "output directory",
         "b_delta": "boundary-strip delta of B1, B2; 0 (default) is the delta -> 0 limit",
         "p": "exponent p (decimal or rational like 11/3)",
         "checks": "comma-separated subset of: " + ",".join(CHECK_READS)}


def _add_flags(parser, keys):
    """One --key-name flag per RunConfig field; values stay text for _coerce."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), default=None, help=_HELP.get(key))


def make_parser():
    ap = argparse.ArgumentParser(prog="laneemden", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key = value file")
    _add_flags(common, _COMMON_KEYS)
    for command, (_, keys) in COMMANDS.items():
        _add_flags(sub.add_parser(command, parents=[common]), keys)
    return ap


def main(argv=None):
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if (e.code not in (0, None)) else 0
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command][0](cfg)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
