"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion NN PASS/FAIL` line (run pytest -s to see
them all); the assertions carry the same tolerances.
"""

import json

import numpy as np
import pytest

from conftest import closed_form_bubble
from laneemden import ProblemParams
from laneemden.cli import main as cli_main
from laneemden.constants import EnergyConstants
from laneemden.reduced import G, G_prime, ReducedEnergy, d_star
import laneemden.verify as V

A1_EXACT = 32 * np.pi ** 2 / 3
B1_EXACT = 8 * np.sqrt(2) * np.pi ** 2
C1_EXACT = 24 * np.sqrt(2) * np.pi ** 2
DELTAS = (0.04, 0.02, 0.01)
EPS = (0.04, 0.02, 0.01)


def _line(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_closed_form_ground_state(prof_sym):
    u, _ = closed_form_bubble(4)
    r = np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 500)])
    U = prof_sym.eval_many(r)[0]
    V = prof_sym.eval_many(r)[2]
    prof_err = max(np.max(np.abs(U / u(r) - 1)), np.max(np.abs(V / u(r) - 1)))
    ok = (abs(prof_sym.v0 - 1.0) <= 1e-6 and prof_err <= 1e-6
          and abs(prof_sym.tail.a - 8.0) <= 8.0 * 1e-3
          and abs(prof_sym.tail.b - 8.0) <= 8.0 * 1e-3)
    _line(1, ok, f"v0-1={prof_sym.v0-1:.2e}, profile err={prof_err:.2e}, "
                 f"a={prof_sym.tail.a:.6f}, b={prof_sym.tail.b:.6f}")


def test_criterion_02_mass_identity(consts_case1, consts_case2):
    r1 = abs(consts_case1.A1 - consts_case1.A2) / consts_case1.A1
    r2 = abs(consts_case2.A1 - consts_case2.A2) / consts_case2.A1
    _line(2, r1 <= 1e-3 and r2 <= 1e-3,
          f"|A1-A2|/A1 = {r1:.2e} (p=2.5), {r2:.2e} (p=1.9)")


def test_criterion_03_decay_relation(prof_case2):
    t = prof_case2.tail
    p = prof_case2.params.p
    lhs = t.b ** p
    rhs = t.a * ((4 - 2) * p - 2.0) * (4.0 - (4 - 2) * p)
    rel = abs(lhs - rhs) / lhs
    _line(3, rel <= 0.02, f"|b^p - a*1.8*0.2|/b^p = {rel:.2%}")


def test_criterion_04_decay_exponents(prof_sym, prof_case1, prof_case2):
    devs = []
    for prof in (prof_sym, prof_case1, prof_case2):
        devs.append(abs(prof.tail.exp_V - 2.0) / 2.0)
    ok = all(d <= 0.01 for d in devs)
    du1 = abs(prof_sym.tail.exp_U - 2.0) / 2.0
    du2 = abs(prof_case1.tail.exp_U - 2.0) / 2.0
    du3 = abs(prof_case2.tail.exp_U - 1.8) / 1.8
    ok = ok and du1 <= 0.01 and du2 <= 0.01 and du3 <= 0.02
    _line(4, ok, f"exp_V devs {[f'{d:.3%}' for d in devs]}, "
                 f"exp_U devs sym={du1:.3%} i={du2:.3%} ii={du3:.3%}")


def test_criterion_05_kernel_identity(prof_sym, prof_case1, prof_case2):
    worst_fd = max(V.check_kernel(p, mode="fd").deviation
                   for p in (prof_sym, prof_case1, prof_case2))
    ana = V.check_kernel(prof_sym, mode="analytic").deviation
    _line(5, worst_fd <= 1e-4 and ana <= 1e-6,
          f"FD residual {worst_fd:.2e} (<=1e-4), analytic {ana:.2e} (<=1e-6)")


def test_criterion_06_phi_corrections(corr1_sym, corr2_sym, corr1_case2):
    r1 = corr1_sym.verify_harmonic(h=0.1, k=2)
    r2 = corr1_sym.verify_harmonic(h=0.05, k=2)
    second_order = 2.5 <= r1 / r2 <= 6.0
    neumann = max(corr1_sym.verify_neumann_data([0.5, 1.0, 2.0, 5.0]),
                  corr2_sym.verify_neumann_data([0.5, 1.0, 2.0, 5.0]),
                  corr1_case2.verify_neumann_data([0.5, 1.0, 2.0, 5.0]))
    k1, t1 = corr1_sym.decay_exponent()
    k2, t2 = corr2_sym.decay_exponent()
    k3, t3 = corr1_case2.decay_exponent()
    decay_ok = all(abs(k - t) / t <= 0.05 for k, t in ((k1, t1), (k2, t2), (k3, t3)))
    ok = second_order and r2 <= 1e-2 and neumann <= 1e-2 and decay_ok
    _line(6, ok, f"FD ratio {r1/r2:.2f}, residual {r2:.1e}, neumann {neumann:.1e}, "
                 f"decay fits {k1:.3f}/{t1} {k2:.3f}/{t2} {k3:.3f}/{t3}")


def test_criterion_07_symmetric_constants(consts_sym):
    da = abs(consts_sym.A1 - A1_EXACT) / A1_EXACT
    db = abs(consts_sym.B1 - B1_EXACT) / B1_EXACT
    dc = abs(consts_sym.C1 - C1_EXACT) / C1_EXACT
    _line(7, da <= 1e-4 and db <= 0.01 and dc <= 0.01,
          f"A1 dev {da:.1e} (<=1e-4), B1 dev {db:.1e} (<=1%), C1 dev {dc:.1e} (<=1%)")


def test_criterion_08_bubble_mass(prof_sym, consts_sym):
    rep = V.check_bubble_mass(prof_sym, consts_sym, DELTAS, tol=0.05)
    _line(8, rep.passed, f"richardson slope {rep.fit['richardson']:.4f} vs "
                         f"-B1 {-consts_sym.B1:.4f} ({rep.deviation:.2%})")


def test_criterion_09_pairings(prof_sym, corr1_sym, corr2_sym, consts_sym):
    rep = V.check_phi_pairing(prof_sym, corr1_sym, corr2_sym, consts_sym,
                              DELTAS, tol=0.05)
    cross = V.check_cross_terms(prof_sym, DELTAS)
    ok = rep.passed and cross.passed
    _line(9, ok, f"matched devs {rep.deviation['matched_1']:.2%}/"
                 f"{rep.deviation['matched_2']:.2%}, crossed shrink "
                 f"{rep.deviation['min_shrink']:.2f}, "
                 f"opposite-bubble shrink {cross.deviation:.2f}")


def test_criterion_10_gradient_energy(prof_sym, corr1_sym, consts_sym):
    rep = V.check_gradient_expansion(prof_sym, corr1_sym, consts_sym, DELTAS, tol=0.10)
    _line(10, rep.passed, f"slope {rep.fit['slope']:.4f} vs target "
                          f"{rep.target:.4f} ({rep.deviation:.2%})")


def test_criterion_11_nonlinear_energy(prof_sym, corr2_sym, consts_sym):
    rep = V.check_nonlinear_expansion(prof_sym, corr2_sym, consts_sym, EPS,
                                      d=0.2, alpha=1.0, tol=0.10)
    d = rep.deviation
    _line(11, rep.passed,
          f"leading {d['leading']:.2%}, delta addend {d['delta_slope']:.2%}, "
          f"eps addend {d['eps_part']:.2%}, residual shrink {d['min_shrink']:.2f}")


def test_criterion_12_d_star(consts_sym):
    c = EnergyConstants(A1=A1_EXACT, A2=A1_EXACT, B1=B1_EXACT, B2=B1_EXACT,
                        C1=C1_EXACT, C2=C1_EXACT, D1=-80 * np.pi ** 2 / 9,
                        D2=-80 * np.pi ** 2 / 9, err={})
    re = ReducedEnergy(constants=c, n=4, p=3.0, q=3.0, alpha=1.0, beta=1.0)
    ds = d_star(re)
    stat = abs(G_prime(re, ds)) * ds / re.log_coeff
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = ds / 50.0, ds * 50.0
    c_, d_ = b - gr * (b - a), a + gr * (b - a)
    while abs(b - a) > 1e-13:
        if G(re, c_) > G(re, d_):
            b = d_
        else:
            a = c_
        c_, d_ = b - gr * (b - a), a + gr * (b - a)
    golden = 0.5 * (a + b)
    h = 1e-6 * ds
    g2 = (G(re, ds + h) - 2 * G(re, ds) + G(re, ds - h)) / h ** 2
    ok = (stat <= 1e-12 and abs(golden - ds) <= 1e-6 and g2 < 0
          and abs(ds - 1 / (6 * np.sqrt(2))) <= 1e-6)
    _line(12, ok, f"d*={ds:.12f} (1/(6 sqrt2)={1/(6*np.sqrt(2)):.12f}), "
                  f"|G'| rel {stat:.1e}, golden gap {abs(golden-ds):.1e}, G''={g2:.3g}")


def test_criterion_13_scaling_table():
    pp = ProblemParams(n=4, p=3.0)
    reps = [V.check_scaling_table(pp, pp.q + 1.0, "u1"),
            V.check_scaling_table(pp, 1.0, "u1"),
            V.check_scaling_table(pp, 2.0, "v2")]
    ok = all(r.passed for r in reps)
    _line(13, ok, "; ".join(f"{r.details['row']} t={r.details['t']}: "
                            f"slope {r.fit['slope']:.4f} vs {r.target:.1f}"
                            for r in reps))


def test_criterion_14_exponent_taylor():
    pp = ProblemParams(n=4, p=3.0, alpha=1.0, beta=1.0)
    rep = V.check_f_taylor(pp, t_samples=np.geomspace(0.1, 10.0, 201),
                           eps_values=(0.1, 0.01))
    _line(14, rep.passed, f"max remainder/bound ratio {rep.deviation:.3f} (<=1)")


def test_criterion_15_determinism(tmp_path):
    out = tmp_path / "det"
    args = ["verify", "--out", str(out), "--checks", "exponent_taylor,scaling_table"]
    assert cli_main(list(args)) == 0
    first = (out / "summary.json").read_bytes()
    assert cli_main(list(args)) == 0
    second = (out / "summary.json").read_bytes()
    ok = first == second and json.loads(first)["overall"] == "PASS"
    _line(15, ok, f"summary.json identical across runs ({len(first)} bytes)")
