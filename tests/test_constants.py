import numpy as np
import pytest
from scipy.special import roots_legendre

from laneemden import ProblemParams, find_ground_state
from laneemden.ballquad import sphere_measure
from laneemden.constants import (XI_RADIUS, _panels, _radial_quad, compute_A_D,
                                 compute_B_delta, compute_B_limit, compute_C,
                                 compute_constants)
from laneemden.errors import TailDivergent

A1_EXACT = 32 * np.pi ** 2 / 3
B1_EXACT = 8 * np.sqrt(2) * np.pi ** 2
C1_EXACT = 24 * np.sqrt(2) * np.pi ** 2
D1_EXACT = -80 * np.pi ** 2 / 9  # int U^4 log U for the explicit bubble


def test_symmetric_closed_forms(consts_sym):
    assert consts_sym.A1 == pytest.approx(A1_EXACT, rel=1e-6)
    assert consts_sym.B1 == pytest.approx(B1_EXACT, rel=1e-6)
    assert consts_sym.C1 == pytest.approx(C1_EXACT, rel=1e-6)
    assert consts_sym.D1 == pytest.approx(D1_EXACT, rel=1e-6)


def test_symmetric_pairs_identical(consts_sym):
    # U and V coincide bitwise at the symmetric point
    assert consts_sym.A1 == consts_sym.A2
    assert consts_sym.B1 == consts_sym.B2
    assert consts_sym.C1 == consts_sym.C2
    assert consts_sym.D1 == consts_sym.D2


def test_mass_identity(consts_case1, consts_case2):
    for c in (consts_case1, consts_case2):
        assert abs(c.A1 - c.A2) / c.A1 <= 1e-3


def test_positivity(consts_sym, consts_case1, consts_case2):
    for c in (consts_sym, consts_case1, consts_case2):
        for k in ("A1", "A2", "B1", "B2", "C1", "C2"):
            assert getattr(c, k) > 0
        assert np.isfinite(c.D1) and np.isfinite(c.D2)


def test_b_delta_converges_to_limit(prof_sym, consts_sym):
    prev = None
    for d in (0.04, 0.02, 0.01):
        bd = compute_B_delta(prof_sym, d)
        rel = abs(bd["B1"] - consts_sym.B1) / consts_sym.B1
        if prev is not None:
            assert rel < prev
        prev = rel
    assert rel <= 0.05


@pytest.mark.parametrize("k", [12, 20])
def test_radial_quad_matches_panel_loop(prof_sym, prof_case2, k):
    """The array rule equals the panel-by-panel loop, bit for bit."""
    xg, wg = roots_legendre(k)
    for prof in (prof_sym, prof_case2):
        q = prof.params.q

        def f(r):
            return r ** 3.0 * prof.eval_many(r)[0] ** (q + 1.0)

        edges = _panels(prof.interp_pack.r_top)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            r = 0.5 * (a + b) + 0.5 * (b - a) * xg
            total += 0.5 * (b - a) * np.sum(wg * f(r))
        assert _radial_quad(f, prof.interp_pack.r_top, k) == total


def test_b_delta_matches_panel_loop(prof_sym):
    """The array strip integrals equal the nested panel/node loops, bit for bit."""
    delta, n, p, q = 0.02, 4, prof_sym.params.p, prof_sym.params.q
    xg, wg = roots_legendre(12)
    edges = np.concatenate([np.linspace(0.0, 1.0, 5)[:-1],
                            np.geomspace(1.0, XI_RADIUS / delta, 40)])
    sm = sphere_measure(n - 1)
    want = {}
    for key, component_v in (("B1", False), ("B2", True)):
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            tau = 0.5 * (a + b) + 0.5 * (b - a) * xg
            wt = 0.5 * (b - a) * wg
            ubar = delta * tau * tau / (1.0 + np.sqrt(1.0 - delta * delta * tau * tau))
            inner = np.zeros_like(tau)
            for k in range(xg.size):
                u = 0.5 * ubar * (1.0 + xg[k])
                U, _, V, _ = prof_sym.eval_many(np.sqrt(tau * tau + u * u))
                val = V ** (p + 1.0) if component_v else U ** (q + 1.0)
                inner += 0.5 * ubar * wg[k] * val
            total += np.sum(wt * tau ** (n - 2.0) * inner)
        want[key] = sm * total / delta
    assert compute_B_delta(prof_sym, delta) == want


def test_gradient_slope_identity(consts_sym, consts_case1, consts_case2):
    # both single-component forms of the mixed gradient slope agree:
    # 2 B1 - C1 = 2 B2 - C2 (an integration-by-parts identity)
    for c in (consts_sym, consts_case1, consts_case2):
        lhs = 2 * c.B1 - c.C1
        rhs = 2 * c.B2 - c.C2
        assert lhs == pytest.approx(rhs, rel=1e-3)


def test_tail_robustness(prof_sym, consts_sym):
    short = find_ground_state(ProblemParams(n=4, p=3.0, alpha=1.0, beta=1.0),
                              r_max=5e3)
    c2 = compute_constants(short)
    for k in ("A1", "B1", "C1", "D1"):
        a, b = getattr(consts_sym, k), getattr(c2, k)
        budget = 2 * (consts_sym.err[k] + c2.err[k])
        assert abs(a - b) <= budget


def test_delta_mode_reported(prof_sym):
    c = compute_constants(prof_sym, b_mode="DELTA", b_delta=0.01)
    assert c.mode == "DELTA"
    assert c.delta_used == 0.01
    lim = compute_B_limit(prof_sym)["B1"][0]
    assert abs(c.B1 - lim) / lim <= 0.05


def test_as_dict_keys(consts_sym):
    d = consts_sym.as_dict()
    for k in ("A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2",
              "err_A1", "err_D2", "mode", "delta_used"):
        assert k in d


def test_tail_divergence_guard(prof_sym):
    import dataclasses
    bad_tail = dataclasses.replace(prof_sym.tail, exp_U=0.5)
    bad = prof_sym.with_tail(bad_tail)
    with pytest.raises(TailDivergent):
        compute_A_D(bad)
    with pytest.raises(TailDivergent):
        compute_B_limit(bad)
    with pytest.raises(TailDivergent):
        compute_C(bad)
