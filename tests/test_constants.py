import json

import numpy as np
import pytest

from laneemden import ProblemParams, find_ground_state
from laneemden.ballquad import gauss_legendre, sphere_measure
import laneemden.constants as constants_mod
from laneemden._interp import profile_eval
from laneemden.constants import (PANELS, TAIL_REACH, XI_RADIUS, _panels, _radial_quad,
                                 compute_B_delta, compute_constants)
from laneemden.errors import DomainError, NumericalFailure, TailDivergent
from laneemden.radial import load_profile
from constants_reference import closed_tail_constants

A1_EXACT = 32 * np.pi ** 2 / 3
B1_EXACT = 8 * np.sqrt(2) * np.pi ** 2
C1_EXACT = 24 * np.sqrt(2) * np.pi ** 2
D1_EXACT = -80 * np.pi ** 2 / 9  # int U^4 log U for the explicit bubble


def test_symmetric_closed_forms(consts_sym):
    # A1, B1, D1 measured 1.5e-12 to 5.3e-12 off, C1 4.4e-11 (1.9e-9 with the fitted
    # tail exponent in place of the theory's n - 2)
    assert consts_sym.A1 == pytest.approx(A1_EXACT, rel=1.2e-11)
    assert consts_sym.B1 == pytest.approx(B1_EXACT, rel=1.2e-11)
    assert consts_sym.C1 == pytest.approx(C1_EXACT, rel=1e-10)
    assert consts_sym.D1 == pytest.approx(D1_EXACT, rel=1.2e-11)


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
    """The array rule equals the panel-by-panel loop out to r_top * TAIL_REACH,
    bit for bit, and so does its part past r_top, a loop over the PANELS panels
    there; each row of a stack equals its lone integral."""
    xg, wg = gauss_legendre(k)
    for prof in (prof_sym, prof_case2):
        p, q = prof.params.p, prof.params.q

        def f(r):
            return r ** 3.0 * prof.eval_many(r)[0] ** (q + 1.0)

        def g(r):
            return r ** 3.0 * prof.eval_many(r)[2] ** (p + 1.0)

        r_top = prof.interp_pack.r_top
        edges = _panels(r_top)
        assert edges.size == 2 * PANELS + 1 and edges[PANELS] == r_top
        assert edges[-1] == r_top * TAIL_REACH
        total, tail = 0.0, 0.0
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            r = 0.5 * (a + b) + 0.5 * (b - a) * xg
            panel = 0.5 * (b - a) * np.sum(wg * f(r))
            total += panel
            if i >= PANELS:
                tail += panel
        assert _radial_quad(f, r_top, k) == (total, tail)
        rows, tails = _radial_quad(lambda r: [f(r), g(r)], r_top, k)
        assert rows.shape == tails.shape == (2,)
        assert (rows[0], tails[0]) == (total, tail)
        assert (rows[1], tails[1]) == _radial_quad(g, r_top, k)


def test_b_delta_matches_panel_loop(prof_sym):
    """The array strip integrals equal the nested panel/node loops, bit for bit."""
    delta, n, p, q = 0.02, 4, prof_sym.params.p, prof_sym.params.q
    xg, wg = gauss_legendre(12)
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


def test_gradient_slope_identity(prof_sym, prof_case1, prof_case2,
                                 consts_sym, consts_case1, consts_case2):
    """Integrating r^n U'V' by parts against each equation, and the radial
    Pohozaev quantity over (0, inf), gives two exact relations on the critical
    hyperbola: 2 B1 - C1 = 2 B2 - C2, and
    (n-3) C1 = 2 [(n+1)/(q+1) B1 + ((2n-2)/n - (n+1)/(q+1)) B2], with
    p <-> q and B1 <-> B2 swapped for C2.  Worst relative residuals measured:
    3.9e-11, 4.0e-7 and 6.1e-6 at p = 3, 2.5 and 1.9."""
    for prof, c, bound in ((prof_sym, consts_sym, 1e-10), (prof_case1, consts_case1, 1e-6),
                           (prof_case2, consts_case2, 1.5e-5)):
        n, p, q = prof.params.n, prof.params.p, prof.params.q

        def c_of_b(s, b_own, b_other):  # C from the B pair, s = own exponent + 1
            return 2.0 * ((n + 1) / s * b_own + ((2 * n - 2) / n - (n + 1) / s) * b_other) / (n - 3)

        assert abs((2 * c.B1 - c.C1) - (2 * c.B2 - c.C2)) <= bound * c.C1
        assert abs(c.C1 - c_of_b(q + 1.0, c.B1, c.B2)) <= bound * c.C1
        assert abs(c.C2 - c_of_b(p + 1.0, c.B2, c.B1)) <= bound * c.C2


def test_tail_robustness(prof_sym, consts_sym):
    short = find_ground_state(ProblemParams(n=4, p=3.0, alpha=1.0, beta=1.0),
                              r_max=5e3)
    c2 = compute_constants(short)
    for k in ("A1", "B1", "C1", "D1"):
        a, b = getattr(consts_sym, k), getattr(c2, k)
        budget = 2 * (consts_sym.err[k] + c2.err[k])
        assert abs(a - b) <= budget


def test_b_error_covers_the_tail_exponent(consts_case2):
    """At p = 1.9 the V tail of B2 decays only like r^-1.8: B2 moved by 4.4e-5 when
    the pack's V exponent went from the fitted 2.0000474 to the theory's 2, and
    err_B2 carries a share of the tail that covers that move."""
    assert consts_case2.err["B2"] >= 4.4e-5


def test_delta_mode_reported(prof_sym):
    c = compute_constants(prof_sym, b_delta=0.01)
    assert c.delta_used == 0.01
    lim = compute_constants(prof_sym).B1
    assert abs(c.B1 - lim) / lim <= 0.05


def test_b_delta_outside_range_is_a_domain_error(prof_sym):
    """An out-of-range delta is an argument error (exit 2), not a numerical failure."""
    for call in (lambda: compute_B_delta(prof_sym, 0.5), lambda: compute_B_delta(prof_sym, 0.0),
                 lambda: compute_constants(prof_sym, b_delta=0.5)):
        with pytest.raises(DomainError, match="outside") as err:
            call()
        assert not isinstance(err.value, NumericalFailure)


@pytest.mark.parametrize("b_delta", [-0.01, float("nan"), float("inf")])
def test_b_delta_off_its_range_rejected(prof_sym, b_delta):
    """b_delta alone selects B: 0 is the limit, (0, 0.1] the strip; any other value is refused."""
    with pytest.raises(DomainError, match="outside"):
        compute_constants(prof_sym, b_delta=b_delta)


@pytest.mark.parametrize("delta", [0.005, 0.01, 0.1])
def test_b_delta_gives_the_strip_value_bit_for_bit(prof_sym, consts_sym, delta):
    """B1, B2 are compute_B_delta's, each err is its distance from the limit, and
    every other constant is the limit run's, all bit for bit."""
    c, strip = compute_constants(prof_sym, b_delta=delta), compute_B_delta(prof_sym, delta)
    got, lim = c.as_dict(), consts_sym.as_dict()
    for k in ("B1", "B2"):
        assert got[k].hex() == strip[k].hex()
        assert got[f"err_{k}"].hex() == abs(strip[k] - lim[k]).hex()
    assert c.delta_used == delta and consts_sym.delta_used == 0.0
    assert {k: v.hex() for k, v in got.items() if "B" not in k and k != "delta_used"} == {
        k: v.hex() for k, v in lim.items() if "B" not in k and k != "delta_used"}


def test_as_dict_keys(consts_sym):
    d = consts_sym.as_dict()
    for k in ("A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2",
              "err_A1", "err_D2", "delta_used"):
        assert k in d
    assert "mode" not in d  # delta_used names the B in use


@pytest.mark.parametrize("p", [1.5, 1.8])
def test_tail_divergence_guard(tmp_path, prof_sym, monkeypatch, p):
    """A sidecar edited to p = 1.5 at n = 4, below the admissible ranges, gives
    exp_u_decay = 1, where the C tails diverge; at p = 1.8 they converge, but
    C's r^-1.6 leaves 10^(-14.4) of itself past r_top * TAIL_REACH, more than
    the 1e-16 the reach may drop.  The guard trips before the profile is
    evaluated."""
    prof_sym.to_csv(tmp_path / "profile.csv", tmp_path / "profile.json")
    side = json.loads((tmp_path / "profile.json").read_text())
    side["params"]["p"] = p
    (tmp_path / "profile.json").write_text(json.dumps(side))
    bad = load_profile(tmp_path / "profile.csv", tmp_path / "profile.json")
    assert bad.interp_pack.eu == 2.0 * p - 2.0  # 1 at p = 1.5

    def no_eval(*args):
        raise AssertionError("profile evaluated before the tail guard")

    monkeypatch.setattr(constants_mod, "profile_eval", no_eval)
    with pytest.raises(TailDivergent, match="second-component tail not integrable"):
        compute_constants(bad)


def test_one_profile_evaluation_per_gauss_rule(prof_sym, consts_sym, monkeypatch):
    """LIMIT mode evaluates U, dU, V, dV once at k = 12 and once at k = 20."""
    calls = []

    def counting(r, pack, parts):
        calls.append((r.size, parts))
        return profile_eval(r, pack, parts)

    monkeypatch.setattr(constants_mod, "profile_eval", counting)
    assert compute_constants(prof_sym) == consts_sym
    panels = _panels(prof_sym.interp_pack.r_top).size - 1
    assert calls == [(panels * k, ("U", "dU", "V", "dV")) for k in (12, 20)]


@pytest.mark.parametrize("case", ["sym", "case1", "case2"])
def test_integrated_tails_match_the_closed_forms(request, case):
    """The panels past r_top integrate the tail model the closed forms of
    constants_reference state: every constant within 1e-14 relative of them
    (measured <= 3.4e-16), every error within 1e-4 (measured <= 1.0e-5)."""
    want, want_err = closed_tail_constants(request.getfixturevalue(f"prof_{case}"))
    got = request.getfixturevalue(f"consts_{case}")
    for k, v in want.items():
        assert getattr(got, k) == pytest.approx(v, rel=1e-14, abs=0.0)
        assert got.err[k] == pytest.approx(want_err[k], rel=1e-4, abs=0.0)
