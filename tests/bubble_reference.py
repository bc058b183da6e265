"""Reference copies of the bubble layer's earlier array code.

The oracle tests require the package's profile kernel and cross-term
integrals to equal these bit for bit: the arithmetic is the same, only the
work skipped or shared changed.  Every integral here calls its integrand
once on every node of the mesh and sums as BallQuadrature.integrate does
(`sum_by_cells`): np.sum over each rho cell, then np.sum over the cell sums.

- `profile_eval_where`: the profile kernel that forms the power tails at
  every radius and picks cubic or tail through `np.where`, also when every
  radius lies inside r_top.
- `cross_integrals_two_calls`: check_cross_terms' integral at one delta with
  four bubble evaluations, the integrand called once on the upper half of
  the mesh and once on the mirrored lower half.
- `integrate_one_shot`: BallQuadrature.integrate with the integrand called
  once on every node of the mesh, not on runs of rho cells.
- `gradient_integrals_two_calls`: check_gradient_expansion's two integrals
  at one delta, the integrand called on the upper half of the mesh and
  again on the mirrored lower half.
- `pairing_integrals_two_calls`: check_phi_pairing's four scaled pairings
  at one delta, with all four phi lookups made again on the lower half.
"""

import numpy as np

from laneemden._interp import tail_terms
from laneemden.ansatz import AnsatzField, bubble_uv


def profile_eval_where(r, pack, parts):
    r = np.abs(r)
    inside = r <= pack.r_top
    rc = np.where(inside, r, pack.r_top)
    idx = np.searchsorted(pack.breaks, rc) - 1
    idx = np.minimum(np.maximum(idx, 0), pack.breaks.shape[0] - 2)
    dx = rc - pack.breaks[idx]
    rt = np.where(inside, pack.r_top, r)
    out = []
    for part in parts:
        c = getattr(pack, "c" + part.lower())
        cubic = ((c[0][idx] * dx + c[1][idx]) * dx + c[2][idx]) * dx + c[3][idx]
        tail = 0.0
        for a, e in tail_terms(pack, part.endswith("V")):
            tail = tail + (-e * a * rt ** (-e - 1.0) if part[0] == "d" else a * rt ** (-e))
        out.append(np.where(inside, cubic, tail))
    return tuple(out)


def sum_by_cells(quad, w, upper, lower):
    """The sum of w * (upper + lower) over the whole mesh's nodes, np.sum over
    each rho cell and then over the cell sums."""
    v = w * (upper + lower)
    cell = quad.nodes(0, 1)[0].size
    return np.sum(np.sum(v.reshape(v.shape[:-1] + (-1, cell)), axis=-1), axis=-1)


def _two_calls(quad, f):
    s, t, w = quad.nodes()
    return sum_by_cells(quad, w, np.asarray(f(s, t)), np.asarray(f(s, -t)))


def cross_integrals_two_calls(profile, quad, d):
    pp = profile.params

    def f(s, t):
        Up, Vp = bubble_uv(s, t, 1.0, d, profile, ("U", "V"))
        Um, Vm = bubble_uv(s, t, -1.0, d, profile, ("U", "V"))
        return [Up * Um ** pp.q, Vp * Vm ** pp.p]

    return _two_calls(quad, f)


def gradient_integrals_two_calls(profile, tab, quad, d):
    pp = profile.params
    fld = AnsatzField(profile, d, tab)

    def f(s, t):
        (Up,) = bubble_uv(s, t, 1.0, d, profile, ("U",))
        (Um,) = bubble_uv(s, t, -1.0, d, profile, ("U",))
        bare = Up - Um
        src = Up ** pp.q - Um ** pp.q
        return [(bare + fld.correction_st(s, t)) * src, bare * src]

    return _two_calls(quad, f)


def pairing_integrals_two_calls(profile, tab1, tab2, quad, d):
    pp = profile.params

    def f(s, t):
        U, V = bubble_uv(s, t, 1.0, d, profile, ("U", "V"))
        Uq, Vp = U ** pp.q, V ** pp.p
        sd, near, far = s / d, (1.0 - t) / d, (1.0 + t) / d
        return [tab1.eval_many(sd, near) * Uq, tab2.eval_many(sd, near) * Vp,
                tab1.eval_many(sd, far) * Uq, tab2.eval_many(sd, far) * Vp]

    scale = np.array([d ** (1.0 - pp.su), d ** (1.0 - pp.sv)] * 2)
    return -scale * _two_calls(quad, f)


def integrate_one_shot(quad, f, halves=False):
    pair = f if halves else lambda s, t: (f(s, t), f(s, -t))
    s, t, w = quad.nodes()
    total = sum_by_cells(quad, w, *map(np.asarray, pair(s, t)))
    return float(total) if total.ndim == 0 else total
