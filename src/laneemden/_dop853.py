"""scipy's DOP853 stepper, dense output and brentq, step for step, without scipy.

Each step repeats scipy's operations in their order, so it is the same bits.
Each stage's weighted sum of the earlier stages stays one numpy gemv; the
state around it (y + dot*h, y_new and the error scale) is formed on Python
floats, the same IEEE operations numpy applies element by element, and the
right-hand side takes and returns 4 floats.  Stage rows and the scale go
into their arrays through flat memoryviews.  The two error norms stay numpy
(dot, division and x.dot(x)): BLAS's ddot does not sum as a Python loop does.
The scalar step control runs on Python floats.  The tableau is Hairer's, as in
scipy's dop853_coefficients.py (BSD-3-Clause; (c) 2001-2002 Enthought, Inc.,
2003- SciPy Developers), each coefficient the shortest decimal of its double.
"""

import math

import numpy as np

from .errors import StepFailure

SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10, -1 / 8  # -1 / (order 7 + 1)
N_STAGES = 12
C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778])
A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = [  # row by row: A[1, :1], A[2, :2], ..., A[15, :15]
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137, 0.02958758547680685, 0.0,
    0.08876275643042054, 0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242, 0.037109375, 0.0,
    0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125, 0.03709200011850479, 0.0, 0.0,
    0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
    -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627, -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
    -3.0467644718982196, 2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0.0, 0.0, 0.0, 0.0,
    4.450312892752409, 1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259, 0.056167502283047954, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
    0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
    -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
    -0.00034046500868740456, 0.1413124436746325, -0.42889630158379194, 0.0, 0.0, 0.0, 0.0,
    -4.697621415361164, 7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
    -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]
B = A[N_STAGES, :N_STAGES]
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
E5 = np.zeros(13)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294]
D = np.zeros((4, 16))
D[:, [0, *range(5, 16)]] = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564]]
STAGES = [(float(C[s]), A[s, :s]) for s in range(16)]  # each stage's node and weights


def _norm(x):
    return math.sqrt(x.dot(x))  # np.linalg.norm of a real 1-D array


def error_scale(atol, rtol, y, y_new):
    """atol + np.maximum(|y|, |y_new|) * rtol for one component's floats y, y_new.

    NaN where either is NaN, as np.maximum gives it: Python's max(a, b) would
    drop a NaN b, and a NaN stage must still reject its step.
    """
    a, b = abs(y), abs(y_new)
    return atol + (a if a > b or a != a else b) * rtol


def at(piece, t):
    """A piece's y(t), one row per point of a column t, summed as Dop853DenseOutput sums."""
    t_old, h, y_old, F = piece
    x, y = (t - t_old) / h, 0.0
    for k in range(6, -1, -1):
        y = (y + F[..., k, :]) * (x if k % 2 == 0 else 1 - x)
    return y + y_old


def solution(ts, pieces):
    """y(t) of the pieces between breakpoints ts, ascending, for a 1-D array t, as
    OdeSolution picks them: a breakpoint takes the lower piece, the end pieces extend."""
    t_old, h, y_old, F = map(np.array, zip(*pieces))

    def sol(t):
        seg = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, ts.size - 2)
        return at((t_old[seg, None], h[seg, None], y_old[seg], F[seg]), t[:, None]).T
    return sol


class DOP853:
    """DOP853 with max_step = inf for 4 equations, t0 < t_bound.

    t0, t_bound and the 4 components of y0 are Python floats; fun(t, y) takes
    a float t and a tuple of 4 floats and returns 4 floats.  The state y is a
    tuple of 4 floats.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        self.fun, self.t, self.t_bound, self.rtol, self.atol = fun, t0, t_bound, rtol, atol
        self.y = tuple(y0)
        self.K = np.empty((16, 4))
        self.KT = [self.K[:s].T for s in range(17)]  # sliced as scipy slices them
        self.scale = np.empty(4)
        # flat float views that the step writes its stages and scale through
        self._Kf, self._sf = memoryview(self.K).cast("B").cast("d"), memoryview(self.scale)
        self.f = fun(t0, self.y)
        # select_initial_step for the order-7 error estimate
        y0, f0 = np.array(self.y), np.array(self.f, dtype=float)
        scale = atol + np.abs(y0) * rtol
        d0, d1 = _norm(y0 / scale) / 2.0, _norm(f0 / scale) / 2.0
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t_bound - t0))
        f1 = np.array(fun(t0 + h0, tuple((y0 + h0 * f0).tolist())), dtype=float)
        d2 = _norm((f1 - f0) / scale) / 2.0 / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / 8))
        self.h_abs, self.nfev = min(100 * h0, h1, abs(t_bound - t0)), 2

    def step(self):
        """Take one step; StepFailure where it would fall below 10 float spacings of t."""
        t, y, fun, KT, Kf, sf = self.t, self.y, self.fun, self.KT, self._Kf, self._sf
        atol, rtol, scale = self.atol, self.rtol, self.scale
        y0, y1, y2, y3 = y
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(self.h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StepFailure(f"integrator failed at r={t:.4g}: Required step size "
                                  "is less than spacing between numbers.")
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)
            Kf[0], Kf[1], Kf[2], Kf[3] = self.f
            for s in range(1, N_STAGES):
                c, a = STAGES[s]
                d0, d1, d2, d3 = KT[s].dot(a).tolist()
                o = 4 * s
                Kf[o], Kf[o + 1], Kf[o + 2], Kf[o + 3] = fun(
                    t + c * h, (y0 + d0 * h, y1 + d1 * h, y2 + d2 * h, y3 + d3 * h))
            d0, d1, d2, d3 = KT[N_STAGES].dot(B).tolist()
            y_new = n0, n1, n2, n3 = y0 + h * d0, y1 + h * d1, y2 + h * d2, y3 + h * d3
            o = 4 * N_STAGES
            Kf[o], Kf[o + 1], Kf[o + 2], Kf[o + 3] = f_new = fun(t + h, y_new)
            self.nfev += N_STAGES
            sf[0] = error_scale(atol, rtol, y0, n0)
            sf[1] = error_scale(atol, rtol, y1, n1)
            sf[2] = error_scale(atol, rtol, y2, n2)
            sf[3] = error_scale(atol, rtol, y3, n3)
            e5 = _norm(KT[N_STAGES + 1].dot(E5) / scale) ** 2
            e3 = _norm(KT[N_STAGES + 1].dot(E3) / scale) ** 2
            error_norm = (0.0 if e5 == 0 and e3 == 0
                          else h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * 4))
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        self.t_old, self.y_old, self.h = t, y, h
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs

    def dense_output(self):
        """The last step's piece (t_old, h, y_old, F), from 3 more stages."""
        K, h, t_old, y_old = self.K, self.h, self.t_old, self.y_old
        for s in range(N_STAGES + 1, 16):
            c, a = STAGES[s]
            d = self.KT[s].dot(a).tolist()
            K[s] = self.fun(t_old + c * h, tuple(v + dv * h for v, dv in zip(y_old, d)))
        self.nfev += 3
        y_old = np.array(y_old)
        dy = np.array(self.y) - y_old
        F = [dy, h * K[0] - dy, 2 * dy - h * (K[N_STAGES] + K[0]), *(h * np.dot(D, K))]
        return t_old, h, y_old, np.array(F)


def brentq(f, a, b, xtol, rtol):
    """A root of f in [a, b] by scipy.optimize.brentq's C loop, on Python floats;
    ValueError where f(a), f(b) have one sign or f is NaN, RuntimeError after 100 steps."""
    def fx(x):
        if math.isnan(v := f(x)):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return v
    xpre, xcur, xblk, fblk, spre, scur = a, b, 0.0, 0.0, 0.0, 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):  # scipy's default maxiter
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a step from the last points is good and short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)  # 0 by underflow: C's inf or NaN bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")
