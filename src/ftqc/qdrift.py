"""Randomized-compilation cost models driven by window-function statistics.

The sampler applies a long product of small random rotations, so its phase
measurement is governed by the Fourier density of the chosen window: the
cosine window for mean-squared-error costing, and a Kaiser-style window when
a confidence interval is the target.  Half-widths and confidence conditions
are read from cumulative quadratures of those densities on one shared grid.
The capped-density Hodges-Lehmann integrals come from a single table of
sorted cosine-density values with their Simpson sums, so each capping
fraction costs one binary search; segment counts follow from them.

Rotation angles are synthesized exactly when lambda*t is a dyadic multiple
of pi, so the ideal time step is rounded to m*pi/2^j (m odd) and the window
shape is re-optimized with the step held fixed; reports carry both the ideal
and the adjusted segment counts.  Every table is built on first use.

The module needs numpy only.  Window searches use a bounded Brent
minimizer and a Brent root finder that repeat SciPy's
``minimize_scalar(method="bounded")`` and ``brentq`` step for step, so they
return the same floats.  The tail of a density beyond the grid is split into
a closed-form part and a Fourier integral, int g(y) cos 2y dy to infinity,
taken by Gauss-Legendre panels of pi/2 up to a cut-off and three
integrations by parts beyond it.  The dyadic-step scan stops at the first
candidate that cannot beat the best one found, since no pinned step needs
fewer segments than the free optimum.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .costs import CostReport, build_report

_GRID_MAX = 16.0
_GRID_POINTS = 32001

# The Kaiser-window confidence constants are calibrated against a
# normalization integral taken over [0, 40]; the slowly decaying
# sin^2(w)/w^2 tail beyond is excluded by convention.  Including it would
# shift the 95% optimum from (alpha, a) = (2.179411, 2.542853) to about
# (2.256, 2.564).
KAISER_DOMAIN = 40.0
_KAISER_POINTS = 80001

COSINE_PEAK = 8.0 / math.pi**3

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _bounded_min(f, lo: float, hi: float, xatol: float, maxiter: int = 500):
    """Brent's bounded scalar minimization, returning (x, f(x)).

    Step for step the method of SciPy's ``minimize_scalar(method="bounded")``
    (golden-section steps with parabolic interpolation), so it returns the
    same floats.  Like SciPy it stops silently after maxiter evaluations.
    """
    a, b = float(lo), float(hi)
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return float(xf), float(fx)


def _brentq(f, xa: float, xb: float, xtol: float, maxiter: int = 100) -> float:
    """Root of f in the bracket [xa, xb] by Brent's method.

    Step for step SciPy's ``brentq`` (its C routine, with SciPy's default
    rtol of 4 machine epsilons and its iteration cap), so it returns the
    same float.  Raises ValueError when f(xa) and f(xb) share a sign and
    RuntimeError when the cap is hit.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4.0 * 2.0**-52 * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0 or abs(sbis) < delta:
            return float(xcur)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"brentq: no convergence in {maxiter} iterations, "
                       f"last x = {float(xcur)!r}")


def cosine_density(omega):
    """Normalized Fourier density of the cosine window, 8 pi cos^2 w/(pi^2-4w^2)^2.

    The apparent poles at w = +/- pi/2 are removable (value 1/(2 pi)).
    """
    w = np.asarray(omega, dtype=float)
    u = math.pi**2 - 4.0 * w * w
    safe = np.abs(u) > 1e-8
    out = np.empty_like(w)
    out[safe] = 8.0 * math.pi * np.cos(w[safe]) ** 2 / u[safe] ** 2
    out[~safe] = 1.0 / (2.0 * math.pi)
    return out if out.ndim else float(out)


def kaiser_density_raw(omega, alpha: float):
    """Unnormalized Kaiser-window density and its analytic continuation.

    sinh^2(sqrt(alpha^2-w^2))/(alpha^2-w^2) inside |w| < alpha, continuing to
    sin^2(sqrt(w^2-alpha^2))/(w^2-alpha^2) outside; value 1 at the junction.
    """
    w = np.asarray(omega, dtype=float)
    u = alpha * alpha - w * w
    out = np.empty_like(w)
    inner = u > 1e-10
    outer = u < -1e-10
    edge = ~inner & ~outer
    out[inner] = np.sinh(np.sqrt(u[inner])) ** 2 / u[inner]
    v = -u[outer]
    out[outer] = np.sin(np.sqrt(v)) ** 2 / v
    out[edge] = 1.0
    return out if out.ndim else float(out)


# The tail rule: _TAIL_NODES-point Gauss-Legendre panels of pi/2, a half
# period of cos 2y, up to a cut-off _TAIL_PANELS panels past the lower
# limit.  Doubling both moves a window tail by less than 1e-16.
_TAIL_PANELS = 2048
_TAIL_NODES = 8


@functools.cache
def _tail_rule(panels: int, nodes: int):
    """Nodes x >= 0 of the panel rule with its weights times cos 2x and sin 2x."""
    from numpy.polynomial.legendre import leggauss  # loads on first use only

    t, w = leggauss(nodes)
    half = math.pi / 4.0
    x = (np.arange(panels)[:, None] * (2.0 * half) + (t + 1.0) * half).ravel()
    w = np.tile(w * half, panels)
    return x, w * np.cos(2.0 * x), w * np.sin(2.0 * x)


def _cos2_tail(y0: float, g, ends) -> float:
    """int_{y0}^inf g(y) cos 2y dy for a smooth g decaying like y^-2 or faster.

    The panel rule covers [y0, Y] with Y = y0 + _TAIL_PANELS pi/2, through
    cos 2y = cos 2y0 cos 2x - sin 2y0 sin 2x at x = y - y0, so one table
    serves every y0.  Beyond Y three integrations by parts give
    -g sin 2Y/2 - g' cos 2Y/4 + g'' sin 2Y/8, where ends(Y) = (g, g', g'').
    """
    x, w_cos, w_sin = _tail_rule(_TAIL_PANELS, _TAIL_NODES)
    gy = g(y0 + x)
    head = math.cos(2.0 * y0) * float(gy @ w_cos) - math.sin(2.0 * y0) * float(gy @ w_sin)
    big_y = y0 + _TAIL_PANELS * (math.pi / 2.0)
    g0, g1, g2 = ends(big_y)
    s, c = math.sin(2.0 * big_y), math.cos(2.0 * big_y)
    return head - g0 * s / 2.0 - g1 * c / 4.0 + g2 * s / 8.0


def _cosine_tail(T: float) -> float:
    """One-sided tail integral of the cosine density beyond T > pi/2.

    cos^2 w = (1 + cos 2w)/2 splits 8 pi cos^2 w/(pi^2-4w^2)^2 into
    4 pi/(4w^2-pi^2)^2, integrated in closed form, and its cos 2w part.
    """
    u, a = 2.0 * T, math.pi
    nonosc = (u / (u * u - a * a) - math.atanh(a / u) / a) / (4.0 * a * a)

    def g(w):
        return 1.0 / (4.0 * w * w - a * a) ** 2

    def ends(w):
        d = 4.0 * w * w - a * a
        return 1.0 / d**2, -16.0 * w / d**3, (384.0 * w * w / d - 16.0) / d**3

    return 4.0 * math.pi * (nonosc + _cos2_tail(T, g, ends))


def _kaiser_tail(T: float, alpha: float) -> float:
    """One-sided tail of the raw Kaiser density beyond T > alpha.

    Substituting y = sqrt(w^2 - alpha^2) gives sin^2(y)/(y sqrt(y^2+alpha^2)),
    split into an analytic monotone part and a Fourier integral.
    """
    y0 = math.sqrt(T * T - alpha * alpha)
    nonosc = 0.5 / alpha * math.log((alpha + math.hypot(y0, alpha)) / y0)

    def g(y):
        return 0.5 / (y * np.hypot(y, alpha))

    def ends(y):
        h = math.hypot(y, alpha)
        return (0.5 / (y * h), -0.5 * (1.0 / (y * y * h) + 1.0 / h**3),
                0.5 * (2.0 / (y**3 * h) + 1.0 / (y * h**3) + 3.0 * y / h**5))

    return nonosc - _cos2_tail(y0, g, ends)


class _HalfLineCDF:
    """Dense one-sided CDF of a symmetric window density.

    fraction(a) returns int_0^a / int_0^inf, which for a symmetric density
    equals the symmetric-interval mass int_{-a}^{a} / int_{-inf}^{inf}.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray, tail: float):
        cum = np.r_[0.0, np.cumsum(np.diff(grid) * (values[1:] + values[:-1]) / 2.0)]
        self.grid = grid
        self.total = float(cum[-1]) + tail
        self.frac = cum / self.total

    def fraction(self, a: float) -> float:
        return float(np.interp(a, self.grid, self.frac))

    def quantile(self, q: float) -> float:
        if not 0.0 < q < self.frac[-1]:
            raise ValueError(f"quantile {q} outside tabulated range")
        return float(np.interp(q, self.frac, self.grid))


@functools.cache
def _grid(upper: float, points: int) -> np.ndarray:
    """The read-only abscissae every table on [0, upper] shares."""
    grid = np.linspace(0.0, upper, points)
    grid.flags.writeable = False
    return grid


# One cold confidence cost builds 20-56 kaiser-exact tables of 256 KB each
# (56 at lambda = 2183.6, eps = 1.6e-3, where the scan solves 8 of its 23
# dyadic candidates), so 64 entries keep every hit.
@functools.lru_cache(maxsize=64)
def _cdf(window: str, alpha: float | None = None) -> _HalfLineCDF:
    if window == "cosine":
        grid = _grid(_GRID_MAX, _GRID_POINTS)
        return _HalfLineCDF(grid, cosine_density(grid), _cosine_tail(_GRID_MAX))
    if window in ("kaiser", "kaiser-exact"):
        if alpha is None or alpha <= 0:
            raise ValueError("kaiser window needs alpha > 0")
        if alpha >= _GRID_MAX / 2:
            raise ValueError(f"alpha {alpha} too large for tabulation")
        if window == "kaiser":
            grid = _grid(KAISER_DOMAIN, _KAISER_POINTS)
            return _HalfLineCDF(grid, kaiser_density_raw(grid, alpha), 0.0)
        grid = _grid(_GRID_MAX, _GRID_POINTS)
        return _HalfLineCDF(
            grid, kaiser_density_raw(grid, alpha), _kaiser_tail(_GRID_MAX, alpha)
        )
    raise ValueError(f"unknown window {window!r}")


def window_interval(window: str, confidence: float = 0.95, alpha: float | None = None):
    """Half-width a with int_{-a}^{a} density = confidence."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    return _cdf(window, alpha).quantile(confidence)


def kaiser_optimum(confidence: float = 0.95):
    """Shape parameter minimizing the Kaiser confidence half-width.

    Returns (alpha, a).
    """
    return _bounded_min(lambda alpha: window_interval("kaiser", confidence, alpha),
                        1.2, 4.5, xatol=1e-6)


def _min_a2_over_delta(alpha: float, confidence: float):
    """Best a^2/delta at fixed alpha, where delta = F(a) - confidence."""
    cdf = _cdf("kaiser-exact", alpha)
    a0 = cdf.quantile(confidence)
    delta_cap = (1.0 - confidence) * 0.999
    a_hi = cdf.quantile(min(confidence + delta_cap, cdf.frac[-1] * 0.999999))

    def objective(a):
        delta = cdf.fraction(a) - confidence
        if delta <= 0:
            return 1e300
        return a * a / delta

    a, ratio = _bounded_min(objective, a0 + 1e-9, a_hi, xatol=1e-7)
    return ratio, a, cdf.fraction(a) - confidence


def ci_optimize(confidence: float = 0.95):
    """Optimize the confidence-interval cost factor a^2/delta.

    The segment count scales as (a^2/delta) lambda^2/eps^2 where the
    confidence condition reads F(a) = confidence + delta; alpha, a and the
    surplus mass delta are all optimized.

    Returns (alpha, a, delta, a2_over_delta).
    """
    alpha, _ = _bounded_min(lambda alpha: _min_a2_over_delta(alpha, confidence)[0],
                            2.2, 4.2, xatol=1e-5)
    ratio, a, dlt = _min_a2_over_delta(alpha, confidence)
    return alpha, a, dlt, ratio


def _dyadic_candidates(target: float, lo_ratio=0.5, hi_ratio=1.3, span=10):
    """Dyadic angles m*pi/2^j (m odd) near a target value of lambda*t."""
    j_start = math.floor(math.log2(math.pi / target))
    out = []
    for j in range(max(1, j_start - 1), j_start + span):
        center = target * 2.0**j / math.pi
        lo = max(1, int(math.floor(center)) - 2)
        hi = int(math.ceil(center)) + 2
        for m in range(lo, hi + 1):
            if m % 2 == 0:
                continue
            value = m * math.pi / 2.0**j
            if lo_ratio <= value / target <= hi_ratio:
                out.append((m, j, value))
    out.sort(key=lambda t: (t[1], t[0]))
    return out


# A repeated confidence cost reuses its (alpha, a) pairs here: _cdf keeps
# too few tables to serve a second cost.
@functools.lru_cache(maxsize=256)
def _ci_at_fixed_step(kappa: float, confidence: float = 0.95):
    """Re-optimize alpha with lambda*t pinned to a dyadic angle.

    With the step fixed, delta = a lambda^2 t / eps, so the confidence
    condition becomes F_alpha(a) = confidence + kappa a with kappa =
    lambda * lam_t / eps; the smallest root minimizes the segment count
    r = a lambda / (eps lam_t).  Returns (alpha, a) or None when no alpha
    admits a solution.
    """

    def smallest_root(alpha):
        cdf = _cdf("kaiser-exact", alpha)
        a0 = cdf.quantile(confidence)
        a_max = cdf.quantile(cdf.frac[-1] * 0.999999)

        def g(a):
            return np.interp(a, cdf.grid, cdf.frac) - confidence - kappa * a

        # g < 0 at a0; march in 64 steps until it turns positive, then
        # bracket.  accumulate adds in order, so each point is a0 + step +
        # ... + step to the bit rather than a0 + k step.
        march = np.add.accumulate(np.r_[a0, np.full(65, (a_max - a0) / 64.0)])
        march = march[: 1 + np.count_nonzero(march[1:] < a_max)]
        positive = np.flatnonzero(g(march[1:]) > 0)
        if not positive.size:
            return None
        k = positive[0]
        return _brentq(g, march[k], march[k + 1], xtol=1e-12)

    # a root is positive; a large finite sentinel stands for none, because
    # inf confuses the bounded minimizer
    alpha, _ = _bounded_min(lambda alpha: smallest_root(alpha) or 1e300,
                            2.2, 4.2, xatol=2e-3)
    a = smallest_root(alpha)
    return None if a is None else (alpha, a)


@functools.cache
def _hl_table():
    """Sorted cosine-density values p on the grid with their Simpson sums.

    Returns p, prefix sums of w p^2 over the values below each index, and
    suffix sums of w and w p from each index up, w being the composite
    Simpson weights.  Summing the capped part from the top keeps
    int (p - cap) free of the cancellation prefix sums would suffer.
    """
    grid = _grid(_GRID_MAX, _GRID_POINTS)
    h = grid[-1] / (grid.size - 1)
    w = np.full(grid.size, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[[0, -1]] = h / 3.0
    p = cosine_density(grid)
    order = np.argsort(p)
    p, w = p[order], w[order]

    def from_top(x):
        return np.r_[np.cumsum(x[::-1])[::-1], 0.0]

    return p, np.r_[0.0, np.cumsum(w * p * p)], from_top(w), from_top(w * p)


def _hl_integrals(c: float):
    """Full-line int q^2 and int (p - q) for the capped density q = min(p, c p(0))."""
    p, below_p2, above_w, above_p = _hl_table()
    cap = c * COSINE_PEAK
    k = np.searchsorted(p, cap)
    i2 = 2.0 * (below_p2[k] + cap * cap * above_w[k])
    i1 = 2.0 * (above_p[k] - cap * above_w[k])
    return float(i2), float(i1)


def _hl_segments(c: float, lam: float, eps: float) -> float:
    i2, i1 = _hl_integrals(c)
    if i1 <= 0 or i2 <= 0:
        return 1e300
    return lam * lam / (12.0 * eps * eps * i2 * i2 * i1)


def hl_optimize():
    """Capping fraction minimizing the Hodges-Lehmann segment count.

    Returns (c, constant) with segments = constant * lambda^2 / eps^2.
    """
    return _bounded_min(lambda c: _hl_segments(c, 1.0, 1.0), 0.2, 0.98, xatol=1e-6)


@functools.cache
def _hl_peak() -> float:
    """Capping fraction of the largest i2 i1, so of the largest lambda t."""
    c, _ = _bounded_min(lambda c: -math.prod(_hl_integrals(c)), 0.05, 0.99, xatol=1e-7)
    return c


def _hl_at_fixed_step(target: float):
    """Capping fraction with i2 i1 = target = lambda lam_t / (2 sqrt(3) eps).

    The step is lambda t = 2 sqrt(3) eps i2 i1 / lambda.  Roots lie on both
    sides of the peak.  At fixed i2 i1 the segment count falls as i2 grows,
    and i2 grows with c, so the upper root wins when it exists.  Returns
    None when the pinned step exceeds every realizable one.
    """
    c_peak = _hl_peak()

    def f(c):
        return math.prod(_hl_integrals(c)) - target

    if f(c_peak) < 0:
        return None
    for lo, hi in ((c_peak, 0.995), (0.02, c_peak)):
        if f(lo) * f(hi) <= 0:
            return _brentq(f, lo, hi, xtol=1e-12)
    return None


def _interval_mode(mode: str, lam: float, eps: float):
    """(method, n_ideal, lam_t_ideal, ideal fields, solve) of an interval mode.

    n_ideal and lam_t_ideal are the free optimum's segment count and step;
    solve maps a pinned step lambda*t to (segments, window fields), or None
    when no window realizes it.
    """
    if mode == "confidence":
        alpha0, a0, delta0, ratio = ci_optimize()
        lam_t_ideal = eps * delta0 / (lam * a0)

        def solve(lam_t):
            got = _ci_at_fixed_step(lam * lam_t / eps)
            if got is None:
                return None
            alpha, a = got
            return a * lam / (eps * lam_t), {"alpha": alpha, "a": a}

        return ("qdrift-confidence", ratio * lam * lam / (eps * eps), lam_t_ideal,
                {"alpha_ideal": alpha0, "delta_ideal": delta0}, solve)
    if mode == "hodges_lehmann":
        c0, constant = hl_optimize()
        i2, i1 = _hl_integrals(c0)
        lam_t_ideal = 2.0 * math.sqrt(3.0) * eps * i2 * i1 / lam

        def solve(lam_t):
            c = _hl_at_fixed_step(lam * lam_t / (2.0 * math.sqrt(3.0) * eps))
            return None if c is None else (_hl_segments(c, lam, eps), {"c": c})

        return ("qdrift-hl", constant * lam * lam / (eps * eps), lam_t_ideal,
                {"c_ideal": c0}, solve)
    raise ValueError(f"unknown mode {mode!r}")


def _best_step(n_ideal: float, lam_t_ideal: float, solve):
    """Dyadic step with the fewest Toffolis, segments * (j + 1), as
    (toffolis, m, j, lam_t, segments, fields), or None when none is solved.

    The earliest candidate wins a tie.  No pinned step needs fewer segments
    than the free optimum n_ideal (less 1e-9 for the optimizers'
    tolerances), so once n_ideal (1 - 1e-9) (j + 1) reaches the best count,
    no candidate from there on (they come sorted by j) can beat it, and
    none is solved.
    """
    best = None
    for m, j, lam_t in _dyadic_candidates(lam_t_ideal):
        if best is not None and n_ideal * (1.0 - 1e-9) * (j + 1) >= best[0]:
            break
        got = solve(lam_t)
        if got is not None and (best is None or got[0] * (j + 1) < best[0]):
            best = (got[0] * (j + 1), m, j, lam_t, *got)
    return best


def cost_qdrift(lam: float, eps: float, N: int | None = None,
                mode: str = "rms") -> CostReport:
    """Sampler cost for total phase accuracy eps.

    Modes: "rms" targets the root-mean-square error of the raw estimator;
    "confidence" sizes a 95% confidence interval via the optimized Kaiser
    window; "hodges_lehmann" uses the median-of-pairs estimator over a
    capped cosine density.  The interval modes round lambda*t to a dyadic
    multiple of pi (exact rotation synthesis) and re-optimize the window
    with the step fixed; extras carries both ideal and adjusted counts.
    """
    if not (math.isfinite(lam) and math.isfinite(eps)):
        raise ValueError("lambda and eps must be finite")
    if lam <= 0 or eps <= 0:
        raise ValueError("lambda and eps must be positive")
    # rms raises lambda, eps and their ratio to the sixth power; these bounds
    # keep every mode's arithmetic finite.  eps > lambda needs no sampling
    # (rms would report negative Toffoli counts there).
    for name, value, lo in (("lambda", lam, 1e-50), ("eps", eps, 1e-50),
                            ("lambda/eps", lam / eps, 1.0)):
        if not lo <= value <= 1e50:
            raise ValueError(f"{name} = {value:g} outside [{lo:g}, 1e50]")
    if N is not None and (N < 2 or N % 2):
        raise ValueError("N must be an even spin-orbital count >= 2")
    inputs = {"lambda": lam, "eps": eps, "N": N, "mode": mode}

    if mode == "rms":
        n_exp = 8.0 * math.pi**2 * lam**4 / eps**4
        q = math.ceil(0.5 * math.log2(32.0 * math.pi**4 * lam**6 / eps**6) + 1.0)
        if N is None:
            qubits = 0
        else:
            k = math.sqrt(math.pi / math.sqrt(2.0)) * n_exp**0.75
            r = n_exp / k
            qubits = N + (q + 1) + 2 * math.ceil(math.log2(r + 1.0)) - 1 + q
        return build_report("qdrift-rms", n_exp, qubits, inputs=inputs,
                            extras={"n_exp": n_exp, "rotation_bits": q},
                            rotations=q - 1)

    method, n_ideal, lam_t_ideal, ideal, solve = _interval_mode(mode, lam, eps)
    best = _best_step(n_ideal, lam_t_ideal, solve)
    if best is None:
        raise ValueError(f"no dyadic angle admits a {mode} solution")
    _, m, j, lam_t, segments, fields = best
    qubits = 0 if N is None else (
        N + 2 * j + 2 * math.ceil(math.log2(segments + 1.0)) - 2)
    return build_report(
        method, segments, qubits, inputs=inputs, rotations=j - 1, select=2,
        extras={
            "n_exp": n_ideal,
            "n_exp_adjusted": segments,
            **ideal,
            **fields,
            "lambda_t_ideal": lam_t_ideal,
            "lambda_t": lam_t,
            "angle_numerator": m,
            "angle_log2_denominator": j,
        },
    )
