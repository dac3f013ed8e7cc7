"""Randomized-compilation cost models driven by window-function statistics.

The sampler applies a long product of small random rotations, so its phase
measurement is governed by the Fourier density of the chosen window: the
cosine window for mean-squared-error costing, and a Kaiser-style window when
a confidence interval is the target.  Half-widths, confidence conditions,
and the capped-density Hodges-Lehmann estimator are all evaluated by direct
quadrature of those densities, and segment counts follow from them.

Rotation angles are synthesized exactly when lambda*t is a dyadic multiple
of pi, so the ideal time step is rounded to m*pi/2^j (m odd) and the window
shape is re-optimized with the step held fixed; reports carry both the ideal
and the adjusted segment counts.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate, optimize

from .costs import CostReport

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


def _cosine_tail(T: float) -> float:
    """Exact one-sided tail integral of the cosine density beyond T > pi/2."""

    def rational(w):
        return 1.0 / (4.0 * w * w - math.pi**2) ** 2

    nonosc, _ = integrate.quad(rational, T, np.inf)
    osc, _ = integrate.quad(rational, T, np.inf, weight="cos", wvar=2.0)
    return 4.0 * math.pi * (nonosc + osc)


def _kaiser_tail(T: float, alpha: float) -> float:
    """One-sided tail of the raw Kaiser density beyond T > alpha.

    Substituting y = sqrt(w^2 - alpha^2) gives sin^2(y)/(y sqrt(y^2+alpha^2)),
    split into an analytic monotone part and a Fourier integral.
    """
    y0 = math.sqrt(T * T - alpha * alpha)
    nonosc = 0.5 / alpha * math.log((alpha + math.hypot(y0, alpha)) / y0)

    def rational(y):
        return 1.0 / (2.0 * y * math.hypot(y, alpha))

    osc, _ = integrate.quad(rational, y0, np.inf, weight="cos", wvar=2.0)
    return nonosc - osc


class _HalfLineCDF:
    """Dense one-sided CDF of a symmetric window density.

    fraction(a) returns int_0^a / int_0^inf, which for a symmetric density
    equals the symmetric-interval mass int_{-a}^{a} / int_{-inf}^{inf}.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray, tail: float):
        cum = integrate.cumulative_trapezoid(values, grid, initial=0.0)
        self.grid = grid
        self.total = float(cum[-1]) + tail
        self.frac = cum / self.total

    def fraction(self, a: float) -> float:
        return float(np.interp(a, self.grid, self.frac))

    def quantile(self, q: float) -> float:
        if not 0.0 < q < self.frac[-1]:
            raise ValueError(f"quantile {q} outside tabulated range")
        return float(np.interp(q, self.frac, self.grid))


@functools.lru_cache(maxsize=512)
def _cdf(window: str, alpha: float | None = None) -> _HalfLineCDF:
    if window == "cosine":
        grid = np.linspace(0.0, _GRID_MAX, _GRID_POINTS)
        return _HalfLineCDF(grid, cosine_density(grid), _cosine_tail(_GRID_MAX))
    if window in ("kaiser", "kaiser-exact"):
        if alpha is None or alpha <= 0:
            raise ValueError("kaiser window needs alpha > 0")
        if alpha >= _GRID_MAX / 2:
            raise ValueError(f"alpha {alpha} too large for tabulation")
        if window == "kaiser":
            grid = np.linspace(0.0, KAISER_DOMAIN, _KAISER_POINTS)
            return _HalfLineCDF(grid, kaiser_density_raw(grid, alpha), 0.0)
        grid = np.linspace(0.0, _GRID_MAX, _GRID_POINTS)
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
    res = optimize.minimize_scalar(
        lambda alpha: window_interval("kaiser", confidence, alpha),
        bounds=(1.2, 4.5),
        method="bounded",
        options={"xatol": 1e-6},
    )
    return float(res.x), float(res.fun)


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

    res = optimize.minimize_scalar(
        objective, bounds=(a0 + 1e-9, a_hi), method="bounded",
        options={"xatol": 1e-7},
    )
    a = float(res.x)
    return float(res.fun), a, cdf.fraction(a) - confidence


def ci_optimize(confidence: float = 0.95, delta: float | None = None):
    """Optimize the confidence-interval cost factor a^2/delta.

    The segment count scales as (a^2/delta) lambda^2/eps^2 where the
    confidence condition reads F(a) = confidence + delta.  With delta free
    both the interval and the surplus mass are optimized; with delta fixed
    only the shape parameter alpha moves (as delta -> 0 this approaches the
    plain confidence half-width, up to the tail-convention difference of the
    published calibrations; see KAISER_DOMAIN).

    Returns (alpha, a, delta, a2_over_delta).
    """
    if delta is None:
        res = optimize.minimize_scalar(
            lambda alpha: _min_a2_over_delta(alpha, confidence)[0],
            bounds=(2.2, 4.2),
            method="bounded",
            options={"xatol": 1e-5},
        )
        alpha = float(res.x)
        ratio, a, dlt = _min_a2_over_delta(alpha, confidence)
        return alpha, a, dlt, ratio
    if not 0.0 < delta < 1.0 - confidence:
        raise ValueError("delta must lie in (0, 1 - confidence)")

    def at_alpha(alpha):
        return _cdf("kaiser-exact", alpha).quantile(confidence + delta)

    res = optimize.minimize_scalar(
        at_alpha, bounds=(1.2, 4.5), method="bounded", options={"xatol": 1e-6}
    )
    alpha = float(res.x)
    a = at_alpha(alpha)
    return alpha, a, delta, a * a / delta


def _dyadic_candidates(target: float, lo_ratio=0.5, hi_ratio=1.3, span=10):
    """Dyadic angles m*pi/2^j (m odd) near a target value of lambda*t."""
    j_start = math.floor(math.log2(math.pi / target))
    seen = set()
    out = []
    for j in range(max(1, j_start - 1), j_start + span):
        center = target * 2.0**j / math.pi
        lo = max(1, int(math.floor(center)) - 2)
        hi = int(math.ceil(center)) + 2
        for m in range(lo, hi + 1):
            if m % 2 == 0:
                continue
            value = m * math.pi / 2.0**j
            key = (m, j)
            if key in seen:
                continue
            seen.add(key)
            if lo_ratio <= value / target <= hi_ratio:
                out.append((m, j, value))
    out.sort(key=lambda t: (t[1], t[0]))
    return out


def _ci_segments_at_fixed_step(lam_t: float, lam: float, eps: float,
                               confidence: float):
    """Re-optimize alpha with lambda*t pinned to a dyadic angle.

    With the step fixed, delta = a lambda^2 t / eps, so the confidence
    condition becomes F_alpha(a) = confidence + kappa a with kappa =
    lambda * lam_t / eps; the smallest root minimizes the segment count
    r = a lambda / (eps lam_t).  Returns (segments, alpha, a) or None when
    no alpha admits a solution.
    """
    kappa = lam * lam_t / eps

    def smallest_root(alpha):
        cdf = _cdf("kaiser-exact", alpha)
        a0 = cdf.quantile(confidence)
        a_max = cdf.quantile(cdf.frac[-1] * 0.999999)

        def g(a):
            return cdf.fraction(a) - confidence - kappa * a

        # g < 0 at a0; march until it turns positive, then bracket.
        prev = a0
        step = (a_max - a0) / 64.0
        a = a0 + step
        while a < a_max:
            if g(a) > 0:
                return optimize.brentq(g, prev, a, xtol=1e-12)
            prev = a
            a += step
        return None

    def objective(alpha):
        root = smallest_root(alpha)
        # large finite sentinel; inf confuses the bounded minimizer
        return root if root is not None else 1e300

    res = optimize.minimize_scalar(
        objective, bounds=(2.2, 4.2), method="bounded", options={"xatol": 2e-3}
    )
    alpha = float(res.x)
    a = smallest_root(alpha)
    if a is None:
        return None
    segments = a * lam / (eps * lam_t)
    return segments, alpha, a


_hl_grid = np.linspace(0.0, _GRID_MAX, _GRID_POINTS)


@functools.lru_cache(maxsize=1)
def _hl_density():
    return cosine_density(_hl_grid)


def _hl_integrals(c: float):
    """Full-line int q^2 and int (p - q) for the capped density q = min(p, c p(0))."""
    p = _hl_density()
    cap = c * COSINE_PEAK
    q = np.minimum(p, cap)
    i2 = 2.0 * integrate.simpson(q * q, x=_hl_grid)
    i1 = 2.0 * integrate.simpson(np.clip(p - q, 0.0, None), x=_hl_grid)
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
    res = optimize.minimize_scalar(
        lambda c: _hl_segments(c, 1.0, 1.0),
        bounds=(0.2, 0.98),
        method="bounded",
        options={"xatol": 1e-6},
    )
    return float(res.x), float(res.fun)


def _hl_lambda_t(c: float, lam: float, eps: float) -> float:
    i2, i1 = _hl_integrals(c)
    return 2.0 * math.sqrt(3.0) * eps * i2 * i1 / lam


def _hl_at_fixed_step(lam_t: float, lam: float, eps: float):
    """Both capping fractions realizing a pinned step; smaller segment count wins.

    Returns (segments, c) or None when the step exceeds every realizable
    lambda*t.
    """
    peak = optimize.minimize_scalar(
        lambda c: -_hl_lambda_t(c, lam, eps),
        bounds=(0.05, 0.99),
        method="bounded",
        options={"xatol": 1e-7},
    )
    c_peak = float(peak.x)
    if lam_t > _hl_lambda_t(c_peak, lam, eps):
        return None
    best = None
    for lo, hi in ((0.02, c_peak), (c_peak, 0.995)):
        f_lo = _hl_lambda_t(lo, lam, eps) - lam_t
        f_hi = _hl_lambda_t(hi, lam, eps) - lam_t
        if f_lo * f_hi > 0:
            continue
        c = optimize.brentq(
            lambda cc: _hl_lambda_t(cc, lam, eps) - lam_t, lo, hi, xtol=1e-12
        )
        segs = _hl_segments(c, lam, eps)
        if best is None or segs < best[0]:
            best = (segs, c)
    return best


def _qubits_with_iterate(N: int | None, j: int, segments: float) -> int:
    if N is None:
        return 0
    return N + 2 * j + 2 * math.ceil(math.log2(segments + 1.0)) - 2


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
        return CostReport(
            method="qdrift-rms",
            toffoli_per_step=q - 1,
            iterations=n_exp,
            logical_qubits=qubits,
            breakdown={"rotations": q - 1, "prepare": 0, "select": 0,
                       "reflection": 0, "qrom": 0},
            inputs=inputs,
            extras={"n_exp": n_exp, "rotation_bits": q},
        )

    if mode == "confidence":
        alpha0, a0, delta0, ratio = ci_optimize()
        n_ideal = ratio * lam * lam / (eps * eps)
        lam_t_ideal = eps * delta0 / (lam * a0)
        best = None
        for m, j, lam_t in _dyadic_candidates(lam_t_ideal):
            got = _ci_segments_at_fixed_step(lam_t, lam, eps, 0.95)
            if got is None:
                continue
            segments, alpha, a = got
            total = segments * (j + 1)
            if best is None or total < best[0]:
                best = (total, segments, m, j, alpha, a, lam_t)
        if best is None:
            raise ValueError("no dyadic angle admits a confidence solution")
        total, segments, m, j, alpha, a, lam_t = best
        return CostReport(
            method="qdrift-confidence",
            toffoli_per_step=j + 1,
            iterations=segments,
            logical_qubits=_qubits_with_iterate(N, j, segments),
            breakdown={"rotations": j - 1, "select": 2, "prepare": 0,
                       "reflection": 0, "qrom": 0},
            inputs=inputs,
            extras={
                "n_exp": n_ideal,
                "n_exp_adjusted": segments,
                "alpha_ideal": alpha0,
                "alpha": alpha,
                "a": a,
                "delta_ideal": delta0,
                "lambda_t_ideal": lam_t_ideal,
                "lambda_t": lam_t,
                "angle_numerator": m,
                "angle_log2_denominator": j,
            },
        )

    if mode == "hodges_lehmann":
        c0, constant = hl_optimize()
        n_ideal = constant * lam * lam / (eps * eps)
        lam_t_ideal = _hl_lambda_t(c0, lam, eps)
        best = None
        for m, j, lam_t in _dyadic_candidates(lam_t_ideal):
            got = _hl_at_fixed_step(lam_t, lam, eps)
            if got is None:
                continue
            segments, c = got
            total = segments * (j + 1)
            if best is None or total < best[0]:
                best = (total, segments, m, j, c, lam_t)
        if best is None:
            raise ValueError("no dyadic angle admits a capped-density solution")
        total, segments, m, j, c, lam_t = best
        return CostReport(
            method="qdrift-hl",
            toffoli_per_step=j + 1,
            iterations=segments,
            logical_qubits=_qubits_with_iterate(N, j, segments),
            breakdown={"rotations": j - 1, "select": 2, "prepare": 0,
                       "reflection": 0, "qrom": 0},
            inputs=inputs,
            extras={
                "n_exp": n_ideal,
                "n_exp_adjusted": segments,
                "c_ideal": c0,
                "c": c,
                "lambda_t_ideal": lam_t_ideal,
                "lambda_t": lam_t,
                "angle_numerator": m,
                "angle_log2_denominator": j,
            },
        )

    raise ValueError(f"unknown mode {mode!r}")
