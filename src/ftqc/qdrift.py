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

The module imports the bare ``scipy`` package only; ``scipy.integrate`` and
``scipy.optimize`` load on first attribute access, which happens in the
quadratures and window searches of the interval modes (``confidence``,
``hodges_lehmann``).  The ``rms`` mode and the density functions load no
solver, so a command that never reaches them does not pay their import.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy

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

    nonosc, _ = scipy.integrate.quad(rational, T, np.inf)
    osc, _ = scipy.integrate.quad(rational, T, np.inf, weight="cos", wvar=2.0)
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

    osc, _ = scipy.integrate.quad(rational, y0, np.inf, weight="cos", wvar=2.0)
    return nonosc - osc


class _HalfLineCDF:
    """Dense one-sided CDF of a symmetric window density.

    fraction(a) returns int_0^a / int_0^inf, which for a symmetric density
    equals the symmetric-interval mass int_{-a}^{a} / int_{-inf}^{inf}.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray, tail: float):
        cum = scipy.integrate.cumulative_trapezoid(values, grid, initial=0.0)
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


# One cold confidence cost builds 142 kaiser-exact tables of 256 KB each.
# It reuses a table within one fixed-step alpha search or at the first
# probes every such search shares, at most 52 distinct tables later, so 64
# entries keep every hit.
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
    res = scipy.optimize.minimize_scalar(
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

    res = scipy.optimize.minimize_scalar(
        objective, bounds=(a0 + 1e-9, a_hi), method="bounded",
        options={"xatol": 1e-7},
    )
    a = float(res.x)
    return float(res.fun), a, cdf.fraction(a) - confidence


def ci_optimize(confidence: float = 0.95):
    """Optimize the confidence-interval cost factor a^2/delta.

    The segment count scales as (a^2/delta) lambda^2/eps^2 where the
    confidence condition reads F(a) = confidence + delta; alpha, a and the
    surplus mass delta are all optimized.

    Returns (alpha, a, delta, a2_over_delta).
    """
    res = scipy.optimize.minimize_scalar(
        lambda alpha: _min_a2_over_delta(alpha, confidence)[0],
        bounds=(2.2, 4.2),
        method="bounded",
        options={"xatol": 1e-5},
    )
    alpha = float(res.x)
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
        return scipy.optimize.brentq(g, march[k], march[k + 1], xtol=1e-12)

    # a root is positive; a large finite sentinel stands for none, because
    # inf confuses the bounded minimizer
    res = scipy.optimize.minimize_scalar(
        lambda alpha: smallest_root(alpha) or 1e300,
        bounds=(2.2, 4.2), method="bounded", options={"xatol": 2e-3},
    )
    alpha = float(res.x)
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
    res = scipy.optimize.minimize_scalar(
        lambda c: _hl_segments(c, 1.0, 1.0),
        bounds=(0.2, 0.98),
        method="bounded",
        options={"xatol": 1e-6},
    )
    return float(res.x), float(res.fun)


@functools.cache
def _hl_peak() -> float:
    """Capping fraction of the largest i2 i1, so of the largest lambda t."""
    res = scipy.optimize.minimize_scalar(
        lambda c: -math.prod(_hl_integrals(c)),
        bounds=(0.05, 0.99),
        method="bounded",
        options={"xatol": 1e-7},
    )
    return float(res.x)


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
            return scipy.optimize.brentq(f, lo, hi, xtol=1e-12)
    return None


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

    # Each interval mode gives its ideal step and a solver that maps a pinned
    # step to (segments, window fields), or None when no window realizes it.
    if mode == "confidence":
        alpha0, a0, delta0, ratio = ci_optimize()
        method = "qdrift-confidence"
        n_ideal = ratio * lam * lam / (eps * eps)
        lam_t_ideal = eps * delta0 / (lam * a0)
        ideal = {"alpha_ideal": alpha0, "delta_ideal": delta0}

        def solve(lam_t):
            got = _ci_at_fixed_step(lam * lam_t / eps)
            if got is None:
                return None
            alpha, a = got
            return a * lam / (eps * lam_t), {"alpha": alpha, "a": a}
    elif mode == "hodges_lehmann":
        c0, constant = hl_optimize()
        method = "qdrift-hl"
        n_ideal = constant * lam * lam / (eps * eps)
        i2, i1 = _hl_integrals(c0)
        lam_t_ideal = 2.0 * math.sqrt(3.0) * eps * i2 * i1 / lam
        ideal = {"c_ideal": c0}

        def solve(lam_t):
            c = _hl_at_fixed_step(lam * lam_t / (2.0 * math.sqrt(3.0) * eps))
            return None if c is None else (_hl_segments(c, lam, eps), {"c": c})
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # fewest Toffolis, segments * (j + 1); the earliest candidate wins a tie
    solved = [(got[0] * (j + 1), m, j, lam_t, *got)
              for m, j, lam_t in _dyadic_candidates(lam_t_ideal)
              if (got := solve(lam_t)) is not None]
    if not solved:
        raise ValueError(f"no dyadic angle admits a {mode} solution")
    _, m, j, lam_t, segments, fields = min(solved, key=lambda s: s[0])
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
