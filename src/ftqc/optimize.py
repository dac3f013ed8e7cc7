"""Unconstrained L-BFGS with a strong-Wolfe line search, in numpy alone.

The search direction comes from the two-loop recursion over the last
MEMORY curvature pairs (Nocedal and Wright, *Numerical Optimization*,
Alg. 7.4), with the initial inverse Hessian scaled by s.y / y.y.  Each step
length satisfies the strong Wolfe conditions

    f(x + a d) <= f(x) + C1 a g.d,    |g(x + a d).d| <= C2 |g.d|,

found by bracketing and a zoom with safeguarded cubic interpolation
(Alg. 3.5 and 3.6; More and Thuente, ACM TOMS 20, 1994).  A non-finite value
counts as a failed decrease, so the search backs off from it.  The stopping
rules are SciPy's L-BFGS-B defaults: max|g| <= GTOL, a relative decrease
(f_k - f_{k+1}) / max(|f_k|, |f_{k+1}|, 1) <= FTOL, or maxiter iterations.
When a line search fails, the memory is dropped and the search is retried
once along -g; a second failure ends the run.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

MEMORY = 10
GTOL = 1e-5
FTOL = 1e7 * np.finfo(float).eps  # SciPy's factr = 1e7, about 2.2e-9
C1 = 1e-4
# Tighter than the usual quasi-Newton 0.9: on THC fits, which stop at the
# iteration cap, each iteration then goes further for about 25 % more
# evaluations, and the final objectives match or beat SciPy's L-BFGS-B.
C2 = 0.5
MAX_LINE_EVALS = 20


class Result(NamedTuple):
    """Where minimize stopped.

    status is 0 when a stopping test was met, 1 at the iteration cap and 2
    when the line search failed (also when f(x0) is not finite); x is the
    last accepted point, fun its value, grad_norm max|g| there, and nfev
    counts every call of fun.
    """

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    status: int
    grad_norm: float


def _cubic_step(a0, f0, g0, a1, f1, g1):
    """Minimizer of the cubic through two points with their slopes, or nan."""
    d1 = g0 + g1 - 3.0 * (f0 - f1) / (a0 - a1)
    disc = d1 * d1 - g0 * g1
    if not disc >= 0.0:
        return math.nan
    d2 = math.copysign(math.sqrt(disc), a1 - a0)
    denom = g1 - g0 + 2.0 * d2
    if denom == 0.0:
        return math.nan
    return a1 - (a1 - a0) * (g1 + d2 - d1) / denom


class _LineSearch:
    """One strong-Wolfe search along d from x, where f(x) = f0, g.d = slope0."""

    def __init__(self, fun, x, d, f0, slope0):
        self.fun, self.x, self.d = fun, x, d
        self.f0, self.slope0 = f0, slope0
        self.nfev = 0

    def _phi(self, a):
        self.nfev += 1
        f, g = self.fun(self.x + a * self.d)
        f = float(f)
        if not math.isfinite(f):
            return math.inf, None, math.nan
        return f, g, float(g @ self.d)

    def _decreases(self, a, f):
        return f <= self.f0 + C1 * a * self.slope0

    def _curved(self, slope):
        return abs(slope) <= -C2 * self.slope0

    def run(self, a):
        """(a, f, g) at a step that meets both conditions, or None."""
        lo = (0.0, self.f0, self.slope0)
        while self.nfev < MAX_LINE_EVALS:
            f, g, slope = self._phi(a)
            if not self._decreases(a, f) or (lo[0] > 0.0 and f >= lo[1]):
                return self._zoom(lo, (a, f, slope))
            if self._curved(slope):
                return a, f, g
            if slope >= 0.0:
                return self._zoom((a, f, slope), lo)
            step = _cubic_step(*lo, a, f, slope)
            lo = (a, f, slope)
            a = min(max(step, 1.1 * a), 4.0 * a) if math.isfinite(step) else 4.0 * a
        return None

    def _zoom(self, lo, hi):
        """Alg. 3.6: lo meets the decrease test with the least f so far, and
        the minimizer lies between lo and hi."""
        while self.nfev < MAX_LINE_EVALS:
            left, right = sorted((lo[0], hi[0]))
            width = right - left
            if width <= np.finfo(float).eps * right:
                return None
            a = (_cubic_step(*lo, *hi) if math.isfinite(hi[1])
                 else math.nan)
            if not left + 0.1 * width <= a <= right - 0.1 * width:
                a = 0.5 * (left + right)
            f, g, slope = self._phi(a)
            if not self._decreases(a, f) or f >= lo[1]:
                hi = (a, f, slope)
                continue
            if self._curved(slope):
                return a, f, g
            if slope * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = (a, f, slope)
        return None


def _direction(g, pairs):
    """-H g by the two-loop recursion over pairs, oldest first."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return -q


def minimize(fun: Callable, x0: np.ndarray, maxiter: int) -> Result:
    """Minimize fun from x0, where fun(x) returns (f, gradient)."""
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    f, g = float(f), np.asarray(g, dtype=float)
    nfev, nit = 1, 0
    if not math.isfinite(f):
        return Result(x, f, 0, nfev, 2, math.nan)
    pairs: list = []
    status = 1
    while True:
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm <= GTOL:
            status = 0
            break
        if nit >= maxiter:
            break
        d = _direction(g, pairs)
        slope = float(g @ d)
        if not slope < 0.0:
            pairs.clear()
            d, slope = -g, -float(g @ g)
        search = _LineSearch(fun, x, d, f, slope)
        step = search.run(1.0 if pairs else min(1.0, 1.0 / float(np.linalg.norm(d))))
        nfev += search.nfev
        if step is None:
            if not pairs:
                status = 2
                break
            pairs.clear()
            continue
        a, f_new, g_new = step
        s = a * d
        y = g_new - g
        sy = float(s @ y)
        if sy > np.finfo(float).eps * float(y @ y):
            pairs.append((s, y, 1.0 / sy))
            del pairs[:-MEMORY]
        x, g = x + s, g_new
        f_old, f = f, f_new
        nit += 1
        if f_old - f <= FTOL * max(abs(f_old), abs(f), 1.0):
            status = 0
            grad_norm = float(np.max(np.abs(g)))
            break
    return Result(x, f, nit, nfev, status, grad_norm)
