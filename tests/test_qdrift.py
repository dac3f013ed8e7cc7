import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from ftqc import qdrift

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_cosine_density_shape():
    assert qdrift.cosine_density(0.0) == pytest.approx(8.0 / math.pi**3, rel=1e-14)
    assert qdrift.COSINE_PEAK == pytest.approx(8.0 / math.pi**3, rel=1e-14)
    # removable poles at +-pi/2
    assert qdrift.cosine_density(math.pi / 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-6)
    assert qdrift.cosine_density(-math.pi / 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-6)
    w = np.linspace(-20.0, 20.0, 4001)
    rho = qdrift.cosine_density(w)
    assert np.all(rho >= 0.0)
    assert np.allclose(rho, rho[::-1], atol=1e-15)


def test_cosine_density_normalized():
    T = 8.0 * math.pi
    head, _ = integrate.quad(qdrift.cosine_density, 0.0, T, points=[math.pi / 2.0], limit=200)
    # cos^2 = 1/2 + cos(2w)/2; the envelope 8 pi / (pi^2 - 4w^2)^2 decays like w^-4
    envelope = lambda w: 8.0 * math.pi / (math.pi**2 - 4.0 * w * w) ** 2
    mean, _ = integrate.quad(lambda w: 0.5 * envelope(w), T, np.inf)
    osc, _ = integrate.quad(lambda w: 0.5 * envelope(w), T, np.inf, weight="cos", wvar=2.0)
    assert head + mean + osc == pytest.approx(0.5, abs=1e-10)


def test_cosine_variance_is_quarter_pi_squared():
    T = 8.0 * math.pi
    head, _ = integrate.quad(
        lambda w: 2.0 * w * w * qdrift.cosine_density(w),
        0.0, T, points=[math.pi / 2.0], limit=200,
    )
    smooth = lambda w: 2.0 * 8.0 * math.pi * w * w / (math.pi**2 - 4.0 * w * w) ** 2
    mean, _ = integrate.quad(lambda w: 0.5 * smooth(w), T, np.inf)
    osc, _ = integrate.quad(lambda w: 0.5 * smooth(w), T, np.inf, weight="cos", wvar=2.0)
    total = head + mean + osc
    assert abs(total - math.pi**2 / 4.0) < 1e-8


def test_kaiser_density_junction():
    alpha = 2.0
    inside = qdrift.kaiser_density_raw(np.array([0.0, 1.0, alpha]), alpha)
    assert inside[0] == pytest.approx(math.sinh(alpha) ** 2 / alpha**2, rel=1e-12)
    assert inside[2] == pytest.approx(1.0, abs=1e-6)
    outside = qdrift.kaiser_density_raw(np.array([3.0]), alpha)
    x = math.sqrt(9.0 - alpha * alpha)
    assert outside[0] == pytest.approx(math.sin(x) ** 2 / x**2, rel=1e-12)


def test_window_interval_cosine():
    assert qdrift.window_interval("cosine", 0.95) == pytest.approx(2.8633251641654924, abs=1e-5)


def test_window_interval_validation():
    with pytest.raises(ValueError, match="confidence must be in"):
        qdrift.window_interval("cosine", 0.0)
    with pytest.raises(ValueError, match="unknown window"):
        qdrift.window_interval("hann", 0.95)
    with pytest.raises(ValueError, match="needs alpha"):
        qdrift.window_interval("kaiser", 0.95)
    with pytest.raises(ValueError, match="outside tabulated range"):
        qdrift.window_interval("kaiser-exact", 0.999999, alpha=2.7)


def test_kaiser_optimum():
    alpha, a = qdrift.kaiser_optimum()
    assert alpha == pytest.approx(2.179411238962757, abs=1e-4)
    assert a == pytest.approx(2.542853518283331, abs=1e-6)
    # reported half-width is consistent with the window it came from
    assert qdrift.window_interval("kaiser", 0.95, alpha) == pytest.approx(a, rel=1e-12)


def test_ci_optimize_free():
    alpha, a, delta, score = qdrift.ci_optimize()
    assert alpha == pytest.approx(3.0590517285529537, abs=1e-4)
    assert a == pytest.approx(3.3760000282429394, abs=1e-4)
    assert delta == pytest.approx(0.037404448892728204, abs=1e-5)
    assert score == pytest.approx(304.7064327396651, abs=1e-2)
    assert score == pytest.approx(a * a / delta, rel=1e-12)


def test_ci_optimize_grid_scan_cannot_do_better():
    # exhaustive scan over the (alpha, delta) box containing the optimum
    alpha_opt, _, delta_opt, score_opt = qdrift.ci_optimize()
    best = (np.inf, None, None)
    skipped = 0
    for alpha in np.linspace(2.8, 3.3, 11):
        for delta in np.linspace(0.025, 0.045, 11):
            try:
                a = qdrift.window_interval("kaiser-exact", 0.95 + delta, alpha=float(alpha))
            except ValueError:
                skipped += 1
                continue
            best = min(best, (a * a / delta, float(alpha), float(delta)))
    assert skipped == 0
    excess = best[0] - score_opt
    assert 0.0 <= excess < 0.5
    assert abs(best[1] - alpha_opt) <= 0.05
    assert abs(best[2] - delta_opt) <= 0.002


def test_hl_optimize():
    c, constant = qdrift.hl_optimize()
    assert c == pytest.approx(0.6480572716585649, abs=1e-4)
    assert constant == pytest.approx(35.519181628344676, abs=1e-2)


def test_cost_qdrift_rms_unit_scale():
    r = qdrift.cost_qdrift(lam=1.0, eps=1.0, mode="rms")
    assert r.iterations == pytest.approx(8.0 * math.pi**2, rel=1e-12)


def test_cost_qdrift_rms_reiher():
    r = qdrift.cost_qdrift(lam=2183.6, eps=0.0016, N=108, mode="rms")
    assert r.method == "qdrift-rms"
    assert r.toffoli_per_step == 67
    assert r.iterations == pytest.approx(2.7390637751487865e26, rel=1e-10)
    assert r.toffoli_total == pytest.approx(1.835173e28, rel=1e-5)
    assert r.logical_qubits == 288
    assert r.extras["rotation_bits"] == 68
    assert r.toffoli_per_step == r.extras["rotation_bits"] - 1


def test_cost_qdrift_confidence_reiher():
    r = qdrift.cost_qdrift(lam=2183.6, eps=0.0016, N=108, mode="confidence")
    assert r.method == "qdrift-confidence"
    assert r.toffoli_per_step == 33
    assert r.extras["n_exp"] == pytest.approx(5.675287000451698e14, rel=1e-10)
    assert r.iterations == pytest.approx(5.678075446773461e14, rel=1e-10)
    assert r.toffoli_total == pytest.approx(1.873765e16, rel=1e-5)
    assert r.logical_qubits == 270
    assert r.extras["alpha"] == pytest.approx(3.0304945172145032, rel=1e-8)
    assert r.extras["a"] == pytest.approx(3.347578365700911, rel=1e-8)
    assert r.extras["angle_numerator"] == 11
    assert r.extras["angle_log2_denominator"] == 32
    assert r.toffoli_per_step == r.extras["angle_log2_denominator"] - 1 + 2
    assert r.breakdown["rotations"] == 32 - 1
    assert r.breakdown["select"] == 2
    assert sum(r.breakdown.values()) == r.toffoli_per_step


def test_cost_qdrift_hl_reiher():
    r = qdrift.cost_qdrift(lam=2183.6, eps=0.0016, N=108, mode="hodges_lehmann")
    assert r.method == "qdrift-hl"
    assert r.toffoli_per_step == 27
    assert r.iterations == pytest.approx(6.714137430606364e13, rel=1e-10)
    assert r.toffoli_total == pytest.approx(1.812817e15, rel=1e-5)
    assert r.logical_qubits == 250
    assert r.extras["c"] == pytest.approx(0.6837401592821589, rel=1e-8)
    assert r.extras["angle_numerator"] == 1
    assert r.extras["angle_log2_denominator"] == 26


def test_cost_qdrift_li_points():
    r = qdrift.cost_qdrift(lam=1600.9, eps=0.0016, N=152, mode="rms")
    assert (r.toffoli_per_step, r.logical_qubits) == (66, 328)
    assert r.toffoli_total == pytest.approx(5.222886e27, rel=1e-5)
    r = qdrift.cost_qdrift(lam=1600.9, eps=0.0016, N=152, mode="confidence")
    assert (r.toffoli_per_step, r.logical_qubits) == (32, 310)
    assert r.toffoli_total == pytest.approx(9.992612e15, rel=1e-5)
    assert r.extras["angle_numerator"] == 7
    assert r.extras["angle_log2_denominator"] == 31
    r = qdrift.cost_qdrift(lam=1600.9, eps=0.0016, N=152, mode="hodges_lehmann")
    assert (r.toffoli_per_step, r.logical_qubits) == (28, 296)
    assert r.toffoli_total == pytest.approx(9.957047e14, rel=1e-5)


def test_cost_qdrift_dyadic_angle_is_feasible():
    # the realized interval lambda * t must not exceed the ideal one
    for mode in ("confidence", "hodges_lehmann"):
        r = qdrift.cost_qdrift(lam=2183.6, eps=0.0016, N=108, mode=mode)
        num = r.extras["angle_numerator"]
        log2_den = r.extras["angle_log2_denominator"]
        assert r.extras["lambda_t"] == pytest.approx(
            math.pi * num / 2.0**log2_den, rel=1e-9
        )
        assert r.extras["n_exp_adjusted"] >= r.extras["n_exp"] * (1.0 - 1e-12)


def test_cost_qdrift_validation():
    with pytest.raises(ValueError, match="must be positive"):
        qdrift.cost_qdrift(lam=0.0, eps=0.001)
    with pytest.raises(ValueError, match="must be positive"):
        qdrift.cost_qdrift(lam=1.0, eps=0.0)
    for lam, eps in ((float("inf"), 0.001), (float("nan"), 0.001), (1.0, float("inf"))):
        with pytest.raises(ValueError, match="must be finite"):
            qdrift.cost_qdrift(lam=lam, eps=eps)
    with pytest.raises(ValueError, match="unknown mode"):
        qdrift.cost_qdrift(lam=1.0, eps=0.1, mode="median")
    # each of these overflowed, divided by zero or took log(0) before
    for lam, eps, mode, name in (
        (1e80, 1e-3, "rms", "lambda"),
        (1e300, 1e-300, "hodges_lehmann", "lambda"),
        (1e-300, 1.0, "rms", "lambda"),
        (1e40, 1e80, "confidence", "eps"),
        (1.0, 1e-60, "rms", "eps"),
        (1e30, 1e-30, "rms", "lambda/eps"),
        (0.01, 1.0, "rms", "lambda/eps"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} = .* outside"):
            qdrift.cost_qdrift(lam=lam, eps=eps, mode=mode)
    for N in (-5, 0, 3):
        for mode in ("rms", "hodges_lehmann"):
            with pytest.raises(ValueError, match="N must be an even"):
                qdrift.cost_qdrift(lam=2183.6, eps=0.0016, N=N, mode=mode)


def test_cost_qdrift_accepts_range_edges():
    assert qdrift.cost_qdrift(lam=1.0, eps=1.0, N=2).toffoli_per_step > 0
    r = qdrift.cost_qdrift(lam=1e50, eps=1.0, N=2, mode="hodges_lehmann")
    assert math.isfinite(r.toffoli_total) and r.logical_qubits > 2


def test_hl_integrals_match_simpson():
    grid = np.linspace(0.0, qdrift._GRID_MAX, qdrift._GRID_POINTS)
    p = qdrift.cosine_density(grid)
    for c in np.linspace(0.02, 0.995, 53):
        q = np.minimum(p, c * qdrift.COSINE_PEAK)
        i2 = 2.0 * integrate.simpson(q * q, x=grid)
        i1 = 2.0 * integrate.simpson(p - q, x=grid)
        got = qdrift._hl_integrals(float(c))
        assert all(type(v) is float for v in got)
        assert got == pytest.approx((i2, i1), rel=1e-11, abs=0.0)


def test_ci_fixed_step_matches_loop_march():
    # the march of 64 steps as a loop, the reference for the array version
    def loop_root(alpha, kappa):
        cdf = qdrift._cdf("kaiser-exact", alpha)
        a0 = cdf.quantile(0.95)
        a_max = cdf.quantile(cdf.frac[-1] * 0.999999)

        def g(a):
            return cdf.fraction(a) - 0.95 - kappa * a

        prev, step = a0, (a_max - a0) / 64.0
        a = a0 + step
        while a < a_max:
            if g(a) > 0:
                return optimize.brentq(g, prev, a, xtol=1e-12)
            prev = a
            a += step
        return None

    for kappa in (0.002, 0.0095, 0.011, 0.02, 0.5):
        res = optimize.minimize_scalar(
            lambda alpha: loop_root(alpha, kappa) or 1e300,
            bounds=(2.2, 4.2), method="bounded", options={"xatol": 2e-3},
        )
        a = loop_root(float(res.x), kappa)
        want = None if a is None else (float(res.x), a)
        assert qdrift._ci_at_fixed_step(kappa) == want


_PARENT_REPORTS = json.loads(
    (ROOT / "tests" / "data" / "qdrift_parent_reports.json").read_text())


@pytest.mark.parametrize("case", _PARENT_REPORTS,
                         ids=lambda c: f"{c['lambda']}-{c['eps']}-{c['mode']}")
def test_cost_qdrift_pinned_reports(case):
    # rms reports of the direct-quadrature implementation unchanged to the
    # bit, capped-density floats to summation order; the confidence reports
    # are those of the numpy tail rule, also to the bit
    got = qdrift.cost_qdrift(case["lambda"], case["eps"], N=case["N"],
                             mode=case["mode"]).to_dict()
    rel = 1e-10 if case["mode"] == "hodges_lehmann" else 0.0

    def check(want, have, path):
        if isinstance(want, dict):
            assert want.keys() == have.keys(), path
            for key in want:
                check(want[key], have[key], f"{path}.{key}")
        elif isinstance(want, float):
            assert type(have) is float, path
            assert have == pytest.approx(want, rel=rel, abs=0.0), path
        else:
            assert type(have) is type(want) and have == want, path

    check(case["report"], {k: v for k, v in got.items() if k != "inputs"}, "")


def test_import_leaves_tables_unbuilt():
    # nor loads scipy, or numpy.polynomial, which the tail rule's nodes load
    # on first use
    code = ("import sys, ftqc.cli, ftqc.qdrift as q; "
            "print([f.cache_info().currsize for f in "
            "(q._grid, q._cdf, q._hl_table, q._hl_peak, q._tail_rule)], "
            "[m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.polynomial')])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0,", "0,", "0,", "0]", "[]"]


# --- the numpy solvers against the SciPy routines they repeat step for step


def _scipy_min(f, lo, hi, xatol, maxiter=500):
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                   options={"xatol": xatol, "maxiter": maxiter})
    return float(res.x), float(res.fun)


@pytest.mark.parametrize("f, lo, hi, xatol", [
    (lambda alpha: qdrift.window_interval("kaiser", 0.95, alpha), 1.2, 4.5, 1e-6),
    (lambda alpha: qdrift._min_a2_over_delta(alpha, 0.95)[0], 2.2, 4.2, 1e-5),
    (lambda c: qdrift._hl_segments(c, 1.0, 1.0), 0.2, 0.98, 1e-6),
    (lambda c: -math.prod(qdrift._hl_integrals(c)), 0.05, 0.99, 1e-7),
    (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-9),
    (lambda x: abs(x - 1.7), 0.0, 5.0, 1e-8),
    (lambda x: math.sin(3.0 * x) + 0.1 * x, -2.0, 4.0, 1e-6),
    (lambda x: 1.0, 0.0, 1.0, 1e-6),  # flat
    (lambda x: -x, 0.0, 1.0, 1e-6),  # minimum at the upper bound
], ids=["kaiser-width", "a2-over-delta", "hl-segments", "hl-peak", "parabola",
        "kink", "oscillating", "flat", "edge"])
def test_bounded_min_matches_scipy(f, lo, hi, xatol):
    assert qdrift._bounded_min(f, lo, hi, xatol) == _scipy_min(f, lo, hi, xatol)


def test_bounded_min_iteration_cap_matches_scipy():
    f = lambda x: math.cos(5.0 * x) * math.exp(-x * x)  # noqa: E731
    for maxiter in (1, 2, 3, 5, 8):
        assert (qdrift._bounded_min(f, -3.0, 3.0, 1e-9, maxiter=maxiter)
                == _scipy_min(f, -3.0, 3.0, 1e-9, maxiter))


def test_brentq_matches_scipy():
    c_peak = qdrift._hl_peak()
    target = 0.9 * math.prod(qdrift._hl_integrals(c_peak))
    hl = lambda c: math.prod(qdrift._hl_integrals(c)) - target  # noqa: E731
    cdf = qdrift._cdf("kaiser-exact", 3.0)
    ci = lambda a: np.interp(a, cdf.grid, cdf.frac) - 0.95 - 0.002 * a  # noqa: E731
    cases = [
        (hl, c_peak, 0.995, 1e-12), (hl, 0.02, c_peak, 1e-12),
        (ci, cdf.quantile(0.95), cdf.quantile(0.99), 1e-12),
        (lambda x: x**3 - 2.0, 0.0, 3.0, 1e-12), (lambda x: math.tanh(x - 0.4), -4.0, 4.0, 1e-6),
        (lambda x: x - 1.0, 1.0, 3.0, 1e-12),  # root at the lower end
        (lambda x: x - 3.0, 1.0, 3.0, 1e-12),  # root at the upper end
        (lambda x: 0.0 if abs(x) < 0.5 else x, -2.0, 3.0, 1e-12),  # flat at the root
    ]
    for f, a, b, xtol in cases:
        assert qdrift._brentq(f, a, b, xtol=xtol) == optimize.brentq(f, a, b, xtol=xtol)


def test_brentq_iteration_cap_and_sign_match_scipy():
    f = lambda x: math.exp(x) - 2.0  # noqa: E731
    for maxiter in (1, 2, 3, 4):
        want = optimize.brentq(f, -2.0, 3.0, xtol=1e-14, maxiter=maxiter, disp=False)
        with pytest.raises(RuntimeError, match="no convergence") as err:
            qdrift._brentq(f, -2.0, 3.0, xtol=1e-14, maxiter=maxiter)
        assert float(str(err.value).rsplit("= ", 1)[1]) == want
    with pytest.raises(ValueError, match="different signs"):
        qdrift._brentq(f, 1.0, 3.0, xtol=1e-12)


# --- the tail rule


def _quad_kaiser_tail(T, alpha):
    y0 = math.sqrt(T * T - alpha * alpha)
    nonosc = 0.5 / alpha * math.log((alpha + math.hypot(y0, alpha)) / y0)
    osc, _ = integrate.quad(lambda y: 1.0 / (2.0 * y * math.hypot(y, alpha)),
                            y0, np.inf, weight="cos", wvar=2.0)
    return nonosc - osc


def test_tails_match_quad():
    for alpha in np.linspace(1.2, 7.99, 25):
        got = qdrift._kaiser_tail(qdrift._GRID_MAX, float(alpha))
        assert abs(got - _quad_kaiser_tail(qdrift._GRID_MAX, float(alpha))) < 1e-10
    rational = lambda w: 1.0 / (4.0 * w * w - math.pi**2) ** 2  # noqa: E731
    T = qdrift._GRID_MAX
    want = 4.0 * math.pi * (
        integrate.quad(rational, T, np.inf)[0]
        + integrate.quad(rational, T, np.inf, weight="cos", wvar=2.0)[0])
    assert abs(qdrift._cosine_tail(T) - want) < 1e-10


def test_tails_match_high_precision_reference():
    # 30-digit mpmath values: Gauss-Legendre panels of pi/2 to y0 + 200 pi,
    # then ten integration-by-parts terms (quad is off by 2e-11 to 7e-11
    # here, and by 9e-7 relative on the cosine tail)
    for alpha, want in ((2.2, 0.031661679268361425284), (4.2, 0.031429514760889616055)):
        assert abs(qdrift._kaiser_tail(16.0, alpha) - want) < 1e-16
    assert qdrift._cosine_tail(16.0) == pytest.approx(6.198349441077263678e-05,
                                                      rel=1e-13, abs=0.0)


def test_tail_rule_converged(monkeypatch):
    # doubling the cut-off distance and the nodes per panel moves no tail
    # integral by more than 1e-16
    T = qdrift._GRID_MAX
    alphas = [float(alpha) for alpha in np.linspace(1.2, 7.99, 12)]
    coarse = [qdrift._kaiser_tail(T, alpha) for alpha in alphas]
    coarse_cosine = qdrift._cosine_tail(T)
    monkeypatch.setattr(qdrift, "_TAIL_PANELS", 2 * qdrift._TAIL_PANELS)
    monkeypatch.setattr(qdrift, "_TAIL_NODES", 2 * qdrift._TAIL_NODES)
    for alpha, want in zip(alphas, coarse):
        assert abs(qdrift._kaiser_tail(T, alpha) - want) <= 1e-16
    assert abs(qdrift._cosine_tail(T) - coarse_cosine) <= 1e-16


# --- the pruned dyadic scan


@settings(max_examples=12)
@given(log_lam=st.floats(1.0, 5.0), log_eps=st.floats(-4.0, -2.0),
       mode=st.sampled_from(["confidence", "hodges_lehmann"]))
@example(log_lam=math.log10(2183.6), log_eps=math.log10(0.0016), mode="confidence")
@example(log_lam=1.0, log_eps=-2.0, mode="confidence")
def test_pruned_scan_matches_full_scan(log_lam, log_eps, mode):
    lam, eps = 10.0**log_lam, 10.0**log_eps
    _, n_ideal, lam_t_ideal, _, solve = qdrift._interval_mode(mode, lam, eps)
    full = [(got[0] * (j + 1), m, j, lam_t, *got)
            for m, j, lam_t in qdrift._dyadic_candidates(lam_t_ideal)
            if (got := solve(lam_t)) is not None]
    # the bound the pruning rests on: no pinned step beats the free optimum
    assert all(s[4] >= n_ideal * (1.0 - 1e-9) for s in full)
    assert qdrift._best_step(n_ideal, lam_t_ideal, solve) == min(full, key=lambda s: s[0])
