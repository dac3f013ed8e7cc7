import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
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
    # reports of the direct-quadrature implementation: rms and confidence
    # unchanged to the bit, capped-density floats to summation order
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
    code = ("import ftqc.cli, ftqc.qdrift as q; "
            "print([f.cache_info().currsize for f in "
            "(q._grid, q._cdf, q._hl_table, q._hl_peak)])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0,", "0,", "0]"]
