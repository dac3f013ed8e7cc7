import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftqc import costs
from ftqc.costs import CostParams, ceil_div, ceil_log2, two_adic_valuation


def test_integer_helpers():
    assert ceil_div(7, 2) == 4
    assert ceil_div(8, 2) == 4
    assert ceil_log2(1) == 0
    assert ceil_log2(17) == 5
    assert ceil_log2(1024) == 10
    assert two_adic_valuation(200) == 3
    assert two_adic_valuation(705831) == 0
    assert two_adic_valuation(1024) == 10
    with pytest.raises(ValueError):
        ceil_log2(0)
    with pytest.raises(ValueError):
        two_adic_valuation(0)


def test_iterations():
    assert costs.iterations(306.3, 0.001) == 481135
    assert costs.iterations(294.8, 0.001) == 463071
    assert costs.iterations(1.0, math.pi / 2.0) == 1
    with pytest.raises(ValueError, match="must be positive"):
        costs.iterations(0.0, 0.001)
    with pytest.raises(ValueError, match="must be positive"):
        costs.iterations(10.0, 0.0)


def test_qrom_lookup_and_erase():
    assert costs.qrom_cost(100, 8, 1) == 100
    assert costs.qrom_cost(100, 8, 4) == 25 + 8 * 3
    assert costs.qrom_erase_cost(100, 1) == 100 + 1
    assert costs.qrom_erase_cost(100, 4) == 25 + 4
    # scan agrees with brute force over every power of two
    d, m = 61479, 30
    best = min(
        ((k, costs.qrom_cost(d, m, k)) for k in (2**e for e in range(ceil_log2(d) + 1))),
        key=lambda kv: (kv[1], kv[0]),
    )
    assert costs.minimize_over_k(d, lambda k: costs.qrom_cost(d, m, k)) == best
    assert best == (64, 2851)


def test_minimize_over_k_prefers_smaller_on_tie():
    k, value = costs.minimize_over_k(16, lambda k: 7)
    assert k == 1 and value == 7


def test_qrom_two_register_costs():
    # batched output lookup over both index registers
    assert costs.qrom_two_register_cost(350, 72, 20, 32, 1) == 1412
    assert costs.qrom_cost(350 * 72, 20, 32) == 1408
    assert costs.qrom_two_register_erase_cost(350, 72, 16, 8) == 326
    assert costs.qrom_erase_cost(350 * 72, 128) == 325


def test_two_register_never_beats_fused_lookup():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        N1 = int(rng.integers(1, 400))
        N2 = int(rng.integers(1, 400))
        b = int(rng.integers(1, 40))
        k1 = 2 ** int(rng.integers(0, 6))
        k2 = 2 ** int(rng.integers(0, 6))
        two = costs.qrom_two_register_cost(N1, N2, b, k1, k2)
        fused = costs.qrom_cost(N1 * N2, b, k1 * k2)
        assert two >= fused


def test_contiguous_register_cost():
    assert costs.contiguous_register_cost(1) == 1
    assert costs.contiguous_register_cost(6) == 41
    assert costs.contiguous_register_cost(7) == 55
    for n in range(2, 11):
        assert costs.contiguous_register_cost(n) == n * n + n - 1
    with pytest.raises(ValueError, match="at least one bit"):
        costs.contiguous_register_cost(0)


def test_cost_params_validation():
    with pytest.raises(ValueError, match="even spin-orbital count"):
        CostParams(N=3, lam=1.0)
    with pytest.raises(ValueError, match="even spin-orbital count"):
        CostParams(N=0, lam=1.0)
    with pytest.raises(ValueError, match="lambda must be positive"):
        CostParams(N=4, lam=0.0)
    with pytest.raises(ValueError, match="eps_pea must be positive"):
        CostParams(N=4, lam=1.0, eps_pea=0.0)
    for lam, eps_pea in ((math.inf, 0.001), (math.nan, 0.001), (1.0, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            CostParams(N=4, lam=lam, eps_pea=eps_pea)
    with pytest.raises(ValueError, match="cost_thc needs M"):
        costs.cost_thc(CostParams(N=4, lam=1.0))
    with pytest.raises(ValueError, match="cost_sparse needs d"):
        costs.cost_sparse(CostParams(N=4, lam=1.0))
    with pytest.raises(ValueError, match="cost_sf needs L"):
        costs.cost_sf(CostParams(N=4, lam=1.0))
    with pytest.raises(ValueError, match="cost_df needs L and Xi_total"):
        costs.cost_df(CostParams(N=4, lam=1.0, L=10))


@pytest.mark.parametrize("field", costs.POSITIVE_FIELDS)
def test_cost_params_sizes_are_positive_integers(field):
    for value in (0, -3, 2.5, 1e9):
        with pytest.raises(costs.FieldError,
                           match=f"^{field} must be a positive integer, got ") as err:
            CostParams(N=4, lam=1.0, **{field: value})
        assert (err.value.field, err.value.value) == (field, value)
    for value in (1, np.int64(7)):
        assert getattr(CostParams(N=4, lam=1.0, **{field: value}), field) == value


@pytest.mark.parametrize("model, sizes", [
    (costs.cost_thc, {"M": 350}), (costs.cost_df, {"L": 360, "Xi_total": 13031}),
])
def test_default_beth_must_reach_one(model, sizes):
    # floor(2 log2 lambda) is 1 from lambda = sqrt 2 on, and below 1 before it
    for lam, beth in ((1.41, 0), (0.5, -2)):
        with pytest.raises(costs.FieldError, match="^beth defaults to") as err:
            model(CostParams(N=108, lam=lam, **sizes))
        assert (err.value.field, err.value.value) == ("beth", beth)
    assert model(CostParams(N=108, lam=1.42, **sizes)).inputs["beth"] == 1
    assert model(CostParams(N=108, lam=0.5, beth=3, **sizes)).inputs["beth"] == 3


def test_k_override_must_be_power_of_two():
    params = CostParams(N=108, lam=306.3, M=350, aleph=10, beth=16)
    with pytest.raises(ValueError, match="power of two"):
        costs.cost_thc(params, k_overrides={"prepare_output": 3})
    with pytest.raises(ValueError, match="power of two"):
        costs.cost_sf(CostParams(N=108, lam=4258.0, L=200),
                      k_overrides={"inner_output": (3, 1)})


REIHER_THC = CostParams(N=108, lam=306.3, M=350, aleph=10, beth=16)
LI_THC = CostParams(N=152, lam=1201.5, M=450, aleph=10, beth=20)
REIHER_SPARSE = CostParams(N=108, lam=2135.3, d=705831)
LI_SPARSE = CostParams(N=152, lam=1547.3, d=440501)
REIHER_SF = CostParams(N=108, lam=4258.0, L=200)
LI_SF = CostParams(N=152, lam=3071.8, L=275)
REIHER_DF = CostParams(N=108, lam=294.8, L=360, Xi_total=13031)
LI_DF = CostParams(N=152, lam=1171.2, L=394, Xi_total=20115)


def test_thc_operating_points():
    r = costs.cost_thc(REIHER_THC)
    assert r.toffoli_per_step == 10920
    assert r.iterations == 481135
    assert r.toffoli_total == 5253994200
    assert r.logical_qubits == 2141
    assert r.k_choices == {
        "prepare_output": 64,
        "prepare_erase": 256,
        "rotation_output": 16,
        "rotation_erase": 16,
    }
    r = costs.cost_thc(LI_THC)
    assert r.toffoli_per_step == 16923
    assert r.toffoli_total == 31938980976
    assert r.logical_qubits == 2195


def test_sparse_operating_points():
    r = costs.cost_sparse(REIHER_SPARSE)
    assert r.toffoli_per_step == 26343
    assert r.iterations == 3354122
    assert r.toffoli_total == 88357635846
    assert r.logical_qubits == 2189
    assert r.k_choices["k1"] == 32
    r = costs.cost_sparse(LI_SPARSE)
    assert r.toffoli_per_step == 18135
    assert r.toffoli_total == 44077008690
    assert r.logical_qubits == 2487


def test_sf_operating_points():
    r = costs.cost_sf(REIHER_SF)
    assert r.toffoli_per_step == 14295
    assert r.iterations == 6688451
    assert r.toffoli_total == 95611407045
    assert r.logical_qubits == 3320
    assert r.k_choices["inner_output"] == (1, 128)
    r = costs.cost_sf(LI_SF)
    assert r.toffoli_per_step == 24624
    assert r.toffoli_total == 118815059952
    assert r.logical_qubits == 3627


def test_df_operating_points():
    r = costs.cost_df(REIHER_DF)
    assert r.toffoli_per_step == 21744
    assert r.iterations == 463071
    assert r.toffoli_total == 10069015824
    assert r.logical_qubits == 3725
    r = costs.cost_df(LI_DF)
    assert r.toffoli_per_step == 35018
    assert r.toffoli_total == 64423209906
    assert r.logical_qubits == 6405


_COST_MODELS = {"thc": costs.cost_thc, "sparse": costs.cost_sparse,
                "sf": costs.cost_sf, "df": costs.cost_df}
_REIHER_POINTS = [("thc", REIHER_THC), ("sparse", REIHER_SPARSE),
                  ("sf", REIHER_SF), ("df", REIHER_DF)]
_LAMBDAS = st.floats(2.0, 1e4)
_EPSILONS = st.floats(1e-4, 1e-2)


@st.composite
def _operating_points(draw):
    """A kind and its CostParams over the paper's range of sizes; beth is left
    at its default floor(2 log2 lambda), so it grows with lambda."""
    kind = draw(st.sampled_from(sorted(_COST_MODELS)))
    if kind == "thc":
        sizes = {"M": draw(st.integers(1, 600))}
    elif kind == "sparse":
        sizes = {"d": draw(st.integers(1, 10**6))}
    else:
        sizes = {"L": draw(st.integers(1, 500))}
        if kind == "df":
            sizes["Xi_total"] = draw(st.integers(sizes["L"], 20000))
    return kind, CostParams(N=2 * draw(st.integers(2, 120)), lam=draw(_LAMBDAS),
                            eps_pea=draw(_EPSILONS), **sizes)


def _at_reiher_points(test):
    for point in _REIHER_POINTS:
        test = example(point)(test)
    return test


@_at_reiher_points
@settings(deadline=None, max_examples=150)
@given(_operating_points())
def test_totals_are_exact_integers(point):
    kind, params = point
    r = _COST_MODELS[kind](params)
    assert isinstance(r.toffoli_per_step, int)
    assert isinstance(r.iterations, int)
    assert isinstance(r.toffoli_total, int)
    assert r.iterations == math.ceil(math.pi * params.lam / (2.0 * params.eps_pea))
    assert r.toffoli_total == r.toffoli_per_step * r.iterations


@_at_reiher_points
@settings(deadline=None, max_examples=150)
@given(_operating_points())
def test_breakdown_sums_to_per_step(point):
    kind, params = point
    r = _COST_MODELS[kind](params)
    assert sum(r.breakdown.values()) == r.toffoli_per_step


def test_thc_all_k_one_matches_hand_substitution():
    overrides = {
        "prepare_output": 1,
        "prepare_erase": 1,
        "rotation_output": 1,
        "rotation_erase": 1,
    }
    r = costs.cost_thc(REIHER_THC, k_overrides=overrides)
    N, M, b_r, aleph, beth = 108, 350, 7, 10, 16
    n_M = ceil_log2(M + 1)
    d = N // 2 + M * (M + 1) // 2
    per = (
        (30 * n_M + 4 * b_r - 16 + 2 * n_M * n_M + 3 * aleph)
        + d
        + (d + 1)
        + 2 * M
        + (4 * N * beth - 11 * N // 2)
        + M
        + (N // 2 + 1)
        + (M + 1)
    )
    assert r.toffoli_per_step == per == 131207
    assert r.logical_qubits == 1119


def test_sparse_all_k_one_matches_hand_substitution():
    r = costs.cost_sparse(REIHER_SPARSE, k_overrides={"k1": 1, "k2": 1})
    N, d, b_r, aleph = 108, 705831, 7, 10
    n_N = ceil_log2(N // 2)
    eta = two_adic_valuation(d)
    per = (
        d
        + (d + 1)
        + 4 * N
        + 8 * n_N
        + 2 * aleph
        + 7 * ceil_log2(d)
        - 6 * eta
        + 4 * b_r
        - 19
    )
    assert r.toffoli_per_step == per == 1412312
    assert r.logical_qubits == 272


def test_sf_all_k_one_matches_hand_substitution():
    overrides = {
        "outer_output": 1,
        "outer_erase": 1,
        "inner_output": (1, 1),
        "inner_erase": (1, 1),
    }
    r = costs.cost_sf(REIHER_SF, k_overrides=overrides)
    N, L, b_r, aleph1, aleph2 = 108, 200, 7, 10, 10
    n_N = ceil_log2(N // 2)
    n_L = ceil_log2(L + 1)
    eta = two_adic_valuation(L)
    b_L = n_L + aleph1 + 2
    b_p = 2 * n_N + aleph2 + 2
    theta = N * N // 8 + N // 2
    per = (
        7 * n_L
        + 4 * n_N * n_N
        + 40 * n_N
        - 6 * eta
        + 12 * b_r
        + (L + 1)
        + 2 * b_L
        + (L + 1)
        + 1
        + (L + 1) * theta
        + 2 * b_p
        + (L + 1) * theta
        + 2
        + L * theta
        + L * theta
        + aleph1
        + 4 * aleph2
        + 4 * N
        - 56
    )
    assert r.toffoli_per_step == per == 1214049
    assert r.logical_qubits == 279


def test_df_all_k_one_matches_hand_substitution():
    overrides = {
        "outer_coeff": 1,
        "outer_offset": 1,
        "outer_coeff_erase": 1,
        "outer_offset_erase": 1,
        "rotation_output": 1,
        "rotation_erase": 1,
        "inner_coeff": 1,
        "inner_coeff_erase": 1,
    }
    params = CostParams(
        N=108, lam=294.8, L=360, Xi_total=13031, Xi_max=54, beth=16
    )
    r = costs.cost_df(params, k_overrides=overrides)
    N, L, Xi_total, Xi_max, b_r, aleph1, aleph2, beth = 108, 360, 13031, 54, 7, 10, 10, 16
    n_L = ceil_log2(L + 1)
    n_Xi = ceil_log2(Xi_max)
    n_LXi = ceil_log2(L + Xi_total)
    eta = two_adic_valuation(L)
    X = Xi_total
    D = X + N // 2
    per = (
        9 * n_L
        - 6 * eta
        + 12 * b_r
        + 4 * (L + 1)
        + 2
        + (D + X + N * beth)
        + (D + X + 2)
        + 34 * n_Xi
        + 8 * n_LXi
        + (D + X)
        + (D + X + 2)
        + 3 * aleph1
        + 6 * aleph2
        + 3 * N * beth
        - 6 * N
        - 43
    )
    assert r.toffoli_per_step == per == 112688
    assert r.logical_qubits == 1133


def test_sparse_free_scan_beats_default_clamp():
    free = costs.cost_sparse(REIHER_SPARSE, k_overrides={"k1": None})
    clamped = costs.cost_sparse(REIHER_SPARSE)
    assert free.k_choices == {"k1": 128, "k2": 1024}
    assert free.toffoli_per_step == 15752
    assert free.logical_qubits == 8139
    assert free.toffoli_per_step < clamped.toffoli_per_step
    assert free.logical_qubits > clamped.logical_qubits


def _perturbed_k(report, fn, params, base_overrides=None):
    """Doubling or halving any single batching exponent never reduces per-step."""
    for role, k in report.k_choices.items():
        if isinstance(k, tuple):
            neighbors = []
            for i in range(2):
                for factor in (2, 0.5):
                    cand = list(k)
                    newk = int(cand[i] * factor)
                    if newk >= 1:
                        cand[i] = newk
                        neighbors.append(tuple(cand))
        else:
            neighbors = [k * 2] + ([k // 2] if k >= 2 else [])
        for cand in neighbors:
            overrides = dict(base_overrides or {})
            overrides.update(report.k_choices)
            overrides[role] = cand
            alt = fn(params, k_overrides=overrides)
            assert alt.toffoli_per_step >= report.toffoli_per_step


def test_chosen_k_locally_optimal():
    _perturbed_k(costs.cost_thc(REIHER_THC), costs.cost_thc, REIHER_THC)
    free = {"k1": None}
    report = costs.cost_sparse(REIHER_SPARSE, k_overrides=free)
    _perturbed_k(report, costs.cost_sparse, REIHER_SPARSE)
    _perturbed_k(costs.cost_sf(REIHER_SF), costs.cost_sf, REIHER_SF)
    _perturbed_k(costs.cost_df(REIHER_DF), costs.cost_df, REIHER_DF)


def test_thc_qubits_nondecreasing_in_prepare_batch():
    observed = [
        costs.cost_thc(REIHER_THC, k_overrides={"prepare_output": 2**e}).logical_qubits
        for e in range(17)
    ]
    assert observed == [
        1119, 1119, 1119, 1119, 1119, 1182, 2141, 4060, 7899, 15578, 30937,
        61656, 123095, 245974, 491733, 983252, 1966291,
    ]
    assert all(a <= b for a, b in zip(observed, observed[1:]))


@example(("thc", REIHER_THC), 1600.0, 0.0016)
@example(("sparse", REIHER_SPARSE), 100.0, 0.0001)
@settings(deadline=None, max_examples=150)
@given(_operating_points(), _LAMBDAS, _EPSILONS)
def test_totals_monotone_in_lambda_and_eps(point, lam, eps):
    kind, params = point

    def total(**change):
        return _COST_MODELS[kind](dataclasses.replace(params, **change)).toffoli_total

    low, high = sorted([params.lam, lam])
    assert total(lam=low) <= total(lam=high)
    low, high = sorted([params.eps_pea, eps])
    assert total(eps_pea=low) >= total(eps_pea=high)


def test_report_to_dict():
    r = costs.cost_thc(REIHER_THC)
    payload = r.to_dict()
    assert payload["method"] == "thc"
    assert payload["toffoli_total"] == 5253994200
    assert payload["breakdown"] == r.breakdown
    assert payload["inputs"]["N"] == 108


_WALK_CASES = {
    "thc": ("thc", REIHER_THC, None),
    "sparse": ("sparse", REIHER_SPARSE, None),
    "sf": ("sf", REIHER_SF, None),
    "df": ("df", REIHER_DF, None),
    "thc-all-k-one": ("thc", REIHER_THC, dict.fromkeys(
        ["prepare_output", "prepare_erase", "rotation_output", "rotation_erase"], 1)),
    "sparse-all-k-one": ("sparse", REIHER_SPARSE, {"k1": 1, "k2": 1}),
    "sf-all-k-one": ("sf", REIHER_SF, {"outer_output": 1, "outer_erase": 1,
                                       "inner_output": (1, 1), "inner_erase": (1, 1)}),
    "df-all-k-one": ("df", dataclasses.replace(REIHER_DF, Xi_max=54, beth=16),
                     dict.fromkeys(["outer_coeff", "outer_offset", "outer_coeff_erase",
                                    "outer_offset_erase", "rotation_output",
                                    "rotation_erase", "inner_coeff",
                                    "inner_coeff_erase"], 1)),
    "sparse-free-scan": ("sparse", REIHER_SPARSE, {"k1": None}),
}
_WALK_PARENT_REPORTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "walk_parent_reports.json").read_text())


@pytest.mark.parametrize("name", sorted(_WALK_CASES))
def test_walk_reports_match_pinned(name):
    # to_dict() of every walk model before the models shared one batching
    # scan and one report builder: same values, types and key order
    kind, params, overrides = _WALK_CASES[name]
    report = _COST_MODELS[kind](params, k_overrides=overrides).to_dict()
    assert json.dumps(report) == json.dumps(_WALK_PARENT_REPORTS[name])


def test_build_report_sums_named_buckets():
    r = costs.build_report("x", 3, 5, inputs={"N": 2}, select=2, rotations=7)
    assert r.breakdown == {"prepare": 0, "select": 2, "reflection": 0,
                           "qrom": 0, "rotations": 7}
    assert list(r.breakdown) == list(costs.BUCKETS)
    assert r.toffoli_per_step == 9 and r.toffoli_total == 27
    with pytest.raises(TypeError, match="unknown cost buckets"):
        costs.build_report("x", 1, 1, inputs={}, qroms=1)


def test_minimize_over_k_pair_domain():
    # a tuple domain scans every power-of-two pair, first register outermost
    seen = []
    k, value = costs.minimize_over_k((3, 2), lambda k1, k2: seen.append((k1, k2)) or 5)
    assert seen == [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1), (4, 2)]
    assert (k, value) == ((1, 1), 5)
    k, value = costs.minimize_over_k((4, 4), lambda k1, k2: abs(k1 - 2) + abs(k2 - 4))
    assert (k, value) == ((2, 4), 0)
