import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ftqc import surface
from ftqc.costs import CostParams, CostReport, cost_thc
from ftqc.surface import PhysicalAssumptions


def test_assumptions_validation():
    PhysicalAssumptions()
    with pytest.raises(ValueError, match="phys_error_rate"):
        PhysicalAssumptions(phys_error_rate=0.02)
    with pytest.raises(ValueError, match="phys_error_rate"):
        PhysicalAssumptions(phys_error_rate=0.0)
    with pytest.raises(ValueError, match="cycle_time must be positive"):
        PhysicalAssumptions(cycle_time=0.0)
    with pytest.raises(ValueError, match="total_error_budget"):
        PhysicalAssumptions(total_error_budget=1.5)
    with pytest.raises(ValueError, match="factory_count"):
        PhysicalAssumptions(factory_count=0)
    with pytest.raises(ValueError, match="factory_rate"):
        PhysicalAssumptions(factory_rate_per_factory=0.0)


@pytest.mark.parametrize("field", [
    "cycle_time", "reaction_time", "factory_rate_per_factory",
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_assumptions_reject_non_finite(field, value):
    # nan fails every comparison, so a "<= 0" check alone lets it through
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        PhysicalAssumptions(**{field: value})


def test_logical_error_rate_and_tiles():
    assert surface.logical_error_rate(31, 1e-3) == pytest.approx(1e-17, rel=1e-9)
    assert surface.logical_error_rate(3, 1e-3) == pytest.approx(0.1 * 0.1**2, rel=1e-12)
    assert surface.tile_qubits(31) == 2 * 32 * 32
    assert surface.tile_qubits(3) == 32
    with pytest.raises(ValueError):
        surface.logical_error_rate(4, 1e-3)
    with pytest.raises(ValueError):
        surface.logical_error_rate(1, 1e-3)
    with pytest.raises(ValueError):
        surface.logical_error_rate(31, 0.02)


def test_factory_distances():
    assert surface.factory_distances(31) == (19, 31)
    assert surface.factory_distances(15) == (9, 15)
    # level-1 distance stays odd and at least 1
    for d in range(3, 52, 2):
        l1, l2 = surface.factory_distances(d)
        assert l2 == d
        assert l1 % 2 == 1
        assert 1 <= l1 <= d


def test_choose_distance():
    # 1120 data qubits is the 1908-tile floorplan minus its factory footprint
    a = PhysicalAssumptions(phys_error_rate=1e-3)
    assert surface.choose_distance(6.7e9, a, logical_qubits=1120)[0] == 31
    assert surface.choose_distance(6.7e9, PhysicalAssumptions(phys_error_rate=1e-4),
                                   logical_qubits=1120)[0] == 15
    assert surface.choose_distance(10, PhysicalAssumptions(total_error_budget=0.999),
                                   logical_qubits=1)[0] == 3
    assert surface.choose_distance(0, a, logical_qubits=10)[0] == 3
    # the chosen distance passes the half-budget check and the next one down fails
    d = surface.choose_distance(6.7e9, a, logical_qubits=1120)[0]
    tau, _ = surface.toffoli_interval(d, a)
    rounds = 6.7e9 * tau / a.cycle_time
    assert 1120 * rounds * surface.logical_error_rate(d, 1e-3) <= a.total_error_budget / 2
    tau2, _ = surface.toffoli_interval(d - 2, a)
    rounds2 = 6.7e9 * tau2 / a.cycle_time
    assert 1120 * rounds2 * surface.logical_error_rate(d - 2, 1e-3) > a.total_error_budget / 2
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        surface.choose_distance(100, a, logical_qubits=-1)[0]
    with pytest.raises(ValueError, match="no distance up to 51"):
        surface.choose_distance(1e40, PhysicalAssumptions(phys_error_rate=9e-3),
                                logical_qubits=1e6)[0]


def test_layout_tile_budget_em3():
    est = surface.layout_estimate(
        tiles=1908, toffoli=6.7e9, assumptions=PhysicalAssumptions(phys_error_rate=1e-3)
    )
    assert est.data_distance == 31
    assert est.factory_l1_distance == 19
    assert est.factory_l2_distance == 31
    assert est.data_tiles == 1680
    assert est.factory_tiles == 228
    assert est.tiles == 1908
    assert est.physical_qubits_total == 3907584
    assert est.runtime_seconds == 268000.0
    assert est.limiting_constraint == "beat"
    assert est.logical_error_total == pytest.approx(0.0030016, abs=1e-8)
    assert est.runtime_days == pytest.approx(268000.0 / 86400.0, rel=1e-12)


def test_layout_tile_budget_em4():
    est = surface.layout_estimate(
        tiles=1908, toffoli=6.7e9, assumptions=PhysicalAssumptions(phys_error_rate=1e-4)
    )
    assert est.data_distance == 15
    assert est.factory_l1_distance == 9
    assert est.factory_l2_distance == 15
    assert est.data_tiles == 1696
    assert est.factory_tiles == 212
    assert est.tiles == 1908
    assert est.physical_qubits_total == 976896
    assert est.runtime_seconds == pytest.approx(129677.41935483873, rel=1e-12)
    assert est.limiting_constraint == "beat"


def test_layout_error_rate_ratios():
    em3 = surface.layout_estimate(
        tiles=1908, toffoli=6.7e9, assumptions=PhysicalAssumptions(phys_error_rate=1e-3)
    )
    em4 = surface.layout_estimate(
        tiles=1908, toffoli=6.7e9, assumptions=PhysicalAssumptions(phys_error_rate=1e-4)
    )
    # qubit count scales as (d+1)^2 and runtime as the factory distance
    assert em3.physical_qubits_total / em4.physical_qubits_total == 4.0
    assert em4.runtime_seconds / em3.runtime_seconds == pytest.approx(15.0 / 31.0, rel=1e-12)


@pytest.mark.parametrize("tiles,toffoli,distance", [
    (231.592213187732, 286831.6813342009, 19),
    (231.592213187732, 27585316.176291868, 23),
    (246.86737601922957, 10811807510.766077, 29),
])
def test_layout_tile_budget_two_cycle_takes_larger_distance(tiles, toffoli, distance):
    # At these budgets the data tiles left by the factories of distance - 2
    # need this distance, so distance - 2 misses the budget at its own tiles
    # and this distance is the first to meet it.
    a = PhysicalAssumptions(phys_error_rate=1e-3)
    est = surface.layout_estimate(tiles=tiles, toffoli=toffoli, assumptions=a)
    assert est.data_distance == distance
    assert est.logical_error_total <= a.total_error_budget / 2
    smaller = surface.factory_tiles(distance - 2, a)
    assert surface.choose_distance(toffoli, a,
                                   logical_qubits=(tiles - smaller) / 1.5)[0] == distance


def _meets_budget_at_own_tiles(distance, tiles, toffoli, a):
    """Whether distance keeps the data failure within half the budget on the
    data tiles that its own factories leave."""
    data_tiles = tiles - (surface.factory_tiles(distance, a) if toffoli else 0)
    return data_tiles > 0 and (surface._data_failure(distance, data_tiles / 1.5,
                                                     toffoli, a)
                               <= a.total_error_budget / 2)


# the first failed with "no distance up to 51 meets the error budget", and the
# second took 43, when the distance was a fixed point iterated from 3
@pytest.mark.parametrize("tiles, toffoli, p, reaction_time, distance", [
    (2680, 1e8, 3e-3, 1e-5, 51),
    (930, 100, 5e-3, 1e-4, 39),
], ids=["refused", "larger"])
def test_layout_tile_budget_takes_first_distance_at_its_own_tiles(
        tiles, toffoli, p, reaction_time, distance):
    a = PhysicalAssumptions(phys_error_rate=p, factory_count=16,
                            reaction_time=reaction_time)
    est = surface.layout_estimate(tiles=tiles, toffoli=toffoli, assumptions=a)
    assert est.data_distance == distance
    assert est.logical_error_total <= a.total_error_budget / 2
    assert not _meets_budget_at_own_tiles(distance - 2, tiles, toffoli, a)


def test_layout_validation():
    with pytest.raises(ValueError, match="give exactly one of logical_qubits and tiles"):
        surface.layout_estimate(6.7e9)
    with pytest.raises(ValueError, match="tile budget smaller than the factory footprint"):
        surface.layout_estimate(tiles=10, toffoli=6.7e9)


@pytest.mark.parametrize("geometry", [{}, {"logical_qubits": 2142, "tiles": 1908}],
                         ids=["neither", "both"])
def test_layout_takes_exactly_one_geometry(geometry):
    with pytest.raises(ValueError, match="^give exactly one of logical_qubits and tiles$"):
        surface.layout_estimate(6.7e9, **geometry)


def test_surface_imports_no_cost_model():
    # the layout takes plain counts, so it needs neither the cost models nor numpy
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, ftqc.surface; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "ftqc.surface" in loaded
    assert loaded.isdisjoint({"ftqc.costs", "numpy"})


def test_layout_zero_toffoli():
    est = surface.layout_estimate(tiles=1908, toffoli=0.0)
    assert est.data_distance == 3
    assert est.runtime_seconds == 0.0
    assert est.factory_tiles == 0
    assert est.limiting_constraint == "tick"


def _report():
    return CostReport(
        method="thc",
        toffoli_per_step=10920,
        iterations=481135,
        logical_qubits=2142,
        k_choices={},
        breakdown={},
        inputs={},
        extras={},
    )


def test_layout_from_report():
    report = _report()
    est = surface.layout_estimate(report.toffoli_total,
                                  logical_qubits=report.logical_qubits)
    assert est.data_tiles == math.ceil(1.5 * 2142)
    assert est.tiles == 3441
    assert est.physical_qubits_total == 7047168
    assert est.logical_error_total == pytest.approx(0.0045016222305600045, rel=1e-10)


def test_layout_runtime_nonincreasing_in_factories():
    rep = _report()
    runtimes = []
    for count in (1, 2, 4, 8, 16, 32, 64):
        est = surface.layout_estimate(
            rep.toffoli_total, logical_qubits=rep.logical_qubits,
            assumptions=PhysicalAssumptions(factory_count=count)
        )
        runtimes.append(est.runtime_seconds)
    assert all(a >= b for a, b in zip(runtimes, runtimes[1:]))
    # beyond the distillation crossover the reaction time is the exact floor
    floor = rep.toffoli_total * 1e-5
    assert runtimes[-1] == floor
    assert runtimes[-2] == floor
    est = surface.layout_estimate(rep.toffoli_total, logical_qubits=rep.logical_qubits,
                                  assumptions=PhysicalAssumptions(factory_count=64))
    assert est.limiting_constraint == "tick"


def test_estimate_to_dict():
    est = surface.layout_estimate(tiles=1908, toffoli=6.7e9)
    payload = est.to_dict()
    assert payload["data_distance"] == 31
    assert payload["runtime_days"] == pytest.approx(est.runtime_seconds / 86400.0)
    assert payload["tiles"] == 1908


def test_cost_report_feeds_layout():
    report = cost_thc(CostParams(N=108, lam=306.3, M=350, aleph=10, beth=16))
    est = surface.layout_estimate(report.toffoli_total,
                                  logical_qubits=report.logical_qubits)
    assert est.data_tiles == math.ceil(1.5 * report.logical_qubits)
    assert est.runtime_seconds > 0


@st.composite
def _assumptions(draw):
    return PhysicalAssumptions(
        phys_error_rate=draw(st.floats(1e-5, 5e-3)),
        total_error_budget=draw(st.floats(1e-4, 0.5)),
        factory_count=draw(st.integers(1, 16)),
        reaction_time=draw(st.floats(1e-7, 1e-4)),
    )


_TOFFOLIS = st.floats(0.0, 1e14)


def _estimate_or_skip(**kwargs):
    """The estimate, or a skipped example when no distance up to 51 fits or
    the tile budget is below the factory footprint."""
    try:
        return surface.layout_estimate(**kwargs)
    except ValueError:
        assume(False)


def _check_estimate(est, a):
    assert est.data_distance % 2 == 1
    assert 3 <= est.data_distance <= surface.MAX_CODE_DISTANCE
    assert est.logical_error_total <= a.total_error_budget / 2
    assert est.tiles == est.data_tiles + est.factory_tiles


@example(PhysicalAssumptions(), 1908.0, 6.7e9)
@example(PhysicalAssumptions(), 1908.0, 0.0)
@given(_assumptions(), st.floats(50.0, 1e5), _TOFFOLIS)
def test_layout_tile_budget_properties(a, tiles, toffoli):
    est = _estimate_or_skip(tiles=tiles, toffoli=toffoli, assumptions=a)
    _check_estimate(est, a)
    # no smaller distance meets the budget on the tiles its factories leave
    assert not any(_meets_budget_at_own_tiles(d, tiles, toffoli, a)
                   for d in range(3, est.data_distance, 2))


@example(PhysicalAssumptions(), 2142, 5.3e9, 6.7e9)
@given(_assumptions(), st.integers(1, 10**5), _TOFFOLIS, _TOFFOLIS)
def test_layout_report_properties(a, logical_qubits, toffoli, more):
    low, high = sorted([toffoli, more])

    def estimate(count):
        return _estimate_or_skip(toffoli=count, logical_qubits=logical_qubits,
                                 assumptions=a)

    est_high = estimate(high)
    est_low = estimate(low)
    for est in (est_low, est_high):
        _check_estimate(est, a)
    # more Toffolis never buy a smaller distance
    assert est_low.data_distance <= est_high.data_distance
