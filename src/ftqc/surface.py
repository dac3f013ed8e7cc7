"""Surface-code footprint and runtime estimates for a Toffoli workload.

Logical algorithm counts (Toffoli count, logical qubit count) are mapped to
physical-qubit counts and wall-clock time under a simple model: rotated
surface-code tiles of 2(d+1)^2 physical qubits, magic-state factories with
a 15d x 8d footprint refreshed every 5d-ish rounds, and a consumption clock
set by whichever is slower, factory output ("beat") or the classical
reaction time ("tick").
"""

from __future__ import annotations

import dataclasses
import math

MAX_CODE_DISTANCE = 51


@dataclasses.dataclass(frozen=True)
class PhysicalAssumptions:
    """Hardware model parameters.

    factory_rate_per_factory is the calibrated magic-state output rate of a
    single factory at distance 31 with a 1 microsecond cycle; the period
    scales linearly with distance and cycle time from that anchor.
    """

    phys_error_rate: float = 1e-3
    cycle_time: float = 1e-6
    reaction_time: float = 1e-5
    total_error_budget: float = 0.01
    factory_count: int = 4
    factory_rate_per_factory: float = 6250.0

    def __post_init__(self):
        if not 0.0 < self.phys_error_rate < 0.01:
            raise ValueError("phys_error_rate must lie in (0, 0.01)")
        if not 0.0 < self.total_error_budget < 1.0:
            raise ValueError("total_error_budget must lie in (0, 1)")
        if not 1 <= self.factory_count < math.inf:
            raise ValueError("factory_count must be at least 1")
        # written as 0 < value < inf, so that nan fails too
        for name in ("cycle_time", "reaction_time", "factory_rate_per_factory"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclasses.dataclass(frozen=True)
class PhysicalEstimate:
    """Physical resources for one operating point."""

    data_distance: int
    factory_l1_distance: int
    factory_l2_distance: int
    data_tiles: float
    factory_tiles: int
    tiles: float
    physical_qubits_total: int
    runtime_seconds: float
    limiting_constraint: str
    logical_error_total: float

    @property
    def runtime_days(self) -> float:
        return self.runtime_seconds / 86400.0

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["runtime_days"] = self.runtime_days
        return out


def logical_error_rate(distance: int, phys_error_rate: float) -> float:
    """Per-round logical failure rate of one tile, 0.1 (p/0.01)^((d+1)/2)."""
    if distance < 3 or distance % 2 == 0:
        raise ValueError("distance must be an odd integer >= 3")
    if not 0.0 < phys_error_rate < 0.01:
        raise ValueError("phys_error_rate must lie in (0, 0.01)")
    return 0.1 * (phys_error_rate / 0.01) ** ((distance + 1) / 2)


def tile_qubits(distance: int) -> int:
    """Physical qubits per tile, data plus measure, with boundary padding."""
    return 2 * (distance + 1) ** 2


def factory_period(distance: int, assumptions: PhysicalAssumptions) -> float:
    """Seconds between magic states from a single factory."""
    return (
        (1.0 / assumptions.factory_rate_per_factory)
        * (distance / 31.0)
        * (assumptions.cycle_time / 1e-6)
    )


def toffoli_interval(distance: int, assumptions: PhysicalAssumptions):
    """Seconds per consumed Toffoli and which clock sets it.

    Returns (seconds, "beat" | "tick"): "beat" when the factories are the
    bottleneck, "tick" when the classical reaction time is.
    """
    beat = factory_period(distance, assumptions) / assumptions.factory_count
    if beat >= assumptions.reaction_time:
        return beat, "beat"
    return assumptions.reaction_time, "tick"


def factory_tiles(distance: int, assumptions: PhysicalAssumptions) -> int:
    """Tiles occupied by all factories; each has a 15d x 8d physical footprint."""
    per_factory = math.ceil(120 * distance * distance / tile_qubits(distance))
    return assumptions.factory_count * per_factory


def factory_distances(distance: int):
    """(first-level, second-level) code distances inside a factory.

    The second level runs at the data distance; the first level is the
    largest odd distance at most 19d/31.
    """
    l1 = int(19 * distance / 31)
    if l1 % 2 == 0:
        l1 -= 1
    return max(1, l1), distance


def _data_failure(distance: int, logical_qubits: float, toffoli_count: float,
                  assumptions: PhysicalAssumptions) -> float:
    """Data-qubit failure probability over the run: qubits x rounds x rate.

    The round count follows the Toffoli consumption clock at this distance.
    """
    tau, _ = toffoli_interval(distance, assumptions)
    rounds = toffoli_count * tau / assumptions.cycle_time
    return (logical_qubits * rounds
            * logical_error_rate(distance, assumptions.phys_error_rate))


def choose_distance(toffoli_count: float, assumptions: PhysicalAssumptions, *,
                    logical_qubits: float | None = None,
                    tiles: float | None = None):
    """Smallest odd distance keeping data-qubit failure within half the budget.

    Takes exactly one of logical_qubits and tiles and returns (distance,
    data_tiles, logical_qubits).  A qubit count q needs ceil(1.5 q) data
    tiles (1.5 per qubit for routing); a tile budget leaves each candidate
    distance the data tiles its own factories do not take, which hold
    data_tiles / 1.5 logical qubits.  The round count follows the Toffoli
    clock at the candidate distance, so the choice is self-consistent.
    """
    if (logical_qubits is None) == (tiles is None):
        raise ValueError("give exactly one of logical_qubits and tiles")
    if toffoli_count < 0 or (logical_qubits is not None and logical_qubits < 0):
        raise ValueError("counts must be nonnegative")
    for distance in range(3, MAX_CODE_DISTANCE + 1, 2):
        if tiles is not None:
            data_tiles = tiles - (factory_tiles(distance, assumptions)
                                  if toffoli_count else 0)
            if data_tiles <= 0:
                if distance == 3:
                    raise ValueError("tile budget smaller than the factory footprint")
                break
            logical_qubits = data_tiles / 1.5
        failure = _data_failure(distance, logical_qubits, toffoli_count, assumptions)
        if failure <= assumptions.total_error_budget / 2.0:
            if tiles is None:
                data_tiles = float(math.ceil(1.5 * logical_qubits))
            return distance, data_tiles, logical_qubits
    raise ValueError(f"no distance up to {MAX_CODE_DISTANCE} meets the error budget")


def layout_estimate(toffoli: float, *, logical_qubits: float | None = None,
                    tiles: float | None = None,
                    assumptions: PhysicalAssumptions | None = None) -> PhysicalEstimate:
    """Physical estimate for toffoli Toffolis on exactly one of a logical
    qubit count (factories added on top of its data tiles) or a fixed tile
    budget (factories carved out of it); see choose_distance.
    """
    if assumptions is None:
        assumptions = PhysicalAssumptions()
    distance, data_tiles, logical_qubits = choose_distance(
        toffoli, assumptions, logical_qubits=logical_qubits, tiles=tiles)
    if toffoli == 0:
        ftiles = 0
        tau, limiting = 0.0, "tick"
    else:
        ftiles = factory_tiles(distance, assumptions)
        tau, limiting = toffoli_interval(distance, assumptions)
    total = data_tiles + ftiles
    l1, l2 = factory_distances(distance)
    return PhysicalEstimate(
        data_distance=distance,
        factory_l1_distance=l1,
        factory_l2_distance=l2,
        data_tiles=data_tiles,
        factory_tiles=ftiles,
        tiles=total,
        physical_qubits_total=int(round(total * tile_qubits(distance))),
        runtime_seconds=toffoli * tau,
        limiting_constraint=limiting,
        logical_error_total=_data_failure(distance, logical_qubits, toffoli,
                                          assumptions),
    )
