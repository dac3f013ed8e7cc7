#!/usr/bin/env python3
"""Physical footprint and runtime for a fixed logical workload."""

from ftqc import costs, surface

report = costs.cost_thc(costs.CostParams(N=108, lam=306.3, M=350, aleph=10, beth=16))
print(f"workload: {report.toffoli_total:.3e} Toffolis on "
      f"{report.logical_qubits} logical qubits")
print()

for p in (1e-3, 1e-4):
    a = surface.PhysicalAssumptions(phys_error_rate=p)
    est = surface.layout_estimate(report.toffoli_total,
                                  logical_qubits=report.logical_qubits,
                                  assumptions=a)
    print(f"physical error rate {p:g}:")
    print(f"  code distance        {est.data_distance} "
          f"(factories {est.factory_l1_distance}/{est.factory_l2_distance})")
    print(f"  tiles                {est.tiles} "
          f"({est.data_tiles} data + {est.factory_tiles} factory)")
    print(f"  physical qubits      {est.physical_qubits_total:.3e}")
    print(f"  runtime              {est.runtime_days:.2f} days "
          f"(limited by {est.limiting_constraint})")
    print(f"  total logical error  {est.logical_error_total:.4f}")
    print()

print("factory count vs runtime (p = 1e-3):")
for count in (1, 2, 4, 8, 16):
    a = surface.PhysicalAssumptions(phys_error_rate=1e-3, factory_count=count)
    est = surface.layout_estimate(report.toffoli_total,
                                  logical_qubits=report.logical_qubits,
                                  assumptions=a)
    print(f"  {count:2d} factories: {est.runtime_days:7.2f} days, "
          f"{est.physical_qubits_total:.3e} physical qubits, "
          f"limited by {est.limiting_constraint}")
