#!/usr/bin/env python3
"""Factor a small random integral set four ways and compare the 1-norms."""

import numpy as np

from ftqc import factorizations as fx
from ftqc import tensors, thc, verify

data = tensors.random_instance(4, seed=11)
kin = tensors.compute_T(data)
print(f"instance: n_spatial={data.n_spatial}")
print(f"unique two-body entries above 1e-8: {tensors.count_unique_above(data.V, 1e-8)}")
print()

sparse, _ = fx.sparse_truncate(data, kin.Tprime, 1e-3)
sf = fx.single_factorize(data)
df = fx.double_factorize(sf, 1e-4)
fit = thc.thc_fit(data.V, rank=10, n_starts=8, seed=3)

reps = [("sparse", sparse), ("sf", sf), ("df", df), ("thc", fit.rep)]

print(f"{'method':8s} {'lambda_1':>10s} {'lambda_2':>10s} {'total':>10s} "
      f"{'|V-Vt|_1':>10s} {'size':>18s}")
for name, rep in reps:
    lam = fx.lambda_report(rep, data)
    l1 = float(np.sum(np.abs(data.V - rep.dense())))
    size = ", ".join(f"{k}={v}" for k, v in rep.sizes().items())
    print(f"{name:8s} {lam.lambda_one:10.4f} {lam.lambda_two:10.4f} "
          f"{lam.total:10.4f} {l1:10.2e} {size:>18s}")

print()
print("spectrum check (walk eigenphases must fit inside lambda):")
for name, rep in reps:
    rpt = verify.lambda_bounds_spectrum(rep, data)
    print(f"  {name:8s} max|E - shift| = {rpt['max_abs_shifted']:.4f}  "
          f"lambda = {rpt['lambda']:.4f}  margin = {rpt['margin']:+.4f}  "
          f"ok = {rpt['ok']}")
