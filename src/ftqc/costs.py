"""Toffoli and logical-qubit cost models for the qubitized walk methods.

Everything here is exact integer arithmetic once the inputs (lambda, ranks,
bit widths) are fixed.  QROM batching exponents k are powers of two chosen
by scanning; ties prefer the candidate with the smaller ancilla footprint
and then the smaller k.  toffoli_total is always iterations *
toffoli_per_step by construction.
"""

from __future__ import annotations

import dataclasses
import math


def ceil_div(a: int, b: int) -> int:
    return -(-int(a) // int(b))


def ceil_log2(x: int) -> int:
    """Smallest integer b with 2^b >= x, for integer x >= 1."""
    x = int(x)
    if x < 1:
        raise ValueError("ceil_log2 needs a positive integer")
    return (x - 1).bit_length()


def two_adic_valuation(x: int) -> int:
    """Largest eta with 2^eta dividing x."""
    x = int(x)
    if x < 1:
        raise ValueError("two_adic_valuation needs a positive integer")
    return (x & -x).bit_length() - 1


def iterations(lam: float, eps_pea: float) -> int:
    """Walk steps for phase estimation to accuracy eps_pea, ceil(pi lam / 2 eps)."""
    if lam <= 0 or eps_pea <= 0:
        raise ValueError("lambda and eps_pea must be positive")
    return math.ceil(math.pi * lam / (2.0 * eps_pea))


def qrom_cost(d: int, m: int, k: int) -> int:
    """Toffolis to look up d entries of m bits with batching exponent k."""
    return ceil_div(d, k) + m * (k - 1)


def qrom_erase_cost(d: int, k: int) -> int:
    """Toffolis to uncompute a d-entry lookup via measurement and fixup."""
    return ceil_div(d, k) + k


def qrom_two_register_cost(N1: int, N2: int, b: int, k1: int, k2: int) -> int:
    """Lookup over a product index (N1 x N2) without forming the flat index."""
    return ceil_div(N1, k1) * ceil_div(N2, k2) + b * (k1 * k2 - 1)


def qrom_two_register_erase_cost(N1: int, N2: int, k1: int, k2: int) -> int:
    return ceil_div(N1, k1) * ceil_div(N2, k2) + k1 * k2


def contiguous_register_cost(n_bits: int) -> int:
    """Toffolis to map an n-bit pair (nu, mu) to nu(nu+1)/2 + mu: n^2 + n - 1."""
    n = int(n_bits)
    if n < 1:
        raise ValueError("need at least one bit")
    return n * n + n - 1


def _default_beth(lam: float) -> int:
    """Rotation bits used by the published operating points, floor(2 log2 lam)."""
    return int(math.floor(2.0 * math.log2(lam)))


def minimize_over_k(domain: int, term):
    """Best power-of-two batching exponent for a local cost term.

    Scans k in {1, 2, ..., 2^ceil_log2(domain)}; strict improvement means
    ties keep the smaller k, which also has the smaller ancilla footprint.
    """
    best_k, best = 1, term(1)
    k = 2
    limit = 1 << ceil_log2(max(1, domain))
    while k <= limit:
        value = term(k)
        if value < best:
            best_k, best = k, value
        k *= 2
    return best_k, best


def minimize_over_k_pair(domain1: int, domain2: int, term):
    """Joint scan over power-of-two pairs for coupled two-register lookups."""
    best = None
    k1 = 1
    limit1 = 1 << ceil_log2(max(1, domain1))
    limit2 = 1 << ceil_log2(max(1, domain2))
    while k1 <= limit1:
        k2 = 1
        while k2 <= limit2:
            value = term(k1, k2)
            if best is None or value < best[2]:
                best = (k1, k2, value)
            k2 *= 2
        k1 *= 2
    return best


@dataclasses.dataclass(frozen=True)
class CostParams:
    """Inputs shared by the walk-based cost models.

    N is the spin-orbital count.  Method-specific sizes (M, d, L, Xi_total)
    are optional and validated by the cost function that needs them.  Bit
    widths left as None resolve to the published operating-point defaults
    (aleph-style widths 10, beth = floor(2 log2 lambda)).
    """

    N: int
    lam: float
    eps_pea: float = 0.001
    b_r: int = 7
    aleph: int | None = None
    aleph1: int | None = None
    aleph2: int | None = None
    beth: int | None = None
    M: int | None = None
    d: int | None = None
    L: int | None = None
    Xi_total: int | None = None
    Xi_max: int | None = None
    eta: int | None = None

    def __post_init__(self):
        if self.N < 2 or self.N % 2:
            raise ValueError("N must be an even spin-orbital count >= 2")
        if not (math.isfinite(self.lam) and math.isfinite(self.eps_pea)):
            raise ValueError("lambda and eps_pea must be finite")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.eps_pea <= 0:
            raise ValueError("eps_pea must be positive")


@dataclasses.dataclass(frozen=True)
class CostReport:
    """Resource estimate for one method at one operating point.

    breakdown splits toffoli_per_step into prepare / select / reflection /
    qrom / rotations buckets that sum exactly to the per-step count.
    extras carries method-specific scalars (e.g. sampler counts).
    """

    method: str
    toffoli_per_step: int | float
    iterations: int | float
    logical_qubits: int
    k_choices: dict = dataclasses.field(default_factory=dict)
    breakdown: dict = dataclasses.field(default_factory=dict)
    inputs: dict = dataclasses.field(default_factory=dict)
    extras: dict = dataclasses.field(default_factory=dict)

    @property
    def toffoli_total(self) -> int | float:
        return self.toffoli_per_step * self.iterations

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "toffoli_total": self.toffoli_total,
            "toffoli_per_step": self.toffoli_per_step,
            "iterations": self.iterations,
            "logical_qubits": self.logical_qubits,
            "k_choices": dict(self.k_choices),
            "breakdown": dict(self.breakdown),
            "inputs": dict(self.inputs),
            "extras": dict(self.extras),
        }


def _resolve_k(overrides: dict, role: str, domain: int, term):
    """Honor an explicit k for this role, otherwise scan.

    An override of None forces the scan even when the method installs its
    own default for the role.
    """
    k = overrides.get(role)
    if k is not None:
        k = int(k)
        if k < 1 or k & (k - 1):
            raise ValueError(f"k override for {role} must be a power of two")
        return k, term(k)
    return minimize_over_k(domain, term)


def cost_thc(params: CostParams, k_overrides: dict | None = None) -> CostReport:
    """Walk cost for the tensor-hypercontraction encoding.

    Needs N, lam, M.  aleph defaults to 10 keep-probability bits and beth to
    floor(2 log2 lambda) rotation bits, the published operating points.
    """
    if params.M is None:
        raise ValueError("cost_thc needs M")
    overrides = dict(k_overrides or {})
    N, M, b_r = params.N, int(params.M), params.b_r
    aleph = 10 if params.aleph is None else params.aleph
    beth = _default_beth(params.lam) if params.beth is None else params.beth

    n_M = ceil_log2(M + 1)
    d = N // 2 + M * (M + 1) // 2
    m = 2 * n_M + 2 + aleph

    k_s1, t_s1 = _resolve_k(overrides, "prepare_output", d, lambda k: qrom_cost(d, m, k))
    k_s2, t_s2 = _resolve_k(overrides, "prepare_erase", d, lambda k: qrom_erase_cost(d, k))
    k_r1, t_r1 = _resolve_k(
        overrides, "rotation_output", M,
        lambda k: ceil_div(M, k) + ceil_div(N, 2 * k) + k,
    )
    k_r2, t_r2 = _resolve_k(
        overrides, "rotation_erase", M, lambda k: ceil_div(M, k) + k
    )

    prepare = 30 * n_M + 4 * b_r - 16 + 2 * n_M * n_M + 3 * aleph
    select = 2 * M - 11 * N // 2
    rotations = 4 * N * beth + t_r1 + t_r2
    qrom = t_s1 + t_s2
    per_step = prepare + select + rotations + qrom

    I = iterations(params.lam, params.eps_pea)
    qubits = (
        2 * ceil_log2(I + 1)
        + N
        + 2 * n_M
        + beth
        + ceil_log2(d)
        + aleph
        + 5
        + max(
            m * k_s1 + ceil_log2(ceil_div(d, k_s1)),
            m + beth * N // 2 + beth - 2,
        )
    )
    return CostReport(
        method="thc",
        toffoli_per_step=per_step,
        iterations=I,
        logical_qubits=qubits,
        k_choices={
            "prepare_output": k_s1,
            "prepare_erase": k_s2,
            "rotation_output": k_r1,
            "rotation_erase": k_r2,
        },
        breakdown={
            "prepare": prepare,
            "select": select,
            "reflection": 0,
            "qrom": qrom,
            "rotations": rotations,
        },
        inputs={
            "N": N, "lambda": params.lam, "eps_pea": params.eps_pea,
            "M": M, "d": d, "aleph": aleph, "beth": beth, "b_r": b_r,
        },
    )


def cost_sparse(params: CostParams, k_overrides: dict | None = None) -> CostReport:
    """Walk cost for the sparse encoding.

    Needs N, lam, d (the state-preparation item count).  The output-QROM
    batching k1 defaults to 32, the ancilla-balanced choice behind the
    published logical-qubit counts; pass k_overrides={"k1": None} to let the
    scan minimize the per-step Toffoli count instead.  k2 is always scanned.
    """
    if params.d is None:
        raise ValueError("cost_sparse needs d")
    overrides = {"k1": 32}
    overrides.update(k_overrides or {})
    N, d, b_r = params.N, int(params.d), params.b_r
    aleph = 10 if params.aleph is None else params.aleph
    eta = two_adic_valuation(d) if params.eta is None else params.eta

    n_N = ceil_log2(N // 2)
    m = aleph + 8 * n_N + 4

    k1, t1 = _resolve_k(overrides, "k1", d, lambda k: qrom_cost(d, m, k))
    k2, t2 = _resolve_k(overrides, "k2", d, lambda k: qrom_erase_cost(d, k))

    prepare = 8 * n_N + 2 * aleph + 7 * ceil_log2(d) - 6 * eta + 4 * b_r - 19
    select = 4 * N
    qrom = t1 + t2
    per_step = prepare + select + qrom

    I = iterations(params.lam, params.eps_pea)
    qubits = (
        2 * ceil_log2(I + 1)
        + N
        + ceil_log2(d)
        + b_r
        + aleph
        + m * k1
        + ceil_log2(ceil_div(d, k1))
        + 1
    )
    return CostReport(
        method="sparse",
        toffoli_per_step=per_step,
        iterations=I,
        logical_qubits=qubits,
        k_choices={"k1": k1, "k2": k2},
        breakdown={
            "prepare": prepare,
            "select": select,
            "reflection": 0,
            "qrom": qrom,
            "rotations": 0,
        },
        inputs={
            "N": N, "lambda": params.lam, "eps_pea": params.eps_pea,
            "d": d, "aleph": aleph, "b_r": b_r, "eta": eta,
        },
    )


def cost_sf(params: CostParams, k_overrides: dict | None = None) -> CostReport:
    """Walk cost for the single-factorized encoding.

    Needs N, lam, L.  The two coupled two-register lookups (coefficient
    output and erase) are minimized jointly over power-of-two pairs because
    the rank-(L+1) and pair-data dimensions share the same batched scan.
    """
    if params.L is None:
        raise ValueError("cost_sf needs L")
    overrides = dict(k_overrides or {})
    N, L, b_r = params.N, int(params.L), params.b_r
    aleph1 = 10 if params.aleph1 is None else params.aleph1
    aleph2 = 10 if params.aleph2 is None else params.aleph2
    eta = two_adic_valuation(L) if params.eta is None else params.eta

    n_L = ceil_log2(L + 1)
    n_N = ceil_log2(N // 2)
    b_L = n_L + aleph1 + 2
    b_p = 2 * n_N + aleph2 + 2
    theta = ceil_div(N * N + 4 * N, 8)

    k_L, t_L = _resolve_k(
        overrides, "outer_output", L + 1,
        lambda k: ceil_div(L + 1, k) + b_L * (k + 1),
    )
    k_Le, t_Le = _resolve_k(
        overrides, "outer_erase", L + 1, lambda k: ceil_div(L + 1, k) + k
    )

    def inner_term(k1, k2):
        return (
            ceil_div(L + 1, k1) * ceil_div(theta, k2)
            + 2 * b_p * k1 * k2
            + ceil_div(L, k1) * ceil_div(theta, k2)
        )

    def inner_erase_term(k1, k2):
        return (
            ceil_div(L + 1, k1) * ceil_div(theta, k2)
            + 2 * k1 * k2
            + ceil_div(L, k1) * ceil_div(theta, k2)
        )

    if "inner_output" in overrides:
        k_p1, k_p2 = overrides["inner_output"]
        t_p = inner_term(k_p1, k_p2)
    else:
        k_p1, k_p2, t_p = minimize_over_k_pair(L + 1, theta, inner_term)
    if "inner_erase" in overrides:
        k_pe1, k_pe2 = overrides["inner_erase"]
        t_pe = inner_erase_term(k_pe1, k_pe2)
    else:
        k_pe1, k_pe2, t_pe = minimize_over_k_pair(L + 1, theta, inner_erase_term)

    prepare = (
        7 * n_L + 4 * n_N * n_N + 40 * n_N - 6 * eta + 12 * b_r
        + aleph1 + 4 * aleph2 - 56 + t_L + t_Le
    )
    select = 4 * N
    qrom = t_p + t_pe
    per_step = prepare + select + qrom

    I = iterations(params.lam, params.eps_pea)
    qubits = (
        2 * ceil_log2(I)
        + N
        + 2 * n_L
        + 2 * aleph1
        + aleph2
        + b_r
        + 2 * n_N
        + 6
        + ceil_log2(ceil_div(N * N + 2 * N, 8))
        + b_p * k_p1 * k_p2
        + ceil_log2(ceil_div(L + 1, k_p1))
        + ceil_log2(ceil_div(theta, k_p2))
    )
    return CostReport(
        method="sf",
        toffoli_per_step=per_step,
        iterations=I,
        logical_qubits=qubits,
        k_choices={
            "outer_output": k_L,
            "outer_erase": k_Le,
            "inner_output": (k_p1, k_p2),
            "inner_erase": (k_pe1, k_pe2),
        },
        breakdown={
            "prepare": prepare,
            "select": select,
            "reflection": 0,
            "qrom": qrom,
            "rotations": 0,
        },
        inputs={
            "N": N, "lambda": params.lam, "eps_pea": params.eps_pea,
            "L": L, "aleph1": aleph1, "aleph2": aleph2, "b_r": b_r, "eta": eta,
        },
    )


def cost_df(params: CostParams, k_overrides: dict | None = None) -> CostReport:
    """Walk cost for the double-factorized encoding.

    Needs N, lam, L, Xi_total.  Xi_max defaults to N/2 (it only enters
    through its bit width); beth defaults to floor(2 log2 lambda) rotation
    bits and the aleph widths to 10.
    """
    if params.L is None or params.Xi_total is None:
        raise ValueError("cost_df needs L and Xi_total")
    overrides = dict(k_overrides or {})
    N, L, X, b_r = params.N, int(params.L), int(params.Xi_total), params.b_r
    aleph1 = 10 if params.aleph1 is None else params.aleph1
    aleph2 = 10 if params.aleph2 is None else params.aleph2
    beth = _default_beth(params.lam) if params.beth is None else params.beth
    Xi_max = N // 2 if params.Xi_max is None else int(params.Xi_max)
    eta = two_adic_valuation(L) if params.eta is None else params.eta

    n_L = ceil_log2(L + 1)
    n_Xi = ceil_log2(Xi_max)
    D = X + N // 2
    n_LXi = ceil_log2(D)
    b_p1 = n_L + aleph1
    b_o = n_Xi + n_LXi + b_r + 1
    b_p2 = n_Xi + aleph2 + 2

    k_p1, t_p1 = _resolve_k(
        overrides, "outer_coeff", L + 1, lambda k: qrom_cost(L + 1, b_p1, k)
    )
    k_o, t_o = _resolve_k(
        overrides, "outer_offset", L + 1, lambda k: qrom_cost(L + 1, b_o, k)
    )
    k_p1e, t_p1e = _resolve_k(
        overrides, "outer_coeff_erase", L + 1, lambda k: qrom_erase_cost(L + 1, k)
    )
    k_oe, t_oe = _resolve_k(
        overrides, "outer_offset_erase", L + 1, lambda k: qrom_erase_cost(L + 1, k)
    )
    k_r, t_r = _resolve_k(
        overrides, "rotation_output", D,
        lambda k: ceil_div(D, k) + ceil_div(X, k) + N * beth * k,
    )
    k_re, t_re = _resolve_k(
        overrides, "rotation_erase", D,
        lambda k: ceil_div(D, k) + ceil_div(X, k) + 2 * k,
    )
    k_p2, t_p2 = _resolve_k(
        overrides, "inner_coeff", D,
        lambda k: ceil_div(D, k) + ceil_div(X, k) + 2 * b_p2 * (k - 1),
    )
    k_p2e, t_p2e = _resolve_k(
        overrides, "inner_coeff_erase", D,
        lambda k: ceil_div(D, k) + ceil_div(X, k) + 2 * k,
    )

    prepare = (
        9 * n_L - 6 * eta + 12 * b_r + 34 * n_Xi + 8 * n_LXi
        + 3 * aleph1 + 6 * aleph2 - 43
        + t_p1 + t_o + t_p1e + t_oe + t_p2 + t_p2e
    )
    rotations = 3 * N * beth - 6 * N
    qrom = t_r + t_re
    per_step = prepare + rotations + qrom

    I = iterations(params.lam, params.eps_pea)
    qubits = (
        N
        + 2 * n_L
        + n_Xi
        + 2 * aleph1
        + aleph2
        + beth
        + b_o
        + b_p2
        + k_r * N * beth // 2
        + 2 * ceil_log2(I + 1)
        + 7
    )
    return CostReport(
        method="df",
        toffoli_per_step=per_step,
        iterations=I,
        logical_qubits=qubits,
        k_choices={
            "outer_coeff": k_p1,
            "outer_offset": k_o,
            "outer_coeff_erase": k_p1e,
            "outer_offset_erase": k_oe,
            "rotation_output": k_r,
            "rotation_erase": k_re,
            "inner_coeff": k_p2,
            "inner_coeff_erase": k_p2e,
        },
        breakdown={
            "prepare": prepare,
            "select": 0,
            "reflection": 0,
            "qrom": qrom,
            "rotations": rotations,
        },
        inputs={
            "N": N, "lambda": params.lam, "eps_pea": params.eps_pea,
            "L": L, "Xi_total": X, "Xi_max": Xi_max,
            "aleph1": aleph1, "aleph2": aleph2, "beth": beth,
            "b_r": b_r, "eta": eta,
        },
    )
