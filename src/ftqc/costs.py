"""Toffoli and logical-qubit cost models for the qubitized walk methods.

Everything here is exact integer arithmetic once the inputs (lambda, ranks,
bit widths) are fixed.  Each model names its QROM lookups in one table of
(role, domain, term); :func:`minimize_over_k` is the only batching scan.
It tries every power of two up to each register's domain (pairs for a
two-register lookup, first register outermost) and keeps the earliest
strict minimum, so ties go to the smaller k and the smaller ancilla
footprint.  An explicit override per role must be a power of two.  Every
report, the qDRIFT ones included, comes from :func:`build_report`, which
fills the five Toffoli buckets and sets toffoli_per_step to their sum, so
the breakdown sums to the per-step count and toffoli_total is iterations *
toffoli_per_step by construction.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers


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


def minimize_over_k(domain, term):
    """Best power-of-two batching for a lookup cost term, as (k, value).

    domain is one register size, or a tuple of sizes for a lookup over
    several index registers; term then takes one k per register and k is
    returned as a tuple.  Candidates run with the first register outermost,
    and strict improvement keeps the earliest, so ties keep the smaller k,
    which also has the smaller ancilla footprint.
    """
    sizes = domain if isinstance(domain, tuple) else (domain,)
    grids = [[1 << e for e in range(ceil_log2(max(1, n)) + 1)] for n in sizes]
    best = None
    for k in itertools.product(*grids):
        value = term(*k)
        if best is None or value < best[1]:
            best = (k, value)
    k, value = best
    return (k if isinstance(domain, tuple) else k[0]), value


class FieldError(ValueError):
    """A CostParams size or bit width that is not a positive integer, or a
    defaulted beth that does not come to one."""

    def __init__(self, field: str, value, problem: str | None = None):
        self.field, self.value = field, value
        self.problem = problem or f"must be a positive integer, got {value!r}"
        super().__init__(f"{field} {self.problem}")


# The sizes and bit widths of CostParams: each is None or a positive integer.
POSITIVE_FIELDS = ("M", "d", "L", "Xi_total", "Xi_max",
                   "aleph", "aleph1", "aleph2", "beth", "b_r")


@dataclasses.dataclass(frozen=True)
class CostParams:
    """Inputs shared by the walk-based cost models.

    N is the spin-orbital count.  Method-specific sizes (M, d, L, Xi_total)
    are optional; the cost function that needs one checks that it is set.
    Bit widths left as None resolve to the published operating-point
    defaults (aleph-style widths 10, beth = floor(2 log2 lambda)).  Each
    field in POSITIVE_FIELDS that is given must be a positive integer.
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

    def __post_init__(self):
        if self.N < 2 or self.N % 2:
            raise ValueError("N must be an even spin-orbital count >= 2")
        if not (math.isfinite(self.lam) and math.isfinite(self.eps_pea)):
            raise ValueError("lambda and eps_pea must be finite")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.eps_pea <= 0:
            raise ValueError("eps_pea must be positive")
        for name in POSITIVE_FIELDS:
            value = getattr(self, name)
            if value is not None and not (
                    isinstance(value, numbers.Integral) and value >= 1):
                raise FieldError(name, value)


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


BUCKETS = ("prepare", "select", "reflection", "qrom", "rotations")


def build_report(method: str, iterations, logical_qubits: int, *, inputs: dict,
                 k_choices: dict | None = None, extras: dict | None = None,
                 **buckets) -> CostReport:
    """A CostReport whose toffoli_per_step is the sum of its named buckets.

    Each bucket in BUCKETS that is not given counts 0; any other name is an
    error.
    """
    unknown = set(buckets) - set(BUCKETS)
    if unknown:
        raise TypeError(f"unknown cost buckets {sorted(unknown)}")
    breakdown = {name: buckets.get(name, 0) for name in BUCKETS}
    return CostReport(method=method, toffoli_per_step=sum(breakdown.values()),
                      iterations=iterations, logical_qubits=logical_qubits,
                      k_choices=k_choices or {}, breakdown=breakdown,
                      inputs=inputs, extras=extras or {})


def _resolve_k(overrides: dict, roles: dict) -> tuple[dict, dict]:
    """Batching k and term value for each role of a {role: (domain, term)} table.

    An explicit k (one power of two per register) is honored, otherwise the
    role is scanned.  An override of None forces the scan even when the
    method installs its own default for the role.
    """
    ks, values = {}, {}
    for role, (domain, term) in roles.items():
        k = overrides.get(role)
        if k is None:
            ks[role], values[role] = minimize_over_k(domain, term)
            continue
        pair = isinstance(domain, tuple)
        parts = tuple(map(int, k)) if pair else (int(k),)
        if any(x < 1 or x & (x - 1) for x in parts):
            raise ValueError(f"k override for {role} must be a power of two")
        ks[role], values[role] = (parts if pair else parts[0]), term(*parts)
    return ks, values


def _beth(params: CostParams) -> int:
    """Rotation bits: beth as given, else floor(2 log2 lambda) as at the
    published operating points, which must come to at least 1."""
    if params.beth is not None:
        return params.beth
    beth = int(math.floor(2.0 * math.log2(params.lam)))
    if beth < 1:
        raise FieldError("beth", beth, f"defaults to floor(2 log2 lambda) = {beth} "
                         f"at lambda = {params.lam!r}; set a positive integer")
    return beth


def _walk_inputs(params: CostParams, **sizes) -> dict:
    return {"N": params.N, "lambda": params.lam, "eps_pea": params.eps_pea, **sizes}


def cost_thc(params: CostParams, k_overrides: dict | None = None) -> CostReport:
    """Walk cost for the tensor-hypercontraction encoding.

    Needs N, lam, M.  aleph defaults to 10 keep-probability bits and beth to
    floor(2 log2 lambda) rotation bits, the published operating points.
    """
    if params.M is None:
        raise ValueError("cost_thc needs M")
    N, M, b_r = params.N, int(params.M), params.b_r
    aleph = 10 if params.aleph is None else params.aleph
    beth = _beth(params)

    n_M = ceil_log2(M + 1)
    d = N // 2 + M * (M + 1) // 2
    m = 2 * n_M + 2 + aleph

    k, t = _resolve_k(k_overrides or {}, {
        "prepare_output": (d, lambda k: qrom_cost(d, m, k)),
        "prepare_erase": (d, lambda k: qrom_erase_cost(d, k)),
        "rotation_output": (M, lambda k: ceil_div(M, k) + ceil_div(N, 2 * k) + k),
        "rotation_erase": (M, lambda k: ceil_div(M, k) + k),
    })

    I = iterations(params.lam, params.eps_pea)
    k_s1 = k["prepare_output"]
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
    return build_report(
        "thc", I, qubits, k_choices=k,
        inputs=_walk_inputs(params, M=M, d=d, aleph=aleph, beth=beth, b_r=b_r),
        prepare=30 * n_M + 4 * b_r - 16 + 2 * n_M * n_M + 3 * aleph,
        select=2 * M - 11 * N // 2,
        qrom=t["prepare_output"] + t["prepare_erase"],
        rotations=4 * N * beth + t["rotation_output"] + t["rotation_erase"],
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
    N, d, b_r = params.N, int(params.d), params.b_r
    aleph = 10 if params.aleph is None else params.aleph
    eta = two_adic_valuation(d)

    n_N = ceil_log2(N // 2)
    m = aleph + 8 * n_N + 4

    k, t = _resolve_k({"k1": 32, **(k_overrides or {})}, {
        "k1": (d, lambda k: qrom_cost(d, m, k)),
        "k2": (d, lambda k: qrom_erase_cost(d, k)),
    })

    I = iterations(params.lam, params.eps_pea)
    qubits = (
        2 * ceil_log2(I + 1)
        + N
        + ceil_log2(d)
        + b_r
        + aleph
        + m * k["k1"]
        + ceil_log2(ceil_div(d, k["k1"]))
        + 1
    )
    return build_report(
        "sparse", I, qubits, k_choices=k,
        inputs=_walk_inputs(params, d=d, aleph=aleph, b_r=b_r, eta=eta),
        prepare=8 * n_N + 2 * aleph + 7 * ceil_log2(d) - 6 * eta + 4 * b_r - 19,
        select=4 * N,
        qrom=t["k1"] + t["k2"],
    )


def cost_sf(params: CostParams, k_overrides: dict | None = None) -> CostReport:
    """Walk cost for the single-factorized encoding.

    Needs N, lam, L.  The two coupled two-register lookups (coefficient
    output and erase) are minimized jointly over power-of-two pairs because
    the rank-(L+1) and pair-data dimensions share the same batched scan.
    """
    if params.L is None:
        raise ValueError("cost_sf needs L")
    N, L, b_r = params.N, int(params.L), params.b_r
    aleph1 = 10 if params.aleph1 is None else params.aleph1
    aleph2 = 10 if params.aleph2 is None else params.aleph2
    eta = two_adic_valuation(L)

    n_L = ceil_log2(L + 1)
    n_N = ceil_log2(N // 2)
    b_L = n_L + aleph1 + 2
    b_p = 2 * n_N + aleph2 + 2
    theta = ceil_div(N * N + 4 * N, 8)

    def inner(bits):
        """Two-register lookup of `bits`-bit words (1 for the erase)."""
        return lambda k1, k2: (
            ceil_div(L + 1, k1) * ceil_div(theta, k2)
            + 2 * bits * k1 * k2
            + ceil_div(L, k1) * ceil_div(theta, k2)
        )

    k, t = _resolve_k(k_overrides or {}, {
        "outer_output": (L + 1, lambda k: ceil_div(L + 1, k) + b_L * (k + 1)),
        "outer_erase": (L + 1, lambda k: ceil_div(L + 1, k) + k),
        "inner_output": ((L + 1, theta), inner(b_p)),
        "inner_erase": ((L + 1, theta), inner(1)),
    })

    I = iterations(params.lam, params.eps_pea)
    k_p1, k_p2 = k["inner_output"]
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
    return build_report(
        "sf", I, qubits, k_choices=k,
        inputs=_walk_inputs(params, L=L, aleph1=aleph1, aleph2=aleph2, b_r=b_r,
                            eta=eta),
        prepare=(
            7 * n_L + 4 * n_N * n_N + 40 * n_N - 6 * eta + 12 * b_r
            + aleph1 + 4 * aleph2 - 56 + t["outer_output"] + t["outer_erase"]
        ),
        select=4 * N,
        qrom=t["inner_output"] + t["inner_erase"],
    )


def cost_df(params: CostParams, k_overrides: dict | None = None) -> CostReport:
    """Walk cost for the double-factorized encoding.

    Needs N, lam, L, Xi_total.  Xi_max defaults to N/2 (it only enters
    through its bit width); beth defaults to floor(2 log2 lambda) rotation
    bits and the aleph widths to 10.
    """
    if params.L is None or params.Xi_total is None:
        raise ValueError("cost_df needs L and Xi_total")
    N, L, X, b_r = params.N, int(params.L), int(params.Xi_total), params.b_r
    aleph1 = 10 if params.aleph1 is None else params.aleph1
    aleph2 = 10 if params.aleph2 is None else params.aleph2
    beth = _beth(params)
    Xi_max = N // 2 if params.Xi_max is None else int(params.Xi_max)
    eta = two_adic_valuation(L)

    n_L = ceil_log2(L + 1)
    n_Xi = ceil_log2(Xi_max)
    D = X + N // 2
    n_LXi = ceil_log2(D)
    b_p1 = n_L + aleph1
    b_o = n_Xi + n_LXi + b_r + 1
    b_p2 = n_Xi + aleph2 + 2

    def outer_erase(k):
        return qrom_erase_cost(L + 1, k)

    def inner_erase(k):
        return ceil_div(D, k) + ceil_div(X, k) + 2 * k

    k, t = _resolve_k(k_overrides or {}, {
        "outer_coeff": (L + 1, lambda k: qrom_cost(L + 1, b_p1, k)),
        "outer_offset": (L + 1, lambda k: qrom_cost(L + 1, b_o, k)),
        "outer_coeff_erase": (L + 1, outer_erase),
        "outer_offset_erase": (L + 1, outer_erase),
        "rotation_output": (D, lambda k: ceil_div(D, k) + ceil_div(X, k) + N * beth * k),
        "rotation_erase": (D, inner_erase),
        "inner_coeff": (D, lambda k: ceil_div(D, k) + ceil_div(X, k) + 2 * b_p2 * (k - 1)),
        "inner_coeff_erase": (D, inner_erase),
    })
    qrom = t["rotation_output"] + t["rotation_erase"]

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
        + k["rotation_output"] * N * beth // 2
        + 2 * ceil_log2(I + 1)
        + 7
    )
    return build_report(
        "df", I, qubits, k_choices=k,
        inputs=_walk_inputs(params, L=L, Xi_total=X, Xi_max=Xi_max, aleph1=aleph1,
                            aleph2=aleph2, beth=beth, b_r=b_r, eta=eta),
        # every lookup but the rotation pair belongs to state preparation
        prepare=(
            9 * n_L - 6 * eta + 12 * b_r + 34 * n_Xi + 8 * n_LXi
            + 3 * aleph1 + 6 * aleph2 - 43 + sum(t.values()) - qrom
        ),
        qrom=qrom,
        rotations=3 * N * beth - 6 * N,
    )
