"""Electronic-structure integral containers and sparse-entry counting.

Two-body integrals are stored in chemist ordering, V[p, q, r, s] = (pq|rs),
over spatial orbitals, with the full 8-fold permutational symmetry

    pqrs = qprs = pqsr = qpsr = rspq = srpq = rsqp = srqp.

The one-body matrix stored in :class:`IntegralData` is the bare h_pq.  The
kinetic-style corrections used by the qubitized walk operators are derived
quantities, see :func:`compute_T`.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

SYMMETRY_ATOL = 1e-12
DUPLICATE_ATOL = 1e-10


def eightfold_images(p: int, q: int, r: int, s: int):
    """All 8 index images of a chemist-ordered two-body entry."""
    return {
        (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
    }


def symmetrize_eightfold(V: np.ndarray) -> np.ndarray:
    """Average a 4-index tensor over the 8-fold permutation group.

    Idempotent: applying it to an already symmetric tensor is the identity.
    """
    V = np.asarray(V, dtype=float)
    out = (
        V
        + V.transpose(1, 0, 2, 3)
        + V.transpose(0, 1, 3, 2)
        + V.transpose(1, 0, 3, 2)
        + V.transpose(2, 3, 0, 1)
        + V.transpose(3, 2, 0, 1)
        + V.transpose(2, 3, 1, 0)
        + V.transpose(3, 2, 1, 0)
    )
    return out / 8.0


def _max_eightfold_deviation(V: np.ndarray) -> float:
    return float(np.max(np.abs(V - symmetrize_eightfold(V)))) if V.size else 0.0


@dataclasses.dataclass(frozen=True)
class IntegralData:
    """One- and two-electron integrals over n spatial orbitals.

    Attributes:
        h: bare one-body matrix, shape (n, n), symmetric.
        V: two-body tensor in chemist ordering, shape (n, n, n, n), with
            8-fold permutational symmetry.
        e_core: constant energy offset (nuclear repulsion plus frozen core).
    """

    h: np.ndarray
    V: np.ndarray
    e_core: float = 0.0

    def __post_init__(self):
        h = np.ascontiguousarray(np.asarray(self.h, dtype=float))
        V = np.ascontiguousarray(np.asarray(self.V, dtype=float))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "e_core", float(self.e_core))
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"h must be square, got shape {h.shape}")
        n = h.shape[0]
        if n < 1:
            raise ValueError("need at least one orbital")
        if V.shape != (n, n, n, n):
            raise ValueError(f"V must have shape {(n,) * 4}, got {V.shape}")
        for name, value in (("h", h), ("V", V), ("e_core", self.e_core)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        dev = float(np.max(np.abs(h - h.T))) if h.size else 0.0
        if dev > SYMMETRY_ATOL:
            raise ValueError(f"h is not symmetric (max deviation {dev:.3e})")
        dev = _max_eightfold_deviation(V)
        if dev > SYMMETRY_ATOL:
            raise ValueError(
                f"V violates 8-fold permutational symmetry (max deviation {dev:.3e})"
            )

    @property
    def n_spatial(self) -> int:
        return self.h.shape[0]

    def content_hash(self) -> str:
        """SHA-256 over the raw integral payload, for report provenance."""
        digest = hashlib.sha256()
        digest.update(np.int64(self.n_spatial).tobytes())
        digest.update(self.h.tobytes())
        digest.update(self.V.tobytes())
        digest.update(np.float64(self.e_core).tobytes())
        return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class KineticCorrected:
    """One-body matrices after absorbing two-body contractions.

    T subtracts half the exchange-style trace, T_pq = h_pq - (1/2) sum_r
    V_prrq.  Tprime additionally absorbs the diagonal Coulomb contraction
    that the squared-one-body decompositions generate, T'_pq = T_pq +
    sum_r V_pqrr.
    """

    T: np.ndarray
    Tprime: np.ndarray


def compute_T(data: IntegralData) -> KineticCorrected:
    """Derive the corrected one-body matrices from bare integrals."""
    T = data.h - 0.5 * np.einsum("prrq->pq", data.V)
    Tprime = T + np.einsum("pqrr->pq", data.V)
    return KineticCorrected(T=T, Tprime=Tprime)


def count_unique_above(V: np.ndarray, threshold: float) -> int:
    """Count symmetry-unique two-body entries with magnitude above threshold.

    Entries related by the 8-fold permutation group count once.  The
    comparison is strict: entries with |V| exactly equal to the threshold
    are not counted.  For a dense tensor with no zeros and threshold below
    every magnitude the count is the closed form n(n+1)(n^2+n+2)/8.

    The orbit representatives are enumerated as the upper triangle of the
    pair-index matrix: pairs (a, b) with a <= b index one axis, and the
    unordered pair-of-pairs {(a, b), (c, d)} indexes a unique entry.  This
    realizes the four index-redundancy classes (all indices distinct, three
    distinct, two distinct, one distinct) with orbit multiplicities 3, 6,
    4 and 1 per index subset.
    """
    V = np.asarray(V, dtype=float)
    n = V.shape[0]
    rows, cols = np.triu_indices(n)
    pair_vals = V[rows[:, None], cols[:, None], rows[None, :], cols[None, :]]
    iu = np.triu_indices(rows.size)
    return int(np.count_nonzero(np.abs(pair_vals[iu]) > threshold))


def dense_unique_count(n: int) -> int:
    """Closed-form count of symmetry-unique two-body entries, n(n+1)(n^2+n+2)/8."""
    return n * (n + 1) * (n * n + n + 2) // 8


def random_instance(
    n_spatial: int, seed: int, rank: int | None = None
) -> IntegralData:
    """Seeded random integrals whose flattened two-body matrix is PSD.

    V is built as sum_k w_k A_k (x) A_k with w_k > 0 and symmetric A_k, so
    the (n^2, n^2) flattening is positive semidefinite and every low-rank
    decomposition route applies.  Deterministic in (n_spatial, seed, rank).
    """
    rng = np.random.default_rng(seed)
    n = int(n_spatial)
    if rank is None:
        rank = n * (n + 1) // 2
    V = np.zeros((n, n, n, n))
    for _ in range(rank):
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2.0
        w = float(rng.uniform(0.2, 1.0))
        V += w * np.einsum("pq,rs->pqrs", A, A)
    V = symmetrize_eightfold(V)
    h = rng.normal(size=(n, n))
    h = (h + h.T) / 2.0
    return IntegralData(h=h, V=V, e_core=float(rng.normal()))


def _parse_header(lines: list[str]):
    """Parse the namelist header, returning (metadata, first body line index)."""
    header_parts: list[str] = []
    body_start = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if i == 0 and not stripped.upper().startswith("&FCI"):
            raise ValueError("missing &FCI header on line 1")
        header_parts.append(stripped)
        upper = stripped.upper()
        if upper.endswith("&END") or upper.endswith("/"):
            body_start = i + 1
            break
    if body_start is None:
        raise ValueError("header never terminated with &END or /")
    text = " ".join(header_parts)
    for terminator in ("&END", "&end", "/"):
        if text.endswith(terminator):
            text = text[: -len(terminator)]
    text = text[text.upper().index("&FCI") + 4:]
    meta: dict[str, int] = {}
    for token in text.replace(",", " ").split():
        if "=" not in token:
            continue
        key, _, value = token.partition("=")
        try:
            meta[key.strip().upper()] = int(value)
        except ValueError:
            continue
    if "NORB" not in meta:
        raise ValueError("header does not define NORB")
    return meta, body_start


def load_fcidump(path) -> IntegralData:
    """Read integrals from an FCIDUMP-format text file.

    Records are ``value i j k l`` with 1-based indices in chemist ordering.
    Two-body records (all four indices nonzero) populate all 8 permutation
    images; ``k = l = 0`` records set h; the all-zero-index record sets the
    core energy.  Duplicate records that disagree by more than 1e-10 are
    rejected with the offending line number, as are out-of-range indices.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta, body_start = _parse_header(lines)
    n = meta["NORB"]
    if n < 1:
        raise ValueError(f"NORB must be positive, got {n}")
    h = np.zeros((n, n))
    V = np.zeros((n, n, n, n))
    h_seen = np.zeros((n, n), dtype=bool)
    V_seen = np.zeros((n, n, n, n), dtype=bool)
    e_core = 0.0
    core_seen = False

    for lineno, raw in enumerate(lines[body_start:], start=body_start + 1):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 'value i j k l'")
        try:
            value = float(parts[0].replace("D", "e").replace("d", "e"))
            i, j, k, l = (int(tok) for tok in parts[1:])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        for idx in (i, j, k, l):
            if idx < 0 or idx > n:
                raise ValueError(f"line {lineno}: orbital index {idx} outside 1..{n}")
        if i == 0 and j == 0 and k == 0 and l == 0:
            if core_seen and abs(e_core - value) > DUPLICATE_ATOL:
                raise ValueError(f"line {lineno}: conflicting core-energy records")
            e_core = value
            core_seen = True
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ValueError(f"line {lineno}: malformed one-body record")
            p, q = i - 1, j - 1
            if h_seen[p, q] and abs(h[p, q] - value) > DUPLICATE_ATOL:
                raise ValueError(f"line {lineno}: conflicting one-body records")
            h[p, q] = h[q, p] = value
            h_seen[p, q] = h_seen[q, p] = True
        elif 0 in (i, j, k, l):
            raise ValueError(f"line {lineno}: mixed zero and nonzero indices")
        else:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for img in eightfold_images(p, q, r, s):
                if V_seen[img] and abs(V[img] - value) > DUPLICATE_ATOL:
                    raise ValueError(f"line {lineno}: conflicting two-body records")
            for img in eightfold_images(p, q, r, s):
                V[img] = value
                V_seen[img] = True
    return IntegralData(h=h, V=V, e_core=e_core)


def write_fcidump(data: IntegralData, path, nelec: int = 0, ms2: int = 0) -> None:
    """Write integrals in FCIDUMP format with one record per symmetry orbit.

    Canonical record order: two-body entries over the upper pair-index
    triangle, then one-body entries, then the core energy.  Zero entries are
    skipped.  Values use repr-faithful formatting so a load round-trips
    bitwise.
    """
    n = data.n_spatial
    lines = [f"&FCI NORB={n},NELEC={int(nelec)},MS2={int(ms2)},", "&END"]
    rows, cols = np.triu_indices(n)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    for a in range(len(pairs)):
        for b in range(a, len(pairs)):
            p, q = pairs[a]
            r, s = pairs[b]
            value = float(data.V[p, q, r, s])
            if value != 0.0:
                lines.append(f"{value!r} {p + 1} {q + 1} {r + 1} {s + 1}")
    for p in range(n):
        for q in range(p, n):
            value = float(data.h[p, q])
            if value != 0.0:
                lines.append(f"{value!r} {p + 1} {q + 1} 0 0")
    if data.e_core != 0.0:
        lines.append(f"{float(data.e_core)!r} 0 0 0 0")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
