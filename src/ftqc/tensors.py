"""Electronic-structure integral containers and sparse-entry counting.

Two-body integrals are stored in chemist ordering, V[p, q, r, s] = (pq|rs),
over spatial orbitals, with the full 8-fold permutational symmetry

    pqrs = qprs = pqsr = qpsr = rspq = srpq = rsqp = srqp.

The 8-fold orbits are enumerated here only: ``EIGHTFOLD_PERMUTATIONS``,
:func:`unique_orbits` (canonical rows, the FCIDUMP record order),
:func:`orbit_keys` and :func:`scatter_eightfold` serve FCIDUMP input and
output, :func:`count_unique_above` and ``SparseRep.indices``/``values``.

The one-body matrix stored in :class:`IntegralData` is the bare h_pq.  The
kinetic-style corrections used by the qubitized walk operators are derived
quantities, see :func:`compute_T`.
"""

from __future__ import annotations

import dataclasses
import warnings
from operator import methodcaller

import numpy as np

SYMMETRY_ATOL = 1e-12
DUPLICATE_ATOL = 1e-10


# The 8-fold group as axis orders: row[perm] are the images of an index row
# and V.transpose(perm) the symmetric copies of V.  The identity comes first.
EIGHTFOLD_PERMUTATIONS = (
    (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
    (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
)


def _eightfold_mean(V: np.ndarray, p) -> np.ndarray:
    """Slab [p] of :func:`symmetrize_eightfold` (p = ... for all), in one buffer."""
    out = V[p].copy()
    for perm in EIGHTFOLD_PERMUTATIONS[1:]:
        np.add(out, V.transpose(perm)[p], out=out)
    out /= 8.0
    return out


def symmetrize_eightfold(V: np.ndarray) -> np.ndarray:
    """Average a 4-index tensor over the 8-fold permutation group.

    Idempotent: applying it to an already symmetric tensor is the identity.
    """
    return _eightfold_mean(np.asarray(V, dtype=float), ...)


def unique_orbits(n: int) -> np.ndarray:
    """The int (K, 4) canonical rows p <= q, r <= s, (p, q) <= (r, s), one per
    orbit, K = n(n+1)(n^2+n+2)/8: the upper triangle of the pair-index
    matrix over the pairs p <= q, both in row-major order."""
    rows, cols = np.triu_indices(n)
    a, b = np.triu_indices(rows.size)
    return np.stack([rows[a], cols[a], rows[b], cols[b]], axis=1)


def orbit_keys(indices: np.ndarray, size: int) -> np.ndarray:
    """Flat index in a (size,)*4 array of each row's smallest image: equal
    for rows of one orbit, and a canonical row's own flat index."""
    # int32 rows (as the FCIDUMP parsers give) times int64 strides make the
    # integer matmul cast element by element, about twice as slow
    indices = np.asarray(indices, dtype=np.int64)
    strides = size ** np.arange(3, -1, -1)
    keys = indices @ strides
    for perm in EIGHTFOLD_PERMUTATIONS[1:]:
        np.minimum(keys, indices[:, perm] @ strides, out=keys)
    return keys


def scatter_eightfold(n: int, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The (n, n, n, n) tensor holding each value on all eight images of its
    row (any image of an orbit, each orbit at most once), zero elsewhere."""
    V = np.zeros((n, n, n, n))
    for perm in EIGHTFOLD_PERMUTATIONS:
        V[tuple(indices[:, perm].T)] = values
    return V


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
        # max |V - symmetrize_eightfold(V)|, a slab at a time
        dev = float(max(np.abs(V[p] - _eightfold_mean(V, p)).max() for p in range(n)))
        if dev > SYMMETRY_ATOL:
            raise ValueError(
                f"V violates 8-fold permutational symmetry (max deviation {dev:.3e})"
            )

    @property
    def n_spatial(self) -> int:
        return self.h.shape[0]


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
    """
    V = np.asarray(V, dtype=float)
    orbits = unique_orbits(V.shape[0])
    return int(np.count_nonzero(np.abs(V[tuple(orbits.T)]) > threshold))


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


def _read_header(lines) -> tuple[int, int]:
    """NORB and the line count of the namelist header, read from lines."""
    header: list[str] = []
    for line in lines:
        header.append(line.strip())
        if not header[0].upper().startswith("&FCI"):
            raise ValueError("missing &FCI header on line 1")
        if header[-1].upper().endswith(("&END", "/")):
            break
    else:
        raise ValueError("header never terminated with &END or /")
    text = " ".join(header)
    for terminator in ("&END", "&end", "/"):
        text = text.removesuffix(terminator)
    text = text[text.upper().index("&FCI") + 4:]
    meta: dict[str, int] = {}
    for token in text.replace(",", " ").split():
        key, _, value = token.partition("=")
        try:
            meta[key.strip().upper()] = int(value)
        except ValueError:
            continue
    if "NORB" not in meta:
        raise ValueError("header does not define NORB")
    if meta["NORB"] < 1:
        raise ValueError(f"NORB must be positive, got {meta['NORB']}")
    return meta["NORB"], len(header)


def _parse_record(parts: list[str], n: int):
    """The value and 1-based indices [i, j, k, l] of one record."""
    if len(parts) != 5:
        raise ValueError("expected 'value i j k l'")
    value = float(parts[0].replace("D", "e").replace("d", "e"))
    idx = [int(tok) for tok in parts[1:]]
    for i in idx:
        if i < 0 or i > n:
            raise ValueError(f"orbital index {i} outside 1..{n}")
    i, j, k, l = idx
    if k == 0 and l == 0:
        if (i == 0) != (j == 0):
            raise ValueError("malformed one-body record")
    elif 0 in idx:
        raise ValueError("mixed zero and nonzero indices")
    return value, idx


def _parse_fcidump(path):
    """NORB and the records of an FCIDUMP file up to its first malformed line,
    line by line: (n, values, indices, line numbers, the fault or None)."""
    with open(path) as fh:
        n, body_start = _read_header(fh)
        body = fh.readlines()
    values = np.empty(len(body))
    idx = np.empty((len(body), 4), dtype=np.int32)
    linenos = np.empty(len(body), dtype=np.intp)
    count, fault = 0, None
    for lineno, raw in enumerate(body, start=body_start + 1):
        parts = raw.split()
        if not parts:
            continue
        try:
            values[count], idx[count] = _parse_record(parts, n)
        except ValueError as exc:
            fault = f"line {lineno}: {exc}"
            break
        linenos[count] = lineno
        count += 1
    return n, values[:count], idx[:count], linenos[:count], fault


def _load_records(path):
    """:func:`_parse_fcidump`'s result for a well-formed file, without line
    numbers, by one streamed loadtxt (a retry maps Fortran exponents, which
    costs a third of a parse); None for a fault or a spelling only float() reads."""
    for fortran in (False, True):
        try:
            with open(path) as fh, warnings.catch_warnings():
                n, _ = _read_header(fh)
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # 1.5D-1 -> 1.5e-1 on the retry; an index 1D0 -> 1e0 stays invalid
                for d in "Dd" if fortran else "":
                    fh = map(methodcaller("replace", d, "e"), fh)
                records = np.loadtxt(fh, dtype=[("value", "f8"), ("idx", "i4", (4,))],
                                     comments=None, ndmin=1)
            break
        except ValueError:
            pass
    else:
        return None
    idx = records["idx"]
    # zero slots as bits i j k l = 8 4 2 1: none, k l (one-body) or all (core)
    zeros = (idx == 0) @ np.array([8, 4, 2, 1])
    ok = ((idx >= 0) & (idx <= n)).all() and np.isin(zeros, (0, 3, 15)).all()
    return (n, records["value"], idx, None, None) if ok else None


def load_fcidump(path) -> IntegralData:
    """Read integrals from an FCIDUMP-format text file.

    Records are ``value i j k l`` with 1-based indices in chemist ordering.
    Two-body records (all four indices nonzero) populate all 8 permutation
    images; ``k = l = 0`` records set h; the all-zero-index record sets the
    core energy.  A record repeating an orbit (as any of its images) must
    agree with the orbit's previous record within 1e-10, and the last one
    wins.  The earliest malformed, out-of-range or conflicting line is
    reported by number.
    """
    n, values, idx, linenos, fault = _load_records(path) or _parse_fcidump(path)
    # With 0 in the unused slots, one-body pairs and the core record are
    # orbits too, so one key covers all three record kinds; the stable sort
    # keeps each orbit's records in line order.
    keys = orbit_keys(idx, n + 1)
    order = np.argsort(keys, kind="stable")
    repeat = np.diff(keys[order]) == 0
    bad = order[1:][repeat & (np.abs(np.diff(values[order])) > DUPLICATE_ATOL)]
    if bad.size:
        first = bad.min()
        i, _, k, _ = idx[first]
        kind = "core-energy" if i == 0 else "one-body" if k == 0 else "two-body"
        if linenos is None:  # the per-line parse gives the same records
            linenos = _parse_fcidump(path)[3]
        raise ValueError(f"line {linenos[first]}: conflicting {kind} records")
    if fault is not None:
        raise ValueError(fault)

    last = order[np.diff(keys[order], append=-1) != 0]
    values, idx = values[last], idx[last]
    two_body = idx[:, 2] != 0
    V = scatter_eightfold(n, idx[two_body] - 1, values[two_body])
    one_body = (idx[:, 2] == 0) & (idx[:, 0] != 0)
    p, q = idx[one_body, :2].T - 1
    h = np.zeros((n, n))
    h[p, q] = h[q, p] = values[one_body]
    core = values[idx[:, 0] == 0]
    return IntegralData(h=h, V=V, e_core=core[0] if core.size else 0.0)


def write_fcidump(data: IntegralData, path, nelec: int = 0, ms2: int = 0) -> None:
    """Write integrals in FCIDUMP format with one record per symmetry orbit.

    Canonical record order: two-body entries in :func:`unique_orbits` order,
    then one-body entries over p <= q, then the core energy.  Zero entries
    are skipped.  Values use repr-faithful formatting so a load round-trips
    bitwise.
    """
    n = data.n_spatial
    orbits = unique_orbits(n)
    # the orbits (0, 0, r, s) come first and run over every pair r <= s
    pairs = orbits[: n * (n + 1) // 2, 2:]
    records = [(data.V[tuple(orbits.T)], orbits + 1),
               (data.h[tuple(pairs.T)], np.hstack([pairs + 1, 0 * pairs])),
               (np.array([data.e_core]), np.zeros((1, 4), dtype=int))]
    with open(path, "w") as fh:
        fh.write(f"&FCI NORB={n},NELEC={int(nelec)},MS2={int(ms2)},\n&END\n")
        for values, indices in records:
            keep = values != 0.0
            fh.writelines(f"{value!r} {i} {j} {k} {l}\n" for value, i, j, k, l
                          in zip(values[keep].tolist(), *indices[keep].T.tolist()))
