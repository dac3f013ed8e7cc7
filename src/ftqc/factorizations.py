"""Truncated and factorized representations of the two-body interaction.

Four interchangeable representations feed the qubitized-walk cost models:

* sparse: keep symmetry-unique entries above a magnitude threshold, stored
  as ``SparseRep.indices`` (canonical orbit rows, int (k, 4)) and
  ``SparseRep.values`` (float (k,));
* single factorization: V = sum_l W_l (x) W_l from the PSD flattening;
* double factorization: each W_l eigendecomposed and truncated;
* tensor hypercontraction: V ~ G with G_pqrs = sum_{mu,nu}
  chi_p^mu chi_q^mu zeta_{mu,nu} chi_r^nu chi_s^nu.

Each representation carries an induced 1-norm (lambda) that sets the walk
step count, split into one-body and two-body parts, plus the identity shift
its block encoding discards.  The shift formulas here are the single source
of truth for the spectrum checks in :mod:`ftqc.verify`.

Every representation class shares one protocol, written once in ``_Rep``.
A kind supplies only its data: a ``kind`` name, the cost-model sizes it
declares in ``size_fields``, its factorize ``options`` (name ->
:class:`Option`), the ``factorize(data, Tprime, **options)`` classmethod,
``dense()`` (the tensor V^ its block encoding realizes), ``_lambda_two()``,
``_summary()`` (its truncation record, by default ``sizes()``), its arrays
in ``to_dict``, ``from_dict``, and two flags: ``rotates_one_body`` (DF, THC:
lambda_1 is the Schatten norm of T', else the entrywise one) and ``centred``
(SF, DF: lambda_2 joins the shift).  From these ``_Rep`` computes
``lambda_report(Tprime)``, ``encoded_terms(Tprime)`` (one-body correction
sum_r V^_pqrr, shift tr T' - (1/2) sum V^_pprr), the cost model
``cost(params)`` (``costs.cost_<kind>``) and the ``to_dict`` header.
:data:`REP_KINDS` (kind -> class) is the only place the four kinds are
listed; the command line, the cost dispatch and :func:`rep_from_dict` read
it, and nothing dispatches on representation type.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import NamedTuple

import numpy as np

from . import costs
from .tensors import (IntegralData, compute_T, orbit_keys, scatter_eightfold,
                      unique_orbits)

UNIT_COLUMN_ATOL = 1e-10
ZETA_SYMMETRY_ATOL = 1e-12
PSD_RTOL = 1e-8

SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class LambdaReport:
    """Induced 1-norm of a block encoding, split by term origin.

    provenance records the truncation parameters that produced the
    representation (threshold, rank, etc.).
    """

    method: str
    lambda_one: float
    lambda_two: float
    provenance: dict = dataclasses.field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.lambda_one + self.lambda_two

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "one_body": self.lambda_one,
            "two_body": self.lambda_two,
            "total": self.total,
            "provenance": dict(self.provenance),
        }


@dataclasses.dataclass(frozen=True)
class EncodedOperator:
    """Effective Hamiltonian terms realized by a block encoding.

    The walk operator encodes F1(one_body) + F2(two_body) - shift, where F1
    is the spin-summed one-body map and F2 the chemist-ordered two-body map.
    The spectrum of the encoded operator lies within [-lambda, lambda].
    """

    one_body: np.ndarray
    two_body: np.ndarray
    shift: float


def _entrywise_norm(A: np.ndarray) -> float:
    return float(np.sum(np.abs(A)))


def _schatten_norm(A: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(A))))


def _pair_matrix(chi: np.ndarray) -> np.ndarray:
    """E[(pq), mu] = chi[p, mu] chi[q, mu], shape (n^2, M)."""
    n, M = chi.shape
    return (chi[:, None, :] * chi[None, :, :]).reshape(n * n, M)


def _hypercontract(chi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """E zeta E^T, the (n^2, n^2) matrix of the hypercontracted tensor.

    Works through the (n^2, M) intermediate so the cost is O(n^2 M^2 + n^4 M),
    never materializing an (M, n^4) object.
    """
    E = _pair_matrix(chi)
    return E @ zeta @ E.T


class Option(NamedTuple):
    """A factorize option: how to read it, its default, whether it is
    required, the least value it takes, and whether it drops factors by
    size (so that a large value can leave none)."""

    cast: type
    default: object = None
    required: bool = False
    minimum: float | None = None
    truncates: bool = False

    def problem(self, value) -> str | None:
        """Why a set value is below minimum or not finite, else None."""
        if value is not None and self.minimum is not None and not (
                math.isfinite(value) and value >= self.minimum):
            kind = "an integer" if self.cast is int else "a finite number"
            return f"must be {kind} >= {self.minimum:g}, got {value!r}"


class _Rep:
    """The protocol every representation kind shares (see the module doc)."""

    kind: str
    size_fields: tuple[str, ...]
    options: dict[str, Option]
    rotates_one_body = False
    centred = False

    def sizes(self) -> dict:
        """The cost-model sizes, keyed by field name in declaration order."""
        return {name: getattr(self, name) for name in self.size_fields}

    def _summary(self) -> dict:
        return self.sizes()

    @classmethod
    def cost(cls, params: costs.CostParams) -> costs.CostReport:
        return getattr(costs, f"cost_{cls.kind}")(params)

    def lambda_report(self, Tprime: np.ndarray) -> LambdaReport:
        norm = _schatten_norm if self.rotates_one_body else _entrywise_norm
        return LambdaReport(self.kind, norm(Tprime), self._lambda_two(),
                            self._summary())

    def encoded_terms(self, Tprime: np.ndarray) -> EncodedOperator:
        Tprime = np.asarray(Tprime, dtype=float)
        Vt = self.dense()
        shift = float(np.trace(Tprime)) - 0.5 * float(np.einsum("pprr->", Vt))
        if self.centred:
            # Each squared one-body factor is PSD, so the walk encodes it
            # centred: the half-range lambda_two joins the discarded identity.
            shift += self._lambda_two()
        return EncodedOperator(one_body=Tprime - np.einsum("pqrr->pq", Vt),
                               two_body=Vt, shift=shift)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n_spatial": self.n_spatial, **self._summary()}

    @classmethod
    def _invalid(cls, message: str) -> ValueError:
        return ValueError(f"{cls.kind} representation: {message}")

    @classmethod
    def _require(cls, payload: dict, *names: str) -> list:
        for name in names:
            if name not in payload:
                raise ValueError(f"{cls.kind} representation lacks field {name!r}")
        return [payload[name] for name in names]


@dataclasses.dataclass(frozen=True, eq=False)
class SparseRep(_Rep):
    """Thresholded two-body tensor stored as symmetry-unique entries.

    indices (int, (k, 4)) holds the canonical row p <= q, r <= s,
    (p, q) <= (r, s) of each surviving 8-fold orbit, values (float, (k,))
    its entry, strictly above threshold in magnitude.  d counts the
    state-preparation data items: k plus the n(n+1)/2 one-body slots.
    """

    kind = "sparse"
    size_fields = ("d",)
    options = {"threshold": Option(float, required=True, minimum=0.0)}

    n_spatial: int
    indices: np.ndarray
    values: np.ndarray
    threshold: float

    def __post_init__(self):
        n = self.n_spatial
        indices = np.asarray(self.indices, dtype=np.intp)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or indices.shape != (values.size, 4):
            raise self._invalid(
                f"indices of shape {indices.shape} for values of shape {values.shape}")
        if np.any((indices < 0) | (indices >= n)):
            raise self._invalid(f"orbital index outside 0..{n - 1}")
        keys = orbit_keys(indices, n)
        if np.any(keys != indices @ n ** np.arange(3, -1, -1)):
            raise self._invalid("non-canonical entry row")
        if np.any(np.diff(np.sort(keys)) == 0):
            raise self._invalid("repeated orbit")
        small = np.flatnonzero(np.abs(values) <= self.threshold)
        if small.size:
            raise self._invalid(
                f"entry {tuple(indices[small[0]].tolist())} magnitude "
                f"{abs(values[small[0]]):.3e} not above threshold {self.threshold:.3e}")

    @classmethod
    def factorize(cls, data: IntegralData, Tprime: np.ndarray, threshold: float):
        return sparse_truncate(data, Tprime, threshold)[0], {}

    @property
    def d(self) -> int:
        return self.values.size + self.n_spatial * (self.n_spatial + 1) // 2

    def dense(self) -> np.ndarray:
        """Expand the stored orbits back to a full 8-fold-symmetric tensor."""
        return scatter_eightfold(self.n_spatial, self.indices, self.values)

    def _lambda_two(self) -> float:
        """Half the entrywise norm of the truncated tensor, all n^4 positions."""
        return 0.5 * _entrywise_norm(self.dense())

    def _summary(self) -> dict:
        return {"threshold": self.threshold, "d": self.d}

    def to_dict(self) -> dict:
        rows = np.column_stack([self.indices.astype(object),
                                self.values.astype(object)])
        return {**super().to_dict(), "entries": rows.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> SparseRep:
        n, entries, threshold, d = cls._require(
            payload, "n_spatial", "entries", "threshold", "d")
        try:
            rows = np.array(entries, dtype=float) if len(entries) else np.empty((0, 5))
        except ValueError:
            rows = np.empty(0)
        if rows.ndim != 2 or rows.shape[1] != 5 or np.any(rows[:, :4] % 1):
            raise cls._invalid("entries must be rows (p, q, r, s, value) with "
                               "integer p, q, r, s")
        rep = cls(int(n), rows[:, :4], rows[:, 4], float(threshold))
        if rep.d != d:
            raise cls._invalid(f"d = {d} but its entries give {rep.d}")
        return rep


class _SquaredOneBody(_Rep):
    """V = sum_l W_l (x) W_l, each W_l encoded as a squared one-body operator.

    Subclasses give the factors W_l (_factors) and the 1-norm of each as its
    block encoding prepares it (_factor_norms).
    """

    centred = True

    def _lambda_two(self) -> float:
        """(1/4) sum_l (1-norm of W_l)^2: the recentred squared blocks."""
        return 0.25 * float(sum(norm ** 2 for norm in self._factor_norms()))

    def dense(self) -> np.ndarray:
        n = self.n_spatial
        V = np.zeros((n, n, n, n))
        for W in self._factors():
            V += np.einsum("pq,rs->pqrs", W, W)
        return V


@dataclasses.dataclass(frozen=True, eq=False)
class SFRep(_SquaredOneBody):
    """Single factorization V = sum_l W_l (x) W_l.

    Ws are symmetric (n, n) matrices ordered by descending eigenvalue of the
    flattened two-body matrix, square-root weights absorbed.  Each W_l is
    prepared in the computational basis, so its norm is entrywise.
    """

    kind = "sf"
    size_fields = ("L",)
    options = {"target_l": Option(int, minimum=1),
               "tolerance": Option(float, minimum=0.0, truncates=True)}

    n_spatial: int
    Ws: tuple

    def __post_init__(self):
        n = self.n_spatial
        for l, W in enumerate(self.Ws):
            if W.shape != (n, n):
                raise self._invalid(f"factor {l} has shape {W.shape}, not ({n}, {n})")

    @classmethod
    def factorize(cls, data: IntegralData, Tprime: np.ndarray,
                  target_l: int | None, tolerance: float | None):
        return single_factorize(data, target_L=target_l, tolerance=tolerance), {}

    @property
    def L(self) -> int:
        return len(self.Ws)

    def _factors(self):
        return self.Ws

    def _factor_norms(self):
        return (np.sum(np.abs(W)) for W in self.Ws)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "Ws": [W.tolist() for W in self.Ws]}

    @classmethod
    def from_dict(cls, payload: dict) -> SFRep:
        n, Ws = cls._require(payload, "n_spatial", "Ws")
        return cls(int(n), tuple(np.asarray(W, dtype=float) for W in Ws))


@dataclasses.dataclass(frozen=True, eq=False)
class DFRep(_SquaredOneBody):
    """Double factorization: per-l eigenbases with truncated spectra.

    fs[l] holds the retained eigenvalues of W_l sorted by descending
    magnitude (ties keep the eigensolver's ascending-eigenvalue order);
    Us[l] holds the matching orthonormal eigenvectors as columns.  Each
    truncated W_l = U diag(f) U^T is prepared in its eigenbasis, so its norm
    is the Schatten norm sum_m |f_m|.
    """

    kind = "df"
    size_fields = ("L", "Xi_total")
    options = {"threshold": Option(float, required=True, minimum=0.0, truncates=True),
               "target_l": Option(int, minimum=1)}
    rotates_one_body = True

    n_spatial: int
    fs: tuple
    Us: tuple
    threshold: float

    def __post_init__(self):
        n = self.n_spatial
        if len(self.fs) != len(self.Us):
            raise self._invalid(f"{len(self.fs)} eigenvalue blocks for "
                                f"{len(self.Us)} eigenvector blocks")
        for l, (f, U) in enumerate(zip(self.fs, self.Us)):
            if f.ndim != 1 or U.shape != (n, f.size):
                raise self._invalid(f"block {l} has eigenvalues of shape {f.shape} "
                                    f"and eigenvectors of shape {U.shape}")
            gram = U.T @ U
            dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
            if dev > 1e-10:
                raise ValueError(f"eigenvector block {l} not orthonormal ({dev:.3e})")

    @classmethod
    def factorize(cls, data: IntegralData, Tprime: np.ndarray, threshold: float,
                  target_l: int | None):
        return double_factorize(single_factorize(data, target_L=target_l), threshold), {}

    @property
    def L(self) -> int:
        return len(self.fs)

    @property
    def Xi_total(self) -> int:
        return int(sum(len(f) for f in self.fs))

    def _factors(self):
        return [(U * f) @ U.T for f, U in zip(self.fs, self.Us)]

    def _factor_norms(self):
        return (np.sum(np.abs(f)) for f in self.fs)

    def _summary(self) -> dict:
        return {"threshold": self.threshold, **self.sizes(),
                "Xi_avg": self.Xi_total / self.L if self.L else 0.0}

    def to_dict(self) -> dict:
        return {**super().to_dict(), "fs": [f.tolist() for f in self.fs],
                "Us": [U.tolist() for U in self.Us]}

    @classmethod
    def from_dict(cls, payload: dict) -> DFRep:
        n, fs, Us, threshold = cls._require(
            payload, "n_spatial", "fs", "Us", "threshold")
        return cls(int(n), tuple(np.asarray(f, dtype=float) for f in fs),
                   tuple(np.asarray(U, dtype=float) for U in Us), float(threshold))


@dataclasses.dataclass(frozen=True, eq=False)
class THCRep(_Rep):
    """Tensor hypercontraction factors.

    chi has shape (n, M) with unit-2-norm columns; zeta is the symmetric
    (M, M) core matrix.
    """

    kind = "thc"
    size_fields = ("M",)
    options = {"rank": Option(int, required=True, minimum=1),
               "starts": Option(int, 20, minimum=1), "seed": Option(int, 0, minimum=0)}
    rotates_one_body = True

    chi: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        chi = np.ascontiguousarray(np.asarray(self.chi, dtype=float))
        zeta = np.ascontiguousarray(np.asarray(self.zeta, dtype=float))
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "zeta", zeta)
        if chi.ndim != 2:
            raise ValueError("chi must be a 2-d array")
        M = chi.shape[1]
        if zeta.shape != (M, M):
            raise ValueError(f"zeta must have shape {(M, M)}, got {zeta.shape}")
        norms = np.linalg.norm(chi, axis=0)
        if np.max(np.abs(norms - 1.0)) > UNIT_COLUMN_ATOL:
            raise ValueError("chi columns must have unit 2-norm")
        dev = float(np.max(np.abs(zeta - zeta.T))) if M else 0.0
        if dev > ZETA_SYMMETRY_ATOL:
            raise ValueError(f"zeta is not symmetric (max deviation {dev:.3e})")

    @classmethod
    def factorize(cls, data: IntegralData, Tprime: np.ndarray, rank: int,
                  starts: int, seed: int):
        """Multi-start least-squares fit; the extra parameters record the
        best restart and its objective."""
        from . import thc  # thc imports this module

        fit = thc.thc_fit(data.V, rank, n_starts=starts, seed=seed)
        return fit.rep, {"objective": fit.objective, "restart": fit.restart}

    @property
    def M(self) -> int:
        return self.chi.shape[1]

    @property
    def n_spatial(self) -> int:
        return self.chi.shape[0]

    def dense(self) -> np.ndarray:
        """G_pqrs assembled from the factors."""
        n = self.n_spatial
        return _hypercontract(self.chi, self.zeta).reshape(n, n, n, n)

    def _lambda_two(self) -> float:
        """(1/2) sum_{mu,nu} |zeta|."""
        return 0.5 * _entrywise_norm(self.zeta)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "chi": self.chi.tolist(),
                "zeta": self.zeta.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> THCRep:
        chi, zeta = cls._require(payload, "chi", "zeta")
        return cls(np.asarray(chi, dtype=float), np.asarray(zeta, dtype=float))


REP_KINDS = {cls.kind: cls for cls in (SparseRep, SFRep, DFRep, THCRep)}


def sparse_truncate(data: IntegralData, Tprime: np.ndarray, threshold: float):
    """Drop two-body entries at or below threshold.

    Returns the sparse representation together with its lambda report (T'
    must come from the exact, untruncated V).
    """
    n = data.n_spatial
    indices = unique_orbits(n)
    values = data.V[tuple(indices.T)]
    keep = np.abs(values) > threshold
    rep = SparseRep(n, indices[keep], values[keep], float(threshold))
    return rep, rep.lambda_report(Tprime)


def single_factorize(
    data: IntegralData,
    target_L: int | None = None,
    tolerance: float | None = None,
) -> SFRep:
    """Eigendecompose the flattened two-body matrix into V = sum_l W_l (x) W_l.

    The (n^2, n^2) flattening of an 8-fold-symmetric V maps antisymmetric
    vectors to zero, so every eigenvector with nonzero eigenvalue reshapes to
    a symmetric W_l.  Vectors are kept in descending-eigenvalue order until
    target_L terms are collected or the largest residual diagonal element
    of the flattened matrix drops below tolerance, whichever comes first.
    Eigenvalues below -|w|_max * 1e-8 mean the tensor is not PSD and are
    rejected; small negative values are clipped to zero.
    """
    n = data.n_spatial
    M = data.V.reshape(n * n, n * n)
    M = (M + M.T) / 2.0
    w, U = np.linalg.eigh(M)
    w = w[::-1].copy()
    U = U[:, ::-1].copy()
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    if w.size and float(w[-1]) < -PSD_RTOL * scale:
        raise ValueError(
            f"two-body tensor is not positive semidefinite "
            f"(eigenvalue {float(w[-1]):.3e})"
        )
    w = np.clip(w, 0.0, None)

    keep = int(np.count_nonzero(w > 0.0))
    if target_L is not None:
        keep = min(keep, int(target_L))
    if tolerance is not None:
        residual = np.diag(M).copy()
        for l in range(keep):
            if float(np.max(residual)) < tolerance:
                keep = l
                break
            residual -= w[l] * U[:, l] ** 2

    Ws = []
    for l in range(keep):
        W = np.sqrt(w[l]) * U[:, l].reshape(n, n)
        Ws.append((W + W.T) / 2.0)
    return SFRep(n_spatial=n, Ws=tuple(Ws))


def double_factorize(rep: SFRep, threshold: float) -> DFRep:
    """Truncate each W_l spectrum, dropping small eigenvalue contributions.

    Eigenvalue m of vector l is discarded when (sum_p |f_p^l|) |f_m^l| falls
    below threshold, with the first factor evaluated before truncation.  The
    first l whose retained count reaches zero ends the outer expansion, so
    later vectors are dropped entirely.
    """
    fs = []
    Us = []
    for W in rep.Ws:
        f, U = np.linalg.eigh(W)
        order = np.argsort(-np.abs(f), kind="stable")
        f = f[order]
        U = U[:, order]
        weight = float(np.sum(np.abs(f)))
        keep = np.abs(f) * weight >= threshold
        xi = int(np.count_nonzero(keep))
        if xi == 0:
            break
        fs.append(f[keep].copy())
        Us.append(U[:, keep].copy())
    return DFRep(
        n_spatial=rep.n_spatial, fs=tuple(fs), Us=tuple(Us), threshold=float(threshold)
    )


def _registered(rep):
    if REP_KINDS.get(getattr(rep, "kind", None)) is not type(rep):
        raise TypeError(f"unknown representation type {type(rep).__name__}")
    return rep


def lambda_report(rep, data: IntegralData) -> LambdaReport:
    """The representation's lambda, with T' built from the exact V of data."""
    return _registered(rep).lambda_report(compute_T(data).Tprime)


def rep_to_dict(rep) -> dict:
    """Serialize a representation to a JSON-ready dict (row-major arrays)."""
    return {"schema": SCHEMA_VERSION, **_registered(rep).to_dict()}


def rep_from_dict(payload: dict):
    """Inverse of :func:`rep_to_dict`; malformed payloads raise ValueError."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"representation must be a JSON object, not {type(payload).__name__}")
    kind = payload.get("kind")
    cls = REP_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown representation kind {kind!r}")
    try:
        return cls.from_dict(payload)
    except TypeError as exc:
        raise ValueError(f"{kind} representation: {exc}") from None


def write_rep_json(payload: dict, path) -> None:
    """Write a rep file as compact sorted-key JSON, which CPython encodes in C."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
