"""Tensor-hypercontraction fitting, angle encoding, and coefficient rounding.

The factor pair (chi, zeta) is fit to a two-electron tensor by nonlinear
least squares on the reshaped matrix residual E zeta E^T - V, where
E[(pq), mu] = chi[p, mu] chi[q, mu].  Fits run from several seeded starts,
each a least-squares zeta at a random chi, polished by L-BFGS-B and a short
AdaGrad tail that keeps the best parameters seen.

The optimizers evaluate the objective in Gram form, with G = E^T E:
||E zeta E^T - V||^2 = <zeta, G zeta G> - 2 <zeta, E^T V E> + ||V||^2.  One
(n^2, n^2) x (n^2, M) product per evaluation gives the value and the exact
gradient, and the (n^2, n^2) residual is never formed.  The Gram value
cancels to absolute precision ~eps ||V||^2, so thc_objective keeps the
direct residual and scores each restart.  Each restart optimizes
(u, zeta) with chi = c u and c = 1 / max|zeta_start|: the chi block of the
Hessian grows as zeta^2 against an O(1) zeta block, and this change of
variables balances the two while the optimizers still see the exact
gradient df/du = c df/dchi.

For the circuit, unit columns of chi are stored as Givens-style angle
sequences, and both the angles and zeta are rounded to fixed-point grids;
one exactly solved global dither keeps the 1-norm of the rounded zeta.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np
from scipy import optimize

from .factorizations import THCRep, _pair_matrix
from .tensors import SYMMETRY_ATOL

_PROD_FLOOR = 1e-14
_RESIDUAL_FLOOR = 1e-12

LBFGS_MAXITER = 400
ADAGRAD_STEPS = 300
ADAGRAD_RATE = 0.01
ADAGRAD_EPS = 1e-10


@dataclasses.dataclass(frozen=True)
class FitConfig:
    n_starts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")


class RestartRecord(NamedTuple):
    """How one restart of thc_fit ended.

    objective is thc_objective of the restart's normalized rep (nan when the
    restart was dropped); nit and status are L-BFGS-B's iteration count and
    exit status (0 converged, 1 iteration limit, 2 stopped otherwise), or 0
    and -1 when the least-squares start was not finite and L-BFGS-B never ran.
    """

    objective: float
    nit: int
    status: int


@dataclasses.dataclass(frozen=True)
class FitResult:
    """Winning rep, its thc_objective, its restart index, and every restart."""

    rep: THCRep
    objective: float
    restart: int
    restarts: tuple[RestartRecord, ...]


def thc_objective(chi: np.ndarray, zeta: np.ndarray, V: np.ndarray) -> float:
    """Sum of squared residuals of the hypercontracted reconstruction."""
    n = chi.shape[0]
    E = _pair_matrix(chi)
    R = E @ zeta @ E.T - V.reshape(n * n, n * n)
    return float(np.sum(R * R))


def _exchange_symmetric(V: np.ndarray) -> np.ndarray:
    """The (n^2, n^2) matrix of V, checked symmetric under (pq) <-> (rs)."""
    n = V.shape[0]
    V2 = V.reshape(n * n, n * n)
    dev = float(np.max(np.abs(V2 - V2.T)))
    if dev > SYMMETRY_ATOL:
        raise ValueError(
            f"V is not symmetric under (pq) <-> (rs) (max deviation {dev:.3e})"
        )
    return V2


def _value_and_grad(chi: np.ndarray, zeta: np.ndarray, V2: np.ndarray,
                    v_norm2: float):
    """Gram-form objective and its gradient, returned as (f, dchi, dzeta).

    V2 must equal its transpose and v_norm2 must be sum(V2 * V2).  With
    C = chi^T chi, G = E^T E = C * C (elementwise), W = V2 E and B = E^T W,

        f = <zeta, G zeta G> - 2 <zeta, B> + v_norm2,
        df/dzeta = 2 (G zeta G - B),
        df/dE = 4 P,  P = E zeta G zeta - W zeta  (zeta symmetric),

    and since chi enters both slots of E, df/dchi[p,k] sums P over either
    slot against chi[., k].  The E zeta G zeta part of that sum reduces to
    chi (zeta G zeta * C), so only W costs n^4 M and no (n^2, n^2) array is
    formed.  zeta is symmetrized where it enters P, which keeps the gradient
    exact for any zeta.
    """
    n, M = chi.shape
    E = _pair_matrix(chi)
    C = chi.T @ chi
    G = C * C
    W = V2 @ E
    B = E.T @ W
    ZG = zeta @ G
    GZG = G @ ZG
    f = float(np.sum(zeta * GZG) - 2.0 * np.sum(zeta * B)) + v_norm2
    dzeta = 2.0 * (GZG - B)
    S = 0.5 * (ZG @ zeta.T + zeta.T @ (G @ zeta))
    Y = (W @ (0.5 * (zeta + zeta.T))).reshape(n, n, M)
    dchi = 4.0 * (2.0 * chi @ (S * C)
                  - np.einsum("pqk,qk->pk", Y + Y.transpose(1, 0, 2), chi))
    return f, dchi, dzeta


def thc_gradient(chi: np.ndarray, zeta: np.ndarray, V: np.ndarray):
    """Analytic gradient of thc_objective, returned as (dchi, dzeta).

    V must be symmetric under exchange of the electron pairs (pq) <-> (rs).
    """
    V2 = _exchange_symmetric(np.asarray(V, dtype=float))
    _, dchi, dzeta = _value_and_grad(chi, zeta, V2, float(np.sum(V2 * V2)))
    return dchi, dzeta


def _zeta_lstsq(chi: np.ndarray, V2: np.ndarray) -> np.ndarray:
    """Least-squares zeta at fixed chi via the pair-matrix Gram pseudoinverse."""
    E = _pair_matrix(chi)
    gram_inv = np.linalg.pinv(E.T @ E)
    zeta = gram_inv @ (E.T @ V2 @ E) @ gram_inv
    return 0.5 * (zeta + zeta.T)


def _chi_scale(zeta0: np.ndarray) -> float:
    """The c in chi = c u (see the module docstring): 1 / max|zeta0|.

    Because c scales with 1/V, rescaling V rescales u and zeta alike.
    """
    peak = float(np.max(np.abs(zeta0)))
    return 1.0 / peak if peak > 0.0 else 1.0


def _to_vector(chi: np.ndarray, zeta: np.ndarray, c: float) -> np.ndarray:
    return np.concatenate([(chi / c).ravel(), zeta.ravel()])


def _from_vector(x: np.ndarray, n: int, M: int, c: float):
    chi = c * x[: n * M].reshape(n, M)
    zeta = x[n * M:].reshape(M, M)
    return chi, zeta


def _fit_objective(x: np.ndarray, n: int, M: int, c: float, V2: np.ndarray,
                   v_norm2: float):
    """Objective and exact gradient in the optimizer's variables x = (u, zeta)."""
    chi, zeta = _from_vector(x, n, M, c)
    f, dchi, dzeta = _value_and_grad(chi, zeta, V2, v_norm2)
    return f, np.concatenate([(c * dchi).ravel(), dzeta.ravel()])


def _normalized_rep(chi: np.ndarray, zeta: np.ndarray) -> THCRep:
    """Unit-column form: rescale zeta by the squared norms, fix dead columns."""
    chi = chi.copy()
    zeta = 0.5 * (zeta + zeta.T)
    norms = np.linalg.norm(chi, axis=0)
    dead = norms < 1e-14
    if np.any(dead):
        chi[:, dead] = 0.0
        chi[0, dead] = 1.0
        zeta[dead, :] = 0.0
        zeta[:, dead] = 0.0
        norms = np.where(dead, 1.0, norms)
    chi = chi / norms
    zeta = zeta * np.outer(norms**2, norms**2)
    return THCRep(chi=chi, zeta=0.5 * (zeta + zeta.T))


def _adagrad_tail(fun, x: np.ndarray, floor: float):
    """Best point seen over the AdaGrad steps from x, so it never regresses.

    Returns None when the start itself is not finite.
    """
    obj, grad = fun(x)
    if not (math.isfinite(obj) and np.all(np.isfinite(x))):
        return None
    best_x, best = x, obj
    accum = np.zeros_like(x)
    for _ in range(ADAGRAD_STEPS):
        if best < floor:
            break
        accum += grad * grad
        x = x - ADAGRAD_RATE * grad / (np.sqrt(accum) + ADAGRAD_EPS)
        obj, grad = fun(x)
        if not math.isfinite(obj):
            break
        if obj < best:
            best, best_x = obj, x
    return best_x


def thc_fit(V: np.ndarray, rank: int, config: FitConfig | None = None) -> FitResult:
    """Fit a rank-M hypercontraction to the two-electron tensor.

    Runs config.n_starts seeded restarts; a restart that produces a
    non-finite objective is dropped.  Each surviving restart is scored by
    thc_objective of its normalized rep; the strictly lowest wins, ties
    keeping the earliest seed, so results are reproducible bit-for-bit for
    a fixed config.  V must be symmetric under (pq) <-> (rs).
    """
    if config is None:
        config = FitConfig()
    V = np.asarray(V, dtype=float)
    n = V.shape[0]
    if V.shape != (n, n, n, n):
        raise ValueError("V must be a fourth-order tensor with equal sides")
    if rank < 1:
        raise ValueError("rank must be at least 1")
    V2 = _exchange_symmetric(V)
    scale = float(np.sum(V2 * V2))

    best = None
    records = []
    for restart in range(config.n_starts):
        rng = np.random.default_rng(config.seed + restart)
        chi0 = rng.normal(size=(n, rank))
        chi0 /= np.linalg.norm(chi0, axis=0)
        zeta0 = _zeta_lstsq(chi0, V2)
        if not np.all(np.isfinite(zeta0)):
            records.append(RestartRecord(math.nan, 0, -1))
            continue
        c = _chi_scale(zeta0)
        fun = functools.partial(_fit_objective, n=n, M=rank, c=c, V2=V2,
                                v_norm2=scale)
        res = optimize.minimize(
            fun, _to_vector(chi0, zeta0, c), jac=True, method="L-BFGS-B",
            options={"maxiter": LBFGS_MAXITER},
        )
        x = _adagrad_tail(fun, res.x, 1e-14 * max(scale, 1.0))
        obj = math.nan
        if x is not None:
            rep = _normalized_rep(*_from_vector(x, n, rank, c))
            obj = thc_objective(rep.chi, rep.zeta, V)
        records.append(RestartRecord(obj, int(res.nit), int(res.status)))
        if math.isfinite(obj) and (best is None or obj < best[1]):
            best = (rep, obj, restart)
    if best is None:
        raise RuntimeError("every restart diverged")
    rep, obj, restart = best
    return FitResult(rep=rep, objective=obj, restart=restart,
                     restarts=tuple(records))


def angles_from_chi(chi: np.ndarray) -> np.ndarray:
    """Encode unit columns as angle sequences, one column of n angles each.

    Component p < n-1 contributes theta_p = arccos(v_p / prod)/2 where prod
    is the running product of sin(2 theta); the final angle is 0 or pi/2 and
    carries only the sign of the last component.  Once the product
    underflows, every remaining component must already be negligible.
    """
    chi = np.asarray(chi, dtype=float)
    n, M = chi.shape
    theta = np.zeros((n, M))
    for mu in range(M):
        v = chi[:, mu]
        prod = 1.0
        for p in range(n - 1):
            if prod < _PROD_FLOOR:
                if np.any(np.abs(v[p:]) >= _RESIDUAL_FLOOR):
                    raise ValueError(
                        f"column {mu} has weight beyond an exhausted prefix"
                    )
                prod = 0.0
                break
            t = 0.5 * math.acos(min(1.0, max(-1.0, v[p] / prod)))
            theta[p, mu] = t
            prod *= math.sin(2.0 * t)
        else:
            if prod >= _PROD_FLOOR and v[n - 1] / prod < 0.0:
                theta[n - 1, mu] = math.pi / 2.0
    return theta


def chi_from_angles(theta: np.ndarray) -> np.ndarray:
    """Decode angle sequences back to unit columns (inverse of angles_from_chi)."""
    theta = np.asarray(theta, dtype=float)
    n, M = theta.shape
    chi = np.zeros((n, M))
    for mu in range(M):
        prod = 1.0
        for p in range(n):
            chi[p, mu] = prod * math.cos(2.0 * theta[p, mu])
            prod *= math.sin(2.0 * theta[p, mu])
    return chi


@dataclasses.dataclass(frozen=True)
class QuantizedTHC:
    """Fixed-point form of a hypercontraction: angle words and rounded zeta.

    x in (-1/2, 1/2) is the global dither added to the zeta magnitudes
    before rounding; warning is set, with x = 0, when the rounded 1-norm
    misses sum |zeta| by more than quantize's tolerance.
    """

    theta: np.ndarray
    zeta_q: np.ndarray
    beth: int
    aleph: int
    x: float
    warning: bool

    def chi(self) -> np.ndarray:
        return chi_from_angles(self.theta)


def quantize(rep: THCRep, beth: int, aleph: int) -> QuantizedTHC:
    """Round angles to beth-bit words and zeta to an aleph-bit grid.

    The zeta grid step is lambda_z/(d 2^aleph) off the diagonal and twice
    that on it, with d the state-preparation domain n + M(M+1)/2.  Under one
    dither x in (-1/2, 1/2), a magnitude m (in steps) rounds to floor(m)
    below its break point 1/2 - frac(m) and to floor(m) + 1 above it, with
    its sign kept.  Sorting the break points gives the 1-norm gap on every
    plateau between them; x is the midpoint of the first plateau with the
    smallest |gap|, so no entry sits on a rounding tie.  For symmetric zeta
    the gap moves in steps of two off-diagonal units, so one plateau has gap
    0 unless other entries share a break point.  If the gap at x exceeds the
    tolerance anyway, x = 0 is kept with warning set.
    """
    if beth < 1 or aleph < 1:
        raise ValueError("bit counts must be positive")
    n, M = rep.chi.shape
    theta = angles_from_chi(rep.chi)
    u_theta = 2.0 * math.pi / 2.0**beth
    theta_q = u_theta * np.round(theta / u_theta)

    lam_z = float(np.sum(np.abs(rep.zeta)))
    d = n + M * (M + 1) // 2
    u_off = lam_z / (d * 2.0**aleph)
    units = np.where(np.eye(M, dtype=bool), 2.0 * u_off, u_off)
    mags = np.abs(rep.zeta) / units
    floors = np.floor(mags)
    breaks = 0.5 - (mags - floors)

    def rounded(x: float) -> np.ndarray:
        # round(mags + x) without the float rounding of the sum mags + x
        return units * np.sign(rep.zeta) * (floors + (breaks < x))

    # Half a grid step, but never below the float resolution of a sum of M^2
    # terms of size lambda_z, which half a step undercuts from aleph ~ 48 on.
    tol = max(0.5 * u_off, M * M * math.ulp(lam_z))
    x, warning = 0.0, False
    if lam_z > 0.0:
        order = np.argsort(breaks, axis=None, kind="stable")
        edges = np.concatenate([[-0.5], breaks.flat[order], [0.5]])
        steps = np.concatenate([[0.0], np.cumsum(units.flat[order])])
        gaps = np.abs(steps + (float(np.sum(units * floors)) - lam_z))
        gaps[edges[1:] <= edges[:-1]] = np.inf
        k = int(np.argmin(gaps))
        x = 0.5 * float(edges[k] + edges[k + 1])
        if abs(float(np.sum(np.abs(rounded(x)))) - lam_z) > tol:
            x, warning = 0.0, True
    return QuantizedTHC(theta=theta_q, zeta_q=rounded(x), beth=beth,
                        aleph=aleph, x=x, warning=warning)
