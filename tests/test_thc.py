import functools
import math
import types

import numpy as np
import pytest
from scipy import optimize

from ftqc import tensors, thc
from ftqc.factorizations import THCRep, thc_reconstruct


def _random_factors(n, M, seed):
    rng = np.random.default_rng(seed)
    chi = rng.normal(size=(n, M))
    chi /= np.linalg.norm(chi, axis=0)
    zeta = rng.normal(size=(M, M))
    return chi, (zeta + zeta.T) / 2.0


def test_objective_zero_at_exact_representation():
    chi, zeta = _random_factors(3, 4, 0)
    V = thc_reconstruct(THCRep(chi=chi, zeta=zeta))
    assert thc.thc_objective(chi, zeta, V) < 1e-24


def test_objective_at_zero_core_is_tensor_norm():
    V = tensors.random_instance(3, seed=1).V
    chi, _ = _random_factors(3, 4, 2)
    assert thc.thc_objective(chi, np.zeros((4, 4)), V) == pytest.approx(
        float(np.sum(V * V)), rel=1e-13
    )


def test_objective_matches_quadruple_loop():
    n, M = 3, 4
    chi, zeta = _random_factors(n, M, 3)
    V = tensors.random_instance(n, seed=4).V
    total = 0.0
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    G = sum(
                        chi[p, m] * chi[q, m] * zeta[m, v] * chi[r, v] * chi[s, v]
                        for m in range(M) for v in range(M)
                    )
                    total += (V[p, q, r, s] - G) ** 2
    assert thc.thc_objective(chi, zeta, V) == pytest.approx(total, rel=1e-12)


def test_gradient_matches_finite_differences():
    n, M, h = 4, 6, 1e-5
    V = tensors.random_instance(n, seed=5).V
    for seed in range(20):
        chi, zeta = _random_factors(n, M, 100 + seed)
        gchi, gzeta = thc.thc_gradient(chi, zeta, V)
        fd_chi = np.zeros_like(chi)
        for i in range(n):
            for j in range(M):
                e = np.zeros_like(chi)
                e[i, j] = h
                fd_chi[i, j] = (
                    thc.thc_objective(chi + e, zeta, V)
                    - thc.thc_objective(chi - e, zeta, V)
                ) / (2 * h)
        fd_zeta = np.zeros_like(zeta)
        for i in range(M):
            for j in range(M):
                e = np.zeros_like(zeta)
                e[i, j] = h
                fd_zeta[i, j] = (
                    thc.thc_objective(chi, zeta + e, V)
                    - thc.thc_objective(chi, zeta - e, V)
                ) / (2 * h)
        assert np.max(np.abs(gchi - fd_chi)) / np.max(np.abs(fd_chi)) < 1e-6
        assert np.max(np.abs(gzeta - fd_zeta)) / np.max(np.abs(fd_zeta)) < 1e-6


def test_gradient_vanishes_at_exact_representation():
    chi, zeta = _random_factors(3, 5, 6)
    V = thc_reconstruct(THCRep(chi=chi, zeta=zeta))
    gchi, gzeta = thc.thc_gradient(chi, zeta, V)
    assert np.max(np.abs(gchi)) < 1e-10
    assert np.max(np.abs(gzeta)) < 1e-10


def test_gradient_exact_for_asymmetric_zeta():
    n, M, h = 3, 5, 1e-6
    rng = np.random.default_rng(1)
    A = rng.normal(size=(n * n, n * n))
    V = (A + A.T).reshape(n, n, n, n)  # exchange-symmetric only
    chi = rng.normal(size=(n, M))
    zeta = rng.normal(size=(M, M))
    gchi, gzeta = thc.thc_gradient(chi, zeta, V)
    for X, g, f in ((chi, gchi, lambda c: thc.thc_objective(c, zeta, V)),
                    (zeta, gzeta, lambda z: thc.thc_objective(chi, z, V))):
        fd = np.zeros_like(X)
        for idx in np.ndindex(X.shape):
            e = np.zeros_like(X)
            e[idx] = h
            fd[idx] = (f(X + e) - f(X - e)) / (2 * h)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-6


def test_gradient_rejects_pair_exchange_asymmetry():
    chi, zeta = _random_factors(3, 4, 0)
    V = np.random.default_rng(0).normal(size=(3, 3, 3, 3))
    with pytest.raises(ValueError, match="not symmetric under"):
        thc.thc_gradient(chi, zeta, V)
    with pytest.raises(ValueError, match="not symmetric under"):
        thc.thc_fit(V, 4, config=thc.FitConfig(n_starts=1))


def test_gram_value_matches_direct_objective():
    n, M = 4, 7
    V = tensors.random_instance(n, seed=3).V
    V2 = V.reshape(n * n, n * n)
    for seed in range(10):
        chi, zeta = _random_factors(n, M, 200 + seed)
        zeta = zeta + np.random.default_rng(seed).normal(size=(M, M))
        f, _, _ = thc._value_and_grad(chi, zeta, V2, float(np.sum(V2 * V2)))
        assert f == pytest.approx(thc.thc_objective(chi, zeta, V), rel=1e-12)


def test_fit_hands_lbfgs_the_gradient_of_its_objective(monkeypatch):
    n, M, h = 4, 6, 1e-6
    V = tensors.random_instance(n, seed=5).V
    calls = []

    def spy(fun, x0, **kwargs):
        calls.append((fun, x0))
        return optimize.minimize(fun, x0, **kwargs)

    monkeypatch.setattr(thc, "optimize", types.SimpleNamespace(minimize=spy))
    thc.thc_fit(V, M, config=thc.FitConfig(n_starts=1))
    fun, x0 = calls[0]

    def direct(x):
        return thc.thc_objective(*thc._from_vector(x, n, M, fun.keywords["c"]), V)

    rng = np.random.default_rng(0)
    for _ in range(2):
        x = x0 + 0.1 * rng.normal(size=x0.shape)
        value, grad = fun(x)
        assert value == pytest.approx(direct(x), rel=1e-12)
        fd = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd[i] = (direct(x + e) - direct(x - e)) / (2 * h)
        for block in (slice(0, n * M), slice(n * M, None)):
            err = np.max(np.abs(grad[block] - fd[block]))
            assert err / np.max(np.abs(fd[block])) < 1e-6


def test_fit_recovers_planted_instance():
    n, M = 3, 5
    chi, zeta = _random_factors(n, M, 7)
    V = thc_reconstruct(THCRep(chi=chi, zeta=zeta))
    result = thc.thc_fit(V, M, config=thc.FitConfig(n_starts=8, seed=0))
    assert result.objective < 1e-8 * float(np.sum(V * V))


def test_fit_overparameterized_interpolates():
    V = tensors.random_instance(3, seed=5).V
    result = thc.thc_fit(V, 9, config=thc.FitConfig(n_starts=6, seed=1))
    assert result.objective < 1e-6 * float(np.sum(V * V))


def test_fit_bit_reproducible():
    V = tensors.random_instance(3, seed=11).V
    cfg = thc.FitConfig(n_starts=4, seed=0)
    a = thc.thc_fit(V, 6, config=cfg)
    b = thc.thc_fit(V, 6, config=cfg)
    assert a.objective == b.objective
    assert np.array_equal(a.rep.chi, b.rep.chi)
    assert np.array_equal(a.rep.zeta, b.rep.zeta)
    assert a.restart == b.restart


def test_fit_result_is_valid_rep():
    V = tensors.random_instance(3, seed=11).V
    result = thc.thc_fit(V, 6, config=thc.FitConfig(n_starts=2, seed=0))
    rep = result.rep
    assert np.allclose(np.linalg.norm(rep.chi, axis=0), 1.0, atol=1e-10)
    assert np.allclose(rep.zeta, rep.zeta.T, atol=1e-12)
    assert result.objective == pytest.approx(
        thc.thc_objective(rep.chi, rep.zeta, V), rel=1e-10, abs=1e-18
    )


def test_fit_records_every_restart():
    V = tensors.random_instance(4, seed=11).V
    result = thc.thc_fit(V, 5, config=thc.FitConfig(n_starts=3, seed=0))
    assert len(result.restarts) == 3
    assert result.objective == result.restarts[result.restart].objective
    assert result.objective == min(r.objective for r in result.restarts)
    for record in result.restarts:
        assert 0 < record.nit <= thc.LBFGS_MAXITER
        assert record.status in (0, 1, 2)


def test_objective_invariant_under_column_permutation():
    chi, zeta = _random_factors(4, 6, 8)
    V = tensors.random_instance(4, seed=9).V
    perm = np.random.default_rng(10).permutation(6)
    a = thc.thc_objective(chi, zeta, V)
    b = thc.thc_objective(chi[:, perm], zeta[np.ix_(perm, perm)], V)
    assert a == pytest.approx(b, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        thc.FitConfig(n_starts=0)


def test_angles_zero_for_first_axis_column():
    chi = np.zeros((4, 1))
    chi[0, 0] = 1.0
    assert np.array_equal(thc.angles_from_chi(chi), np.zeros((4, 1)))


def test_angles_equal_weight_pair():
    chi = np.zeros((4, 1))
    chi[0, 0] = chi[1, 0] = 1.0 / math.sqrt(2.0)
    theta = thc.angles_from_chi(chi)
    assert theta[0, 0] == pytest.approx(math.pi / 8.0, abs=1e-12)


def test_angles_round_trip():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        chi = rng.normal(size=(8, 5))
        chi /= np.linalg.norm(chi, axis=0)
        back = thc.chi_from_angles(thc.angles_from_chi(chi))
        worst = max(worst, float(np.max(np.abs(back - chi))))
    assert worst < 1e-10


def test_angles_reject_weight_beyond_exhausted_prefix():
    bad = np.zeros((4, 1))
    bad[0, 0] = 1.0
    bad[3, 0] = 1e-11
    with pytest.raises(ValueError, match="weight beyond an exhausted prefix"):
        thc.angles_from_chi(bad)


@functools.lru_cache(maxsize=None)
def _fitted_rep_of_instance(seed):
    V = tensors.random_instance(3, seed=seed).V
    return thc.thc_fit(V, 6, config=thc.FitConfig(n_starts=4, seed=0)).rep


def _fitted_rep():
    return _fitted_rep_of_instance(11)


def test_quantize_52_bits_is_identity_scale():
    rep = _fitted_rep()
    q = thc.quantize(rep, beth=52, aleph=52)
    lam_z = float(np.sum(np.abs(rep.zeta)))
    lam_q = float(np.sum(np.abs(q.zeta_q)))
    assert abs(lam_q - lam_z) <= 1e-12 * lam_z
    assert np.max(np.abs(q.chi() - rep.chi)) < 1e-12
    assert not q.warning


def test_quantize_entry_error_within_grid_unit():
    rep = _fitted_rep()
    n, M = rep.chi.shape
    lam_z = float(np.sum(np.abs(rep.zeta)))
    d = n + M * (M + 1) // 2
    for beth, aleph in ((16, 10), (12, 8)):
        q = thc.quantize(rep, beth=beth, aleph=aleph)
        u_off = lam_z / (d * 2.0**aleph)
        units = np.where(np.eye(M, dtype=bool), 2.0 * u_off, u_off)
        assert np.max(np.abs(q.zeta_q - rep.zeta) / units) <= 1.0 + 1e-9
        # dithered rounding keeps entries on the offset grid
        assert np.allclose(np.mod(q.zeta_q / units + 0.5, 1.0), 0.5, atol=1e-9)
        u_theta = 2.0 * math.pi / 2.0**beth
        assert np.allclose(np.mod(q.theta / u_theta + 0.5, 1.0), 0.5, atol=1e-6)
        assert abs(q.x) <= 0.5
        lam_q = float(np.sum(np.abs(q.zeta_q)))
        assert abs(lam_q - lam_z) <= 1e-5 * lam_z


def test_quantize_rejects_bad_bits():
    rep = _fitted_rep()
    with pytest.raises(ValueError, match="bit counts must be positive"):
        thc.quantize(rep, beth=0, aleph=10)
    with pytest.raises(ValueError, match="bit counts must be positive"):
        thc.quantize(rep, beth=16, aleph=0)


@pytest.mark.parametrize("aleph", (48, 52))
@pytest.mark.parametrize("seed", range(12))
def test_quantize_high_bits_keeps_one_norm(seed, aleph):
    rep = _fitted_rep_of_instance(seed)
    q = thc.quantize(rep, beth=aleph, aleph=aleph)
    lam_z = float(np.sum(np.abs(rep.zeta)))
    assert not q.warning
    assert abs(float(np.sum(np.abs(q.zeta_q))) - lam_z) <= 1e-12 * lam_z


class _Plateaus:
    """Direct evaluation of quantize's zeta rounding at any dither x.

    m = |zeta| / unit rounds to floor(m) below its break point 1/2 - frac(m)
    and to floor(m) + 1 above it, which is round(m + x) on (-1/2, 1/2) in
    exact arithmetic; mids holds the midpoint of every plateau between the
    distinct break points.
    """

    def __init__(self, rep, aleph):
        n, M = rep.chi.shape
        self.rep = rep
        self.lam_z = float(np.sum(np.abs(rep.zeta)))
        u_off = self.lam_z / ((n + M * (M + 1) // 2) * 2.0**aleph)
        self.units = np.where(np.eye(M, dtype=bool), 2.0 * u_off, u_off)
        self.mags = np.abs(rep.zeta) / self.units
        self.breaks = 0.5 - (self.mags - np.floor(self.mags))
        edges = np.unique(np.concatenate([[-0.5, 0.5], self.breaks.ravel()]))
        edges = edges[edges <= 0.5]
        self.mids = 0.5 * (edges[:-1] + edges[1:])
        self.tol = max(0.5 * u_off, M * M * math.ulp(self.lam_z))

    def gap(self, x):
        """Rounded 1-norm minus sum |zeta| at dither x."""
        steps = np.floor(self.mags) + (self.breaks < x)
        return float(np.sum(self.units * steps * (self.rep.zeta != 0.0))) - self.lam_z

    def best(self):
        return min(abs(self.gap(mid)) for mid in self.mids)


def test_quantize_dither_is_exact_plateau_solve():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n, M = int(rng.integers(2, 7)), int(rng.integers(2, 13))
        chi, zeta = _random_factors(n, M, int(rng.integers(1 << 30)))
        rep = THCRep(chi=chi, zeta=zeta * rng.uniform(0.1, 10.0))
        for aleph in (4, 8, 10, 16, 30):
            q = thc.quantize(rep, beth=16, aleph=aleph)
            again = thc.quantize(rep, beth=16, aleph=aleph)
            assert q.x == again.x and np.array_equal(q.zeta_q, again.zeta_q)
            assert not q.warning
            assert abs(q.x) <= 0.5
            plateaus = _Plateaus(rep, aleph)
            assert np.all(np.abs(q.zeta_q - rep.zeta)
                          <= plateaus.units * (1.0 + 1e-9))
            # No plateau does better, up to the float resolution of the sum.
            slack = M * M * math.ulp(plateaus.lam_z)
            assert abs(plateaus.gap(q.x)) <= plateaus.best() + slack


def test_quantize_dither_with_shared_break_points():
    # Repeated |zeta| values share break points, so some plateaus are empty
    # and the 1-norm can jump past sum |zeta|.  x must still lie inside a
    # plateau, and warning must mean that no plateau meets the tolerance.
    rng = np.random.default_rng(1)
    warned = 0
    for _ in range(300):
        n, M = int(rng.integers(2, 7)), int(rng.integers(2, 13))
        chi = rng.normal(size=(n, M))
        chi /= np.linalg.norm(chi, axis=0)
        zeta = 0.25 * rng.integers(-3, 4, size=(M, M))
        rep = THCRep(chi=chi, zeta=zeta + zeta.T)
        for aleph in (2, 3, 4, 10):
            q = thc.quantize(rep, beth=16, aleph=aleph)
            plateaus = _Plateaus(rep, aleph)
            if q.warning:
                warned += 1
                assert q.x == 0.0 and plateaus.best() > plateaus.tol
            else:
                assert np.all(plateaus.breaks != q.x)
                assert abs(plateaus.gap(q.x)) <= plateaus.tol
    assert 0 < warned < 1200
