import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from ftqc import factorizations as fz
from ftqc import tensors, thc, verify

DATA = Path(__file__).parent / "data"


def test_single_orbital_golden_spectrum():
    payload = json.loads((DATA / "fock_single_orbital.json").read_text())
    T = np.array(payload["one_body"])
    v = payload["two_body_element"]
    V = np.full((1, 1, 1, 1), v)
    H = verify.build_exact_hamiltonian(T, V, 2)
    energies = np.linalg.eigvalsh(H)
    assert np.allclose(sorted(energies), payload["energies"], atol=1e-12)


def test_hamiltonian_is_symmetric():
    data = tensors.random_instance(3, seed=0)
    kin = tensors.compute_T(data)
    H = verify.build_exact_hamiltonian(kin.T, data.V, 6)
    assert np.allclose(H, H.T, atol=1e-12)


def test_single_particle_block_matches_one_body():
    # with V = 0 the single-particle sector reproduces eig(A), spin-doubled
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    A = (A + A.T) / 2.0
    H = verify.build_exact_hamiltonian(A, np.zeros((3,) * 4), 6)
    pops = np.array([bin(i).count("1") for i in range(2**6)])
    block = H[np.ix_(pops == 1, pops == 1)]
    got = np.sort(np.linalg.eigvalsh(block))
    want = np.sort(np.concatenate([np.linalg.eigvalsh(A)] * 2))
    assert np.allclose(got, want, atol=1e-12)


def test_diagonal_one_body_gives_subset_sums():
    diag = np.array([0.3, -1.1, 2.4])
    H = verify.build_exact_hamiltonian(np.diag(diag), np.zeros((3,) * 4), 6)
    spin_diag = np.concatenate([diag, diag])
    want = sorted(
        sum(c) for r in range(7) for c in itertools.combinations(spin_diag, r)
    )
    got = sorted(np.linalg.eigvalsh(H))
    assert np.allclose(got, want, atol=1e-12)


def test_particle_number_blocks_exact():
    data = tensors.random_instance(2, seed=2)
    kin = tensors.compute_T(data)
    H = verify.build_exact_hamiltonian(kin.T, data.V, 4)
    pops = np.array([bin(i).count("1") for i in range(2**4)])
    for na in range(5):
        for nb in range(5):
            if na != nb:
                block = H[np.ix_(pops == na, pops == nb)]
                assert np.all(block == 0.0)


def test_hamiltonian_linear_in_inputs():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2))
    A = (A + A.T) / 2.0
    V = tensors.random_instance(2, seed=4).V
    Ha = verify.build_exact_hamiltonian(A, np.zeros_like(V), 4)
    Hv = verify.build_exact_hamiltonian(np.zeros_like(A), V, 4)
    Hsum = verify.build_exact_hamiltonian(A, V, 4)
    assert np.allclose(Ha + Hv, Hsum, atol=1e-12)
    H2 = verify.build_exact_hamiltonian(2.0 * A, 2.0 * V, 4)
    assert np.allclose(H2, 2.0 * Hsum, atol=1e-12)


def test_hamiltonian_size_guard():
    with pytest.raises(ValueError, match="2\\*n_spatial"):
        verify.lambda_bounds_spectrum(
            fz.single_factorize(tensors.random_instance(5, seed=0)),
            tensors.random_instance(5, seed=0),
        )


def test_lambda_bounds_all_representations():
    for n, seed in [(2, 0), (3, 1)]:
        data = tensors.random_instance(n, seed=seed)
        kin = tensors.compute_T(data)
        sparse, _ = fz.sparse_truncate(data, kin.Tprime, 0.0)
        sf = fz.single_factorize(data)
        df = fz.double_factorize(sf, 1e-8)
        reps = [sparse, sf, df]
        fit = thc.thc_fit(data.V, n * n, config=thc.FitConfig(n_starts=3, seed=seed))
        reps.append(fit.rep)
        for rep in reps:
            report = verify.lambda_bounds_spectrum(rep, data)
            assert report["ok"], report
            assert report["margin"] >= -1e-9
            assert report["lambda"] == pytest.approx(
                report["lambda_one"] + report["lambda_two"], rel=1e-12
            )
            assert report["max_abs_shifted"] <= report["lambda"] + 1e-9


def test_lambda_bound_tight_for_planted_thc():
    rng = np.random.default_rng(5)
    chi = rng.normal(size=(2, 4))
    chi /= np.linalg.norm(chi, axis=0)
    zeta = rng.normal(size=(4, 4))
    zeta = (zeta + zeta.T) / 2.0
    rep = fz.THCRep(chi=chi, zeta=zeta)
    V = fz.thc_reconstruct(rep)
    V = tensors.symmetrize_eightfold(V)
    h = rng.normal(size=(2, 2))
    data = tensors.IntegralData(h=(h + h.T) / 2.0, V=V)
    report = verify.lambda_bounds_spectrum(rep, data)
    assert report["ok"]


def test_lambda_bound_zero_operator():
    # T' = 0 and zeta = 0 make both sides vanish
    n = 2
    data = tensors.IntegralData(h=np.zeros((n, n)), V=np.zeros((n,) * 4))
    rep = fz.THCRep(chi=np.eye(n), zeta=np.zeros((n, n)))
    report = verify.lambda_bounds_spectrum(rep, data)
    assert report["lambda"] == 0.0
    assert report["max_abs_shifted"] <= 1e-12
    assert report["ok"]


def test_contiguous_schedule_matches_closed_form():
    for n in range(1, 11):
        count, correct = verify.simulate_contiguous_schedule(n)
        assert correct
        assert count == n * n + n - 1
    with pytest.raises(ValueError, match="at least one bit"):
        verify.simulate_contiguous_schedule(0)


def test_contiguous_schedule_agrees_with_cost_formula():
    from ftqc.costs import contiguous_register_cost

    for n in range(1, 11):
        count, _ = verify.simulate_contiguous_schedule(n)
        assert count == contiguous_register_cost(n)
