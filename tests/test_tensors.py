import random
import warnings

import numpy as np
import pytest

from ftqc import tensors


# The 8-fold images of (pq|rs), written out here so the brute-force
# references do not depend on the code under test.
def _images(p, q, r, s):
    return {
        (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
    }


def _dense_unique_count(n):
    """Symmetry-unique two-body entries of a dense n-orbital tensor."""
    return n * (n + 1) * (n * n + n + 2) // 8


def test_orbit_helpers():
    for n in range(1, 8):
        orbits = tensors.unique_orbits(n)
        assert orbits.shape == (_dense_unique_count(n), 4)
        assert len({tuple(row) for row in orbits.tolist()}) == len(orbits)
        # every row is its orbit's smallest image, so canonical
        assert all(tuple(row) == min(_images(*row)) for row in orbits.tolist())
        keys = tensors.orbit_keys(orbits, n)
        assert np.array_equal(keys, orbits @ n ** np.arange(3, -1, -1))
    # scattering gives each orbit size from any of its images
    for row, size in [((0, 1, 2, 3), 8), ((0, 0, 1, 1), 2), ((0, 1, 0, 1), 4),
                      ((0, 0, 0, 0), 1), ((3, 2, 1, 0), 8)]:
        V = tensors.scatter_eightfold(4, np.array([row]), np.array([1.5]))
        assert np.count_nonzero(V) == size
        assert all(V[img] == 1.5 for img in _images(*row))
        keys = tensors.orbit_keys(np.array(sorted(_images(*row))), 4)
        assert np.all(keys == keys[0])
    # scattering the canonical values of a symmetric V rebuilds it bitwise
    V = tensors.random_instance(5, seed=4).V
    orbits = tensors.unique_orbits(5)
    assert np.array_equal(
        tensors.scatter_eightfold(5, orbits, V[tuple(orbits.T)]), V)


def test_symmetrize_idempotent():
    rng = np.random.default_rng(0)
    V = rng.normal(size=(4, 4, 4, 4))
    S = tensors.symmetrize_eightfold(V)
    assert np.allclose(tensors.symmetrize_eightfold(S), S, atol=1e-14)
    # symmetric output takes the same value on every image of every entry
    for p, q, r, s in [(0, 1, 2, 3), (1, 1, 2, 0), (3, 2, 1, 0)]:
        vals = {S[i] for i in _images(p, q, r, s)}
        assert max(vals) - min(vals) < 1e-14


def test_integral_data_validation():
    n = 3
    h = np.eye(n)
    V = tensors.symmetrize_eightfold(np.random.default_rng(1).normal(size=(n,) * 4))
    tensors.IntegralData(h=h, V=V)

    with pytest.raises(ValueError, match="h must be square"):
        tensors.IntegralData(h=np.zeros((2, 3)), V=V)
    with pytest.raises(ValueError, match="must have shape"):
        tensors.IntegralData(h=h, V=np.zeros((2, 2, 2, 2)))
    bad_h = h.copy()
    bad_h[0, 1] = 0.5
    with pytest.raises(ValueError, match="h is not symmetric"):
        tensors.IntegralData(h=bad_h, V=V)
    bad_V = V.copy()
    bad_V[0, 1, 2, 0] += 1e-6
    with pytest.raises(ValueError, match="8-fold permutational symmetry"):
        tensors.IntegralData(h=h, V=bad_V)
    nan_V = V.copy()
    nan_V[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="V must be finite"):
        tensors.IntegralData(h=h, V=nan_V)
    with pytest.raises(ValueError, match="h must be finite"):
        tensors.IntegralData(h=np.full((n, n), np.inf), V=V)
    with pytest.raises(ValueError, match="e_core must be finite"):
        tensors.IntegralData(h=h, V=V, e_core=np.nan)


def test_compute_T_matches_loops():
    data = tensors.random_instance(4, seed=3)
    kin = tensors.compute_T(data)
    n = data.n_spatial
    T = np.zeros((n, n))
    Tp = np.zeros((n, n))
    for p in range(n):
        for q in range(n):
            T[p, q] = data.h[p, q] - 0.5 * sum(data.V[p, r, r, q] for r in range(n))
            Tp[p, q] = T[p, q] + sum(data.V[p, q, r, r] for r in range(n))
    assert np.allclose(kin.T, T, atol=1e-13)
    assert np.allclose(kin.Tprime, Tp, atol=1e-13)
    assert np.allclose(kin.T, kin.T.T, atol=1e-12)
    assert np.allclose(kin.Tprime, kin.Tprime.T, atol=1e-12)


def test_compute_T_permutation_covariant():
    data = tensors.random_instance(4, seed=9)
    perm = np.array([2, 0, 3, 1])
    hp = data.h[np.ix_(perm, perm)]
    Vp = data.V[np.ix_(perm, perm, perm, perm)]
    permuted = tensors.IntegralData(h=hp, V=Vp, e_core=data.e_core)
    kin = tensors.compute_T(data)
    kinp = tensors.compute_T(permuted)
    assert np.allclose(kinp.T, kin.T[np.ix_(perm, perm)], atol=1e-13)
    assert np.allclose(kinp.Tprime, kin.Tprime[np.ix_(perm, perm)], atol=1e-13)


def test_count_unique_dense_and_zero():
    rng = np.random.default_rng(5)
    # dense tensor with no accidental zeros hits the closed form
    V = tensors.symmetrize_eightfold(rng.uniform(1.0, 2.0, size=(2, 2, 2, 2)))
    assert tensors.count_unique_above(V, 0.0) == 6
    assert _dense_unique_count(2) == 6
    assert tensors.count_unique_above(np.zeros((3, 3, 3, 3)), 0.0) == 0
    for n in range(1, 7):
        W = tensors.symmetrize_eightfold(rng.uniform(1.0, 2.0, size=(n,) * 4))
        assert tensors.count_unique_above(W, 0.0) == _dense_unique_count(n)


def test_count_unique_matches_brute_force():
    V = tensors.random_instance(4, seed=11).V
    threshold = 0.1
    seen = set()
    count = 0
    n = 4
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    key = min(_images(p, q, r, s))
                    if key in seen:
                        continue
                    seen.add(key)
                    if abs(V[p, q, r, s]) > threshold:
                        count += 1
    assert tensors.count_unique_above(V, threshold) == count


def test_count_unique_strict_and_monotone():
    V = tensors.random_instance(3, seed=2).V
    # strict comparison: an entry exactly at the threshold is dropped
    t = abs(V[0, 1, 2, 0])
    below = tensors.count_unique_above(V, t - 1e-12)
    at = tensors.count_unique_above(V, t)
    assert at < below
    thresholds = np.linspace(0.0, np.max(np.abs(V)), 25)
    counts = [tensors.count_unique_above(V, t) for t in thresholds]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0


def test_random_instance_deterministic_and_psd():
    a = tensors.random_instance(3, seed=42)
    b = tensors.random_instance(3, seed=42)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.V, b.V)
    assert a.e_core == b.e_core
    n = a.n_spatial
    w = np.linalg.eigvalsh(a.V.reshape(n * n, n * n))
    assert w.min() > -1e-10 * max(1.0, w.max())


def test_fcidump_round_trip_bitwise(small_data, fcidump_file):
    back = tensors.load_fcidump(fcidump_file)
    assert np.array_equal(back.h, small_data.h)
    assert np.array_equal(back.V, small_data.V)
    assert back.e_core == small_data.e_core


def test_write_fcidump_text_pinned(tmp_path):
    # exact text, record order included, for a two-orbital instance
    path = tmp_path / "fcid"
    tensors.write_fcidump(tensors.random_instance(2, 5, rank=2), path, nelec=2)
    assert path.read_text() == (
        "&FCI NORB=2,NELEC=2,MS2=0,\n"
        "&END\n"
        "0.16839237288446782 1 1 1 1\n"
        "0.08001483952865616 1 1 1 2\n"
        "0.00010743574398730527 1 1 2 2\n"
        "0.5972349461060485 1 2 1 2\n"
        "-0.5807554517943375 1 2 2 2\n"
        "0.6032324049245137 2 2 2 2\n"
        "0.27276877584472176 1 1 0 0\n"
        "-1.0957969347334302 1 2 0 0\n"
        "1.6000190889991115 2 2 0 0\n"
        "0.2028824405086084 0 0 0 0\n"
    )


def test_fcidump_fortran_exponents(tmp_path):
    path = tmp_path / "fcid"
    path.write_text(
        "&FCI NORB=1, NELEC=2, MS2=0,\n"
        "&END\n"
        " 1.5D-1 1 1 1 1\n"
        " 2.0d0 1 1 0 0\n"
        " -4.25D+0 0 0 0 0\n"
    )
    data = tensors.load_fcidump(path)
    assert data.V[0, 0, 0, 0] == 0.15
    assert data.h[0, 0] == 2.0
    assert data.e_core == -4.25


def test_fcidump_header_variants(tmp_path):
    # slash terminator and lowercase keys are accepted
    path = tmp_path / "fcid"
    path.write_text("&FCI norb=2, nelec=2\n/\n 1.0 1 1 0 0\n 1.0 2 2 0 0\n")
    data = tensors.load_fcidump(path)
    assert data.n_spatial == 2
    assert data.h[0, 0] == 1.0 and data.h[1, 1] == 1.0


def test_fcidump_without_records(tmp_path):
    path = tmp_path / "fcid"
    for body in ("", "\n", " \t\n"):
        path.write_text("&FCI NORB=2\n&END\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt's "no data" stays quiet
            data = tensors.load_fcidump(path)
        assert not data.h.any() and not data.V.any() and data.e_core == 0.0


def test_fcidump_populates_all_eight_images(tmp_path):
    path = tmp_path / "fcid"
    path.write_text("&FCI NORB=3,\n&END\n 0.7 1 2 3 3\n 0.3 2 3 0 0\n 0.2 0 0 0 0\n")
    data = tensors.load_fcidump(path)
    for idx in _images(0, 1, 2, 2):
        assert data.V[idx] == 0.7
    assert data.h[1, 2] == data.h[2, 1] == 0.3
    assert np.count_nonzero(data.h) == 2
    assert data.e_core == 0.2
    assert np.count_nonzero(data.V) == len(_images(0, 1, 2, 2))


def test_fcidump_non_canonical_record_fills_all_images(tmp_path):
    path = tmp_path / "fcid"
    path.write_text("&FCI NORB=3,\n&END\n 0.7 2 1 3 3\n 0.25 3 1 2 2\n")
    data = tensors.load_fcidump(path)
    for idx in _images(0, 1, 2, 2):
        assert data.V[idx] == 0.7
    for idx in _images(2, 0, 1, 1):
        assert data.V[idx] == 0.25
    assert np.count_nonzero(data.V) == (
        len(_images(0, 1, 2, 2)) + len(_images(2, 0, 1, 1)))


@pytest.mark.parametrize(
    "body,message",
    [
        ("not a header\n", "missing &FCI header on line 1"),
        ("&FCI NORB=2\n", "header never terminated with &END or /"),
        ("&FCI NELEC=2\n&END\n", "header does not define NORB"),
        ("&FCI NORB=0\n&END\n", "NORB must be positive, got 0"),
        ("&FCI NORB=2\n&END\n 1.0 1 1\n", "line 3: expected 'value i j k l'"),
        ("&FCI NORB=2\n&END\n x 1 1 0 0\n", "line 3: "),
        ("&FCI NORB=2\n&END\n 1.0 3 1 0 0\n", "line 3: orbital index 3 outside 1..2"),
        ("&FCI NORB=2\n&END\n 1.0 0 0 0 0\n 2.0 0 0 0 0\n", "line 4: conflicting core-energy records"),
        ("&FCI NORB=2\n&END\n 1.0 1 0 0 0\n", "line 3: malformed one-body record"),
        ("&FCI NORB=2\n&END\n 1.0 1 2 0 0\n 2.0 2 1 0 0\n", "line 4: conflicting one-body records"),
        ("&FCI NORB=2\n&END\n 1.0 1 0 2 0\n", "line 3: mixed zero and nonzero indices"),
        ("&FCI NORB=2\n&END\n 1.0 1 2 1 1\n 2.0 2 1 1 1\n", "line 4: conflicting two-body records"),
        # the earliest faulty line wins, across fault and record kinds
        ("&FCI NORB=2\n&END\n 1.0 1 2 1 1\n 2.0 1 1 2 1\n x 1 1 0 0\n", "line 4: conflicting two-body records"),
        ("&FCI NORB=2\n&END\n 1.0 1 2 1 1\n x 1 1 0 0\n 2.0 1 1 2 1\n", "line 4: could not convert"),
        ("&FCI NORB=2\n&END\n 1.0 1 2 1 1\n 1.0 1 1 0 0\n 2.0 1 1 0 0\n 2.0 2 1 1 1\n", "line 5: conflicting one-body records"),
    ],
)
def test_fcidump_rejects_malformed(tmp_path, body, message):
    path = tmp_path / "fcid"
    path.write_text(body)
    with pytest.raises(ValueError) as err:
        tensors.load_fcidump(path)
    assert message in str(err.value)


def test_fcidump_duplicate_within_tolerance(tmp_path):
    path = tmp_path / "fcid"
    path.write_text("&FCI NORB=2\n&END\n 1.0 1 2 1 1\n 1.0 2 1 1 1\n")
    data = tensors.load_fcidump(path)
    assert data.V[0, 1, 0, 0] == 1.0


@pytest.mark.parametrize("first,second", [("1.0", "1.00000000005"),
                                          ("1.00000000005", "1.0")])
def test_fcidump_duplicate_keeps_later_value(tmp_path, first, second):
    # the same orbit, one-body pair and core energy given twice within 1e-10
    path = tmp_path / "fcid"
    path.write_text(f"&FCI NORB=2\n&END\n {first} 1 2 1 1\n {first} 2 1 0 0\n"
                    f" {first} 0 0 0 0\n {second} 1 1 2 1\n {second} 1 2 0 0\n"
                    f" {second} 0 0 0 0\n")
    data = tensors.load_fcidump(path)
    later = float(second)
    assert all(data.V[idx] == later for idx in _images(0, 1, 0, 0))
    assert data.h[0, 1] == data.h[1, 0] == later
    assert data.e_core == later


def test_symmetry_check_matches_whole_tensor_sum():
    # the slab-wise sum keeps the order of the whole-tensor one, bitwise
    rng = np.random.default_rng(4)
    V = tensors.random_instance(4, seed=2).V + 1e-9 * rng.normal(size=(4,) * 4)
    total = V
    for perm in tensors.EIGHTFOLD_PERMUTATIONS[1:]:
        total = total + V.transpose(perm)
    assert np.array_equal(tensors.symmetrize_eightfold(V), total / 8.0)
    dev = np.max(np.abs(V - total / 8.0))
    with pytest.raises(ValueError, match=f"max deviation {dev:.3e}"):
        tensors.IntegralData(h=np.eye(4), V=V)


def _random_fcidump(rng: random.Random):
    """A small FCIDUMP in the spellings files use, and whether it may hold a
    malformed line (a well-formed one may still hold conflicting records).
    Odd tokens are rare in a file, so most faulty files hold one fault."""
    n = rng.randint(1, 4)
    odd = rng.choice([0.0, 0.0, 0.03, 0.1])

    def value():
        if rng.random() < odd:
            return rng.choice(["1_0", "x", "#"])
        v = float(rng.choice(["0.5", "-0.25", "1.0", "0.125", "1.00000000005"]))
        return rng.choice([repr(v), f"{v:.3e}", f"{v:.3E}", f"{v:.3e}".replace("e", "D"),
                           f"{v:.3e}".replace("e", "d"), "5.", ".5"])

    def index():
        i = str(rng.randint(1, n))
        if rng.random() < odd:
            return rng.choice(["1.0", "-1", str(n + 1), "2147483648", "99999999999",
                               "1_0", "1d0"])
        return rng.choice([i, i, "0" + i, "+" + i])

    lines = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.45:
            idx = [index() for _ in range(4)]
        elif kind < 0.7:
            idx = [index(), index(), "0", "0"]
        elif kind < 0.8 or not odd:
            idx = ["0"] * 4
        else:  # any zero pattern, mixed ones included
            idx = [index() if rng.random() < 0.5 else "0" for _ in range(4)]
        tokens = [value()] + idx
        if rng.random() < odd:  # 4 or 6 tokens
            tokens = tokens[:4] if rng.random() < 0.5 else tokens + ["1"]
        lines.append(rng.choice(["", " "]) + rng.choice([" ", "\t", "  "]).join(tokens))
        if rng.random() < 0.3:  # a duplicate, the same or conflicting
            i, j, k, l = (rng.randint(1, n) for _ in range(4))
            lines += [f"0.5 {i} {j} {k} {l}", f"{rng.choice(['0.5'] * 3 + ['0.75'])} {k} {l} {j} {i}"]
        if rng.random() < 0.08:
            lines.append(rng.choice(["", "  ", "\t"] + ["# comment"] * (odd > 0)))
    header = rng.choice([f"&FCI NORB={n},NELEC=2,MS2=0,\n&END", f"&FCI norb={n}\n/"])
    return rng.choice(["\n", "\r\n"]).join([*header.split("\n"), *lines, ""]), odd > 0


def _outcome(path):
    try:
        data = tensors.load_fcidump(path)
    except ValueError as exc:
        return str(exc)
    return data.h.tobytes(), data.V.tobytes(), data.e_core


def test_fcidump_bulk_parse_matches_per_line_reference(tmp_path, monkeypatch):
    rng = random.Random(2024)
    path = tmp_path / "fcid"
    bulk = outcomes = 0
    # every zero pattern of one record, then seeded random files
    patterns = [" ".join("0" if mask >> b & 1 else "2" for b in range(4))
                for mask in range(16)]
    files = [(f"&FCI NORB=2\n&END\n0.5 {p}\n", True) for p in patterns]
    for text, faulty in files + [_random_fcidump(rng) for _ in range(300)]:
        with open(path, "w", newline="") as fh:
            fh.write(text)
        accepted = tensors._load_records(path) is not None
        assert accepted or faulty  # every well-formed spelling takes the bulk path
        bulk += accepted
        fast = _outcome(path)
        with monkeypatch.context() as m:
            m.setattr(tensors, "_load_records", lambda path: None)
            assert _outcome(path) == fast
        outcomes += isinstance(fast, tuple)
    # both paths and both outcomes are exercised
    assert 60 < bulk < 240 and 60 < outcomes < 240
