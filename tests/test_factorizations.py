import json

import numpy as np
import pytest

from ftqc import factorizations as fz
from ftqc import tensors


def _instance(n, seed):
    data = tensors.random_instance(n, seed=seed)
    return data, tensors.compute_T(data)


def test_sparse_zero_threshold_round_trip():
    data, kin = _instance(3, 0)
    rep, lam = fz.sparse_truncate(data, kin.Tprime, 0.0)
    assert np.allclose(rep.dense(), data.V, atol=1e-14)
    n = 3
    assert rep.d == tensors.count_unique_above(data.V, 0.0) + n * (n + 1) // 2
    assert lam.method == "sparse"
    assert lam.total == lam.lambda_one + lam.lambda_two


def test_sparse_strict_threshold():
    data, kin = _instance(3, 1)
    t = abs(data.V[0, 1, 2, 0])
    rep, _ = fz.sparse_truncate(data, kin.Tprime, t)
    # the entry sitting exactly at the threshold is dropped
    assert rep.dense()[0, 1, 2, 0] == 0.0
    assert np.all(np.abs(rep.values) > t)


def test_sparse_entry_canonical_order():
    data, kin = _instance(4, 2)
    rep, _ = fz.sparse_truncate(data, kin.Tprime, 0.2)
    assert rep.indices.shape == (rep.values.size, 4)
    for p, q, r, s in rep.indices.tolist():
        assert p <= q and r <= s and (p, q) <= (r, s)


def test_sparse_rep_rejects_entry_at_threshold():
    with pytest.raises(ValueError, match="not above threshold"):
        fz.SparseRep(n_spatial=2, indices=[[0, 0, 0, 0]], values=[0.1], threshold=0.1)


@pytest.mark.parametrize("indices, values, message", [
    ([[0, 0, 0]], [0.5], "sparse representation: indices of shape"),
    ([[0, 0, 0, 0]], [[0.5]], "sparse representation: indices of shape"),
    ([[0, 1, 1, 2]], [0.5], "sparse representation: orbital index outside 0..1"),
    ([[0, 1, 1, -1]], [0.5], "sparse representation: orbital index outside 0..1"),
    ([[1, 0, 0, 0]], [0.5], "sparse representation: non-canonical entry row"),
    ([[0, 0, 0, 1], [0, 0, 0, 1]], [0.5, 0.5], "sparse representation: repeated orbit"),
])
def test_sparse_rep_rejects_malformed_rows(indices, values, message):
    with pytest.raises(ValueError, match=message):
        fz.SparseRep(n_spatial=2, indices=indices, values=values, threshold=0.1)


def test_sparse_rep_d_counts_values():
    rep = fz.SparseRep(n_spatial=3, indices=[[0, 0, 1, 2], [0, 1, 0, 1]],
                       values=[0.5, -0.25], threshold=0.1)
    assert rep.d == 2 + 6
    payload = rep.to_dict()
    assert payload["entries"] == [[0, 0, 1, 2, 0.5], [0, 1, 0, 1, -0.25]]
    with pytest.raises(ValueError, match="sparse representation: d = 9 but"):
        fz.SparseRep.from_dict({**payload, "d": 9})


def test_sparse_monotone_in_threshold():
    data, kin = _instance(4, 3)
    thresholds = np.linspace(0.0, float(np.max(np.abs(data.V))), 20)
    ds, lams = [], []
    for t in thresholds:
        rep, lam = fz.sparse_truncate(data, kin.Tprime, float(t))
        ds.append(rep.d)
        lams.append(lam.lambda_two)
    assert all(a >= b for a, b in zip(ds, ds[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))


def test_lambda_sparse_matches_loops():
    data, kin = _instance(3, 4)
    rep, lam = fz.sparse_truncate(data, kin.Tprime, 0.1)
    n = 3
    lam_one = sum(abs(kin.Tprime[p, q]) for p in range(n) for q in range(n))
    Vt = rep.dense()
    lam_two = 0.5 * sum(
        abs(Vt[p, q, r, s])
        for p in range(n) for q in range(n) for r in range(n) for s in range(n)
    )
    assert lam.lambda_one == pytest.approx(lam_one, rel=1e-13)
    assert lam.lambda_two == pytest.approx(lam_two, rel=1e-13)


def test_single_factorize_reconstructs():
    data, _ = _instance(3, 5)
    rep = fz.single_factorize(data)
    assert np.max(np.abs(rep.dense() - data.V)) < 1e-8
    for W in rep.Ws:
        assert np.allclose(W, W.T, atol=1e-12)
    assert rep.L <= 3 * 3


def test_single_factorize_rejects_indefinite():
    n = 2
    V = np.zeros((n,) * 4)
    V[0, 0, 1, 1] = V[1, 1, 0, 0] = 1.0  # flattening has a -1 eigenvalue
    data = tensors.IntegralData(h=np.zeros((n, n)), V=V)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        fz.single_factorize(data)


def test_single_factorize_truncation_error_monotone():
    data, _ = _instance(4, 6)
    errs = []
    for L in range(1, 17):
        rep = fz.single_factorize(data, target_L=L)
        assert rep.L <= L
        errs.append(float(np.max(np.abs(rep.dense() - data.V))))
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-8


def test_single_factorize_tolerance_stop():
    data, _ = _instance(3, 7)
    loose = fz.single_factorize(data, tolerance=1.0)
    tight = fz.single_factorize(data, tolerance=1e-12)
    assert loose.L <= tight.L
    # with both stops set, the first one reached ends the expansion; a set
    # target_L made tolerance ignored
    assert 1 < loose.L
    for target in (loose.L - 1, loose.L + 2):
        both = fz.single_factorize(data, target_L=target, tolerance=1.0)
        assert both.L == min(target, loose.L)


def test_lambda_sf_matches_loops():
    data, kin = _instance(3, 8)
    rep = fz.single_factorize(data)
    lam = rep.lambda_report(kin.Tprime)
    lam_two = 0.25 * sum(np.sum(np.abs(W)) ** 2 for W in rep.Ws)
    assert lam.lambda_one == pytest.approx(np.sum(np.abs(kin.Tprime)), rel=1e-13)
    assert lam.lambda_two == pytest.approx(lam_two, rel=1e-13)


def test_double_factorize_zero_threshold_matches_sf():
    data, _ = _instance(3, 9)
    sf = fz.single_factorize(data)
    df = fz.double_factorize(sf, 0.0)
    assert df.L == sf.L
    assert np.max(np.abs(df.dense() - sf.dense())) < 1e-10
    for U in df.Us:
        assert np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-10)


def test_double_factorize_keep_rule():
    data, _ = _instance(4, 10)
    sf = fz.single_factorize(data)
    threshold = 0.05
    df = fz.double_factorize(sf, threshold)
    for l, f in enumerate(df.fs):
        # pre-truncation weight comes from the untruncated W_l spectrum
        weight = float(np.sum(np.abs(np.linalg.eigvalsh(sf.Ws[l]))))
        assert np.all(np.abs(f) * weight >= threshold)
        assert np.all(np.abs(f[:-1]) >= np.abs(f[1:]) - 1e-15)


def test_double_factorize_stops_at_empty_block():
    data, _ = _instance(3, 11)
    sf = fz.single_factorize(data)
    weights = [float(np.sum(np.abs(np.linalg.eigvalsh(W)))) for W in sf.Ws]
    # pick a threshold that kills some later vector entirely
    t = max(np.max(np.abs(np.linalg.eigvalsh(W))) * w for W, w in zip(sf.Ws, weights)) * 0.5
    df = fz.double_factorize(sf, float(t))
    assert df.L < sf.L
    for f in df.fs:
        assert len(f) > 0


def test_double_factorize_monotone_in_threshold():
    data, _ = _instance(4, 12)
    sf = fz.single_factorize(data)
    kin = tensors.compute_T(data)
    xis, lams = [], []
    for t in np.linspace(0.0, 0.3, 16):
        df = fz.double_factorize(sf, float(t))
        xis.append(df.Xi_total)
        lams.append(df.lambda_report(kin.Tprime).lambda_two)
    assert all(a >= b for a, b in zip(xis, xis[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))


def test_lambda_df_matches_loops():
    data, kin = _instance(3, 13)
    df = fz.double_factorize(fz.single_factorize(data), 1e-8)
    lam = df.lambda_report(kin.Tprime)
    lam_one = sum(abs(x) for x in np.linalg.eigvalsh(kin.Tprime))
    lam_two = 0.25 * sum(sum(abs(x) for x in f) ** 2 for f in df.fs)
    assert lam.lambda_one == pytest.approx(lam_one, rel=1e-13)
    assert lam.lambda_two == pytest.approx(lam_two, rel=1e-13)
    assert lam.provenance["Xi_total"] == df.Xi_total


def test_thc_rep_validation():
    chi = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    zeta = np.array([[1.0, 0.2], [0.2, -0.5]])
    rep = fz.THCRep(chi=chi, zeta=zeta)
    assert rep.M == 2 and rep.n_spatial == 3
    with pytest.raises(ValueError, match="unit 2-norm"):
        fz.THCRep(chi=2.0 * chi, zeta=zeta)
    with pytest.raises(ValueError, match="zeta is not symmetric"):
        fz.THCRep(chi=chi, zeta=np.array([[1.0, 0.2], [0.3, -0.5]]))
    with pytest.raises(ValueError, match="zeta must have shape"):
        fz.THCRep(chi=chi, zeta=np.eye(3))


def test_thc_reconstruct_matches_loops():
    rng = np.random.default_rng(14)
    chi = rng.normal(size=(3, 4))
    chi /= np.linalg.norm(chi, axis=0)
    zeta = rng.normal(size=(4, 4))
    zeta = (zeta + zeta.T) / 2.0
    rep = fz.THCRep(chi=chi, zeta=zeta)
    G = rep.dense()
    n, M = 3, 4
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    ref = sum(
                        chi[p, m] * chi[q, m] * zeta[m, v] * chi[r, v] * chi[s, v]
                        for m in range(M) for v in range(M)
                    )
                    assert G[p, q, r, s] == pytest.approx(ref, abs=1e-12)


def test_lambda_thc_and_naive_bound():
    data, kin = _instance(3, 15)
    rng = np.random.default_rng(16)
    chi = rng.normal(size=(3, 5))
    chi /= np.linalg.norm(chi, axis=0)
    zeta = rng.normal(size=(5, 5))
    zeta = (zeta + zeta.T) / 2.0
    rep = fz.THCRep(chi=chi, zeta=zeta)
    lam = rep.lambda_report(kin.Tprime)
    assert lam.lambda_one == pytest.approx(
        float(np.sum(np.abs(np.linalg.eigvalsh(kin.Tprime)))), rel=1e-13
    )
    assert lam.lambda_two == pytest.approx(0.5 * float(np.sum(np.abs(zeta))), rel=1e-13)


def _sparse_terms(data, kin):
    """A sparse rep with the tensor its entries leave, B = sum_r V_pqrr, the
    traced sum sum_pr V_pprr and no centring."""
    threshold = 0.05
    rep, _ = fz.sparse_truncate(data, kin.Tprime, threshold)
    V = np.where(np.abs(data.V) > threshold, data.V, 0.0)
    n = data.n_spatial
    B = np.array([[sum(V[p, q, r, r] for r in range(n)) for q in range(n)]
                  for p in range(n)])
    return rep, V, B, float(sum(B[p, p] for p in range(n))), 0.0


def _squared_terms(rep, Ws):
    """V = sum W (x) W, B = sum tr(W) W, the traced sum sum tr(W)^2 and the
    centring (1/4) sum_l (1-norm of W_l)^2, given each W_l's norm."""
    V = sum(np.einsum("pq,rs->pqrs", W, W) for W, _ in Ws)
    B = sum(np.trace(W) * W for W, _ in Ws)
    traced = sum(np.trace(W) ** 2 for W, _ in Ws)
    return rep, V, B, traced, 0.25 * sum(norm ** 2 for _, norm in Ws)


def _sf_terms(data, kin):
    rep = fz.single_factorize(data)
    return _squared_terms(rep, [(W, np.sum(np.abs(W))) for W in rep.Ws])


def _df_terms(data, kin):
    rep = fz.double_factorize(fz.single_factorize(data), 0.05)
    return _squared_terms(rep, [(U @ np.diag(f) @ U.T, np.sum(np.abs(f)))
                                for f, U in zip(rep.fs, rep.Us)])


def _thc_terms(data, kin):
    rng = np.random.default_rng(19)
    chi = rng.normal(size=(3, 4))
    chi /= np.linalg.norm(chi, axis=0)
    zeta = rng.normal(size=(4, 4))
    zeta = (zeta + zeta.T) / 2.0
    V = np.einsum("pm,qm,mv,rv,sv->pqrs", chi, chi, zeta, chi, chi)
    c2 = np.sum(chi * chi, axis=0)
    B = np.einsum("pm,qm,m->pq", chi, chi, zeta @ c2)
    return fz.THCRep(chi=chi, zeta=zeta), V, B, float(c2 @ zeta @ c2), 0.0


@pytest.mark.parametrize("terms", [_sparse_terms, _sf_terms, _df_terms, _thc_terms],
                         ids=["sparse", "sf", "df", "thc"])
def test_encoded_terms(terms):
    # each kind's algebra written out on its own: one-body T' - B, two-body V,
    # shift tr T' - (1/2) traced + centring
    data, kin = _instance(3, 17)
    rep, V, B, traced, centring = terms(data, kin)
    enc = rep.encoded_terms(kin.Tprime)
    assert np.allclose(enc.two_body, V, rtol=0.0, atol=1e-12)
    assert np.allclose(enc.one_body, kin.Tprime - B, rtol=0.0, atol=1e-12)
    assert enc.shift == pytest.approx(
        np.trace(kin.Tprime) - 0.5 * traced + centring, rel=1e-12)


def test_lambda_report_dispatch():
    data, kin = _instance(3, 20)
    rep, _ = fz.sparse_truncate(data, kin.Tprime, 0.0)
    sf = fz.single_factorize(data)
    df = fz.double_factorize(sf, 1e-8)
    assert fz.lambda_report(rep, data).method == "sparse"
    assert fz.lambda_report(sf, data).method == "sf"
    assert fz.lambda_report(df, data).method == "df"
    with pytest.raises(TypeError, match="unknown representation"):
        fz.lambda_report(object(), data)


def test_lambda_report_to_dict():
    data, kin = _instance(3, 21)
    _, lam = fz.sparse_truncate(data, kin.Tprime, 0.0)
    payload = lam.to_dict()
    assert payload["method"] == "sparse"
    assert payload["total"] == pytest.approx(lam.lambda_one + lam.lambda_two)
    assert set(payload) == {"method", "one_body", "two_body", "total", "provenance"}


def _rep_of_kind(kind):
    """One small representation of each kind, with the data it came from."""
    data, kin = _instance(3, 22)
    if kind == "sparse":
        rep, _ = fz.sparse_truncate(data, kin.Tprime, 0.1)
    elif kind == "sf":
        rep = fz.single_factorize(data)
    elif kind == "df":
        rep = fz.double_factorize(fz.single_factorize(data), 1e-6)
    else:
        rng = np.random.default_rng(23)
        chi = rng.normal(size=(3, 4))
        chi /= np.linalg.norm(chi, axis=0)
        zeta = rng.normal(size=(4, 4))
        rep = fz.THCRep(chi=chi, zeta=(zeta + zeta.T) / 2.0)
    return rep, data


def _rep_file_payload(rep, data):
    # the rep and lambda blocks of a factorize output file
    return {"rep": fz.rep_to_dict(rep), "lambda": fz.lambda_report(rep, data).to_dict()}


@pytest.mark.parametrize("kind", ["sparse", "sf", "df", "thc"])
def test_rep_serialization_round_trip(tmp_path, kind):
    rep, data = _rep_of_kind(kind)
    path = tmp_path / f"{kind}.json"
    fz.write_rep_json(_rep_file_payload(rep, data), path)
    back = fz.rep_from_dict(json.loads(path.read_text())["rep"])
    assert type(back) is type(rep)
    if kind == "sparse":
        assert np.array_equal(back.indices, rep.indices)
        assert back.indices.dtype == rep.indices.dtype
        assert np.array_equal(back.values, rep.values)
        assert back.d == rep.d
        assert back.to_dict() == rep.to_dict()
    elif kind == "sf":
        assert all(np.array_equal(a, b) for a, b in zip(back.Ws, rep.Ws))
    elif kind == "df":
        assert all(np.array_equal(a, b) for a, b in zip(back.fs, rep.fs))
        assert all(np.array_equal(a, b) for a, b in zip(back.Us, rep.Us))
    else:
        assert np.array_equal(back.chi, rep.chi)
        assert np.array_equal(back.zeta, rep.zeta)


def test_rep_file_is_compact_json_and_reads_indented(tmp_path):
    # one rep-file encoding, shared with the factorize command; files
    # written with indent=2 still load
    rep, data = _rep_of_kind("df")
    path = tmp_path / "df.json"
    payload = _rep_file_payload(rep, data)
    fz.write_rep_json(payload, path)
    assert path.read_text() == json.dumps(payload, sort_keys=True) + "\n"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2))
    assert fz.rep_from_dict(json.loads(path.read_text())["rep"]).to_dict() == rep.to_dict()


@pytest.mark.parametrize("kind", ["sparse", "sf", "df", "thc"])
def test_rep_equality_is_identity(kind):
    # array fields make field-wise equality ambiguous; reps compare and hash
    # by identity, so they can key a dict or sit in a set
    rep, _ = _rep_of_kind(kind)
    twin = fz.rep_from_dict(rep.to_dict())
    assert rep == rep
    assert rep != twin
    assert hash(rep) == hash(rep)
    assert len({rep, twin, rep}) == 2


def test_rep_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown representation kind"):
        fz.rep_from_dict({"kind": "bogus"})


def test_rep_from_dict_names_missing_field():
    with pytest.raises(ValueError, match="df representation lacks field 'Us'"):
        fz.rep_from_dict({"kind": "df", "n_spatial": 2, "fs": [], "threshold": 0.0})
    with pytest.raises(ValueError, match="must be a JSON object"):
        fz.rep_from_dict([])


def test_rep_sizes_follow_size_fields():
    data, kin = _instance(3, 24)
    sparse, _ = fz.sparse_truncate(data, kin.Tprime, 0.1)
    df = fz.double_factorize(fz.single_factorize(data), 1e-6)
    assert sparse.sizes() == {"d": sparse.d}
    assert df.sizes() == {"L": df.L, "Xi_total": df.Xi_total}
    assert {kind: cls.kind for kind, cls in fz.REP_KINDS.items()} == {
        "sparse": "sparse", "sf": "sf", "df": "df", "thc": "thc"}
