import hashlib
import json

import pytest
from click.testing import CliRunner

from ftqc import costs
from ftqc.cli import main
from ftqc.factorizations import REP_KINDS


@pytest.fixture
def runner():
    return CliRunner()


def _text(result):
    out = result.output
    try:
        out += result.stderr
    except ValueError:
        pass
    return out


def test_factorize_sparse(runner, fcidump_file, tmp_path):
    out = tmp_path / "sparse.json"
    result = runner.invoke(main, [
        "factorize", str(fcidump_file), "--method", "sparse",
        "--threshold", "0.01", "-o", str(out),
    ])
    assert result.exit_code == 0, _text(result)
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["config"]["method"] == "sparse"
    assert payload["config"]["threshold"] == 0.01
    assert len(payload["input_hash"]) == 64
    assert payload["rep"]["kind"] == "sparse"
    assert payload["lambda"]["method"] == "sparse"
    assert "d=" in result.output


def test_factorize_sparse_rep_block_pinned(runner, fcidump_file, tmp_path):
    # the serialized sparse representation of random_instance(3, seed=7),
    # pinned so that a change to the storage cannot move a byte of it
    out = tmp_path / "sparse.json"
    result = runner.invoke(main, [
        "factorize", str(fcidump_file), "--method", "sparse",
        "--threshold", "0.1", "-o", str(out),
    ])
    assert result.exit_code == 0, _text(result)
    assert result.output == f"sparse: d=26 lambda=41.6432 -> {out}\n"
    rep = json.loads(out.read_text())["rep"]
    assert len(rep["entries"]) == 20
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "04cc3a6f1eadee7de3545d53c9e6b32ee147673dcb987c391fa0f80d3a068d9a"


@pytest.mark.parametrize("method, extra, summary, digest", [
    ("sf", [], "L=8 lambda=35.4152",
     "7279db22f01a97a89563c292b6290929318a261eba5eae69dfea0c85310660b6"),
    ("df", ["--threshold", "1e-3"], "L=6 Xi_total=18 lambda=13.6895",
     "e2a4b208e2710c055d4ea252760492c3e12d37100a1a3ec93606eb5f52de8f46"),
    ("thc", ["--rank", "9", "--starts", "2", "--seed", "0"], "M=9 lambda=70.9053",
     "d5354ac85bd7ac84645fdcc450878a2dc072d9bee0ac212cb87c09f3e9fdbefa"),
])
def test_factorize_rep_block_pinned(runner, fcidump_file, tmp_path, method,
                                    extra, summary, digest):
    # as test_factorize_sparse_rep_block_pinned, for the other three kinds
    out = tmp_path / f"{method}.json"
    result = runner.invoke(main, [
        "factorize", str(fcidump_file), "--method", method, *extra, "-o", str(out),
    ])
    assert result.exit_code == 0, _text(result)
    assert result.output == f"{method}: {summary} -> {out}\n"
    rep = json.loads(out.read_text())["rep"]
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


def test_rep_kinds_drive_the_cli():
    def method_choices(command):
        param = next(p for p in main.commands[command].params if p.name == "method")
        return list(param.type.choices)

    assert method_choices("factorize") == list(REP_KINDS)
    assert method_choices("cost") == [*REP_KINDS, "qdrift", "all"]
    flags = {p.name for p in main.commands["factorize"].params}
    for kind, cls in REP_KINDS.items():
        assert set(cls.options) <= flags, kind
        params = costs.CostParams(N=108, lam=300.0,
                                  **{field: 20 for field in cls.size_fields})
        assert cls.cost(params).method == kind


@pytest.mark.parametrize("method, option", [
    (kind, name) for kind, cls in REP_KINDS.items()
    for name, opt in cls.options.items() if opt.required
])
def test_factorize_required_option_message(runner, fcidump_file, method, option):
    result = runner.invoke(main, ["factorize", str(fcidump_file), "--method", method])
    assert result.exit_code == 1
    assert result.stderr == f"error: method {method} needs --{option}\n"


def test_factorize_sf_df(runner, fcidump_file, tmp_path):
    out_sf = tmp_path / "sf.json"
    result = runner.invoke(main, [
        "factorize", str(fcidump_file), "--method", "sf", "-o", str(out_sf),
    ])
    assert result.exit_code == 0, _text(result)
    assert json.loads(out_sf.read_text())["rep"]["kind"] == "sf"

    out_df = tmp_path / "df.json"
    result = runner.invoke(main, [
        "factorize", str(fcidump_file), "--method", "df",
        "--threshold", "1e-6", "-o", str(out_df),
    ])
    assert result.exit_code == 0, _text(result)
    payload = json.loads(out_df.read_text())
    assert payload["rep"]["kind"] == "df"
    assert payload["Xi_total"] == payload["rep"]["Xi_total"]


def test_factorize_thc_deterministic(runner, fcidump_file, tmp_path):
    out = tmp_path / "thc.json"
    args = [
        "factorize", str(fcidump_file), "--method", "thc",
        "--rank", "6", "--starts", "3", "--seed", "0", "-o", str(out),
    ]
    r1 = runner.invoke(main, args)
    assert r1.exit_code == 0, _text(r1)
    first = out.read_bytes()
    r2 = runner.invoke(main, args)
    assert r2.exit_code == 0, _text(r2)
    assert out.read_bytes() == first


def test_factorize_thc_needs_rank(runner, fcidump_file):
    result = runner.invoke(main, [
        "factorize", str(fcidump_file), "--method", "thc",
    ])
    assert result.exit_code == 1
    assert "method thc needs --rank" in _text(result)


def test_factorize_config_file_with_flag_override(runner, fcidump_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"input = {fcidump_file}\n"
        "method = sparse\n"
        "threshold = 0.5\n"
        "# comment line\n"
    )
    out = tmp_path / "rep.json"
    result = runner.invoke(main, [
        "factorize", "--config", str(cfg), "--threshold", "0.01",
        "-o", str(out),
    ])
    assert result.exit_code == 0, _text(result)
    # the flag wins over the config file value
    assert json.loads(out.read_text())["config"]["threshold"] == 0.01


def test_factorize_bad_config_line(runner, fcidump_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n")
    result = runner.invoke(main, [
        "factorize", str(fcidump_file), "--method", "sparse",
        "--threshold", "0.1", "--config", str(cfg),
    ])
    assert result.exit_code == 1
    assert "expected key = value" in _text(result)


@pytest.mark.parametrize("command, lines, flags", [
    ("cost", ["method = df", "N = 108", "L = 360", "Xi-Total = 13031",
              "LAMBDA = 294.8", "Xi_max = 1"],
     ["--method", "df", "--N", "108", "--L", "360", "--xi-total", "13031",
      "--lambda", "294.8", "--xi-max", "1"]),
    ("layout", ["Toffoli = 6.7e9", "tiles = 1908", "P = 1e-3", "cycle-time = 2e-6"],
     ["--toffoli", "6.7e9", "--tiles", "1908", "--p", "1e-3", "--cycle-time", "2e-6"]),
], ids=["cost-df", "layout"])
def test_config_file_matches_flag_run(runner, tmp_path, command, lines, flags):
    # keys in any case with - or _, and typed values: the config run reports
    # the flag run's config block, input hash and estimate (Xi_max included)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    from_file = runner.invoke(main, [command, "--config", str(cfg)])
    from_flags = runner.invoke(main, [command, *flags])
    assert from_file.exit_code == 0, _text(from_file)
    assert from_flags.exit_code == 0, _text(from_flags)
    assert json.loads(from_file.output) == json.loads(from_flags.output)


@pytest.mark.parametrize("lines, message", [
    (["method = thc", "# comment", "bogus = 3"], "run.cfg:3: unknown key 'bogus'"),
    (["config = other.cfg"], "run.cfg:1: unknown key 'config'"),
    (["method = thc", "", "N = ten"], "run.cfg:3: N: 'ten' is not a valid integer."),
    (["method = nonsense"],
     "run.cfg:1: method: 'nonsense' is not one of 'sparse', 'sf', 'df', 'thc', "
     "'qdrift', 'all'."),
], ids=["unknown-key", "config-key", "bad-int", "bad-choice"])
def test_config_file_bad_entry(runner, tmp_path, lines, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["cost", "--config", str(cfg)])
    assert result.exit_code == 1
    assert result.stderr.endswith(f"{message}\n")
    assert str(cfg) in result.stderr
    assert isinstance(result.exception, SystemExit), repr(result.exception)


def test_cost_thc_operating_point(runner):
    result = runner.invoke(main, [
        "cost", "--method", "thc", "--N", "108", "--M", "350",
        "--lambda", "306.3", "--aleph", "10", "--beth", "16",
    ])
    assert result.exit_code == 0, _text(result)
    payload = json.loads(result.output)
    report = payload["reports"][0]
    assert report["toffoli_total"] == 5253994200
    assert report["logical_qubits"] == 2141
    assert payload["config"]["method"] == "thc"
    assert payload["config"]["lambda"] == 306.3
    assert len(payload["input_hash"]) == 64


def test_cost_output_byte_identical(runner, tmp_path):
    args = [
        "cost", "--method", "sparse", "--N", "108", "--d", "705831",
        "--lambda", "2135.3",
    ]
    r1 = runner.invoke(main, args)
    r2 = runner.invoke(main, args)
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert r1.output == r2.output


def test_cost_formats(runner):
    base = [
        "cost", "--method", "df", "--N", "108", "--L", "360",
        "--xi-total", "13031", "--lambda", "294.8",
    ]
    csv = runner.invoke(main, base + ["--format", "csv"])
    assert csv.exit_code == 0, _text(csv)
    lines = csv.output.strip().splitlines()
    assert lines[0].startswith("method,lambda,toffoli_per_step")
    assert "10069015824" in lines[1]
    table = runner.invoke(main, base + ["--format", "table"])
    assert table.exit_code == 0
    assert "toffoli_total" in table.output
    assert "10069015824" in table.output


def test_cost_qdrift(runner):
    result = runner.invoke(main, [
        "cost", "--method", "qdrift", "--lambda", "2183.6",
        "--eps", "0.0016", "--mode", "confidence", "--N", "108",
    ])
    assert result.exit_code == 0, _text(result)
    report = json.loads(result.output)["reports"][0]
    assert report["method"] == "qdrift-confidence"
    assert report["toffoli_total"] == pytest.approx(1.873765e16, rel=1e-5)
    assert report["logical_qubits"] == 270


_FACTORIZE_ARGS = {
    "sparse": ["--threshold", "0.01"],
    "sf": [],
    "df": ["--threshold", "1e-6"],
    "thc": ["--rank", "4", "--starts", "1"],
}

# CLI flag carrying each representation size field.
_SIZE_FLAGS = {"d": "--d", "L": "--L", "Xi_total": "--xi-total", "M": "--M"}


@pytest.fixture
def rep_dir(runner, fcidump_file, tmp_path):
    reps = tmp_path / "reps"
    reps.mkdir()
    for method, extra in _FACTORIZE_ARGS.items():
        result = runner.invoke(main, [
            "factorize", str(fcidump_file), "--method", method,
            *extra, "-o", str(reps / f"{method}.json"),
        ])
        assert result.exit_code == 0, _text(result)
    return reps


def test_cost_from_reps(runner, rep_dir):
    result = runner.invoke(main, [
        "cost", "--method", "all", "--from-reps", str(rep_dir),
    ])
    assert result.exit_code == 0, _text(result)
    payload = json.loads(result.output)
    methods = {r["method"] for r in payload["reports"]}
    assert methods == set(_FACTORIZE_ARGS)

    result = runner.invoke(main, [
        "cost", "--method", "sparse", "--from-reps", str(rep_dir),
    ])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["reports"]) == 1


def test_cost_from_reps_reads_indented_files(runner, rep_dir):
    # rep files are compact JSON; files written with indent=2 cost the same
    args = ["cost", "--method", "all", "--from-reps", str(rep_dir)]
    compact = runner.invoke(main, args)
    assert compact.exit_code == 0, _text(compact)
    for path in rep_dir.glob("*.json"):
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        path.write_text(json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n")
    indented = runner.invoke(main, args)
    assert indented.exit_code == 0, _text(indented)
    before, after = json.loads(compact.output), json.loads(indented.output)
    assert before.pop("input_hash") != after.pop("input_hash")
    assert before == after


@pytest.mark.parametrize("method", sorted(_FACTORIZE_ARGS))
def test_cost_from_reps_matches_flag_path(runner, rep_dir, method):
    saved = json.loads((rep_dir / f"{method}.json").read_text())
    result = runner.invoke(main, [
        "cost", "--method", method, "--from-reps", str(rep_dir),
    ])
    assert result.exit_code == 0, _text(result)
    from_reps = json.loads(result.output)["reports"]

    args = ["cost", "--method", method,
            "--N", str(2 * saved["rep"]["n_spatial"]),
            "--lambda", repr(saved["lambda"]["total"])]
    for field, flag in _SIZE_FLAGS.items():
        if field in saved:
            args += [flag, str(saved[field])]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, _text(result)
    assert json.loads(result.output)["reports"] == from_reps


def _sparse_file(entries, d):
    return json.dumps({"rep": {"kind": "sparse", "n_spatial": 2, "threshold": 0.1,
                               "d": d, "entries": entries}})


@pytest.mark.parametrize("content, message", [
    ('{"rep": {"kind": "sf", "n_spatial": 2}, "lambda": {"total": 1.0}}',
     "bad.json: sf representation lacks field 'Ws'"),
    ("[1, 2, 3]", "bad.json: top level is not a JSON object"),
    ('{"rep": {"kind": "sf", "n_spatial": null, "Ws": []}}',
     "bad.json: sf representation: int() argument"),
    ('{"rep": {"kind": "sf", "n_spatial": 2, "Ws": []}, "lambda": 5}',
     "bad.json: lambda total is not a number"),
    (_sparse_file([[0, 0, 0, 0]], 4),
     "bad.json: sparse representation: entries must be rows (p, q, r, s, value)"),
    (_sparse_file([[0, 7, 1, 1, 0.5]], 4),
     "bad.json: sparse representation: orbital index outside 0..1"),
    (_sparse_file([[0, 1, 1, -3, 0.5]], 4),
     "bad.json: sparse representation: orbital index outside 0..1"),
    (_sparse_file([[1, 0, 0, 0, 0.5]], 4),
     "bad.json: sparse representation: non-canonical entry row"),
    (_sparse_file([[0, 0, 0, 0, 0.5], [0, 0, 0, 0, 0.5]], 5),
     "bad.json: sparse representation: repeated orbit"),
    (_sparse_file([[0, 0, 0, 0, 0.5]], 999),
     "bad.json: sparse representation: d = 999 but its entries give 4"),
], ids=["missing-field", "not-an-object", "null-field", "bad-lambda",
        "sparse-row-width", "sparse-index-range", "sparse-negative-index",
        "sparse-non-canonical", "sparse-repeated-orbit", "sparse-d-mismatch"])
def test_cost_from_reps_malformed_file(runner, tmp_path, content, message):
    reps = tmp_path / "reps"
    reps.mkdir()
    (reps / "bad.json").write_text(content)
    result = runner.invoke(main, [
        "cost", "--method", "all", "--from-reps", str(reps),
    ])
    assert result.exit_code == 1
    assert f"error: {message}" in _text(result)
    assert "Traceback" not in _text(result)
    assert isinstance(result.exception, SystemExit), repr(result.exception)


_NAN_FCIDUMP = "&FCI NORB=1,NELEC=2,MS2=0,\n&END\nnan 1 1 1 1\n-1.0 1 1 0 0\n"


@pytest.mark.parametrize("args", [
    ["factorize", "{fcidump}", "--method", "sparse", "--threshold", "0.0"],
    ["cost", "--method", "thc", "--N", "108", "--M", "350", "--lambda", "inf"],
    ["cost", "--method", "qdrift", "--lambda", "inf"],
    ["cost", "--method", "thc", "--N", "108", "--M", "350", "--lambda", "nan"],
    ["cost", "--method", "sparse", "--N", "108", "--d", "705831",
     "--lambda", "2135.3", "--eps-pea", "inf"],
], ids=["nan-fcidump", "thc-lambda-inf", "qdrift-lambda-inf", "lambda-nan",
        "eps-pea-inf"])
def test_non_finite_input_rejected(runner, tmp_path, args):
    fcidump = tmp_path / "FCIDUMP"
    fcidump.write_text(_NAN_FCIDUMP)
    result = runner.invoke(main, [a.format(fcidump=fcidump) for a in args])
    assert result.exit_code == 1, _text(result)
    assert "error:" in _text(result)
    assert "Traceback" not in _text(result)
    assert isinstance(result.exception, SystemExit), repr(result.exception)


@pytest.mark.parametrize("args, message", [
    (["--lambda", "1e80", "--eps", "1e-3"], "lambda = 1e+80 outside"),
    (["--lambda", "1e300", "--eps", "1e-300", "--mode", "hodges_lehmann"],
     "lambda = 1e+300 outside"),
    (["--lambda", "1e-300", "--eps", "1"], "lambda = 1e-300 outside"),
    (["--lambda", "0.01", "--eps", "1"], "lambda/eps = 0.01 outside"),
    (["--lambda", "2183.6", "--N", "-5"], "N must be an even"),
    (["--lambda", "2183.6", "--N", "0"], "N must be an even"),
], ids=["lambda-overflow", "hl-zero-division", "lambda-underflow",
        "eps-above-lambda", "N-negative", "N-zero"])
def test_qdrift_out_of_range_rejected(runner, args, message):
    result = runner.invoke(main, ["cost", "--method", "qdrift", *args])
    assert result.exit_code == 1, _text(result)
    assert f"error: {message}" in _text(result)
    assert "Traceback" not in _text(result)
    assert isinstance(result.exception, SystemExit), repr(result.exception)


@pytest.mark.parametrize("args, typed", [
    (["cost", "--method", "df", "--N", "108", "--L", "360", "--lambda", "1"],
     "--xi-total"),
    (["cost", "--method", "thc", "--M", "350", "--lambda", "1"], "--N"),
    (["cost", "--method", "qdrift"], "--lambda"),
    (["layout", "--tiles", "1908"], "--toffoli"),
    (["factorize", "--method", "sparse"], "FCIDUMP"),
    (["cost", "--N", "108"], "--method"),
], ids=["xi-total", "N", "lambda", "toffoli", "fcidump", "method"])
def test_cost_missing_parameter(runner, args, typed):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stderr == f"error: missing required parameter {typed}\n"


def test_cost_usage_error_exit_code(runner):
    result = runner.invoke(main, ["cost", "--method", "bogus"])
    assert result.exit_code == 2


def test_layout_tile_budget(runner):
    result = runner.invoke(main, [
        "layout", "--toffoli", "6.7e9", "--tiles", "1908", "--p", "1e-3",
    ])
    assert result.exit_code == 0, _text(result)
    est = json.loads(result.output)["estimate"]
    assert est["data_distance"] == 31
    assert est["physical_qubits_total"] == 3907584
    result = runner.invoke(main, [
        "layout", "--toffoli", "6.7e9", "--tiles", "1908", "--p", "1e-4",
    ])
    assert json.loads(result.output)["estimate"]["data_distance"] == 15


def test_layout_logical_qubits_path(runner):
    result = runner.invoke(main, [
        "layout", "--toffoli", "5.3e9", "--logical-qubits", "2142",
        "--factories", "4",
    ])
    assert result.exit_code == 0, _text(result)
    est = json.loads(result.output)["estimate"]
    assert est["data_tiles"] == 3213
    assert est["runtime_seconds"] > 0


def test_layout_needs_geometry(runner):
    result = runner.invoke(main, ["layout", "--toffoli", "6.7e9"])
    assert result.exit_code == 1
    assert "need --tiles or --logical-qubits" in _text(result)


def test_verify_all_passes(runner):
    result = runner.invoke(main, ["verify", "--all"])
    assert result.exit_code == 0, _text(result)
    assert "checks passed" in result.output
    assert "[FAIL]" not in result.output


def test_verify_single_suite(runner):
    result = runner.invoke(main, ["verify", "--suite", "contiguous"])
    assert result.exit_code == 0, _text(result)
    assert "contiguous n=8" in result.output


def test_verify_injected_failure_fails(runner):
    result = runner.invoke(main, ["verify", "--all", "--inject-failure"])
    assert result.exit_code == 1
    assert "[FAIL]" in result.output


def test_verify_needs_selection(runner):
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 1
    assert "choose --suite or --all" in _text(result)
