"""Batch front-end: ingestion, factorization, costing, layout, verification.

Each command resolves its parameters from an optional flat key=value config
file plus command-line flags (flags win).  A config key is a flag or
parameter name in any case, with - and _ alike; each value is converted by
that parameter's own type, and unknown keys are rejected.  Each command
embeds the resolved configuration and an input content hash into its
report, and emits JSON (full precision), csv, or an aligned table
(4 significant digits).  Exit codes: 0 ok, 1 domain error, 2 usage error.
The representation kinds, their factorize flags and their cost models come
from :data:`ftqc.factorizations.REP_KINDS`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys

import click
import numpy as np

from . import costs, factorizations, qdrift, surface, tensors, verify

SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: one command, one input, one output."""

    command: str
    method: str | None = None
    input: str | None = None
    output: str | None = None
    fmt: str = "json"
    params: dict = dataclasses.field(default_factory=dict)

    def resolved(self) -> dict:
        out = {
            "command": self.command,
            "method": self.method,
            "input": self.input,
            "output": self.output,
            "format": self.fmt,
        }
        out.update({k: v for k, v in sorted(self.params.items())})
        return out


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _read_config(ctx: click.Context, option: click.Option, path: str | None):
    """Eager --config callback: each key = value line (blank lines and #
    comments ignored) sets the default of the parameter its key names, in
    any case and with - and _ alike, converted by that parameter's type."""
    if path is None:
        return
    params = {p.name: p for p in ctx.command.params if p is not option}
    defaults = {}
    for lineno, line in enumerate(
        pathlib.Path(path).read_text().splitlines(), start=1
    ):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            _fail(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in body.split("=", 1))
        param = params.get(key.lower().replace("-", "_"))
        if param is None:
            _fail(f"{path}:{lineno}: unknown key {key!r}")
        try:
            defaults[param.name] = param.type.convert(value, param, ctx)
        except click.BadParameter as exc:
            _fail(f"{path}:{lineno}: {key}: {exc.message}")
    ctx.default_map = {**(ctx.default_map or {}), **defaults}


_config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_read_config)


def _get(values: dict, key: str, default=None, required=False):
    if values.get(key) is not None:
        return values[key]
    if required:
        param = next(p for p in click.get_current_context().command.params
                     if p.name == key)
        typed = (param.metavar or param.opts[0]).strip("[]")  # as the user types it
        _fail(f"missing required parameter {typed}")
    return default


def _given(values: dict, *skip: str) -> dict:
    """The parameters set by a flag or the config file, less those in skip."""
    return {k: v for k, v in values.items() if v is not None and k not in skip}


def _fields(values: dict, fields: dict) -> dict:
    """{field: value} for each set parameter named in fields (name -> field)."""
    return {field: values[name] for name, field in fields.items()
            if values[name] is not None}


def _hash_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _hash_file(path: str) -> str:
    return _hash_bytes(pathlib.Path(path).read_bytes())


def _hash_config(resolved: dict) -> str:
    return _hash_bytes(
        json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    )


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == 0.0 or (1e-3 <= abs(value) < 1e5 and value == int(value)):
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


def _render_table(header: list[str], rows: list[list]) -> str:
    cells = [header] + [[_fmt_cell(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(payload: dict, fmt: str, output: str | None,
          header: list[str] | None = None, rows: list[list] | None = None):
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = _render_csv(header, rows)
    elif fmt == "table":
        text = _render_table(header, rows)
    else:
        _fail(f"unknown format {fmt!r}")
    if output:
        pathlib.Path(output).write_text(text)
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Resource estimation toolkit for simulating chemistry Hamiltonians."""


def _factorize_options(command):
    """One flag per option the rep kinds declare, in first-declared order."""
    options = {}
    for kind in factorizations.REP_KINDS.values():
        for name, option in kind.options.items():
            options.setdefault(name, option)
    for name, option in reversed(options.items()):
        command = click.option(f"--{name.replace('_', '-')}", type=option.cast)(command)
    return command


@main.command()
@click.argument("input", type=click.Path(exists=True, dir_okay=False),
                required=False, metavar="[FCIDUMP]")
@click.option("--method", type=click.Choice(list(factorizations.REP_KINDS)))
@_factorize_options
@_config_option
@click.option("--output", "-o", type=click.Path())
def factorize(**flags):
    """Factor an FCIDUMP into a serialized representation with its norms."""
    path = _get(flags, "input", required=True)
    method = _get(flags, "method", required=True)
    out_path = _get(flags, "output", default=f"{method}.json")
    kind = factorizations.REP_KINDS[method]
    options = {}
    for name, option in kind.options.items():
        options[name] = _get(flags, name, option.default)
        if option.required and options[name] is None:
            _fail(f"method {method} needs --{name.replace('_', '-')}")

    try:
        data = tensors.load_fcidump(path)
    except (ValueError, OSError) as exc:
        _fail(str(exc))
    kin = tensors.compute_T(data)
    try:
        rep, extra_params = kind.factorize(data, kin.Tprime, **options)
        report = rep.lambda_report(kin.Tprime)
    except ValueError as exc:
        _fail(str(exc))

    config = RunConfig("factorize", method=method, input=path,
                       output=out_path, params={**options, **extra_params})
    payload = {
        "schema": SCHEMA_VERSION,
        "config": config.resolved(),
        "input_hash": _hash_file(path),
        "rep": factorizations.rep_to_dict(rep),
        "lambda": report.to_dict(),
    }
    sizes = rep.sizes()
    payload.update(sizes)
    factorizations.write_rep_json(payload, out_path)
    summary = " ".join(f"{k}={v}" for k, v in sizes.items())
    click.echo(f"{method}: {summary} lambda={report.total:.6g} -> {out_path}")


_REPORT_COLUMNS = ["method", "lambda", "toffoli_per_step", "iterations",
                   "toffoli_total", "logical_qubits"]


def _report_row(report: costs.CostReport) -> list:
    return [
        report.method,
        report.inputs.get("lambda", report.inputs.get("lam")),
        report.toffoli_per_step,
        report.iterations,
        report.toffoli_total,
        report.logical_qubits,
    ]


def _cost_params(flags: dict, N: int, lam: float, sizes: dict) -> costs.CostParams:
    """CostParams from N, lambda and the representation's sizes; eps_pea,
    the bit widths and Xi_max come from the flags that are set, the rest
    from CostParams' defaults."""
    knobs = _fields(flags, {"eps_pea": "eps_pea", "br": "b_r", "aleph": "aleph",
                            "aleph1": "aleph1", "aleph2": "aleph2", "beth": "beth",
                            "xi_max": "Xi_max"})
    return costs.CostParams(N=N, lam=lam, **knobs, **sizes)


def _read_rep_file(path: pathlib.Path):
    """The representation in a factorize output (or bare rep) file and its
    recorded lambda total, or None when no lambda was recorded."""
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise ValueError("top level is not a JSON object")
        rep = factorizations.rep_from_dict(payload.get("rep", payload))
        lam = payload.get("lambda", {})
        if not (isinstance(lam, dict)
                and isinstance(lam.get("total", 0.0), (int, float))):
            raise ValueError("lambda total is not a number")
    except ValueError as exc:
        _fail(f"{path.name}: {exc}")
    return rep, lam.get("total")


@main.command()
@click.option("--method",
              type=click.Choice([*factorizations.REP_KINDS, "qdrift", "all"]))
@click.option("--N", type=int)
@click.option("--M", type=int)
@click.option("--L", type=int)
@click.option("--d", type=int)
@click.option("--xi-total", type=int)
@click.option("--xi-max", type=int)
@click.option("--lambda", type=float)
@click.option("--eps-pea", type=float)
@click.option("--eps", type=float)
@click.option("--aleph", type=int)
@click.option("--aleph1", type=int)
@click.option("--aleph2", type=int)
@click.option("--beth", type=int)
@click.option("--br", type=int)
@click.option("--mode", type=click.Choice(["rms", "confidence", "hodges_lehmann"]))
@click.option("--from-reps", type=click.Path(exists=True, file_okay=False))
@_config_option
@click.option("--format", type=click.Choice(["json", "csv", "table"]))
@click.option("--output", "-o", type=click.Path())
def cost(**flags):
    """Toffoli and logical-qubit estimate for a factored Hamiltonian."""
    method = _get(flags, "method", required=True)
    fmt = _get(flags, "format", default="json")
    output = flags["output"]
    from_reps = flags["from_reps"]

    reports: list[costs.CostReport] = []
    input_hash = None
    input_name = None
    try:
        if from_reps is not None:
            rep_dir = pathlib.Path(from_reps)
            files = sorted(rep_dir.glob("*.json"))
            if not files:
                _fail(f"no representation files in {from_reps}")
            hasher = hashlib.sha256()
            for f in files:
                rep, lam_total = _read_rep_file(f)
                if lam_total is None:
                    _fail(f"{f.name}: no lambda recorded; refactorize first")
                if method not in ("all", rep.kind):
                    continue
                hasher.update(f.read_bytes())
                params = _cost_params(flags, 2 * rep.n_spatial, lam_total,
                                      rep.sizes())
                reports.append(rep.cost(params))
            input_hash = hasher.hexdigest()
            input_name = from_reps
            if not reports:
                _fail(f"no {method} representation found in {from_reps}")
        elif method == "qdrift":
            lam_val = _get(flags, "lambda", required=True)
            eps_val = _get(flags, "eps", default=0.0016)
            mode_val = _get(flags, "mode", default="rms")
            reports.append(qdrift.cost_qdrift(lam_val, eps_val, N=flags["n"],
                                              mode=mode_val))
        elif method in factorizations.REP_KINDS:
            kind = factorizations.REP_KINDS[method]
            n_val = _get(flags, "n", required=True)
            lam_val = _get(flags, "lambda", required=True)
            sizes = {field: _get(flags, field.lower(), required=True)
                     for field in kind.size_fields}
            reports.append(kind.cost(_cost_params(flags, n_val, lam_val, sizes)))
        else:
            _fail("method all needs --from-reps")
    except ValueError as exc:
        _fail(str(exc))

    config = RunConfig("cost", method=method, input=input_name, output=output,
                       fmt=fmt, params=_given(flags, "method", "format", "output",
                                              "from_reps"))
    resolved = config.resolved()
    payload = {
        "schema": SCHEMA_VERSION,
        "config": resolved,
        "input_hash": input_hash or _hash_config(resolved),
        "reports": [r.to_dict() for r in reports],
    }
    rows = [_report_row(r) for r in reports]
    _emit(payload, fmt, output, header=_REPORT_COLUMNS, rows=rows)


@main.command()
@click.option("--toffoli", type=float)
@click.option("--tiles", type=float)
@click.option("--logical-qubits", type=float)
@click.option("--p", type=float)
@click.option("--cycle-time", type=float)
@click.option("--reaction-time", type=float)
@click.option("--budget", type=float)
@click.option("--factories", type=int)
@click.option("--factory-rate", type=float)
@_config_option
@click.option("--format", type=click.Choice(["json", "csv", "table"]))
@click.option("--output", "-o", type=click.Path())
def layout(**flags):
    """Physical qubits and wall-clock time for a Toffoli workload."""
    fmt = _get(flags, "format", default="json")
    output = flags["output"]
    count = _get(flags, "toffoli", required=True)
    tiles_val = flags["tiles"]
    lq = flags["logical_qubits"]

    try:
        assumptions = surface.PhysicalAssumptions(**_fields(flags, {
            "p": "phys_error_rate", "cycle_time": "cycle_time",
            "reaction_time": "reaction_time", "budget": "total_error_budget",
            "factories": "factory_count",
            "factory_rate": "factory_rate_per_factory"}))
        if tiles_val is not None:
            estimate = surface.layout_estimate(
                assumptions=assumptions, tiles=tiles_val, toffoli=count)
        elif lq is not None:
            report = costs.CostReport(
                method="external", toffoli_per_step=1, iterations=count,
                logical_qubits=int(lq))
            estimate = surface.layout_estimate(report, assumptions=assumptions)
        else:
            _fail("need --tiles or --logical-qubits")
    except ValueError as exc:
        _fail(str(exc))

    config = RunConfig("layout", output=output, fmt=fmt,
                       params=_given(flags, "format", "output"))
    resolved = config.resolved()
    payload = {
        "schema": SCHEMA_VERSION,
        "config": resolved,
        "input_hash": _hash_config(resolved),
        "estimate": estimate.to_dict(),
    }
    est = estimate.to_dict()
    header = list(est.keys())
    _emit(payload, fmt, output, header=header, rows=[list(est.values())])


def _suite_spectrum(seed: int, inject: bool) -> list[dict]:
    checks = []
    for i, n in enumerate((2, 3)):
        data = tensors.random_instance(n, seed=seed + i)
        kin = tensors.compute_T(data)
        sf = factorizations.single_factorize(data)
        rng = np.random.default_rng(seed + 100 + i)
        chi = rng.normal(size=(n, n * n))
        chi /= np.linalg.norm(chi, axis=0)
        zeta = rng.normal(size=(n * n, n * n))
        reps = [
            factorizations.sparse_truncate(data, kin.Tprime, 0.0)[0],
            sf,
            factorizations.double_factorize(sf, 0.0),
            factorizations.THCRep(chi=chi, zeta=0.5 * (zeta + zeta.T)),
        ]
        for rep in reps:
            result = verify.lambda_bounds_spectrum(rep, data)
            ok = result["ok"]
            note = ""
            if inject and not checks:
                # Corrupt the measured spectral radius so the bound must fail.
                ok = (result["max_abs_shifted"] + result["lambda"]
                      <= result["lambda"] + verify.LAMBDA_BOUND_ATOL)
                note = " (injected: spectral radius inflated)"
            checks.append({
                "name": f"spectrum {result['method']} n={n}{note}",
                "ok": bool(ok),
                "detail": f"margin={result['margin']:.3e}",
            })
    return checks


def _suite_contiguous(seed: int, inject: bool) -> list[dict]:
    checks = []
    for n in range(2, 9):
        count, correct = verify.simulate_contiguous_schedule(n)
        expected = costs.contiguous_register_cost(n) + (1 if inject else 0)
        note = " (injected: target off by one)" if inject else ""
        checks.append({
            "name": f"contiguous n={n}{note}",
            "ok": bool(correct and count == expected),
            "detail": f"toffoli={count} expected={expected}",
        })
    return checks


def _suite_reconstruction(seed: int, inject: bool) -> list[dict]:
    data = tensors.random_instance(3, seed=seed)
    target = data.V.copy()
    if inject:
        target[0, 0, 0, 0] += 1.0
    note = " (injected: reference perturbed)" if inject else ""
    kin = tensors.compute_T(data)
    sf = factorizations.single_factorize(data)
    checks = []
    for rep, atol in ((factorizations.sparse_truncate(data, kin.Tprime, 0.0)[0], 1e-10),
                      (sf, 1e-8),
                      (factorizations.double_factorize(sf, 0.0), 1e-8)):
        err = np.max(np.abs(rep.encoded_terms(kin.Tprime).two_body - target))
        checks.append({"name": f"reconstruction {rep.kind}{note}",
                       "ok": bool(err <= atol), "detail": f"max_abs={err:.3e}"})
    return checks


_SUITES = {"spectrum": _suite_spectrum, "contiguous": _suite_contiguous,
           "reconstruction": _suite_reconstruction}


@main.command("verify")
@click.option("--suite", "suites", multiple=True, type=click.Choice(list(_SUITES)))
@click.option("--all", "run_all", is_flag=True, default=False)
@click.option("--seed", type=int, default=0)
@click.option("--inject-failure", is_flag=True, default=False)
def verify_cmd(suites, run_all, seed, inject_failure):
    """Run oracle suites; exits 1 if any check fails."""
    selected = list(_SUITES) if run_all else suites
    if not selected:
        _fail("choose --suite or --all")
    checks: list[dict] = []
    for name in selected:
        checks.extend(_SUITES[name](seed, inject_failure))
    failed = 0
    for check in checks:
        status = "pass" if check["ok"] else "FAIL"
        click.echo(f"[{status}] {check['name']}: {check['detail']}")
        failed += 0 if check["ok"] else 1
    click.echo(f"{len(checks) - failed}/{len(checks)} checks passed")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
