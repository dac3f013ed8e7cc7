"""The benchmark's workloads and the independent references their outputs
are checked against.

Each workload makes its inputs from the seed in ``setup`` and returns, from
``cycle``, the operations of one cycle.  An operation runs ``ftqc`` commands
through ``runner.cli`` exactly as a user types them, and its ``check`` runs
after the timed phase.  Every reference here is computed with numpy from
the generated integrals or taken from the source paper's published tables;
none of it calls ``ftqc``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

EPS_PEA = 0.001               # default phase-estimation accuracy of `ftqc cost`
LAYOUT_HALF_BUDGET = 0.005    # half the default total error budget (0.01)


@dataclasses.dataclass
class Op:
    """One timed operation: ``run(runner, opdir, op_id)`` returns the child
    records; ``check(children, opdir)`` returns a list of problems."""

    label: str
    run: object
    check: object


def rel_err(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def exit_problems(children, expected: int) -> list[str]:
    """Non-zero exit codes, and commands that never ran."""
    problems = []
    for child in children:
        if child.rc != 0:
            tail = child.err.strip().splitlines()[-1:] or [""]
            problems.append(f"{child.args[0]} exited {child.rc}: {tail[0]}")
    if len(children) < expected:
        problems.append(f"only {len(children)} of {expected} commands ran")
    return problems


def reference_tprime(h: np.ndarray, V: np.ndarray) -> np.ndarray:
    """T'_pq = h_pq - 1/2 sum_r V_prrq + sum_r V_pqrr."""
    return (h - 0.5 * np.trace(V, axis1=1, axis2=2)
            + np.trace(V, axis1=2, axis2=3))


def reference_sparse(V: np.ndarray, Tprime: np.ndarray, threshold: float):
    """(d, lambda) of the thresholded tensor, counting 8-fold orbits by a
    canonical key over all n^4 positions."""
    n = V.shape[0]
    keep = np.abs(V) > threshold
    p, q, r, s = np.nonzero(keep)
    left = np.minimum(p, q) * n + np.maximum(p, q)
    right = np.minimum(r, s) * n + np.maximum(r, s)
    orbits = np.unique(np.minimum(left, right) * n * n + np.maximum(left, right))
    d = int(orbits.size) + n * (n + 1) // 2
    lam = float(np.abs(Tprime).sum()) + 0.5 * float(np.abs(V[keep]).sum())
    return d, lam


def reference_df(V: np.ndarray, Tprime: np.ndarray, target_l: int,
                 threshold: float):
    """(L, lambda) of double factorization: leading eigenvectors of the
    (n^2, n^2) flattening reshaped to W_l, each W_l's spectrum kept where
    |f_m| * sum|f| >= threshold, stopping at the first empty W_l."""
    n = V.shape[0]
    w, U = np.linalg.eigh(V.reshape(n * n, n * n))
    lam_two, L = 0.0, 0
    for l in np.argsort(w)[::-1][:target_l]:
        if w[l] <= 0.0:
            break
        W = math.sqrt(w[l]) * U[:, l].reshape(n, n)
        f = np.abs(np.linalg.eigvalsh(0.5 * (W + W.T)))
        kept = f[f * f.sum() >= threshold]
        if kept.size == 0:
            break
        lam_two += 0.25 * float(kept.sum()) ** 2
        L += 1
    lam_one = float(np.abs(np.linalg.eigvalsh(Tprime)).sum())
    return L, lam_one + lam_two


def walk_problems(report: dict, lam: float) -> list[str]:
    """A qubitized-walk report must multiply out and use ceil(pi lam / 2 eps)
    phase-estimation steps."""
    problems = []
    if report["toffoli_total"] != report["toffoli_per_step"] * report["iterations"]:
        problems.append(f"{report['method']}: toffoli_total is not "
                        "toffoli_per_step x iterations")
    steps = math.ceil(math.pi * lam / (2.0 * EPS_PEA))
    if report["iterations"] != steps:
        problems.append(f"{report['method']}: {report['iterations']} iterations "
                        f"vs ceil(pi lambda / 2 eps) = {steps}")
    return problems


def layout_problems(estimate: dict) -> list[str]:
    """The chosen distance is odd and keeps data failures in half the budget."""
    problems = []
    d = estimate["data_distance"]
    if d % 2 != 1 or not 3 <= d <= 51:
        problems.append(f"layout distance {d} is not an odd value in 3..51")
    if not 0.0 <= estimate["logical_error_total"] <= LAYOUT_HALF_BUDGET:
        problems.append(f"layout error {estimate['logical_error_total']:.3e} "
                        f"exceeds {LAYOUT_HALF_BUDGET}")
    if estimate["physical_qubits_total"] <= 0:
        problems.append("layout reports no physical qubits")
    return problems


class _Instance:
    """A seeded ``random_instance`` written as an FCIDUMP during set-up."""

    n: int

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: str) -> None:
        from ftqc import tensors

        self.data = tensors.random_instance(self.n, self.seed, rank=2 * self.n)
        self.fcidump = os.path.join(workdir, "FCIDUMP")
        tensors.write_fcidump(self.data, self.fcidump)
        self.tprime = reference_tprime(self.data.h, self.data.V)


class Pipeline(_Instance):
    """FCIDUMP -> sparse and DF factorizations -> cost -> layout."""

    name = "pipeline_n24"
    n = 24
    threshold = 1e-4

    def setup(self, workdir: str) -> None:
        super().setup(workdir)
        self._reference = None

    def cycle(self) -> list[Op]:
        return [Op("pass", self._run, self._check)]

    def _run(self, runner, opdir, op_id):
        os.mkdir(os.path.join(opdir, "reps"))
        steps = [
            ["factorize", self.fcidump, "--method", "sparse",
             "--threshold", repr(self.threshold), "-o", "reps/sparse.json"],
            ["factorize", self.fcidump, "--method", "df",
             "--threshold", repr(self.threshold), "--target-l", str(2 * self.n),
             "-o", "reps/df.json"],
            ["cost", "--from-reps", "reps", "--method", "all"],
        ]
        children = []
        for args in steps:
            children.append(runner.cli(args, opdir, op_id))
            if children[-1].rc != 0:
                return children
        try:
            df = next(r for r in json.loads(children[-1].out)["reports"]
                      if r["method"] == "df")
        except (ValueError, KeyError, StopIteration):
            return children
        children.append(runner.cli(
            ["layout", "--toffoli", repr(df["toffoli_total"]),
             "--logical-qubits", str(df["logical_qubits"])], opdir, op_id))
        return children

    def reference(self):
        if self._reference is None:
            V = self.data.V
            self._reference = (
                reference_sparse(V, self.tprime, self.threshold),
                reference_df(V, self.tprime, 2 * self.n, self.threshold),
            )
        return self._reference

    def _check(self, children, opdir) -> list[str]:
        problems = exit_problems(children, 4)
        if problems:
            return problems
        (d_ref, sparse_lam_ref), (L_ref, df_lam_ref) = self.reference()
        with open(os.path.join(opdir, "reps", "sparse.json")) as fh:
            sparse = json.load(fh)
        with open(os.path.join(opdir, "reps", "df.json")) as fh:
            df = json.load(fh)
        if sparse["d"] != d_ref:
            problems.append(f"sparse d {sparse['d']} vs reference {d_ref}")
        if rel_err(sparse["lambda"]["total"], sparse_lam_ref) > 1e-9:
            problems.append(f"sparse lambda {sparse['lambda']['total']!r} vs "
                            f"reference {sparse_lam_ref!r}")
        if df["L"] != L_ref:
            problems.append(f"df L {df['L']} vs reference {L_ref}")
        if rel_err(df["lambda"]["total"], df_lam_ref) > 1e-8:
            problems.append(f"df lambda {df['lambda']['total']!r} vs "
                            f"reference {df_lam_ref!r}")
        lam = {"sparse": sparse["lambda"]["total"], "df": df["lambda"]["total"]}
        reports = json.loads(children[2].out)["reports"]
        if sorted(r["method"] for r in reports) != ["df", "sparse"]:
            problems.append("cost --method all did not report df and sparse")
        for report in reports:
            problems += walk_problems(report, lam.get(report["method"], math.nan))
        problems += layout_problems(json.loads(children[3].out)["estimate"])
        return problems


class ThcFit(_Instance):
    """One THC fit, rank 4n with 2 restarts, on an n = 12 FCIDUMP."""

    name = "thc_fit_n12"
    n = 12
    rank = 48

    def setup(self, workdir: str) -> None:
        super().setup(workdir)
        self.rel_residuals: list[float] = []

    def cycle(self) -> list[Op]:
        return [Op("fit", self._run, self._check)]

    def _run(self, runner, opdir, op_id):
        return [runner.cli(
            ["factorize", self.fcidump, "--method", "thc", "--rank",
             str(self.rank), "--starts", "2", "--seed", "0", "-o", "thc.json"],
            opdir, op_id)]

    def _check(self, children, opdir) -> list[str]:
        problems = exit_problems(children, 1)
        if problems:
            return problems
        with open(os.path.join(opdir, "thc.json")) as fh:
            payload = json.load(fh)
        chi = np.asarray(payload["rep"]["chi"], dtype=float)
        zeta = np.asarray(payload["rep"]["zeta"], dtype=float)
        n, M = chi.shape
        if M != self.rank:
            problems.append(f"thc rank {M} vs {self.rank}")
        norm_dev = float(np.max(np.abs(np.linalg.norm(chi, axis=0) - 1.0)))
        if norm_dev > 1e-10:
            problems.append(f"chi columns deviate from unit norm by {norm_dev:.2e}")
        V2 = self.data.V.reshape(n * n, n * n)
        E = np.einsum("pm,qm->pqm", chi, chi).reshape(n * n, M)
        residual = float(np.sum((E @ zeta @ E.T - V2) ** 2))
        objective = payload["config"]["objective"]
        if rel_err(objective, residual) > 1e-8:
            problems.append(f"reported objective {objective!r} vs recomputed "
                            f"{residual!r}")
        lam_ref = (float(np.abs(np.linalg.eigvalsh(self.tprime)).sum())
                   + 0.5 * float(np.abs(zeta).sum()))
        if rel_err(payload["lambda"]["total"], lam_ref) > 1e-9:
            problems.append(f"thc lambda {payload['lambda']['total']!r} vs "
                            f"{lam_ref!r}")
        rel = residual / float(np.sum(V2 * V2))
        if self.rel_residuals and rel != self.rel_residuals[0]:
            problems.append(f"relative residual {rel!r} differs from the run's "
                            f"first fit {self.rel_residuals[0]!r}")
        self.rel_residuals.append(rel)
        return problems


# Published operating points: (method, flags, Toffoli target +-2 %, logical
# qubits +-2), from the source paper's cost tables.
GOLDEN_POINTS = [
    ("thc", dict(N=108, lam=306.3, M=350, aleph=10, beth=16), 5.3e9, 2142),
    ("thc", dict(N=152, lam=1201.5, M=450, aleph=10, beth=20), 3.2e10, 2196),
    ("sparse", dict(N=108, lam=2135.3, d=705831), 8.8e10, 2190),
    ("sf", dict(N=108, lam=4258.0, L=200), 9.5e10, 3320),
    ("df", dict(N=108, lam=294.8, L=360, xi_total=13031), 1.0e10, 3725),
    ("sparse", dict(N=152, lam=1547.3, d=440501), 4.4e10, 2489),
    ("sf", dict(N=152, lam=3071.8, L=275), 1.2e11, 3628),
    ("df", dict(N=152, lam=1171.2, L=394, xi_total=20115), 6.4e10, 6404),
]
SIZE_KEYS = ("d", "L", "M", "xi_total")
QDRIFT_LAMBDA = 2183.6
QDRIFT_EPS = (1.6e-3, 1e-3)
CI_CONSTANT = 304.744                       # a^2/delta of the optimized window
QDRIFT_PUBLISHED = {"confidence": 1.9e16, "hodges_lehmann": 1.8e15}  # eps 1.6e-3
LAYOUT_CALIBRATION = [  # tiles 1908, 6.7e9 Toffolis: (p, distance, qubits, days)
    (1e-3, 31, 4e6, 3.0),
    (1e-4, 15, 1e6, None),
]


def _flags(params: dict) -> list[str]:
    names = {"lam": "--lambda", "xi_total": "--xi-total"}
    out = []
    for key, value in params.items():
        out += [names.get(key, f"--{key}"), repr(value)]
    return out


class CostSweep:
    """Short CLI commands: walk costs, qDRIFT, layout and the oracle suite."""

    name = "cli_cost_sweep"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: str) -> None:
        rng = np.random.default_rng(self.seed)
        ops = [self._cost_op(method, params, target, qubits)
               for method, params, target, qubits in GOLDEN_POINTS]
        for method in ("thc", "sparse", "sf", "df"):
            points = [p for p in GOLDEN_POINTS if p[0] == method]
            _, params, _, _ = points[int(rng.integers(len(points)))]
            params = dict(params, lam=round(params["lam"] * rng.uniform(0.8, 1.25), 1))
            for key in SIZE_KEYS:
                if key in params:
                    params[key] = int(params[key] * rng.uniform(0.8, 1.25))
            ops.append(self._cost_op(method, params, None, None))
        for mode in ("rms", "confidence", "hodges_lehmann"):
            for eps in QDRIFT_EPS:
                ops.append(self._qdrift_op(mode, eps))
        for p, distance, qubits, days in LAYOUT_CALIBRATION:
            ops.append(self._layout_tiles_op(p, distance, qubits, days))
        ops.append(self._layout_qubits_op())
        ops.append(Op("verify", self._command(["verify", "--all"]),
                      self._check_verify))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def cycle(self) -> list[Op]:
        return self.ops

    @staticmethod
    def _command(args):
        return lambda runner, opdir, op_id: [runner.cli(args, opdir, op_id)]

    @staticmethod
    def _report(children):
        return json.loads(children[0].out)["reports"][0]

    def _cost_op(self, method, params, target, qubits):
        def check(children, opdir):
            problems = exit_problems(children, 1)
            if problems:
                return problems
            report = self._report(children)
            problems = walk_problems(report, params["lam"])
            if target is not None:
                if rel_err(report["toffoli_total"], target) > 0.02:
                    problems.append(f"{method} N={params['N']}: Toffoli "
                                    f"{report['toffoli_total']:.4e} vs {target:.1e}")
                if abs(report["logical_qubits"] - qubits) > 2:
                    problems.append(f"{method} N={params['N']}: qubits "
                                    f"{report['logical_qubits']} vs {qubits}")
            return problems

        args = ["cost", "--method", method] + _flags(params)
        return Op(f"cost-{method}", self._command(args), check)

    def _qdrift_op(self, mode, eps):
        def check(children, opdir):
            problems = exit_problems(children, 1)
            if problems:
                return problems
            report = self._report(children)
            product = report["toffoli_per_step"] * report["iterations"]
            if rel_err(report["toffoli_total"], product) > 1e-12:
                problems.append(f"qdrift {mode}: toffoli_total is not "
                                "toffoli_per_step x iterations")
            if mode == "confidence":
                ratio = report["extras"]["n_exp"] * eps**2 / QDRIFT_LAMBDA**2
                if abs(ratio - CI_CONSTANT) > 0.5:
                    problems.append(f"n_exp eps^2/lambda^2 {ratio:.4f} vs "
                                    f"{CI_CONSTANT}")
            if eps == QDRIFT_EPS[0] and mode in QDRIFT_PUBLISHED:
                published = QDRIFT_PUBLISHED[mode]
                if rel_err(report["toffoli_total"], published) > 0.05:
                    problems.append(f"qdrift {mode}: Toffoli "
                                    f"{report['toffoli_total']:.3e} vs {published:.1e}")
            return problems

        args = ["cost", "--method", "qdrift", "--lambda", repr(QDRIFT_LAMBDA),
                "--eps", repr(eps), "--N", "108", "--mode", mode]
        return Op(f"qdrift-{mode}", self._command(args), check)

    def _layout_tiles_op(self, p, distance, qubits, days):
        def check(children, opdir):
            problems = exit_problems(children, 1)
            if problems:
                return problems
            est = json.loads(children[0].out)["estimate"]
            if est["data_distance"] != distance:
                problems.append(f"p={p}: distance {est['data_distance']} vs {distance}")
            if rel_err(est["physical_qubits_total"], qubits) > 0.10:
                problems.append(f"p={p}: {est['physical_qubits_total']:.3e} "
                                f"qubits vs {qubits:.0e}")
            if days is not None and rel_err(est["runtime_days"], days) > 0.15:
                problems.append(f"p={p}: {est['runtime_days']:.3f} days vs {days}")
            return problems

        args = ["layout", "--tiles", "1908", "--toffoli", "6.7e9", "--p", repr(p)]
        return Op("layout-tiles", self._command(args), check)

    def _layout_qubits_op(self):
        def check(children, opdir):
            problems = exit_problems(children, 1)
            if problems:
                return problems
            return layout_problems(json.loads(children[0].out)["estimate"])

        args = ["layout", "--toffoli", "5.3e9", "--logical-qubits", "2142"]
        return Op("layout-qubits", self._command(args), check)

    @staticmethod
    def _check_verify(children, opdir):
        problems = exit_problems(children, 1)
        if problems:
            return problems
        last = children[0].out.strip().splitlines()[-1]
        passed, _, rest = last.partition("/")
        if rest.split()[0] != passed:
            problems.append(f"verify --all: {last}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Pipeline, ThcFit, CostSweep)}
