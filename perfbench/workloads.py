"""The workloads: inputs generated from a seed, the operations run on
them in one cycle, and the check each operation's output must pass.

Import this module only after ``qcoherence`` has been imported, so the
program is the first to import numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import qcoherence as qc
from qcoherence import basis_opt, bloch, cli, infdim, jsonio, measures, state

ROUTE_SPREAD_TOL = 1e-9
REFERENCE_TOL = 1e-9
CEILING_SLACK = 1e-6
SEARCH_GAP_TOL = 1e-3
FOCK_TOL = 1e-6
OAM_ANGLE_TOL = 1e-4
CV_TOL = 1e-3
CV_ROUTES_TOL = 1e-10
# The CLI samples the Wigner function over the whole lattice at --p-max 16,
# where its docstring warns of interpolation ripple; the route lands about
# 3e-3 from the closed form there, so it is held to p_inf_wigner's own
# normalisation tolerance.
WIGNER_TOL = 1e-2
INV_SQRT3 = 1.0 / math.sqrt(3.0)

SMALL_POOL = 200
INVALID_EVERY = 20
TSV_EVERY = 10
SEARCH_DIMS = (2, 3, 4, 6)
SEARCH_BUDGET = 3000
CLI_TRACE_STRIDE = 100
LIB_TRACE_STRIDE = 50
FOCK_REPEATS = 3
CYCLE_SMALL = 0.62
CYCLE_SEARCH = 2.7
CYCLE_INFDIM = 6.5

KINDS = ("ginibre_mixed", "haar_pure", "rank_k")
INVALID_KINDS = ("non_hermitian", "trace", "not_psd", "truncated")


@dataclass
class Outcome:
    returncode: int | None
    raised: bool
    stdout: str
    stderr: str
    seconds: float
    result: object = None
    out_bytes: int = 0
    # search statistics, filled in by the check of a search operation
    search: dict | None = None


@dataclass
class Op:
    """One closed-loop operation: a CLI command (``argv``) or a library
    call (``call``)."""

    label: str
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    outputs: tuple[Path, ...] = ()
    expect_reject: bool = False
    # check(outcome, time_call) -> bool; time_call(name, fn, *args) runs a
    # call that is part of the check, timed as a span in a traced run
    check: Callable[[Outcome, Callable], bool] = field(default=lambda outcome, time_call: True)


def execute(op: Op) -> Outcome:
    """Run one operation with its output files cleared beforehand and its
    standard streams captured; only the command itself is timed."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    returncode, raised, result = None, False, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if op.argv is not None:
                returncode = cli.main(op.argv)
            else:
                result = op.call()
                returncode = 0
        except (Exception, SystemExit):
            raised = True
            traceback.print_exc()
        seconds = time.perf_counter() - start
    stdout = out.getvalue()
    out_bytes = len(stdout.encode()) + sum(p.stat().st_size for p in op.outputs if p.exists())
    return Outcome(returncode, raised, stdout, err.getvalue(), seconds, result, out_bytes)


def _reference_p(matrix: np.ndarray) -> float:
    """Degree of coherence from the benchmark's own eigvalsh, independent
    of every route the program implements."""
    lam = np.linalg.eigvalsh(matrix)
    n, total = lam.size, float(np.sum(lam))
    return math.sqrt(max(0.0, (n * float(np.sum(lam**2)) - total**2) / ((n - 1) * total**2)))


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _state_text(rho) -> str:
    return jsonio.dumps(jsonio.density_to_dict(rho))


# ---------------------------------------------------------------------------
# report workloads


def _invalid_text(kind: str, rho, rng: np.random.Generator) -> str:
    doc = jsonio.density_to_dict(rho)
    if kind == "non_hermitian":
        doc["matrix"][0][1][0] += 1e-3
    elif kind == "trace":
        doc["matrix"] = [[[1.01 * x for x in cell] for cell in row] for row in doc["matrix"]]
    elif kind == "not_psd":
        # Hermitian, unit trace, one eigenvalue at -0.05
        n = rho.dim
        vals = 1.05 * rng.dirichlet(np.ones(n))
        vals[-1] = -0.05
        u = qc.haar_unitary(n, int(rng.integers(2**31)))
        m = (u * vals) @ u.conj().T
        doc["matrix"] = jsonio.matrix_to_lists((m + m.conj().T) / 2.0)
    text = jsonio.dumps(doc)
    return text[: len(text) // 2] if kind == "truncated" else text


def _generate_report_small(seed: int, workdir: Path) -> list[dict]:
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(SMALL_POOL):
        dim = int(rng.integers(2, 11))
        kind = KINDS[i % len(KINDS)]
        rho = qc.random_state(dim, kind, int(rng.integers(2**31)), 2 if kind == "rank_k" else None)
        invalid = None
        if i % INVALID_EVERY == 7:
            invalid = INVALID_KINDS[(i // INVALID_EVERY) % len(INVALID_KINDS)]
        path = workdir / f"small_{i:03d}.json"
        _write(path, _invalid_text(invalid, rho, rng) if invalid else _state_text(rho))
        specs.append({"path": path, "rho": rho, "invalid": invalid, "tsv": i % TSV_EVERY == 9})
    return specs


def _report_check(out_path: Path | None, reference: float):
    def check(outcome: Outcome, time_call) -> bool:
        if out_path is None:
            header, row = outcome.stdout.splitlines()
            fields = dict(zip(header.split("\t"), row.split("\t")))
            spread = float(fields["checks.max_route_discrepancy"])
            value = float(fields["p_n"])
        else:
            doc = json.loads(out_path.read_text(encoding="utf-8"))
            spread = doc["checks"]["max_route_discrepancy"]
            value = doc["p_n"]
        return spread <= ROUTE_SPREAD_TOL and abs(value - reference) <= REFERENCE_TOL

    return check


def _report_ops(specs: list[dict], workdir: Path) -> list[Op]:
    ops = []
    for i, spec in enumerate(specs):
        argv = ["report", "--input", str(spec["path"])]
        out_path = None
        if spec["tsv"]:
            argv += ["--format", "tsv"]
        else:
            out_path = workdir / f"report_{i:03d}.out.json"
            argv += ["--output", str(out_path)]
        op = Op(
            label=f"report N={spec['rho'].dim} {spec['invalid'] or ('tsv' if spec['tsv'] else 'json')}",
            argv=argv,
            outputs=(out_path,) if out_path else (),
            expect_reject=spec["invalid"] is not None,
        )
        if not op.expect_reject:
            op.check = _report_check(out_path, _reference_p(spec["rho"].entries))
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# search workload


def _generate_search(seed: int, workdir: Path) -> list[dict]:
    rng = np.random.default_rng(seed)
    specs = []
    for dim in SEARCH_DIMS:
        rho = qc.random_state(dim, "ginibre_mixed", int(rng.integers(2**31)))
        path = workdir / f"search_{dim}.json"
        _write(path, _state_text(rho))
        for target in ("mu", "visibility"):
            specs.append({
                "path": path,
                "rho": rho,
                "target": target,
                "cli_seed": int(rng.integers(2**31)),
                "lib_seed": int(rng.integers(2**31)),
            })
    return specs


def _search_stats(result: dict, reference: float, seeded: bool) -> dict:
    to_tol = next(
        (index for index, value in result["trace"] if reference - value <= SEARCH_GAP_TOL), None
    )
    return {
        "seeded": seeded,
        "evaluations": result["evaluations"],
        "iterations": result["iterations"],
        "converged": result["converged"],
        "evals_to_tol": to_tol,
    }


def _cli_search_check(out_path: Path, reference: float):
    # acceptance criterion 2: best <= analytic + 1e-6 and gap <= 1e-3
    def check(outcome: Outcome, time_call) -> bool:
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        outcome.search = _search_stats(doc, reference, seeded=True)
        best = doc["best_value"]
        return (
            best <= reference + CEILING_SLACK
            and reference - best <= SEARCH_GAP_TOL
            and abs(doc["analytic_value"] - reference) <= REFERENCE_TOL
            and doc["evaluations"] == SEARCH_BUDGET
        )

    return check


def _lib_search_check(reference: float):
    # without the analytic seed the search is only held to the ceiling; how
    # fast it closes the gap is reported as a count, not gated
    def check(outcome: Outcome, time_call) -> bool:
        result = outcome.result
        outcome.search = _search_stats(
            {
                "trace": result.trace,
                "evaluations": result.evaluations,
                "iterations": result.iterations,
                "converged": result.converged,
            },
            reference,
            seeded=False,
        )
        return result.best_value <= reference + CEILING_SLACK and result.evaluations == SEARCH_BUDGET

    return check


def _search_ops(specs: list[dict], workdir: Path) -> list[Op]:
    ops = []
    for i, spec in enumerate(specs):
        rho, target = spec["rho"], spec["target"]
        reference = _reference_p(rho.entries)
        out_path = workdir / f"search_{i}.out.json"
        ops.append(Op(
            label=f"maximize N={rho.dim} {target}",
            argv=[
                "maximize", "--input", str(spec["path"]), "--target", target,
                "--budget", str(SEARCH_BUDGET), "--seed", str(spec["cli_seed"]),
                "--trace-stride", str(CLI_TRACE_STRIDE), "--output", str(out_path),
            ],
            outputs=(out_path,),
            check=_cli_search_check(out_path, reference),
        ))
        name = "maximize_mu" if target == "mu" else "maximize_visibility"

        def call(name=name, rho=rho, seed=spec["lib_seed"]):
            # looked up at call time, so a traced run sees the call
            return getattr(basis_opt, name)(
                rho, SEARCH_BUDGET, seed,
                include_analytic_seed=False, trace_stride=LIB_TRACE_STRIDE,
            )

        ops.append(Op(label=f"{name} N={rho.dim} unseeded", call=call, check=_lib_search_check(reference)))
    return ops


# ---------------------------------------------------------------------------
# infdim workload


def _generate_infdim(seed: int, workdir: Path) -> list[dict]:
    rng = np.random.default_rng(seed)
    commands = [
        ("thermal-cv", ["--nbar", "1.0", "--grid-d", "256", "--p-max", "16",
                        "--save-state", str(workdir / "thermal_cv.json")]),
        ("gaussian-cv", ["--grid-d", "256", "--p-max", "16", "--hbar", "1.0"]),
        ("geometric-oam", ["--q", "0.5", "--grid-d", "60", "--grid-m", "512"]),
    ]
    # The two Fock commands take milliseconds against seconds for the
    # lattice ones.  With FOCK_REPEATS of each per cycle and at most three
    # cycles a run, the run's median and its tail (ten operations above it)
    # both fall inside the Fock group rather than on geometric-oam, whose
    # time varies twofold between runs.
    for _ in range(FOCK_REPEATS):
        phase = 2.0 * math.pi * float(rng.random())
        commands.append(("thermal-fock", ["--nbar", "1.0", "--grid-d", "80"]))
        commands.append(("coherent-fock", ["--alpha-re", repr(math.cos(phase)),
                                           "--alpha-im", repr(math.sin(phase)), "--grid-d", "80"]))
    return [{"family": commands[k][0], "args": commands[k][1]} for k in rng.permutation(len(commands))]


def _infdim_check(family: str, out_path: Path, save_path: Path | None):
    def check(outcome: Outcome, time_call) -> bool:
        routes = json.loads(out_path.read_text(encoding="utf-8"))["routes"]
        if family == "thermal-fock":
            return abs(routes["fock"] - INV_SQRT3) <= FOCK_TOL
        if family == "coherent-fock":
            return abs(routes["fock"] - 1.0) <= FOCK_TOL
        if family == "geometric-oam":
            return (
                abs(routes["oam"] - INV_SQRT3) <= FOCK_TOL
                and abs(routes["oam"] - routes["angle"]) <= OAM_ANGLE_TOL
            )
        oracle = 1.0 if family == "gaussian-cv" else INV_SQRT3
        ok = (
            abs(routes["position"] - oracle) <= CV_TOL
            and abs(routes["position"] - routes["momentum"]) <= CV_ROUTES_TOL
            and abs(routes["wigner"] - oracle) <= WIGNER_TOL
        )
        if save_path is not None:
            payload = json.loads(save_path.read_text(encoding="utf-8"))
            reloaded = time_call(
                "jsonio.infdim_state_from_dict", jsonio.infdim_state_from_dict, payload
            )
            ok = ok and infdim.p_inf_cv(reloaded) == routes["position"]
        return ok

    return check


def _infdim_ops(specs: list[dict], workdir: Path) -> list[Op]:
    ops = []
    for i, spec in enumerate(specs):
        family, args = spec["family"], spec["args"]
        out_path = workdir / f"infdim_{i}_{family}.out.json"
        save_path = Path(args[args.index("--save-state") + 1]) if "--save-state" in args else None
        ops.append(Op(
            label=f"infdim {family}",
            argv=["infdim", "--family", family, *args, "--output", str(out_path)],
            outputs=(out_path,) + ((save_path,) if save_path else ()),
            check=_infdim_check(family, out_path, save_path),
        ))
    return ops


# ---------------------------------------------------------------------------
# workload table


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int, Path], list[dict]]
    make_ops: Callable[[list[dict], Path], list[Op]]
    # wall time of one cycle, checks included, on the reference machine
    # (2 vCPUs, OpenBLAS 0.3.31 with default threads); a run executes
    # seconds / cycle_seconds cycles, so every run times the same work
    cycle_seconds: float


WORKLOADS = {
    "report-small": Workload(_generate_report_small, _report_ops, CYCLE_SMALL),
    "search": Workload(_generate_search, _search_ops, CYCLE_SEARCH),
    "infdim": Workload(_generate_infdim, _infdim_ops, CYCLE_INFDIM),
}


# ---------------------------------------------------------------------------
# tracing: which calls are spans, and the nested calls timed separately

_INFDIM_CONSTRUCTORS = ("geometric_oam", "thermal_fock", "coherent_fock", "thermal_cv", "gaussian_cv")


def _outside_ladder(name: str):
    """Span name for an infdim call: the CLI builds the top state first, so
    every call from the second family construction on belongs to the
    convergence ladder."""

    def resolve(tracer) -> str:
        return "infdim.ladder" if tracer.calls_so_far(_INFDIM_CONSTRUCTORS) > 1 else name

    return resolve


TRACE_TARGETS = (
    (jsonio, "density_from_dict", "jsonio.density_from_dict"),
    (jsonio, "report_to_dict", "jsonio.to_dict"),
    (jsonio, "maximization_to_dict", "jsonio.to_dict"),
    (jsonio, "oam_state_to_dict", "jsonio.to_dict"),
    (jsonio, "fock_state_to_dict", "jsonio.to_dict"),
    (jsonio, "cv_state_to_dict", "jsonio.to_dict"),
    (jsonio, "dumps", "jsonio.dumps"),
    (jsonio, "tsv_from_dict", "jsonio.tsv_from_dict"),
    (measures, "coherence_report", "measures.coherence_report"),
    (measures, "p_n", "measures.p_n"),
    (measures, "visibility", "measures.visibility"),
    (basis_opt, "maximize_mu", "basis_opt.maximize_mu"),
    (basis_opt, "maximize_visibility", "basis_opt.maximize_visibility"),
    *(
        (infdim, function, _outside_ladder("infdim.discrete"))
        for function in (
            "geometric_oam", "thermal_fock", "coherent_fock",
            "p_inf_oam", "p_inf_fock", "oam_to_angle", "p_inf_angle",
        )
    ),
    *(
        (infdim, function, _outside_ladder(f"infdim.{function}"))
        for function in ("thermal_cv", "gaussian_cv", "p_inf_cv")
    ),
    (infdim, "convert_representation", "infdim.convert_representation"),
    (infdim, "wigner_from_cv", "infdim.wigner_from_cv"),
    (infdim, "p_inf_wigner", "infdim.p_inf_wigner"),
)

SPANS = (
    "cli.self",
    "jsonio.density_from_dict",
    "jsonio.to_dict",
    "jsonio.dumps",
    "jsonio.tsv_from_dict",
    "jsonio.infdim_state_from_dict",
    "state.validate_density",
    "state.spectral_decompose",
    "bloch.to_bloch",
    "measures.coherence_report",
    "measures.p_n",
    "measures.visibility",
    "basis_opt.maximize_mu",
    "basis_opt.maximize_visibility",
    "infdim.discrete",
    "infdim.ladder",
    "infdim.thermal_cv",
    "infdim.gaussian_cv",
    "infdim.p_inf_cv",
    "infdim.convert_representation",
    "infdim.wigner_from_cv",
    "infdim.p_inf_wigner",
)


def time_nested(tracer) -> None:
    """Time the public calls nested inside the operation's spans on the
    same inputs, and subtract them from their callers: validate_density
    inside density_from_dict; spectral_decompose and to_bloch inside
    coherence_report.  (coherence_report reaches p_n as a global of its own
    module, so the p_n wrapper already records that call as a child.)"""
    for span in list(tracer.spans):
        if span.name == "jsonio.density_from_dict":
            payload, tol = span.args
            try:
                matrix = jsonio.matrix_from_lists(payload["matrix"])
                tracer.time_nested(span, "state.validate_density", state.validate_density, matrix, tol)
            except (qc.ValidationError, KeyError, TypeError):
                pass  # a rejected input; any time spent is recorded
        elif span.name == "measures.coherence_report" and span.result is not None:
            rho = span.args[0]
            for name, function in (
                ("state.spectral_decompose", state.spectral_decompose),
                ("bloch.to_bloch", bloch.to_bloch),
            ):
                tracer.time_nested(span, name, function, rho)
