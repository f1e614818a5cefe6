"""Batch command line front end.

Four subcommands: ``report`` evaluates every coherence measure of a state
file, ``maximize`` runs the unitary-group search, ``infdim`` builds a
discretised infinite-dimensional state family and evaluates its coherence
through every applicable route with a convergence ladder, ``random``
generates reproducible state files.

Exit codes: 0 success, 2 validation failure (bad file, bad parameters,
unphysical state, unallocatable size), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import basis_opt, infdim, jsonio, measures, state
from .errors import (
    EigenSolverFailure,
    InternalInvariantViolation,
    InvalidParameterError,
    ValidationError,
    enforce,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3

# the exact routes of one infdim state agree to rounding; so does a closed
# form with its truncated value, once the declared tail bound is allowed
_INFDIM_TOL = 1e-12


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcoherence",
        description="Coherence measures of density matrices and discretised "
        "infinite-dimensional states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="evaluate all measures of a state file")
    report.add_argument("--input", required=True)
    report.add_argument("--output")
    report.add_argument("--tol", type=float, default=state.DEFAULT_TOLERANCE)
    report.add_argument("--format", choices=("json", "tsv"), default="json")

    maximize = sub.add_parser("maximize", help="search the unitary group")
    maximize.add_argument("--input", required=True)
    maximize.add_argument("--output")
    maximize.add_argument("--tol", type=float, default=state.DEFAULT_TOLERANCE)
    maximize.add_argument("--target", choices=("mu", "visibility"), default="mu")
    maximize.add_argument("--budget", type=int, default=10_000)
    maximize.add_argument("--seed", type=int, default=0)
    maximize.add_argument("--trace-stride", type=int, default=1000)
    maximize.add_argument("--format", choices=("json", "tsv"), default="json")

    inf = sub.add_parser("infdim", help="coherence of a discretised state family")
    inf.add_argument("--family", required=True, choices=tuple(infdim.FAMILIES))
    inf.add_argument("--output")
    inf.add_argument("--save-state", dest="save_state")
    inf.add_argument("--grid-d", type=int, default=64)
    inf.add_argument("--p-max", type=float, default=8.0)
    inf.add_argument("--grid-m", type=int, help="angle grid size for geometric-oam "
                     "(default: max(512, 2(2D+1)), which resolves the band)")
    inf.add_argument("--hbar", type=float, default=1.0)
    inf.add_argument("--q", type=float, default=0.5)
    inf.add_argument("--nbar", type=float, default=1.0)
    inf.add_argument("--alpha-re", type=float, default=1.0)
    inf.add_argument("--alpha-im", type=float, default=0.0)
    inf.add_argument("--sigma-x", type=float)
    inf.add_argument("--x0", type=float, default=0.0)
    inf.add_argument("--p0", type=float, default=0.0)
    inf.add_argument("--wigner-steps", type=int, default=241)
    inf.add_argument("--format", choices=("json", "tsv"), default="json")

    random_cmd = sub.add_parser("random", help="generate a reproducible state file")
    random_cmd.add_argument("--dim", type=int, required=True)
    random_cmd.add_argument("--kind", choices=state.RANDOM_KINDS, default="haar_pure")
    random_cmd.add_argument("--rank", type=int)
    random_cmd.add_argument("--seed", type=int, required=True)
    random_cmd.add_argument("--output")
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _render(payload: dict, out_format: str) -> str:
    if out_format == "tsv":
        return jsonio.tsv_from_dict(payload)
    return jsonio.dumps(payload)


def _load_state_file(path: str, tol: float) -> state.DensityMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # malformed JSON, bytes that are not UTF-8, an integer past the
            # parser's digit limit, or nesting past the recursion limit
            raise InvalidParameterError(f"unreadable state file: {exc}") from None
    return jsonio.density_from_dict(payload, tol)


def cmd_report(args) -> int:
    rho = _load_state_file(args.input, args.tol)
    report = measures.coherence_report(rho)
    _emit(_render(jsonio.report_to_dict(report), args.format), args.output)
    return EXIT_OK


def cmd_maximize(args) -> int:
    rho = _load_state_file(args.input, args.tol)
    search = basis_opt.maximize_mu if args.target == "mu" else basis_opt.maximize_visibility
    result = search(rho, args.budget, args.seed, trace_stride=args.trace_stride)
    _emit(_render(jsonio.maximization_to_dict(result), args.format), args.output)
    return EXIT_OK


def _ladder_rungs(top: int) -> list[int]:
    return sorted({min(top, max(1, top // k)) for k in (4, 2, 1)})


def cmd_infdim(args) -> int:
    family = infdim.FAMILIES[args.family]
    top = args.grid_d
    # the grid validates hbar before gaussian-cv's default sigma_x reads it
    grid = infdim.build_cv_grid(top, args.p_max, args.hbar) if family.lattice else None
    record = family.parameters(args)
    payload: dict = {"family": args.family, "hbar": args.hbar, "parameters": record}
    top_state = family.build(record, top if grid is None else grid)
    if grid is not None:
        payload["grid"] = {"d": grid.d, "p_max": grid.p_max, "hbar": grid.hbar}
        routes = payload["routes"] = {
            "position": infdim.p_inf_cv(top_state),
            "momentum": infdim.p_inf_cv(infdim.convert_representation(top_state)),
        }
    else:
        value, error_bound = infdim.p_inf_oam(top_state)
        routes = payload["routes"] = {top_state.representation: value}
        if isinstance(top_state, infdim.OamState):
            grid_m = args.grid_m if args.grid_m is not None else max(512, 2 * (2 * top + 1))
            # the truncated state's samples integrate to its coefficient trace
            trace = float(top_state.coefficients.trace().real)
            routes["angle"] = infdim.p_inf_angle(infdim.oam_to_angle(top_state, grid_m), trace)
        payload["error_bound"] = error_bound
        closed_form = payload["closed_form"] = family.closed_form(record)
        error = payload["closed_form_error"] = closed_form - value
        enforce("infdim closed form error", abs(error), error_bound + _INFDIM_TOL)
    high, low = max(routes, key=routes.get), min(routes, key=routes.get)
    enforce(f"infdim route spread {high} - {low}", routes[high] - routes[low], _INFDIM_TOL)
    if grid is not None:
        # written after the gate and not gated: the interpolated route is not exact
        steps = args.wigner_steps
        routes["wigner"] = infdim.p_inf_wigner(
            infdim.wigner_from_cv(top_state, steps, steps), grid.hbar
        )

    ladder = payload["ladder"] = []
    for d in _ladder_rungs(top):
        rung = {"d": d} if grid is None else {"d": d, "p_max": grid.p_max * math.sqrt(d / top)}
        if d == top:
            # the top rung is the state already evaluated above
            rung["value"] = payload["routes"][top_state.representation]
        elif grid is None:
            rung["value"] = infdim.p_inf_oam(family.build(record, d))[0]
        else:
            try:
                rung_grid = infdim.build_cv_grid(d, rung["p_max"], grid.hbar)
                rung["value"] = infdim.p_inf_cv(family.build(record, rung_grid))
            except ValidationError:
                # rung too coarse to resolve the state; report the hole
                # rather than fail the whole run
                rung["value"] = None
        ladder.append(rung)
    resolved = [rung["value"] for rung in ladder if rung["value"] is not None]
    payload["differences"] = [b - a for a, b in zip(resolved, resolved[1:])]
    _emit(_render(payload, args.format), args.output)
    if args.save_state:
        _emit(jsonio.dumps_state(top_state), args.save_state)
    return EXIT_OK


def cmd_random(args) -> int:
    rho = state.random_state(args.dim, args.kind, args.seed, args.rank)
    _emit(jsonio.dumps_state(rho), args.output)
    return EXIT_OK


_COMMANDS = {
    "report": cmd_report,
    "maximize": cmd_maximize,
    "infdim": cmd_infdim,
    "random": cmd_random,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, MemoryError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InternalInvariantViolation, EigenSolverFailure) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
