"""Batch command line front end.

Four subcommands: ``report`` evaluates every coherence measure of a state
file, ``maximize`` runs the unitary-group search, ``infdim`` builds a
discretised infinite-dimensional state family and evaluates its coherence
through every applicable route with a convergence ladder, ``random``
generates reproducible state files.

Exit codes: 0 success, 2 validation failure (bad file, bad parameters,
unphysical state), 3 internal invariant violation.
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
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3

FAMILIES = ("geometric-oam", "thermal-fock", "coherent-fock", "gaussian-cv", "thermal-cv")


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
    inf.add_argument("--family", required=True, choices=FAMILIES)
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


def _infdim_payload(args) -> tuple[dict, object]:
    family = args.family
    payload: dict = {"family": family, "hbar": args.hbar}
    ladder: list[dict] = []

    if family in ("geometric-oam", "thermal-fock", "coherent-fock"):
        cutoff = args.grid_d
        if family == "geometric-oam":
            build = lambda d: infdim.geometric_oam(args.q, d)
            payload["parameters"] = {"q": args.q, "cutoff": cutoff}
        elif family == "thermal-fock":
            build = lambda d: infdim.thermal_fock(args.nbar, d)
            payload["parameters"] = {"nbar": args.nbar, "cutoff": cutoff}
        else:
            alpha = complex(args.alpha_re, args.alpha_im)
            build = lambda d: infdim.coherent_fock(alpha, d)
            payload["parameters"] = {
                "alpha_re": alpha.real,
                "alpha_im": alpha.imag,
                "cutoff": cutoff,
            }
        top_state = build(cutoff)
        value, error_bound = infdim.p_inf_oam(top_state)
        routes = {top_state.representation: value}
        if family == "geometric-oam":
            grid_m = args.grid_m if args.grid_m is not None else max(512, 2 * (2 * cutoff + 1))
            # the truncated state's samples integrate to its coefficient trace
            trace = float(top_state.coefficients.trace().real)
            routes["angle"] = infdim.p_inf_angle(infdim.oam_to_angle(top_state, grid_m), trace)
        payload["routes"] = routes
        payload["error_bound"] = error_bound
        for rung in _ladder_rungs(cutoff):
            # the top rung is the state already evaluated above
            rung_value = value if rung == cutoff else infdim.p_inf_oam(build(rung))[0]
            ladder.append({"d": rung, "value": rung_value})
    else:
        grid = infdim.build_cv_grid(args.grid_d, args.p_max, args.hbar)
        if family == "gaussian-cv":
            sigma = args.sigma_x if args.sigma_x is not None else math.sqrt(args.hbar / 2.0)
            build = lambda g: infdim.gaussian_cv(g, sigma, args.x0, args.p0)
            payload["parameters"] = {"sigma_x": sigma, "x0": args.x0, "p0": args.p0}
        else:
            build = lambda g: infdim.thermal_cv(g, args.nbar)
            payload["parameters"] = {"nbar": args.nbar}
        payload["grid"] = {"d": grid.d, "p_max": grid.p_max, "hbar": grid.hbar}
        top_state = build(grid)
        position_value = infdim.p_inf_cv(top_state)
        momentum_value = infdim.p_inf_cv(infdim.convert_representation(top_state))
        wigner = infdim.wigner_from_cv(top_state, args.wigner_steps, args.wigner_steps)
        payload["routes"] = {
            "position": position_value,
            "momentum": momentum_value,
            "wigner": infdim.p_inf_wigner(wigner, grid.hbar),
        }
        for rung in _ladder_rungs(grid.d):
            rung_p_max = grid.p_max * math.sqrt(rung / grid.d)
            if rung == grid.d:
                # same lattice as the top state: reuse its value
                rung_value = position_value
            else:
                try:
                    rung_value = infdim.p_inf_cv(
                        build(infdim.build_cv_grid(rung, rung_p_max, grid.hbar))
                    )
                except ValidationError:
                    # rung too coarse to resolve the state; report the hole
                    # rather than fail the whole run
                    rung_value = None
            ladder.append({"d": rung, "p_max": rung_p_max, "value": rung_value})

    payload["ladder"] = ladder
    resolved = [rung["value"] for rung in ladder if rung["value"] is not None]
    payload["differences"] = [b - a for a, b in zip(resolved, resolved[1:])]
    return payload, top_state


def cmd_infdim(args) -> int:
    payload, top_state = _infdim_payload(args)
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
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InternalInvariantViolation, EigenSolverFailure) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
