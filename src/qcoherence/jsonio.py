"""Deterministic JSON and TSV serialisation.

The JSON writer emits floats at 17 significant digits (value-preserving for
doubles) through a hand-rolled encoder, so identical inputs always produce
byte-identical files; a finite matrix from ``matrix_to_lists`` is written
through a ``%.17g`` template with the same bytes.  Complex numbers are
[re, im] pairs; matrices are row-major nested lists.  TSV output rounds to
12 significant digits for human consumption.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .basis_opt import MaximizationResult
from .errors import InvalidParameterError
from .infdim import CvGrid, CvState, FockState, OamState
from .measures import CoherenceReport, max_route_discrepancy
from .state import DEFAULT_TOLERANCE, DensityMatrix, validate_density

JSON_DIGITS = 17
TSV_DIGITS = 12


def format_float(value: float, digits: int = JSON_DIGITS) -> str:
    if not math.isfinite(value):
        raise InvalidParameterError(f"cannot serialise non-finite value {value}")
    return f"{value:.{digits}g}"


class _FiniteMatrix(list):
    """Rows of [re, im] float pairs converted from a non-empty matrix whose
    entries were all finite; ``_encode`` formats it with one ``%`` call per
    block of rows instead of one call per float."""


# Rows are formatted in blocks of about this many floats.  One template for
# a whole 513x513 lattice state raised the infdim benchmark's peak RSS by 7%
# over the recursive encoder, blocks of this size by 2-4%.
_BLOCK_FLOATS = 1 << 15


def _format_matrix(rows: _FiniteMatrix) -> str:
    cell = f"[%.{JSON_DIGITS}g, %.{JSON_DIGITS}g]"
    row = "[" + ", ".join([cell] * len(rows[0])) + "]"
    step = max(1, _BLOCK_FLOATS // (2 * len(rows[0])))
    template = ", ".join([row] * step)
    blocks = []
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        if len(block) < step:
            template = ", ".join([row] * len(block))
        blocks.append(template % tuple(chain.from_iterable(chain.from_iterable(block))))
    return "[" + ", ".join(blocks) + "]"


def _encode(obj) -> str:
    if type(obj) is _FiniteMatrix:
        text = _format_matrix(obj)
        # only "nan" and "inf" contain an n: an entry set to one of them
        # after the conversion takes the generic path below, which rejects it
        if "n" not in text:
            return text
    # floats next: the commonest leaf of every other document
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_encode, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_encode(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialise object of type {type(obj)!r}")


def dumps(obj) -> str:
    return _encode(obj) + "\n"


def matrix_to_lists(matrix: np.ndarray) -> list[list[list[float]]]:
    """Row-major nested lists of [re, im] pairs.  A non-empty finite matrix
    comes back as a ``list`` subclass that ``dumps`` formats from a template."""
    m = np.asarray(matrix, dtype=complex)
    rows = np.stack((m.real, m.imag), -1).tolist()
    if m.ndim == 2 and m.size and np.isfinite(m).all():
        return _FiniteMatrix(rows)
    return rows


def matrix_from_lists(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise InvalidParameterError("matrix must be a non-empty list of rows")
    data = []
    width = None
    for r, row in enumerate(rows):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise InvalidParameterError(f"matrix row {r} is malformed")
        width = len(row)
        entries = []
        for c, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(part, (int, float)) for part in cell)
            ):
                raise InvalidParameterError(
                    f"matrix entry ({r}, {c}) must be a [re, im] pair"
                )
            try:
                entries.append(complex(cell[0], cell[1]))
            except OverflowError:
                raise InvalidParameterError(f"matrix entry ({r}, {c}) overflows a float") from None
        data.append(entries)
    return np.array(data, dtype=complex)


# ---------------------------------------------------------------------------
# finite-dimensional states


def density_to_dict(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": matrix_to_lists(rho.entries)}


def density_from_dict(payload, tol: float = DEFAULT_TOLERANCE) -> DensityMatrix:
    if not isinstance(payload, dict) or "dim" not in payload or "matrix" not in payload:
        raise InvalidParameterError("state file needs keys 'dim' and 'matrix'")
    matrix = matrix_from_lists(payload["matrix"])
    dim = payload["dim"]
    if not isinstance(dim, int) or matrix.shape != (dim, dim):
        raise InvalidParameterError(
            f"declared dim {dim!r} does not match matrix shape {matrix.shape}"
        )
    return validate_density(matrix, tol)


def bloch_to_dict(vec) -> dict:
    return {
        "dim": vec.dim,
        "u": {f"{j},{k}": value for (j, k), value in vec.u.items()},
        "v": {f"{j},{k}": value for (j, k), value in vec.v.items()},
        "w": {str(l): value for l, value in vec.w.items()},
    }


def report_to_dict(report: CoherenceReport) -> dict:
    """Every report field, in declaration order, plus the cross-check block."""
    return {
        **vars(report),
        "checks": {"max_route_discrepancy": max_route_discrepancy(report)},
    }


def maximization_to_dict(result: MaximizationResult, analytic_value: float) -> dict:
    unitary = np.asarray(result.best_unitary)
    return {
        "target": result.target,
        "best_value": result.best_value,
        "analytic_value": analytic_value,
        "gap": analytic_value - result.best_value,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "converged": result.converged,
        "best_unitary": {
            "dim": unitary.shape[0],
            "columns": matrix_to_lists(unitary.T),
        },
        "trace": [[index, value] for index, value in result.trace],
    }


# ---------------------------------------------------------------------------
# discretised infinite-dimensional states


def oam_state_to_dict(state: OamState | FockState) -> dict:
    """Either truncated state, tagged with its representation; also bound
    as ``fock_state_to_dict``."""
    return {
        "representation": state.representation,
        "cutoff": state.cutoff,
        "tail_bound": state.declared_tail_bound,
        "matrix": matrix_to_lists(state.coefficients),
    }


fock_state_to_dict = oam_state_to_dict


def cv_state_to_dict(state: CvState) -> dict:
    return {
        "representation": state.representation,
        "grid": {"d": state.grid.d, "p_max": state.grid.p_max, "hbar": state.grid.hbar},
        "matrix": matrix_to_lists(state.matrix),
    }


def _file_integer(value, name: str) -> int:
    """An integer read from a state file; bools are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an integer, not {type(value).__name__}")
    return value


def _file_float(value, name: str) -> float:
    """A number read from a state file as a float; bools, strings and
    integers beyond the float range are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(f"{name} must be a number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidParameterError(f"{name} overflows a float") from None


def infdim_state_from_dict(payload):
    """Load any of the discretised-state file formats, dispatching on the
    representation tag."""
    if not isinstance(payload, dict) or "representation" not in payload:
        raise InvalidParameterError("state file needs a 'representation' tag")
    tag = payload["representation"]
    matrix = matrix_from_lists(payload.get("matrix"))
    if tag in ("oam", "fock"):
        cls = OamState if tag == "oam" else FockState
        return cls(
            _file_integer(payload.get("cutoff"), "cutoff"),
            matrix,
            _file_float(payload.get("tail_bound"), "tail_bound"),
        )
    if tag in ("position", "momentum"):
        grid_info = payload.get("grid")
        if not isinstance(grid_info, dict):
            raise InvalidParameterError("lattice state file needs a 'grid' object")
        grid = CvGrid(
            _file_integer(grid_info.get("d", 0), "grid d"),
            _file_float(grid_info.get("p_max", 0.0), "grid p_max"),
            _file_float(grid_info.get("hbar", 1.0), "grid hbar"),
        )
        return CvState(grid, tag, matrix)
    raise InvalidParameterError(f"unknown representation tag {tag!r}")


# ---------------------------------------------------------------------------
# TSV


def tsv_from_dict(payload: dict) -> str:
    """Header/value TSV for a mapping; one level of nested mappings is
    flattened to dotted keys, lists are skipped."""

    def fmt(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (float, np.floating)):
            return format_float(float(value), TSV_DIGITS)
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return str(value)

    scalars = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            for subkey, subvalue in value.items():
                if not isinstance(subvalue, (dict, list, tuple)):
                    scalars[f"{key}.{subkey}"] = subvalue
        elif not isinstance(value, (list, tuple)):
            scalars[key] = value
    header = "\t".join(scalars)
    row = "\t".join(fmt(value) for value in scalars.values())
    return header + "\n" + row + "\n"
