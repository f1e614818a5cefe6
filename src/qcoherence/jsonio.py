"""Deterministic JSON and TSV serialisation.

The JSON writer emits floats at 17 significant digits (value-preserving for
doubles) through a hand-rolled encoder, so identical inputs always produce
byte-identical files.  Tokens are written without spaces: every writer
separates items with ``_ITEM_SEP`` (",") and keys from values with
``_KEY_SEP`` (":"), so the format is chosen in one place.  ``dumps_state``
writes a state file with the same bytes straight from the state's array,
formatting each distinct float once when at most a third are distinct;
each state kind's fields are described once, in ``_state_parts``, which
``state_to_dict`` shares.
Complex numbers are [re, im] pairs; matrices are row-major nested lists.
TSV output rounds to 12 significant digits for human consumption.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .basis_opt import MaximizationResult
from .errors import InvalidParameterError
from .infdim import CvGrid, CvState, FockState, OamState
from .measures import CoherenceReport, max_route_discrepancy
from .state import DEFAULT_TOLERANCE, DensityMatrix, _check_integer, validate_density

JSON_DIGITS = 17
TSV_DIGITS = 12


def format_float(value: float, digits: int = JSON_DIGITS) -> str:
    if not math.isfinite(value):
        raise InvalidParameterError(f"cannot serialise non-finite value {value}")
    return f"{value:.{digits}g}"


# Rows are formatted in blocks of about this many floats.  One template for
# a whole 513x513 lattice state raised the infdim benchmark's peak RSS by 7%
# over the recursive encoder, blocks of this size by 2-4%.
_BLOCK_FLOATS = 1 << 15

# Every writer below joins items and keys with these, so the separators are
# chosen once; without spaces the d=256 thermal-cv state file is 11% smaller.
_ITEM_SEP = ","
_KEY_SEP = ":"

_FLOAT = f"%.{JSON_DIGITS}g"
_FLOAT_CELL = f"[{_FLOAT}{_ITEM_SEP}{_FLOAT}]"
_TEXT_CELL = f"[%s{_ITEM_SEP}%s]"


def _matrix_pieces(n_rows: int, n_cols: int, cell: str, values) -> list[str]:
    """Pieces whose concatenation is a matrix of ``n_rows`` rows of
    ``n_cols`` ``cell`` templates of two values each, formatted one block of
    rows at a time; ``values(start, stop)`` returns the flat tuple of values
    for rows ``start:stop``."""
    row = "[" + _ITEM_SEP.join([cell] * n_cols) + "]"
    step = min(max(1, _BLOCK_FLOATS // (2 * n_cols)), n_rows)
    template = _ITEM_SEP.join([row] * step)
    pieces = ["["]
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        if stop - start < step:
            template = _ITEM_SEP.join([row] * (stop - start))
        pieces += (template % values(start, stop), _ITEM_SEP)
    pieces[-1] = "]"
    return pieces


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted.  ``np.unique`` hashes in numpy >= 2.3, at
    about 40 times the cost of this sort on a 513x513 lattice state."""
    ordered = np.sort(values, axis=None)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def _array_pieces(matrix: np.ndarray) -> list[str]:
    """Pieces of the text ``dumps(matrix_to_lists(matrix))`` writes, less the
    newline, formatted from one float64 view of the matrix.  When at most a
    third of the floats' 64-bit patterns are distinct, each distinct pattern
    is formatted once and the rows are assembled from its text; otherwise
    every float is formatted in place.  Patterns, not values, are compared,
    so +0.0 and -0.0 stay distinct."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or not m.size or not np.isfinite(m).all():
        # the generic path, which rejects a non-finite entry
        return [_encode(matrix_to_lists(m))]
    floats = np.ascontiguousarray(m).view(np.float64)
    bits = floats.view(np.uint64)
    patterns = _distinct_sorted(bits)
    # Measured on 513x513 matrices (2 cores, numpy 2.4): the routes cost the
    # same at 30-35% distinct patterns.  At 4% (the thermal lattice state)
    # dedup takes 0.10 s against 0.21 s in place; at 91-100% (a momentum
    # form, random entries) 0.84-0.91 s against 0.35-0.48 s.  No benchmark
    # workload writes a state above a third; the in-place route runs for the
    # CLI's random and coherent-Fock states, for some displaced gaussian-cv
    # states (34% at d=256, x0=0.5, p0=-0.5, where the routes tie) and for
    # library callers.
    if 3 * patterns.size > bits.size:
        return _matrix_pieces(
            *m.shape, _FLOAT_CELL, lambda start, stop: tuple(floats[start:stop].ravel().tolist())
        )
    texts = np.array([_FLOAT % x for x in patterns.view(np.float64).tolist()], dtype=object)

    def cells(start: int, stop: int) -> tuple:
        return tuple(texts[np.searchsorted(patterns, bits[start:stop].ravel())].tolist())

    return _matrix_pieces(*m.shape, _TEXT_CELL, cells)


def _encode(obj) -> str:
    # floats first: the commonest leaf
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + _ITEM_SEP.join(map(_encode, obj)) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}{_KEY_SEP}{_encode(v)}" for k, v in obj.items())
        return "{" + _ITEM_SEP.join(items) + "}"
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
    """Row-major nested lists of [re, im] pairs."""
    m = np.asarray(matrix, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


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
                or not isinstance(cell[0], (int, float))
                or not isinstance(cell[1], (int, float))
                # JSON true/false load as bool, an int subclass
                or type(cell[0]) is bool
                or type(cell[1]) is bool
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
# state files


def _state_parts(state) -> tuple[dict, np.ndarray]:
    """A state file's fields before the matrix, and the matrix; shared by
    ``state_to_dict`` and ``dumps_state``."""
    if isinstance(state, DensityMatrix):
        return {"dim": state.dim}, state.entries
    if isinstance(state, (OamState, FockState)):
        fields = {
            "representation": state.representation,
            "cutoff": state.cutoff,
            "tail_bound": state.declared_tail_bound,
        }
        return fields, state.coefficients
    if isinstance(state, CvState):
        grid = {"d": state.grid.d, "p_max": state.grid.p_max, "hbar": state.grid.hbar}
        return {"representation": state.representation, "grid": grid}, state.matrix
    raise TypeError(f"cannot serialise object of type {type(state)!r} as a state file")


def state_to_dict(state: DensityMatrix | OamState | FockState | CvState) -> dict:
    """The state file document of any state kind; also bound as
    ``density_to_dict``, ``oam_state_to_dict``, ``fock_state_to_dict`` and
    ``cv_state_to_dict``."""
    fields, matrix = _state_parts(state)
    return {**fields, "matrix": matrix_to_lists(matrix)}


density_to_dict = oam_state_to_dict = fock_state_to_dict = cv_state_to_dict = state_to_dict


def dumps_state(state: DensityMatrix | OamState | FockState | CvState) -> str:
    """The state file of ``state``, byte-identical to ``dumps(state_to_dict(
    state))`` but written straight from the state's array, without the
    nested lists."""
    fields, matrix = _state_parts(state)
    # the matrix is the last field of every state document
    key = f'{_ITEM_SEP}"matrix"{_KEY_SEP}'
    return "".join([_encode(fields)[:-1], key, *_array_pieces(matrix), "}\n"])


# ---------------------------------------------------------------------------
# finite-dimensional states


def density_from_dict(payload, tol: float = DEFAULT_TOLERANCE) -> DensityMatrix:
    if not isinstance(payload, dict) or "dim" not in payload or "matrix" not in payload:
        raise InvalidParameterError("state file needs keys 'dim' and 'matrix'")
    matrix = matrix_from_lists(payload["matrix"])
    dim = _check_integer(payload["dim"], "dim")
    if matrix.shape != (dim, dim):
        raise InvalidParameterError(
            f"declared dim {dim!r} does not match matrix shape {matrix.shape}"
        )
    return validate_density(matrix, tol)


def report_to_dict(report: CoherenceReport) -> dict:
    """Every report field, in declaration order, plus the cross-check block."""
    return {
        **vars(report),
        "checks": {"max_route_discrepancy": max_route_discrepancy(report)},
    }


def maximization_to_dict(result: MaximizationResult) -> dict:
    unitary = np.asarray(result.best_unitary)
    return {
        "target": result.target,
        "best_value": result.best_value,
        "analytic_value": result.analytic_value,
        "gap": result.analytic_value - result.best_value,
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


def infdim_state_from_dict(payload):
    """Load any of the discretised-state file formats, dispatching on the
    representation tag; the file's values go to the constructors, which
    check them."""
    if not isinstance(payload, dict) or "representation" not in payload:
        raise InvalidParameterError("state file needs a 'representation' tag")
    tag = payload["representation"]
    matrix = matrix_from_lists(payload.get("matrix"))
    if tag in ("oam", "fock"):
        cls = OamState if tag == "oam" else FockState
        return cls(payload.get("cutoff"), matrix, payload.get("tail_bound"))
    if tag in ("position", "momentum"):
        grid = payload.get("grid")
        if not isinstance(grid, dict):
            raise InvalidParameterError("lattice state file needs a 'grid' object")
        return CvState(CvGrid(grid.get("d"), grid.get("p_max"), grid.get("hbar", 1.0)), tag, matrix)
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
