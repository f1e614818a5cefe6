"""Construction, validation, spectral analysis and random generation of
finite-dimensional density matrices.

A density matrix is accepted when it is Hermitian, unit-trace and positive
semidefinite within a validation tolerance.  The stored entries are an
exactly Hermitian, exactly unit-trace copy of the input so that downstream
identities hold at the 1e-10 level rather than at the looser input
tolerance.  All returned objects are immutable and safe to share across
threads.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooSmallError,
    EigenSolverFailure,
    InvalidParameterError,
    InvalidRankError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    NotUnitTraceError,
)

DEFAULT_TOLERANCE = 1e-9

_PHASE_TOL = 1e-12

RANDOM_KINDS = ("haar_pure", "ginibre_mixed", "rank_k")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j of an n x n matrix, row-major."""
    rows, cols = np.triu_indices(n, k=1)
    return _readonly(rows), _readonly(cols)


def _complex_array(shape: tuple[int, ...], make=np.empty) -> np.ndarray:
    """``make(shape, dtype=complex)``.  A shape whose byte count passes
    numpy's index range, which numpy refuses with ValueError, raises
    MemoryError, as every other shape that cannot be held does."""
    if 16 * math.prod(int(n) for n in shape) > np.iinfo(np.intp).max:
        dims = " x ".join(str(n) for n in shape)
        raise MemoryError(f"Unable to allocate a {dims} complex128 array: past the index range")
    return make(shape, dtype=complex)


def _square_sum(x: np.ndarray) -> float:
    """sum |x_k|^2 of a real or complex array, the one square sum of the P
    routes: rows of its float64 view by ``einsum``, then pairwise ``np.sum``.
    No array-sized temporary; on 512^2 entries 3e-16 relative of exact (vdot: 5e-15)."""
    view = x.ravel(order="K").view(float).reshape(len(x), -1)
    return float(np.sum(np.einsum("ij,ij->i", view, view)))


def _hermitian_part(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """(arr + arr^H) / 2 as a new writable array, and the Hermiticity defect
    max|arr - arr^H|.  Both are made before any check, so an entry past
    half the float range leaves inf or nan in them without a warning."""
    adj = arr.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        # the defect's temporaries are freed before the part is allocated
        defect = float(np.max(np.abs(arr - adj)))
        return (arr + adj) / 2.0, defect


def _require_finite_part(part: np.ndarray, prefix: str = "") -> None:
    """Reject a Hermitian part with a non-finite entry as not positive.  A
    finite input leaves one where m_ij + conj(m_ji) passes the float range.
    A positive semidefinite matrix of unit trace has |m_ij|^2 <= m_ii * m_jj
    <= 1, so it has no such pair, and no factorisation or eigenvalue solver
    can certify a part past the float range."""
    if not np.isfinite(part).all():
        raise NotPSDError(f"{prefix}Hermitian part has an entry past the float range")


def _as_array(values, dtype) -> np.ndarray:
    """``np.asarray(values, dtype)``; values that numpy cannot read as numbers
    of one shape (strings, ragged rows) raise InvalidParameterError."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"entries must be numbers of one shape: {exc}") from None


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce input to a finite 2-d complex array."""
    arr = _as_array(matrix, complex)
    if arr.ndim != 2:
        raise NotSquareError(f"expected a 2-d matrix, got array of shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """Validated N x N state: Hermitian, unit trace, positive semidefinite.

    Construct through :func:`validate_density` (or the generators below);
    ``entries`` is exactly Hermitian with trace exactly renormalised to 1.
    """

    dim: int
    entries: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, paired with orthonormal eigenvector
    columns.  Equal eigenvalues keep the solver's order, and each column's
    first component above 1e-12 is real positive."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def validate_density(matrix, tol: float = DEFAULT_TOLERANCE) -> DensityMatrix:
    """Check all physicality conditions and return the validated state.

    Eigenvalues in [-tol, 0) are clamped to zero and the matrix renormalised
    to unit trace.  Violations beyond ``tol`` raise the matching error:
    NotSquareError, DimensionTooSmallError, NotHermitianError,
    NotUnitTraceError, NotPSDError.  ``tol`` must lie in [0, 1), so that a
    trace within it of 1 is positive and the renormalisation keeps the sign.
    """
    tol = _check_real(tol, "tolerance outside [0, 1)", lambda v: 0.0 <= v < 1.0)
    arr = as_complex_matrix(matrix)
    rows, cols = arr.shape
    if rows != cols:
        raise NotSquareError(f"matrix has shape {rows}x{cols}")
    if rows < 2:
        raise DimensionTooSmallError(f"dimension {rows} < 2")

    # the stored copy is the exactly Hermitian part, made exactly normalised
    sym, herm_defect = _hermitian_part(arr)
    if herm_defect > tol:
        raise NotHermitianError(
            f"Hermiticity defect {herm_defect:.3e} exceeds tolerance {tol:.1e}"
        )
    trace = complex(arr.trace())
    if abs(trace - 1.0) > tol:
        raise NotUnitTraceError(f"trace {trace} differs from 1 beyond {tol:.1e}")
    _require_finite_part(sym)
    sym /= sym.trace().real

    eigvals = _eigvalsh(sym)
    min_eig = float(eigvals[0])
    if min_eig < -tol:
        raise NotPSDError(f"minimum eigenvalue {min_eig:.6e} below -{tol:.1e}")
    if min_eig < 0.0:
        vals, vecs = _eigh(sym)
        vals = np.clip(vals, 0.0, None)
        sym, _ = _hermitian_part((vecs * vals) @ vecs.conj().T)
        sym /= sym.trace().real

    pur = _square_sum(sym)
    if pur > 1.0 + tol:
        raise NotPSDError(f"purity {pur:.12f} exceeds 1 beyond {tol:.1e}")
    sym.setflags(write=False)
    return DensityMatrix(rows, sym)


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"eigenvalue solver failed: {exc}") from exc


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"eigendecomposition failed: {exc}") from exc


def spectral_decompose(rho: DensityMatrix) -> Spectrum:
    """Descending eigenvalues and matching eigenvector columns of ``rho``.

    Equal eigenvalues keep the solver's column order.  Each column's phase
    is fixed so that its first component above 1e-12 is real positive; a
    column without one is left as the solver returned it.  Inside a
    degenerate block the basis is the solver's: no phase or order rule can
    undo a rotation within the block.
    """
    vals, vecs = _eigh(rho.entries)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    above = np.abs(vecs) > _PHASE_TOL
    pivots = vecs[above.argmax(axis=0), np.arange(vals.size)]
    phases = np.divide(
        pivots.conj(), np.abs(pivots), out=np.ones_like(pivots), where=above.any(axis=0)
    )
    return Spectrum(_readonly(vals), _readonly(vecs * phases))


def _check_integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int.  Raise InvalidParameterError unless it is an
    integer (a bool is not one here) of at least ``minimum``, when given."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidParameterError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _check_real(value, message: str, valid: Callable[[float], bool] | None = None) -> float:
    """``value`` as a float.  Raise InvalidParameterError with ``message`` and
    the value unless it is a finite real number (a bool, a string or an
    integer past the float range is not) that passes the caller's range
    test ``valid``, when given."""
    real = math.nan
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        with contextlib.suppress(OverflowError):
            real = float(value)
    if not (math.isfinite(real) and (valid is None or valid(real))):
        raise InvalidParameterError(f"{message}, got {value!r}")
    return real


def _check_complex(value, message: str) -> complex:
    """``value`` as a complex.  Raise InvalidParameterError with ``message``
    and the value unless it is a number (a bool, a string or bytes is not)
    whose real and imaginary parts are finite."""
    number = complex(math.nan)
    if not isinstance(value, bool) and isinstance(value, (int, float, complex, np.number)):
        with contextlib.suppress(OverflowError):
            number = complex(value)
    if not (math.isfinite(number.real) and math.isfinite(number.imag)):
        raise InvalidParameterError(f"{message}, got {value!r}")
    return number


def _seeded_rng(seed: int) -> np.random.Generator:
    """numpy's default generator for a reproducible seed, which must be a
    non-negative integer."""
    return np.random.default_rng(_check_integer(seed, "seed", 0))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), computed entrywise as the squared Frobenius norm."""
    return _square_sum(rho.entries)


def random_state(dim: int, kind: str, seed: int, rank: int | None = None) -> DensityMatrix:
    """Reproducible random density matrix of the requested kind.

    ``haar_pure`` draws a uniformly random pure state, ``ginibre_mixed`` a
    full-rank Ginibre mixture GG†/Tr(GG†), ``rank_k`` restricts the Ginibre
    factor to ``rank`` columns.  Fixed ``seed`` gives identical output.
    """
    if _check_integer(dim, "dim") < 2:
        raise DimensionTooSmallError(f"dimension {dim} < 2")
    if kind not in RANDOM_KINDS:
        raise InvalidParameterError(f"unknown kind {kind!r}; expected one of {RANDOM_KINDS}")
    if kind == "rank_k":
        if rank is None or not 1 <= _check_integer(rank, "rank") <= dim:
            raise InvalidRankError(f"rank must be in [1, {dim}], got {rank}")
    elif rank is not None:
        raise InvalidRankError("rank is only meaningful for kind='rank_k'")

    rng = _seeded_rng(seed)
    # the result first, so that a size that cannot be held fails before any draw
    mat = _complex_array((dim, dim))
    if kind == "haar_pure":
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        np.multiply.outer(psi, psi.conj(), out=mat)
    else:
        k = dim if kind == "ginibre_mixed" else int(rank)
        g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        np.matmul(g, g.conj().T, out=mat)
        mat /= mat.trace().real
    return validate_density(mat, DEFAULT_TOLERANCE)
