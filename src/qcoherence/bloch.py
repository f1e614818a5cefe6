"""Bloch-vector conversion over the generalised Gell-Mann generators.

The generator set for dimension N splits into symmetric pair matrices
U_jk, antisymmetric pair matrices V_jk (1 <= j < k <= N) and diagonal
matrices W_l (1 <= l <= N-1), all traceless Hermitian and mutually
orthogonal with Tr(A B) = 2 delta_AB.  A state maps to the real
coefficient vector of its expansion over these generators; the Euclidean
norm of that vector is the basis-independent degree of coherence.  Both
directions work on the matrix entries; no generator matrix is built.

A vector is one read-only float64 array of N^2 - 1 components in the
canonical order: all u (row-major pairs), all v (row-major pairs), then w
ascending in l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooSmallError, WrongDimensionError, enforce
from .state import (
    DEFAULT_TOLERANCE, DensityMatrix, _pairs, _readonly, _square_sum, validate_density
)

_IMAG_RESIDUE_TOL = 1e-12


@dataclass(frozen=True)
class BlochVector:
    """Real expansion coefficients of a state over the generators, as
    ``dim**2 - 1`` components: u row-major, v row-major, w ascending."""

    dim: int
    components: np.ndarray


def _residue_name(rows: np.ndarray, cols: np.ndarray, index: int) -> str:
    """Gate name of flat component ``index``: u pairs, v pairs, then w."""
    count = rows.size
    if index >= 2 * count:
        return f"w_{index - 2 * count + 1} imaginary residue"
    pair = index % count
    return f"{'uv'[index // count]}_{rows[pair] + 1}{cols[pair] + 1} imaginary residue"


def to_bloch(rho: DensityMatrix) -> BlochVector:
    """Expansion coefficients of ``rho`` over the generators.

    u_jk and v_jk read off the symmetrised and antisymmetrised off-diagonal
    entries, w_l the partial diagonal sums; all carry the dimension-dependent
    normalisation that makes the vector norm land in [0, 1].  One gate holds
    the largest imaginary residue of any component to 1e-12, and names that
    component.
    """
    n = rho.dim
    m = rho.entries
    rows, cols = _pairs(n)
    above, below = m[rows, cols], m[cols, rows]
    off_coeff = math.sqrt(n / (2.0 * (n - 1)))
    # w_l sums d_i - d_l over i < l, on diagonal entries shifted by the
    # first, so equal entries give exact zeros and the Bloch origin is exact
    shifted = m.diagonal() - m[0, 0]
    ls = np.arange(1.0, n)
    comps = np.concatenate((
        off_coeff * (above + below),
        1j * off_coeff * (above - below),
        np.sqrt(n / (ls * (ls + 1.0) * (n - 1))) * (shifted[:-1].cumsum() - ls * shifted[1:]),
    ))
    residues = np.abs(comps.imag)
    worst = int(residues.argmax())
    enforce(_residue_name(rows, cols, worst), residues[worst], _IMAG_RESIDUE_TOL)
    # a contiguous copy of the strided .real view, so the vector is one array
    return BlochVector(n, _readonly(comps.real))


def from_bloch(vec: BlochVector, tol: float = DEFAULT_TOLERANCE) -> DensityMatrix:
    """Reassemble a state from its coefficients and validate physicality.

    rho = (I + K sum_G c_G G) / N with K = sqrt(N(N-1)/2), entry by entry:
    K(u_jk -/+ i v_jk)/N above/below the diagonal, and (1 + K d_m)/N on it,
    with the suffix sum d_m = sum_{l>m} c_l w_l - m c_m w_m and
    c_l = sqrt(2 / (l (l+1))).  Hermiticity and unit trace hold by
    construction, but for dim > 2 the unit ball contains unphysical points,
    so the result is eigenvalue-checked (NotPSDError outside the body).
    """
    n = vec.dim
    if n < 2:
        raise DimensionTooSmallError(f"dimension {n} < 2")
    comps = np.asarray(vec.components, dtype=float)
    if comps.shape != (n * n - 1,):
        raise WrongDimensionError(
            f"components of shape {comps.shape} do not match dimension {n}"
            f" (need {n * n - 1} components)"
        )
    rows, cols = _pairs(n)
    count = rows.size
    u, v = comps[:count], comps[count : 2 * count]
    ls = np.arange(1.0, n)
    cw = np.sqrt(2.0 / (ls * (ls + 1.0))) * comps[2 * count :]
    scale = math.sqrt(n * (n - 1) / 2.0)
    diag = np.append(cw[::-1].cumsum()[::-1], 0.0)
    diag[1:] -= ls * cw
    mat = np.diag((1.0 + scale * diag) / n).astype(complex)
    mat[rows, cols] = scale * (u - 1j * v) / n
    mat[cols, rows] = scale * (u + 1j * v) / n
    return validate_density(mat, tol)


def bloch_norm(vec: BlochVector) -> float:
    """Euclidean norm of the coefficient vector.

    For a vector obtained from a valid state this equals the
    basis-independent degree of coherence of that state.
    """
    return math.sqrt(_square_sum(vec.components))
