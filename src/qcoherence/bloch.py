"""Generalised Gell-Mann generators and Bloch-vector conversion.

The generator set for dimension N splits into symmetric pair matrices
U_jk, antisymmetric pair matrices V_jk (1 <= j < k <= N) and diagonal
matrices W_l (1 <= l <= N-1), all traceless Hermitian and mutually
orthogonal with Tr(A B) = 2 delta_AB.  A state maps to the real
coefficient vector of its expansion over these generators; the Euclidean
norm of that vector is the basis-independent degree of coherence.

Components are stored keyed by their (j, k) or l index so the dimension is
recoverable and ordering bugs are structural rather than silent; the
canonical flat order for export is all u (row-major pairs), all v, then w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionTooSmallError, WrongDimensionError, enforce
from .state import DEFAULT_TOLERANCE, DensityMatrix, _readonly, validate_density

_IMAG_RESIDUE_TOL = 1e-12


@dataclass(frozen=True)
class GellMannBasis:
    """The N^2 - 1 generators, grouped and keyed by index."""

    dim: int
    symmetric: dict[tuple[int, int], np.ndarray]
    antisymmetric: dict[tuple[int, int], np.ndarray]
    diagonal: dict[int, np.ndarray]

    def matrices(self):
        """All generators in canonical flat order."""
        yield from self.symmetric.values()
        yield from self.antisymmetric.values()
        yield from self.diagonal.values()


@dataclass(frozen=True)
class BlochVector:
    """Real expansion coefficients of a state over the generators."""

    dim: int
    u: dict[tuple[int, int], float]
    v: dict[tuple[int, int], float]
    w: dict[int, float]

    def components(self) -> np.ndarray:
        """Flat export order: u row-major, v row-major, w ascending."""
        return np.array(
            [*self.u.values(), *self.v.values(), *self.w.values()], dtype=float
        )


@lru_cache(maxsize=None)
def gellmann_basis(dim: int) -> GellMannBasis:
    """Build (and cache) the generator set for dimension ``dim``.

    At dim=2 this reduces exactly to the Pauli matrices.
    """
    if dim < 2:
        raise DimensionTooSmallError(f"dimension {dim} < 2")
    symmetric: dict[tuple[int, int], np.ndarray] = {}
    antisymmetric: dict[tuple[int, int], np.ndarray] = {}
    for j in range(1, dim + 1):
        for k in range(j + 1, dim + 1):
            u = np.zeros((dim, dim), dtype=complex)
            u[j - 1, k - 1] = 1.0
            u[k - 1, j - 1] = 1.0
            v = np.zeros((dim, dim), dtype=complex)
            v[j - 1, k - 1] = -1.0j
            v[k - 1, j - 1] = 1.0j
            symmetric[(j, k)] = _readonly(u)
            antisymmetric[(j, k)] = _readonly(v)
    diagonal: dict[int, np.ndarray] = {}
    for l in range(1, dim):
        coeff = math.sqrt(2.0 / (l * (l + 1)))
        w = np.zeros((dim, dim), dtype=complex)
        for m in range(l):
            w[m, m] = coeff
        w[l, l] = -l * coeff
        diagonal[l] = _readonly(w)
    return GellMannBasis(dim, symmetric, antisymmetric, diagonal)


def _real_component(z: complex, residue_name: str) -> float:
    enforce(residue_name, abs(z.imag), _IMAG_RESIDUE_TOL)
    return float(z.real)


def to_bloch(rho: DensityMatrix) -> BlochVector:
    """Expansion coefficients of ``rho`` over the generators.

    u_jk and v_jk read off the symmetrised and antisymmetrised off-diagonal
    entries, w_l the partial diagonal sums; all carry the dimension-dependent
    normalisation that makes the vector norm land in [0, 1].
    """
    n = rho.dim
    m = rho.entries
    off_coeff = math.sqrt(n / (2.0 * (n - 1)))
    u: dict[tuple[int, int], float] = {}
    v: dict[tuple[int, int], float] = {}
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            a = m[j - 1, k - 1]
            b = m[k - 1, j - 1]
            u[(j, k)] = _real_component(off_coeff * (a + b), f"u_{j}{k} imaginary residue")
            v[(j, k)] = _real_component(1j * off_coeff * (a - b), f"v_{j}{k} imaginary residue")
    w: dict[int, float] = {}
    diag = m.diagonal()
    for l in range(1, n):
        coeff = math.sqrt(n / (l * (l + 1.0) * (n - 1)))
        # summed as per-term differences so the Bloch origin is exact
        acc = complex(0.0)
        for i in range(l):
            acc += diag[i] - diag[l]
        w[l] = _real_component(coeff * acc, f"w_{l} imaginary residue")
    return BlochVector(n, u, v, w)


def from_bloch(vec: BlochVector, tol: float = DEFAULT_TOLERANCE) -> DensityMatrix:
    """Reassemble a state from its coefficients and validate physicality.

    The coefficient vector fixes Hermiticity and unit trace by construction,
    but for dim > 2 the unit ball contains unphysical points, so the result
    is eigenvalue-checked and NotPSDError raised when outside the physical
    body.
    """
    n = vec.dim
    basis = gellmann_basis(n)
    pair_count = n * (n - 1) // 2
    if (
        len(vec.u) != pair_count
        or len(vec.v) != pair_count
        or len(vec.w) != n - 1
        or set(vec.u) != set(basis.symmetric)
        or set(vec.v) != set(basis.antisymmetric)
        or set(vec.w) != set(basis.diagonal)
    ):
        raise WrongDimensionError(
            f"component keys do not match dimension {n} (need {n * n - 1} components)"
        )
    acc = np.zeros((n, n), dtype=complex)
    for key, value in vec.u.items():
        acc += value * basis.symmetric[key]
    for key, value in vec.v.items():
        acc += value * basis.antisymmetric[key]
    for key, value in vec.w.items():
        acc += value * basis.diagonal[key]
    mat = (np.eye(n, dtype=complex) + math.sqrt(n * (n - 1) / 2.0) * acc) / n
    return validate_density(mat, tol)


def bloch_norm(vec: BlochVector) -> float:
    """Euclidean norm of the coefficient vector.

    For a vector obtained from a valid state this equals the
    basis-independent degree of coherence of that state.
    """
    comps = vec.components()
    return math.sqrt(float(np.dot(comps, comps)))
