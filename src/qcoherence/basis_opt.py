"""Numerical exploration of the unitary group.

The maxima of the two basis-dependent quantities (degree of coherence and
interference visibility) over all orthonormal bases are known analytically:
the coherence ratio peaks in any basis that equalises the diagonal, the
visibility peaks in the eigenbasis.  Both analytic maximisers are injected
as search seeds by default, so the stochastic search exists to supply
independent numerical evidence of the two theorems, not to discover the
optimum.

The local move is a two-parameter Givens rotation on a random index pair
composed with random diagonal phases, so every iterate stays exactly on the
unitary group.  Budgets count objective evaluations.

A move on columns (i, j) changes the conjugated state C = U^dagger rho U
only in rows and columns i and j, and the pair (C_ki, C_kj) of every other
row turns by a unitary.  With a = C_ii, b = C_jj, w = C_ij e^{-i phi} and
x = 2cs Re w, the moved block is

    C'_ii = c^2 a + s^2 b + x,    C'_jj = s^2 a + c^2 b - x,
    |C'_ij| = |(b - a)cs + c^2 w - s^2 conj(w)|,

so both objectives are updated exactly from these three numbers in O(1)
per proposal; the diagonal phases change neither and are applied to U only
when a move is accepted.  An accepted move recomputes C and re-scores its
literal sums.  C is formed as the Gram matrix B^dagger B of the factor
B = diag(sqrt(lambda)) V^dagger U of rho = V diag(lambda) V^dagger, so each
diagonal entry is a sum of non-negative terms and keeps its relative
accuracy however small it is; every value is held to the analytic ceiling
within 1e-10.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import enforce
from .measures import _mu_sums, _rotated_diagonal, _spread, _squared_deviation, p_n, visibility
from .state import (
    DensityMatrix,
    Spectrum,
    _check_integer,
    _readonly,
    _seeded_rng,
    spectral_decompose,
)

UNITARITY_TOL = 1e-10
_CEILING_TOL = 1e-10
# a search whose best value comes this close to the ceiling has converged
_CEILING_SLACK = 1e-6
_INITIAL_STEP = 0.5
_MIN_STEP = 1e-6
_REJECTS_PER_HALVING = 20
_DRAW_CHUNK = 256


@dataclass(frozen=True)
class MaximizationResult:
    """Outcome of one search: best value/basis found, the analytic maximum
    it is held to, effort spent, and the recorded trace of best-so-far
    values."""

    best_value: float
    analytic_value: float
    best_unitary: np.ndarray
    iterations: int
    evaluations: int
    converged: bool
    target: str
    trace: tuple[tuple[int, float], ...]


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity."""
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix with the
    phase-fixed R-diagonal correction; reproducible for fixed seed."""
    dim = _check_integer(dim, "dim", 2)
    return _readonly(_haar(_seeded_rng(seed), dim))


def equalizing_basis(rho: DensityMatrix) -> np.ndarray:
    """Unitary whose basis gives the conjugated state a uniform diagonal.

    Columns are the eigenvectors composed with the discrete Fourier unitary
    F_jk = exp(2 pi i j k / N) / sqrt(N), an inverse DFT of each row; every
    diagonal entry of the conjugated state is then 1/N, the configuration
    that maximises the basis-dependent degree of coherence.
    """
    return _readonly(_equalizing(spectral_decompose(rho)))


def _equalizing(spectrum: Spectrum) -> np.ndarray:
    return np.fft.ifft(spectrum.eigenvectors, axis=1, norm="ortho")


class _MuScore:
    """Degree of coherence of the conjugated state C = U^dagger rho U, held
    as its literal sums so that one Givens move is scored from its 2x2 block.

    ``rescore`` sets the sums from C itself.  ``block`` returns the value after
    a move with cosine ``c`` and sine ``s`` on the columns (i, j) whose block
    is a = C_ii, b = C_jj, w = C_ij e^{-i phi}.  Every other pair (C_ki, C_kj)
    turns by a unitary, so only |C_ij|^2 leaves the numerator and only C_ii C_jj
    the denominator (C_ii + C_jj is unchanged).
    """

    def __init__(self) -> None:
        self.numerator = 0.0
        self.denominator = 0.0

    @staticmethod
    def _ratio(numerator: float, denominator: float) -> float:
        if denominator <= 1e-300:
            return 0.0
        return math.sqrt(max(numerator, 0.0) / denominator)

    def rescore(self, conj: np.ndarray) -> float:
        self.numerator, self.denominator = _mu_sums(conj)
        return self._ratio(self.numerator, self.denominator)

    def block(self, a: float, b: float, w: complex, c: float, s: float) -> float:
        d_i, d_j = _rotated_diagonal(a, b, w, c, s)
        off = (b - a) * c * s + c * c * w - s * s * w.conjugate()
        numerator = (
            self.numerator
            - (w.real * w.real + w.imag * w.imag)
            + (off.real * off.real + off.imag * off.imag)
        )
        return self._ratio(numerator, self.denominator - a * b + d_i * d_j)


class _VisibilityScore:
    """Detection-probability spread of the diagonal of C = U^dagger rho U,
    held as Q = sum_k (C_kk - t/N)^2 (t = trace) so that one Givens move is
    scored from its 2x2 block: only the terms of k = i, j change.  The spread
    is linear in Q, so ``scale`` is its value per unit of Q."""

    def __init__(self) -> None:
        self.squares = 0.0
        self.mean = 0.0
        self.scale = 0.0

    def rescore(self, conj: np.ndarray) -> float:
        diag = conj.diagonal().real
        n = diag.size
        total = float(diag.sum())
        self.mean = total / n
        self.scale = _spread(1.0, n, total)
        self.squares = _squared_deviation(diag)
        return math.sqrt(self.scale * self.squares)

    def block(self, a: float, b: float, w: complex, c: float, s: float) -> float:
        d_i, d_j = _rotated_diagonal(a, b, w, c, s)
        m = self.mean
        squares = (
            self.squares - (a - m) ** 2 - (b - m) ** 2 + (d_i - m) ** 2 + (d_j - m) ** 2
        )
        return math.sqrt(self.scale * max(squares, 0.0))


def _draw_moves(rng: np.random.Generator, n: int) -> list[tuple]:
    """One chunk of proposal draws: an index pair i != j (uniform over ordered
    pairs), three standard normals (rotation angle and the two diagonal
    phases, scaled by the step when used) and e^{-i phi} for a uniform phase."""
    first = rng.integers(n, size=_DRAW_CHUNK)
    second = (first + 1 + rng.integers(n - 1, size=_DRAW_CHUNK)) % n
    normals = rng.standard_normal((3, _DRAW_CHUNK))
    turns = np.exp(-2j * np.pi * rng.random(_DRAW_CHUNK))
    return list(zip(first.tolist(), second.tolist(), *normals.tolist(), turns.tolist()))


def _apply_move(
    u: np.ndarray, i: int, j: int, c: float, s: float, turn: complex,
    phase_i: complex, phase_j: complex,
) -> np.ndarray:
    """U G D for the Givens rotation G on columns (i, j) (G_ii = G_jj = c,
    G_ji = s turn, G_ij = -s conj(turn), turn = e^{-i phi}) and the diagonal
    phases D.  Returns a new array: the search keeps earlier iterates."""
    moved = u.copy()
    col_i = u[:, i]
    col_j = u[:, j]
    moved[:, i] = col_i * (c * phase_i) + col_j * (s * turn * phase_i)
    moved[:, j] = col_j * (c * phase_j) - col_i * (s * turn.conjugate() * phase_j)
    return moved


def _greedy_search(
    spectrum: Spectrum,
    score: _MuScore | _VisibilityScore,
    ceiling: float,
    analytic_seed: np.ndarray | None,
    target: str,
    budget: int,
    seed: int,
    trace_stride: int,
) -> MaximizationResult:
    """First-improvement search with step halving and random restarts.

    Every proposal is one evaluation, scored by ``score.block`` from the 2x2
    block of the current conjugated state C = U^dagger rho U (held as nested
    lists), in O(1) whatever N is.  Each score takes one of its sums' own
    non-negative terms out and puts the moved one in, so it suffers no
    catastrophic cancellation.  The diagonal phases of a move change no
    score, so they enter U only when the move is accepted.  An accepted move
    updates the two columns of U, recomputes C from the factor of ``spectrum``
    and re-scores its literal sums (``score.rescore``), so no rounding drift
    carries from move to move; each restart point is scored the same way.
    Both the block scores and the re-scores are held to the ceiling within
    1e-10, and the best basis to unitarity within 1e-10.
    """
    _check_integer(budget, "budget", 1)
    _check_integer(trace_stride, "trace_stride", 0)
    rng = _seeded_rng(seed)
    lam = spectrum.eigenvalues
    n = lam.size
    factor = np.sqrt(np.maximum(lam, 0.0))[:, None] * spectrum.eigenvectors.conj().T

    best = -math.inf
    best_u: np.ndarray | None = None
    evaluations = 0
    iterations = 0
    trace: list[tuple[int, float]] = []
    ceiling_name = f"{target}: evaluated value"
    ceiling_limit = ceiling + _CEILING_TOL

    def checked(value: float) -> float:
        enforce(ceiling_name, value, ceiling_limit)
        return value

    def rescored(u: np.ndarray) -> tuple[float, list]:
        nonlocal best, best_u
        b = factor @ u
        conj = b.conj().T @ b
        value = checked(score.rescore(conj))
        if value > best:
            best = value
            best_u = u
        return value, conj.tolist()

    def counted() -> None:
        nonlocal evaluations
        evaluations += 1
        if trace_stride and (evaluations % trace_stride == 0):
            trace.append((evaluations, best))

    moves: list[tuple] = []
    drawn = 0
    pending_seed = analytic_seed
    while evaluations < budget:
        start = pending_seed if pending_seed is not None else _haar(rng, n)
        pending_seed = None
        current_u = np.asarray(start, dtype=complex)
        current, conj = rescored(current_u)
        counted()
        step = _INITIAL_STEP
        rejects = 0
        while evaluations < budget and step >= _MIN_STEP:
            iterations += 1
            if drawn == len(moves):
                moves = _draw_moves(rng, n)
                drawn = 0
            i, j, g_angle, g_i, g_j, turn = moves[drawn]
            drawn += 1
            angle = step * g_angle
            c = math.cos(angle)
            s = math.sin(angle)
            row_i = conj[i]
            candidate = checked(score.block(row_i[i].real, conj[j][j].real, row_i[j] * turn, c, s))
            if candidate > current:
                current_u = _apply_move(
                    current_u, i, j, c, s, turn,
                    cmath.exp(1j * step * g_i), cmath.exp(1j * step * g_j),
                )
                current, conj = rescored(current_u)
                rejects = 0
            else:
                rejects += 1
                if rejects >= _REJECTS_PER_HALVING:
                    step *= 0.5
                    rejects = 0
            counted()

    assert best_u is not None
    enforce(
        f"{target}: unitarity defect of the best basis", unitarity_defect(best_u), UNITARITY_TOL
    )
    if not trace or trace[-1][0] != evaluations:
        trace.append((evaluations, best))
    return MaximizationResult(
        best_value=float(best),
        analytic_value=ceiling,
        best_unitary=_readonly(best_u),
        iterations=iterations,
        evaluations=evaluations,
        converged=best >= ceiling - _CEILING_SLACK,
        target=target,
        trace=tuple(trace),
    )


def maximize_mu(
    rho: DensityMatrix,
    budget: int,
    seed: int,
    *,
    include_analytic_seed: bool = True,
    trace_stride: int = 0,
) -> MaximizationResult:
    """Random-restart greedy search for the basis maximising the
    basis-dependent degree of coherence.

    The objective is the literal ratio of off-diagonal to paired-diagonal
    mass of the conjugated state, kept as its two sums (squared off-diagonal
    magnitudes, products of diagonal pairs).  A proposal is scored by
    updating those sums exactly from the 2x2 block it touches: the move
    removes one term of each sum, |C_ij|^2 and C_ii C_jj, and adds the new
    one.  Each update subtracts one of the sum's own non-negative terms, so
    its rounding error stays at the scale of the sum and near-zero values
    stay near zero instead of picking up cancellation noise; every accepted
    move re-scores the literal sums.  The best value can never exceed the
    analytic maximum beyond 1e-10; with the analytic seed enabled (default)
    it attains it immediately.  One eigendecomposition gives the factor of
    the conjugated state and the seed.
    """
    spectrum = spectral_decompose(rho)
    return _greedy_search(
        spectrum,
        _MuScore(),
        ceiling=p_n(rho),
        analytic_seed=_equalizing(spectrum) if include_analytic_seed else None,
        target="mu_n",
        budget=budget,
        seed=seed,
        trace_stride=trace_stride,
    )


def maximize_visibility(
    rho: DensityMatrix,
    budget: int,
    seed: int,
    *,
    include_analytic_seed: bool = True,
    trace_stride: int = 0,
) -> MaximizationResult:
    """Random-restart greedy search for the basis maximising the detection
    probability spread; the eigenbasis attains the maximum and is injected
    as the first seed by default.  Proposals are scored from their 2x2 block
    as in :func:`maximize_mu`; one eigendecomposition gives the factor and
    the seed, and :func:`visibility` the ceiling."""
    spectrum = spectral_decompose(rho)
    return _greedy_search(
        spectrum,
        _VisibilityScore(),
        ceiling=visibility(rho),
        analytic_seed=np.asarray(spectrum.eigenvectors) if include_analytic_seed else None,
        target="visibility_f",
        budget=budget,
        seed=seed,
        trace_stride=trace_stride,
    )
