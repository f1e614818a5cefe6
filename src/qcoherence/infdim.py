"""Coherence of discretised infinite-dimensional states.

Three families of representations are supported:

* orbital angular momentum / angle: coefficients c_{l l'} on a symmetric
  band l, l' in [-D, D], with the angle-space coherence function sampled on
  a uniform grid of M points in [0, 2*pi);
* photon number: coefficients a_{n n'} on [0, D];
* position / momentum: a self-consistent lattice of 2D + 1 points whose
  spacings satisfy dx * dp * (2D + 1) = 2*pi*hbar exactly, the two bases
  related by the discrete Fourier unitary.

Truncation is caller-declared: each truncated state carries a bound on the
coefficient mass it discards, and the square-sum estimators propagate that
bound through the square root.  Non-normalisable inputs are rejected by
validation rather than silently accepted.

The quadratures are plain uniform Riemann sums, matching the limiting
construction they discretise; convergence is tested, not assumed.  hbar is
a configurable positive real, default 1.

The lattice constructors :func:`thermal_cv` and :func:`gaussian_cv` store
no tail below 2^-511, the square root of the smallest normal double: every
float of their matrix (real or imaginary part) below it in magnitude is
set to 0.  No stored float is then subnormal and no product of two stored
floats underflows, so the Fourier conversion, the positivity certificate
and the Wigner gather take no subnormal operand from the matrix, which
its sampled Gaussian tails otherwise reach.  The matrix moves by less
than sqrt(2) n 2^-511, about 1e-151, in Frobenius norm, far below the
rounding of its largest entries.  A state passed to :class:`CvState`
directly, or read from a file, is stored as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, NamedTuple

import numpy as np

from .errors import (
    EmptyStateError,
    GridMismatchError,
    GridTooCoarseError,
    InvalidParameterError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    enforce,
)
from .state import (
    _as_array, _check_complex, _check_integer, _check_real, _complex_array, _eigvalsh,
    _hermitian_part, _readonly, _require_finite_part, _square_sum, as_complex_matrix,
)

_HERMITICITY_TOL = 1e-12
_PSD_TOL = 1e-10
_TRACE_TOL = 1e-10
_COMMUTATOR_TOL = 1e-10
_ANGLE_NORM_TOL = 1e-6
_WIGNER_NORM_TOL = 1e-2

REPRESENTATIONS = ("position", "momentum")


def _validated_block(matrix, size: int, label: str, trace_tol=None, trace_hint="") -> np.ndarray:
    """Read-only Hermitian part (M + M^H) / 2 of a size x size block M,
    after checking, in order: the shape, finite entries, Hermiticity of M
    at 1e-12, the trace of M within ``trace_tol`` when it is given, finite
    entries of the part (``NotPSDError`` otherwise, whatever ``trace_tol``)
    and, when ``trace_tol`` is given, the minimum eigenvalue of the part at
    -1e-10.

    Positivity is certified by a Cholesky factorisation of the Hermitian
    part shifted by 1e-10 / 2, or of its real part when the imaginary part
    is negligible (:func:`_shifted_cholesky_succeeds` gives the bound that
    makes the two equivalent).  Cholesky is backward stable, so a success
    bounds the minimum eigenvalue below by -5e-11 less a rounding term
    near n * eps * ||H||, well inside -1e-10: it accepts only states that
    ``eigvalsh`` accepts.  When the factorisation fails, ``eigvalsh``
    decides, so every rejection and its message are exactly as before."""
    mat = _as_array(matrix, complex)
    if mat.shape != (size, size):
        raise InvalidParameterError(f"{label}: shape must be {(size, size)}, got {mat.shape}")
    as_complex_matrix(mat)
    part, defect = _hermitian_part(mat)
    if defect > _HERMITICITY_TOL:
        raise NotHermitianError(f"{label}: Hermiticity defect {defect:.3e}")
    part.setflags(write=False)
    if trace_tol is not None:
        trace = complex(mat.trace())
        if abs(trace - 1.0) > trace_tol:
            raise NotNormalizedError(
                f"{label}: trace {trace} misses 1 beyond {trace_tol:.3e}{trace_hint}"
            )
    _require_finite_part(part, f"{label}: ")
    if trace_tol is not None and not _shifted_cholesky_succeeds(part):
        min_eig = float(_eigvalsh(part)[0])
        if min_eig < -_PSD_TOL:
            raise NotPSDError(f"{label}: minimum eigenvalue {min_eig:.3e}")
    return part


def _shifted_cholesky_succeeds(herm: np.ndarray) -> bool:
    """Whether a Cholesky factor certifies the Hermitian ``herm`` +
    (1e-10 / 2) I positive.

    Write herm = A + iB with A real symmetric and B real antisymmetric.  By
    Weyl's inequality, lambda_min(herm) >= lambda_min(A) - ||B||_2 >=
    lambda_min(A) - ||B||_F.  So when beta = ||B||_F < 1e-10 / 4, a factor
    of the real A + (1e-10 / 2 - beta) I bounds lambda_min(herm) below by
    the same -1e-10 / 2, less rounding, as a factor of the complex
    herm + (1e-10 / 2) I, at about half the cost; otherwise the complex
    matrix is factored.  A shifted copy is factored; ``herm`` is read only."""
    beta = float(np.linalg.norm(herm.imag))
    if beta < _PSD_TOL / 4.0:
        shifted, shift = herm.real.copy(), _PSD_TOL / 2.0 - beta
    else:
        shifted, shift = herm.copy(), _PSD_TOL / 2.0
    shifted[np.diag_indices(len(shifted))] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class _TruncatedState:
    """Truncated state on a band of modes, plus the caller's bound on the
    coefficient mass beyond the band; the trace may miss 1 by that bound.
    ``coefficients`` holds the read-only Hermitian part of the input."""

    cutoff: int
    coefficients: np.ndarray
    declared_tail_bound: float

    representation: ClassVar[str]
    label: ClassVar[str]
    # the band holds modes_per_cutoff * cutoff + 1 modes
    modes_per_cutoff: ClassVar[int]

    def __post_init__(self):
        cutoff = _check_integer(self.cutoff, "cutoff", 0)
        tail = _check_real(self.declared_tail_bound, "tail bound must lie in [0, 1]",
                           lambda v: 0.0 <= v <= 1.0)
        size = self.modes_per_cutoff * cutoff + 1
        mat = _validated_block(self.coefficients, size, self.label, tail + 1e-12)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "coefficients", mat)
        object.__setattr__(self, "declared_tail_bound", tail)


class OamState(_TruncatedState):
    """Truncated state in the angular-momentum basis, indices l in [-D, D]
    stored at array position l + D."""

    representation = "oam"
    label = "angular-momentum state"
    modes_per_cutoff = 2


class FockState(_TruncatedState):
    """Truncated state in the photon-number basis, indices n in [0, D]."""

    representation = "fock"
    label = "photon-number state"
    modes_per_cutoff = 1


@dataclass(frozen=True)
class AngularCoherence:
    """Angle-space coherence function sampled on theta_a = 2*pi*a/M;
    ``samples`` holds the read-only Hermitian part of the input."""

    grid_size: int
    samples: np.ndarray

    def __post_init__(self):
        grid_size = _check_integer(self.grid_size, "grid_size", 2)
        samples = _validated_block(self.samples, grid_size, "angular samples")
        object.__setattr__(self, "grid_size", grid_size)
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class CvGrid:
    """Position/momentum lattice of 2D + 1 points.

    dp = p_max / D and dx = 2*pi*hbar / ((2D+1) dp), so the defining
    relation dx * dp * (2D+1) = 2*pi*hbar holds by construction; positions
    are m*dx and momenta j*dp for m, j in [-D, D].
    """

    d: int
    p_max: float
    hbar: float = 1.0
    dp: float = field(init=False)
    dx: float = field(init=False)

    def __post_init__(self):
        d = _check_integer(self.d, "d", 1)
        p_max = _check_real(self.p_max, "p_max must be a positive real", lambda v: v > 0.0)
        hbar = _check_real(self.hbar, "hbar must be a positive real", lambda v: v > 0.0)
        dp = p_max / d
        dx = 2.0 * math.pi * hbar / ((2 * d + 1) * dp) if dp > 0.0 else math.inf
        span = 2.0 * d * dx  # the largest |x - x'|, which the constructors square
        if not (dx > 0.0 and math.isfinite(span * span)):
            raise InvalidParameterError(
                f"position spacing {dx:.3e} from p_max {p_max!r} and hbar {hbar!r} "
                "underflows to 0, or (2 D dx)^2 overflows"
            )
        for name, value in (("d", d), ("p_max", p_max), ("hbar", hbar), ("dp", dp), ("dx", dx)):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return 2 * self.d + 1

    def indices(self) -> np.ndarray:
        return np.arange(-self.d, self.d + 1)

    def positions(self) -> np.ndarray:
        return self.indices() * self.dx

    def momenta(self) -> np.ndarray:
        return self.indices() * self.dp

    def position_to_momentum_matrix(self) -> np.ndarray:
        """Matrix of overlaps <p_j | x_m>; applying it to position-basis
        coordinates yields momentum-basis coordinates."""
        idx = self.indices()
        return np.exp(-2j * np.pi * np.outer(idx, idx) / self.size) / math.sqrt(self.size)

    def overlap_kernel(self, delta_x) -> np.ndarray:
        """Overlap of two continuum position vectors separated by delta_x:
        a normalised Dirichlet kernel, zero exactly at nonzero multiples of
        dx within one period."""
        u = np.asarray(delta_x, dtype=float) * self.dp / (2.0 * self.hbar)
        sin_u = np.sin(u)
        # an exact zero of sin(u) occurs only at delta_x = 0 for separations
        # within the lattice span
        at_pole = sin_u == 0.0
        safe = np.where(at_pole, 1.0, sin_u)
        out = np.sin(self.size * u) / (self.size * safe)
        pole_value = np.cos(self.size * u) / np.cos(u)
        return np.where(at_pole, pole_value, out)


@dataclass(frozen=True)
class CvState:
    """State matrix on a position/momentum lattice, in one representation.

    The matrix holds the dimensionless coefficients whose diagonal sums to
    one; dividing by the lattice spacing recovers the continuum kernel.
    It is stored as the read-only Hermitian part (M + M^H) / 2 of the
    input M, so it is exactly Hermitian.
    """

    grid: CvGrid
    representation: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise InvalidParameterError(
                f"representation must be one of {REPRESENTATIONS}"
            )
        hint = "; the grid may not resolve or contain the state"
        mat = _validated_block(self.matrix, self.grid.size, "lattice state", _TRACE_TOL, hint)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class WignerSamples:
    """Real phase-space samples W(x_a, p_b) on a uniform rectangular grid."""

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or p.ndim != 1 or x.size < 2 or p.size < 2:
            raise InvalidParameterError("x and p must be 1-d with at least 2 points")
        if values.shape != (x.size, p.size):
            raise InvalidParameterError(
                f"values must have shape {(x.size, p.size)}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("phase-space samples must be finite")
        for name, axis in (("x", x), ("p", p)):
            steps = np.diff(axis)
            if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0) or steps[0] <= 0:
                raise InvalidParameterError(f"{name} grid must be uniform ascending")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "p", _readonly(p))
        object.__setattr__(self, "values", _readonly(values))

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])


# ---------------------------------------------------------------------------
# square-sum estimators


def p_inf_oam(state: OamState | FockState) -> tuple[float, float]:
    """Square root of the truncated coefficient square-sum S, with the error
    bound t / (2 sqrt(S)) obtained by pushing the declared tail t through
    the square root.  One body serves both bases: ``p_inf_fock`` is the same function."""
    total = _square_sum(state.coefficients)
    if total <= 0.0:
        raise EmptyStateError(f"{state.label}: all coefficients are zero")
    value = math.sqrt(total)
    return value, state.declared_tail_bound / (2.0 * value)


p_inf_fock = p_inf_oam


def oam_to_angle(state: OamState, grid_size: int) -> AngularCoherence:
    """Sample the angle-space coherence function of a band-limited state.

    W(theta_a, theta_b) = (1/2pi) sum_{l,l'} c_{l l'} exp(i(l theta_a - l' theta_b))
    at theta_a = 2 pi a / M, M = grid_size.  The coefficients sit at the
    centred indices l, l' of an M x M array, which is conjugated with the
    lattice DFT by :func:`_conjugate_matrix`: its kernel
    exp(2 pi i (a l - b l') / M) / M is periodic in a and b, so undoing the
    output centring with ``ifftshift`` puts the sample of (a, b) at [a, b],
    and the factor M / 2pi finishes the sum.  Requires grid_size >=
    2(2D+1) so the band is resolved (the uniform-grid quadrature of the
    resulting trigonometric polynomial is then exact).
    """
    band = 2 * state.cutoff + 1
    if _check_integer(grid_size, "grid_size") < 2 * band:
        raise GridTooCoarseError(
            f"grid_size {grid_size} < {2 * band} cannot resolve the truncated band"
        )
    # the samples first, so that a size that cannot be held fails before the transform
    samples = _complex_array((grid_size, grid_size), np.zeros)
    centre = slice(grid_size // 2 - state.cutoff, grid_size // 2 + state.cutoff + 1)
    samples[centre, centre] = state.coefficients
    samples = np.fft.ifftshift(_conjugate_matrix(samples, to_momentum=False))
    samples *= grid_size / (2.0 * np.pi)
    return AngularCoherence(grid_size, samples)


def p_inf_angle(w: AngularCoherence, trace: float = 1.0) -> float:
    """Uniform-grid quadrature of the double angle integral of |W|^2, the
    square sum of W times the squared weight, square-rooted;
    rejects samples whose trace quadrature misses ``trace`` by more than
    1e-6.  A truncated state's samples integrate to its coefficient trace,
    1 less its discarded mass, and the quadrature reproduces that trace
    exactly once the grid resolves the band."""
    m = w.grid_size
    weight = 2.0 * np.pi / m
    quadrature = weight * float(np.sum(w.samples.diagonal().real))
    if abs(quadrature - trace) > _ANGLE_NORM_TOL:
        raise NotNormalizedError(
            f"trace quadrature {quadrature:.8f} misses {trace:.8g} beyond {_ANGLE_NORM_TOL}"
        )
    return math.sqrt(weight * weight * _square_sum(w.samples))


def build_cv_grid(d: int, p_max: float, hbar: float = 1.0) -> CvGrid:
    """Construct the position/momentum lattice (validates parameters)."""
    return CvGrid(d, p_max, hbar)


def p_inf_cv(state: CvState) -> float:
    """Square root of the squared Frobenius mass of the lattice state; the
    Riemann-sum form of the double kernel integral, identical in either
    representation because the basis change is unitary."""
    return math.sqrt(_square_sum(state.matrix))


def _conjugate_matrix(matrix: np.ndarray, to_momentum: bool) -> np.ndarray:
    """F M F^H (to_momentum) or F^H M F, with F the centred n-point DFT
    F_jm = exp(-2 pi i j m / n) / sqrt(n), by FFT along each axis; for the
    lattice, n = 2D+1 and F is :meth:`CvGrid.position_to_momentum_matrix`.

    The centred indices run over [-(n//2), n - 1 - n//2], that is [-D, D]
    for odd n = 2D+1 and [-n/2, n/2 - 1] for even n, held at array position
    index + n//2.  The shifts map that range onto numpy's [0, n - 1]
    layout and back; the kernel is periodic in both indices, so the result
    equals the dense product up to rounding for either parity.
    """
    forward, backward = (np.fft.fft, np.fft.ifft) if to_momentum else (np.fft.ifft, np.fft.fft)
    shifted = np.fft.ifftshift(matrix)
    return np.fft.fftshift(
        backward(forward(shifted, axis=0, norm="ortho"), axis=1, norm="ortho")
    )


def convert_representation(state: CvState) -> CvState:
    """Fourier-conjugate the state to the other lattice representation.

    Two FFT passes, O(n^2 log n) for the n x n lattice matrix, in place of
    the dense O(n^3) products with the DFT matrix.
    """
    if state.representation == "position":
        return CvState(state.grid, "momentum", _conjugate_matrix(state.matrix, True))
    return CvState(state.grid, "position", _conjugate_matrix(state.matrix, False))


def commutator_check(grid: CvGrid, probe: CvState) -> tuple[complex, float]:
    """Expectation of the position-momentum commutator in the probe state.

    Builds both lattice operators, asserts the structural facts (zero trace
    and zero diagonal elements of the commutator), and returns the
    expectation together with its distance from i*hbar.  Bulk states
    reproduce i*hbar increasingly well on finer grids; states concentrated
    at the lattice edge do not, which is a property of the construction,
    not an error.
    """
    if probe.grid != grid:
        raise GridMismatchError("probe lives on a different lattice")
    position_state = probe if probe.representation == "position" else convert_representation(probe)
    x = grid.positions()
    p = grid.momenta()
    momentum_op = _conjugate_matrix(np.diag(p).astype(complex), to_momentum=False)
    commutator = x[:, None] * momentum_op - momentum_op * x[None, :]
    enforce("commutator trace", abs(complex(commutator.trace())), _COMMUTATOR_TOL)
    enforce(
        "commutator diagonal max", float(np.max(np.abs(commutator.diagonal()))), _COMMUTATOR_TOL
    )
    expectation = complex(np.sum(position_state.matrix.T * commutator))
    deviation = abs(expectation - 1j * grid.hbar)
    return expectation, deviation


def continuum_position_state(grid: CvGrid, x0: float) -> CvState:
    """Projector onto the (normalised) continuum position vector at x0.

    Useful as a pathological probe: concentrated at a half-integer lattice
    position near the edge, its commutator expectation grows linearly with
    the lattice size instead of approaching i*hbar.
    """
    overlaps = grid.overlap_kernel(grid.positions() - x0)
    return CvState(grid, "position", np.outer(overlaps, overlaps.conj()))


def wigner_from_cv(
    state: CvState,
    x_steps: int,
    p_steps: int,
    x_span: float | None = None,
    p_span: float | None = None,
) -> WignerSamples:
    """Phase-space samples of a position-representation lattice state.

    Quadrature of W(x, p) = (1/pi hbar) * integral dy G(x+y, x-y)
    exp(-2ipy/hbar) with y stepped by dx/2 and the kernel G = matrix/dx
    linearly interpolated between lattice points.  Output spans
    [-x_span, x_span] times [-p_span, p_span], defaulting to the full
    lattice range in x and [-p_max, p_max] in p; rows near |p| = p_max
    pick up interpolation ripple (normalisation 0.965 for thermal nbar = 1 at
    D = 64, p_max = 8, 241^2 samples), so window the output to the support.

    All rows are evaluated at once, without a loop over x, over the
    non-negative lags y = k dy, k in [0, 2D], in real arithmetic.  At lag
    -k the bilinear indices and weights are those at +k with the two axes
    swapped, so for the kernel G, Hermitian because the stored matrix is,
    the sum over all 4D+1 lags is the real sum over k >= 0 with the k > 0
    terms doubled.  One bilinear gather of G reaches only the (row, lag)
    pairs that stay on the lattice, and two real products with shared
    cos(2yp/hbar) and sin(2yp/hbar) matrices finish the sum.  Transient
    memory is O(x_steps * (2D+1)).  The (x_steps, 2D+1) lag matrix is
    allocated first, after the parameter checks, so an ``x_steps`` too large
    to hold raises MemoryError before the axes and the lag mask exist.
    """
    if state.representation != "position":
        raise GridMismatchError("phase-space sampling needs the position representation")
    x_steps = _check_integer(x_steps, "x_steps", 2)
    p_steps = _check_integer(p_steps, "p_steps", 2)
    grid = state.grid
    hbar = grid.hbar
    n = grid.size
    x_max = grid.d * grid.dx
    spans = f"spans must lie in (0, {x_max:.6g}] x (0, {grid.p_max:.6g}]"
    x_span = _check_real(x_max if x_span is None else x_span, spans, lambda v: 0.0 < v <= x_max)
    p_span = _check_real(grid.p_max if p_span is None else p_span, spans,
                         lambda v: 0.0 < v <= grid.p_max)
    # the lag matrix first, so that a size that cannot be held fails before
    # the axes and the lag mask
    g = _complex_array((x_steps, 2 * grid.d + 1), np.zeros)
    xs = np.linspace(-x_span, x_span, x_steps)
    ps = np.linspace(-p_span, p_span, p_steps)
    dy = grid.dx / 2.0
    # one y axis shared by all rows, k in [0, 2D]; row a keeps the
    # k <= k_max(x_a) that stays on the lattice (the span check above
    # bounds |x_a| by x_max, so every row reaches k = 0)
    k = np.arange(2 * grid.d + 1)
    y = k * dy
    k_max = np.floor((x_max - np.abs(xs)) / dy + 1e-12)
    rows, lags = np.nonzero(k[None, :] <= k_max[:, None])
    frac_fwd = (xs[rows] + y[lags] + x_max) / grid.dx
    frac_bwd = (xs[rows] - y[lags] + x_max) / grid.dx
    i_fwd = np.clip(np.floor(frac_fwd).astype(int), 0, n - 2)
    i_bwd = np.clip(np.floor(frac_bwd).astype(int), 0, n - 2)
    w_fwd = np.clip(frac_fwd - i_fwd, 0.0, 1.0)
    w_bwd = np.clip(frac_bwd - i_bwd, 0.0, 1.0)
    # the kernel G = matrix / dx, Hermitian as the stored matrix is; its
    # float pairs are divided, correctly rounded, where numpy's complex
    # division by a real would multiply by the reciprocal at greater cost
    herm = (state.matrix.view(float) / grid.dx).view(complex).ravel()
    flat = i_fwd * n + i_bwd
    g[rows, lags] = (
        herm[flat] * (1.0 - w_fwd) * (1.0 - w_bwd)
        + herm[flat + n] * w_fwd * (1.0 - w_bwd)
        + herm[flat + 1] * (1.0 - w_fwd) * w_bwd
        + herm[flat + n + 1] * w_fwd * w_bwd
    )
    # each lag k > 0 stands for both +k and -k; doubling a row of the
    # oscillation matrices is exact and cheaper than doubling g
    theta = 2.0 * np.outer(y, ps) / hbar
    paired = np.where(k > 0, 2.0, 1.0)[:, None]
    values = g.real @ (paired * np.cos(theta)) + g.imag @ (paired * np.sin(theta))
    return WignerSamples(xs, ps, values * dy / (np.pi * hbar))


def p_inf_wigner(w: WignerSamples, hbar: float) -> float:
    """Uniform quadrature of 2*pi*hbar times the square sum of the
    phase-space samples, square-rooted; rejects sample sets whose
    normalisation misses 1 by more than 1e-2."""
    hbar = _check_real(hbar, "hbar must be a positive real", lambda v: v > 0.0)
    cell = w.dx * w.dp
    norm = cell * float(np.sum(w.values))
    if abs(norm - 1.0) > _WIGNER_NORM_TOL:
        raise NotNormalizedError(
            f"phase-space normalisation {norm:.8f} misses 1 beyond {_WIGNER_NORM_TOL:.0e}"
        )
    return math.sqrt(2.0 * np.pi * hbar * cell * _square_sum(w.values))


# ---------------------------------------------------------------------------
# state-family constructors (each computes its own rigorous tail bound)


def geometric_oam(q: float, cutoff: int) -> OamState:
    """Diagonal mixture of non-negative angular-momentum modes with
    geometric weights (1-q) q^l; discarded mass is exactly q^(cutoff+1)."""
    q = _check_real(q, "q must lie in (0, 1)", lambda v: 0.0 < v < 1.0)
    cutoff = _check_integer(cutoff, "cutoff", 0)
    mat = _complex_array((2 * cutoff + 1, 2 * cutoff + 1), np.zeros)
    np.fill_diagonal(mat[cutoff:, cutoff:], (1.0 - q) * q ** np.arange(cutoff + 1))
    return OamState(cutoff, mat, q ** (cutoff + 1))


def oam_mode_superposition(amplitudes: dict[int, complex], cutoff: int) -> OamState:
    """Pure superposition of angular-momentum modes, normalised; exact
    within the band so the tail bound is zero."""
    cutoff = _check_integer(cutoff, "cutoff", 0)
    size = 2 * cutoff + 1
    vec = np.zeros(size, dtype=complex)
    for key, amp in amplitudes.items():
        mode = _check_integer(key, "mode")
        if abs(mode) > cutoff:
            raise InvalidParameterError(f"mode {mode} outside band [-{cutoff}, {cutoff}]")
        amp = _check_complex(amp, f"amplitude of mode {mode} must be a finite number")
        vec[mode + cutoff] = amp
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise EmptyStateError("all amplitudes are zero")
    vec /= norm
    return OamState(cutoff, np.outer(vec, vec.conj()), 0.0)


def thermal_fock(nbar: float, cutoff: int) -> FockState:
    """Thermal photon-number mixture with mean occupation nbar; discarded
    mass is exactly (nbar/(nbar+1))^(cutoff+1)."""
    nbar = _check_real(nbar, "nbar must be a non-negative real", lambda v: v >= 0.0)
    cutoff = _check_integer(cutoff, "cutoff", 0)
    # the matrix first, so that a size that cannot be held fails before the weights
    mat = _complex_array((cutoff + 1, cutoff + 1), np.zeros)
    ratio = nbar / (nbar + 1.0)
    np.fill_diagonal(mat, ratio ** np.arange(cutoff + 1) / (nbar + 1.0))
    return FockState(cutoff, mat, ratio ** (cutoff + 1))


def _poisson_tail_bound(mean: float, cutoff: int) -> float:
    """Upper bound on the Poisson mass above ``cutoff`` via the geometric
    ratio bound on the term series; requires cutoff + 2 > mean."""
    if mean == 0.0:
        return 0.0
    ratio = mean / (cutoff + 2.0)
    if ratio >= 1.0:
        return 1.0
    log_tail = (
        -mean
        + (cutoff + 1.0) * math.log(mean)
        - math.lgamma(cutoff + 2.0)
        - math.log(1.0 - ratio)
    )
    return min(1.0, math.exp(log_tail))


def coherent_fock(alpha: complex, cutoff: int) -> FockState:
    """Truncated coherent state; the tail bound doubles the Poisson mass
    above the cutoff because the square-sum of a truncated pure state is
    the squared retained mass."""
    cutoff = _check_integer(cutoff, "cutoff", 0)
    alpha = _check_complex(alpha, "alpha must be a finite complex number")
    try:
        mean = abs(alpha) ** 2
    except OverflowError:
        raise InvalidParameterError("|alpha|^2 must be a finite real") from None
    # the matrix first, so that a size that cannot be held fails before the loop
    mat = _complex_array((cutoff + 1, cutoff + 1))
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = math.exp(-mean / 2.0)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    np.multiply.outer(amps, amps.conj(), out=mat)
    tail = min(1.0, 2.0 * _poisson_tail_bound(mean, cutoff))
    return FockState(cutoff, mat, tail)


# 2^-511, the square root of the smallest normal double: no product of two
# floats at or above it in magnitude underflows
_TAIL_FLOOR = 2.0**-511


def _drop_tail(mat: np.ndarray) -> np.ndarray:
    """``mat``, complex, with every float (real or imaginary part) below
    2^-511 in magnitude set to 0 in place; the masks are boolean, so no
    float array of its size is made."""
    floats = mat.view(float)
    np.copyto(floats, 0.0, where=(floats < _TAIL_FLOOR) & (floats > -_TAIL_FLOOR))
    return mat


def _require_finite(largest: float, term: str) -> None:
    """Reject the parameters when ``largest``, the largest magnitude of a
    lattice term, overflows, before the term is computed at every point."""
    if not math.isfinite(largest):
        raise InvalidParameterError(f"{term}: the term overflows on this lattice")


def gaussian_cv(grid: CvGrid, sigma_x: float, x0: float = 0.0, p0: float = 0.0) -> CvState:
    """Pure Gaussian wave packet sampled on the lattice: position spread
    sigma_x, centred at (x0, p0).  Validation rejects grids that fail to
    contain or resolve it.  Every float of the sampled matrix below 2^-511
    in magnitude is stored as 0 (see the module docstring), after the
    lattice spacing is applied and before validation."""
    sigma_x = _check_real(sigma_x, "sigma_x must be a positive real", lambda v: v > 0.0)
    x0 = _check_real(x0, "x0 must be a finite real")
    p0 = _check_real(p0, "p0 must be a finite real")
    var = sigma_x * sigma_x
    if not 0.0 < var < math.inf:
        raise InvalidParameterError(f"sigma_x {sigma_x!r}: its square underflows to 0 or overflows")
    reach = grid.d * grid.dx + abs(x0)  # the largest |x - x0| on the lattice
    term = f"(x - x0)^2 / (4 sigma_x^2), x0 {x0!r}, sigma_x {sigma_x!r}"
    _require_finite(reach * reach / (4.0 * var), term)
    _require_finite(p0 * reach / grid.hbar, f"p0 (x - x0) / hbar, p0 {p0!r}")
    # the matrix first, so that a size that cannot be held fails before the lattice
    mat = _complex_array((grid.size, grid.size))
    x = grid.positions()
    psi = (2.0 * np.pi * sigma_x**2) ** (-0.25) * np.exp(
        -((x - x0) ** 2) / (4.0 * sigma_x**2) + 1j * p0 * (x - x0) / grid.hbar
    )
    np.multiply.outer(psi, psi.conj(), out=mat)
    mat *= grid.dx
    return CvState(grid, "position", _drop_tail(mat))


def thermal_cv(grid: CvGrid, nbar: float) -> CvState:
    """Thermal oscillator state (unit mass and frequency) with mean
    occupation nbar, sampled as a position-representation kernel.  Every
    float of the sampled matrix below 2^-511 in magnitude is stored as 0
    (see the module docstring), after the lattice spacing is applied and
    before validation."""
    nbar = _check_real(nbar, "nbar must be a non-negative real", lambda v: v >= 0.0)
    s = 2.0 * nbar + 1.0
    hbar = grid.hbar
    span = 2.0 * grid.d * grid.dx  # the largest |x - x'| on the lattice
    term = f"(2 nbar + 1) (x - x')^2 / (4 hbar), nbar {nbar!r}"
    _require_finite(s * (span * span) / (4.0 * hbar), term)
    # the matrix first, so that a size that cannot be held fails before the lattice
    mat = _complex_array((grid.size, grid.size))
    x = grid.positions()
    plus, minus = np.add.outer(x, x), np.subtract.outer(x, x)
    kernel = (
        1.0
        / math.sqrt(np.pi * hbar * s)
        * np.exp(-(plus**2) / (4.0 * hbar * s) - s * minus**2 / (4.0 * hbar))
    )
    np.multiply(kernel, grid.dx, out=mat)
    return CvState(grid, "position", _drop_tail(mat))


# ---------------------------------------------------------------------------
# the families of the infdim command


class Family(NamedTuple):
    """``parameters(options)`` reads the record written under "parameters"
    from the ``infdim`` command's options; ``build(record, support)`` makes
    the state over a band cutoff, or over a :class:`CvGrid` for a lattice
    family.  The lambdas below find the constructors among this module's
    globals at call time, so one replaced on the module is called.
    ``closed_form(record)`` is P_inf of the untruncated state, given for the
    band families, whose declared tail bounds the distance to it."""

    parameters: Callable[[Any], dict]
    build: Callable[[dict, Any], OamState | FockState | CvState]
    lattice: bool = False
    closed_form: Callable[[dict], float] | None = None


FAMILIES = {
    "geometric-oam": Family(lambda o: {"q": o.q, "cutoff": o.grid_d},
                            lambda r, cutoff: geometric_oam(r["q"], cutoff),
                            closed_form=lambda r: math.sqrt((1.0 - r["q"]) / (1.0 + r["q"]))),
    "thermal-fock": Family(lambda o: {"nbar": o.nbar, "cutoff": o.grid_d},
                           lambda r, cutoff: thermal_fock(r["nbar"], cutoff),
                           closed_form=lambda r: 1.0 / math.sqrt(2.0 * r["nbar"] + 1.0)),
    "coherent-fock": Family(
        lambda o: {"alpha_re": o.alpha_re, "alpha_im": o.alpha_im, "cutoff": o.grid_d},
        lambda r, cutoff: coherent_fock(complex(r["alpha_re"], r["alpha_im"]), cutoff),
        closed_form=lambda r: 1.0,  # a coherent state is pure
    ),
    "gaussian-cv": Family(  # sigma_x defaults to the vacuum width sqrt(hbar / 2)
        lambda o: {"sigma_x": math.sqrt(o.hbar / 2.0) if o.sigma_x is None else o.sigma_x,
                   "x0": o.x0, "p0": o.p0},
        lambda r, grid: gaussian_cv(grid, r["sigma_x"], r["x0"], r["p0"]), lattice=True),
    "thermal-cv": Family(lambda o: {"nbar": o.nbar},
                         lambda r, grid: thermal_cv(grid, r["nbar"]), lattice=True),
}
