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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (
    EmptyStateError,
    GridMismatchError,
    GridTooCoarseError,
    InternalInvariantViolation,
    InvalidParameterError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
)
from .state import _eigvalsh, _readonly, as_complex_matrix

_HERMITICITY_TOL = 1e-12
_PSD_TOL = 1e-10
_TRACE_TOL = 1e-10
_COMMUTATOR_TOL = 1e-10
_ANGLE_NORM_TOL = 1e-6
_WIGNER_NORM_TOL = 1e-2

REPRESENTATIONS = ("position", "momentum")


def _validated_block(matrix, size: int, label: str, trace_tol=None, trace_hint="") -> np.ndarray:
    """Read-only complex copy of a size x size block after checking, in
    order: the shape, finite entries, Hermiticity at 1e-12 and, when
    ``trace_tol`` is given, the trace within it and the minimum eigenvalue
    at -1e-10."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (size, size):
        raise InvalidParameterError(f"{label}: shape must be {(size, size)}, got {mat.shape}")
    as_complex_matrix(mat)
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > _HERMITICITY_TOL:
        raise NotHermitianError(f"{label}: Hermiticity defect {defect:.3e}")
    if trace_tol is not None:
        trace = complex(mat.trace())
        if abs(trace - 1.0) > trace_tol:
            raise NotNormalizedError(
                f"{label}: trace {trace} misses 1 beyond {trace_tol:.3e}{trace_hint}"
            )
        min_eig = float(_eigvalsh((mat + mat.conj().T) / 2.0)[0])
        if min_eig < -_PSD_TOL:
            raise NotPSDError(f"{label}: minimum eigenvalue {min_eig:.3e}")
    return _readonly(mat)


@dataclass(frozen=True)
class _TruncatedState:
    """Truncated state on a band of modes, plus the caller's bound on the
    coefficient mass beyond the band; the trace may miss 1 by that bound."""

    cutoff: int
    coefficients: np.ndarray
    declared_tail_bound: float

    representation: ClassVar[str]
    label: ClassVar[str]
    # the band holds modes_per_cutoff * cutoff + 1 modes
    modes_per_cutoff: ClassVar[int]

    def __post_init__(self):
        if self.cutoff < 0:
            raise InvalidParameterError("cutoff must be >= 0")
        if not (0.0 <= self.declared_tail_bound <= 1.0):
            raise InvalidParameterError("tail bound must lie in [0, 1]")
        size, slack = self.modes_per_cutoff * self.cutoff + 1, self.declared_tail_bound + 1e-12
        mat = _validated_block(self.coefficients, size, self.label, slack)
        object.__setattr__(self, "coefficients", mat)


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
    """Angle-space coherence function sampled on theta_a = 2*pi*a/M."""

    grid_size: int
    samples: np.ndarray

    def __post_init__(self):
        if self.grid_size < 2:
            raise InvalidParameterError("grid_size must be >= 2")
        samples = _validated_block(self.samples, self.grid_size, "angular samples")
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
        if self.d < 1:
            raise InvalidParameterError("d must be >= 1")
        if not (self.p_max > 0.0 and math.isfinite(self.p_max)):
            raise InvalidParameterError("p_max must be a positive real")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise InvalidParameterError("hbar must be a positive real")
        dp = self.p_max / self.d
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "dx", 2.0 * math.pi * self.hbar / ((2 * self.d + 1) * dp))

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
    the square root.  One body serves both bases: ``p_inf_fock`` is the
    same function."""
    total = float(np.sum(np.abs(state.coefficients) ** 2))
    if total <= 0.0:
        raise EmptyStateError(f"{state.label}: all coefficients are zero")
    value = math.sqrt(total)
    return value, state.declared_tail_bound / (2.0 * value)


p_inf_fock = p_inf_oam


def oam_to_angle(state: OamState, grid_size: int) -> AngularCoherence:
    """Sample the angle-space coherence function of a band-limited state.

    W(theta, theta') = (1/2pi) sum_{l,l'} c_{l l'} exp(i(l theta - l' theta')).
    Requires grid_size >= 2(2D+1) so the band is resolved (the uniform-grid
    quadrature of the resulting trigonometric polynomial is then exact).
    """
    band = 2 * state.cutoff + 1
    if grid_size < 2 * band:
        raise GridTooCoarseError(
            f"grid_size {grid_size} < {2 * band} cannot resolve the truncated band"
        )
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    modes = np.arange(-state.cutoff, state.cutoff + 1)
    phases = np.exp(1j * np.outer(theta, modes))
    samples = phases @ state.coefficients @ phases.conj().T / (2.0 * np.pi)
    return AngularCoherence(grid_size, samples)


def p_inf_angle(w: AngularCoherence) -> float:
    """Uniform-grid quadrature of the double angle integral of |W|^2,
    square-rooted; rejects samples whose trace quadrature misses 1 by more
    than 1e-6."""
    m = w.grid_size
    weight = 2.0 * np.pi / m
    trace = weight * float(np.sum(w.samples.diagonal().real))
    if abs(trace - 1.0) > _ANGLE_NORM_TOL:
        raise NotNormalizedError(f"trace quadrature {trace:.8f} misses 1 beyond {_ANGLE_NORM_TOL}")
    return math.sqrt(weight * weight * float(np.sum(np.abs(w.samples) ** 2)))


def build_cv_grid(d: int, p_max: float, hbar: float = 1.0) -> CvGrid:
    """Construct the position/momentum lattice (validates parameters)."""
    return CvGrid(d, p_max, hbar)


def p_inf_cv(state: CvState) -> float:
    """Square root of the squared Frobenius mass of the lattice state; the
    Riemann-sum form of the double kernel integral, identical in either
    representation because the basis change is unitary."""
    return math.sqrt(float(np.sum(np.abs(state.matrix) ** 2)))


def _conjugate_matrix(matrix: np.ndarray, to_momentum: bool) -> np.ndarray:
    """F M F^H (to_momentum) or F^H M F, with F the centred lattice DFT of
    :meth:`CvGrid.position_to_momentum_matrix`, by FFT along each axis.

    The shifts map the centred index range [-D, D] onto numpy's [0, 2D]
    layout; the kernel exp(-2 pi i j m / (2D+1)) is periodic in both
    indices, so the result equals the dense product up to rounding.
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
    trace_mag = abs(complex(commutator.trace()))
    if trace_mag > _COMMUTATOR_TOL:
        raise InternalInvariantViolation(f"commutator trace {trace_mag:.3e} nonzero")
    diag_mag = float(np.max(np.abs(commutator.diagonal())))
    if diag_mag > _COMMUTATOR_TOL:
        raise InternalInvariantViolation(
            f"commutator diagonal max {diag_mag:.3e} nonzero"
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
    pick up interpolation ripple at the 1e-4 level, so callers chasing
    accuracy should window the output to the state's support.

    All rows are evaluated at once, without a loop over x: one bilinear
    gather of the kernel on an (x_steps, 4D+1) grid of y offsets, masked to
    the lattice, times one shared exp(-2i y p / hbar) matrix.  Transient
    memory is O(x_steps * (4D+1)).
    """
    if state.representation != "position":
        raise GridMismatchError("phase-space sampling needs the position representation")
    if x_steps < 2 or p_steps < 2:
        raise InvalidParameterError("x_steps and p_steps must be >= 2")
    grid = state.grid
    hbar = grid.hbar
    n = grid.size
    x_max = grid.d * grid.dx
    if x_span is None:
        x_span = x_max
    if p_span is None:
        p_span = grid.p_max
    if not (0.0 < x_span <= x_max) or not (0.0 < p_span <= grid.p_max):
        raise InvalidParameterError(
            f"spans must lie in (0, {x_max:.6g}] x (0, {grid.p_max:.6g}]"
        )
    xs = np.linspace(-x_span, x_span, x_steps)
    ps = np.linspace(-p_span, p_span, p_steps)
    dy = grid.dx / 2.0
    # one y axis shared by all rows, k in [-2D, 2D]; row a keeps the
    # |k| <= k_max(x_a) that stays on the lattice (the span check above
    # bounds |x_a| by x_max, so every row reaches k = 0)
    k = np.arange(-2 * grid.d, 2 * grid.d + 1)
    y = k * dy
    k_max = np.floor((x_max - np.abs(xs)) / dy + 1e-12)
    inside = np.abs(k)[None, :] <= k_max[:, None]
    frac_fwd = (xs[:, None] + y[None, :] + x_max) / grid.dx
    frac_bwd = (xs[:, None] - y[None, :] + x_max) / grid.dx
    i_fwd = np.clip(np.floor(frac_fwd).astype(int), 0, n - 2)
    i_bwd = np.clip(np.floor(frac_bwd).astype(int), 0, n - 2)
    w_fwd = np.clip(frac_fwd - i_fwd, 0.0, 1.0)
    w_bwd = np.clip(frac_bwd - i_bwd, 0.0, 1.0)
    kernel = state.matrix / grid.dx
    g = (
        kernel[i_fwd, i_bwd] * (1.0 - w_fwd) * (1.0 - w_bwd)
        + kernel[i_fwd + 1, i_bwd] * w_fwd * (1.0 - w_bwd)
        + kernel[i_fwd, i_bwd + 1] * (1.0 - w_fwd) * w_bwd
        + kernel[i_fwd + 1, i_bwd + 1] * w_fwd * w_bwd
    )
    g[~inside] = 0.0
    oscillations = np.exp(-2j * np.outer(y, ps) / hbar)
    values = (g @ oscillations).real * dy / (np.pi * hbar)
    return WignerSamples(xs, ps, values)


def p_inf_wigner(w: WignerSamples, hbar: float) -> float:
    """Uniform quadrature of 2*pi*hbar times the squared phase-space
    samples, square-rooted; rejects sample sets whose normalisation misses
    1 by more than 1e-2."""
    if not (hbar > 0.0 and math.isfinite(hbar)):
        raise InvalidParameterError("hbar must be a positive real")
    cell = w.dx * w.dp
    norm = cell * float(np.sum(w.values))
    if abs(norm - 1.0) > _WIGNER_NORM_TOL:
        raise NotNormalizedError(
            f"phase-space normalisation {norm:.8f} misses 1 beyond {_WIGNER_NORM_TOL:.0e}"
        )
    return math.sqrt(2.0 * np.pi * hbar * cell * float(np.sum(w.values**2)))


# ---------------------------------------------------------------------------
# state-family constructors (each computes its own rigorous tail bound)


def geometric_oam(q: float, cutoff: int) -> OamState:
    """Diagonal mixture of non-negative angular-momentum modes with
    geometric weights (1-q) q^l; discarded mass is exactly q^(cutoff+1)."""
    if not (0.0 < q < 1.0):
        raise InvalidParameterError("q must lie in (0, 1)")
    if cutoff < 0:
        raise InvalidParameterError("cutoff must be >= 0")
    size = 2 * cutoff + 1
    mat = np.zeros((size, size), dtype=complex)
    for l in range(cutoff + 1):
        mat[l + cutoff, l + cutoff] = (1.0 - q) * q**l
    return OamState(cutoff, mat, q ** (cutoff + 1))


def oam_mode_superposition(amplitudes: dict[int, complex], cutoff: int) -> OamState:
    """Pure superposition of angular-momentum modes, normalised; exact
    within the band so the tail bound is zero."""
    if cutoff < 0:
        raise InvalidParameterError("cutoff must be >= 0")
    size = 2 * cutoff + 1
    vec = np.zeros(size, dtype=complex)
    for mode, amp in amplitudes.items():
        if abs(mode) > cutoff:
            raise InvalidParameterError(f"mode {mode} outside band [-{cutoff}, {cutoff}]")
        vec[mode + cutoff] = amp
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise EmptyStateError("all amplitudes are zero")
    vec /= norm
    return OamState(cutoff, np.outer(vec, vec.conj()), 0.0)


def thermal_fock(nbar: float, cutoff: int) -> FockState:
    """Thermal photon-number mixture with mean occupation nbar; discarded
    mass is exactly (nbar/(nbar+1))^(cutoff+1)."""
    if nbar < 0.0 or not math.isfinite(nbar):
        raise InvalidParameterError("nbar must be a non-negative real")
    if cutoff < 0:
        raise InvalidParameterError("cutoff must be >= 0")
    ratio = nbar / (nbar + 1.0)
    n = np.arange(cutoff + 1)
    weights = ratio**n / (nbar + 1.0)
    return FockState(cutoff, np.diag(weights.astype(complex)), ratio ** (cutoff + 1))


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
    if cutoff < 0:
        raise InvalidParameterError("cutoff must be >= 0")
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise InvalidParameterError("alpha must be a finite complex number")
    mean = abs(alpha) ** 2
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = math.exp(-mean / 2.0)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    tail = min(1.0, 2.0 * _poisson_tail_bound(mean, cutoff))
    return FockState(cutoff, np.outer(amps, amps.conj()), tail)


def gaussian_cv(grid: CvGrid, sigma_x: float, x0: float = 0.0, p0: float = 0.0) -> CvState:
    """Pure Gaussian wave packet sampled on the lattice: position spread
    sigma_x, centred at (x0, p0).  Validation rejects grids that fail to
    contain or resolve it."""
    if not (sigma_x > 0.0 and math.isfinite(sigma_x)):
        raise InvalidParameterError("sigma_x must be a positive real")
    if not (math.isfinite(x0) and math.isfinite(p0)):
        raise InvalidParameterError("x0 and p0 must be finite reals")
    x = grid.positions()
    psi = (2.0 * np.pi * sigma_x**2) ** (-0.25) * np.exp(
        -((x - x0) ** 2) / (4.0 * sigma_x**2) + 1j * p0 * (x - x0) / grid.hbar
    )
    return CvState(grid, "position", np.outer(psi, psi.conj()) * grid.dx)


def thermal_cv(grid: CvGrid, nbar: float) -> CvState:
    """Thermal oscillator state (unit mass and frequency) with mean
    occupation nbar, sampled as a position-representation kernel."""
    if nbar < 0.0 or not math.isfinite(nbar):
        raise InvalidParameterError("nbar must be a non-negative real")
    s = 2.0 * nbar + 1.0
    hbar = grid.hbar
    x = grid.positions()
    fwd, bwd = np.meshgrid(x, x, indexing="ij")
    kernel = (
        1.0
        / math.sqrt(np.pi * hbar * s)
        * np.exp(-((fwd + bwd) ** 2) / (4.0 * hbar * s) - s * (fwd - bwd) ** 2 / (4.0 * hbar))
    )
    return CvState(grid, "position", kernel.astype(complex) * grid.dx)
