"""All interpretations of the basis-independent degree of coherence.

For an N-dimensional state the same number is reachable through five
routes: the trace-of-square formula, the Bloch-vector norm, the Frobenius
distance to the maximally mixed state, the center-of-mass distance built
from the eigenvalues, and the maximal interference visibility.  They are
three computations on the state centred at I/N, accurate near it: one
Frobenius sum (the first and third), the Bloch components (the second) and
one spectrum of eigenvalues (the last two, and the pure weights).  A sixth,
basis-dependent quantity (the ratio of off-diagonal to diagonal correlation
mass) is bounded above by it, and the unique pure-part split gives an upper
bound through the total pure weight.

Radicands in [-1e-9, 0) are clamped to 0; anything more negative is a hard
error, so float noise and logic bugs stay distinguishable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bloch import bloch_norm, to_bloch
from .errors import (
    AllZeroError,
    DegenerateDiagonalError,
    InvalidParameterError,
    WrongDimensionError,
    enforce,
)
from .state import (
    DensityMatrix, Spectrum, _as_array, _eigvalsh, _pairs, _readonly, _square_sum, purity,
    spectral_decompose,
)

_CLAMP = 1e-9
_MU_CLAMP = 1e-12
_REPORT_TOL = 1e-9
_IDENTITY_TOL = 1e-10


def _clamped_sqrt(radicand: float, context: str, clamp: float = _CLAMP) -> float:
    enforce(f"{context}: negated radicand", -radicand, clamp)
    return math.sqrt(max(radicand, 0.0))


def _capped(value: float, context: str, cap_tol: float = _CLAMP) -> float:
    enforce(f"{context}: value", value, 1.0 + cap_tol)
    return min(value, 1.0)


def _pair_product_sum(values: np.ndarray) -> float:
    """sum_{i<j} v_i v_j, term by term, so non-negative entries give a sum
    of non-negative products with no cancellation."""
    rows, cols = _pairs(values.size)
    return float(values[rows] @ values[cols])


def _mu_sums(m: np.ndarray) -> tuple[float, float]:
    """The literal sums of the basis-dependent degree of coherence:
    (sum_{i<j} |m_ij|^2, sum_{i<j} m_ii m_jj)."""
    rows, cols = _pairs(m.shape[0])
    off = m[rows, cols]
    return float(np.vdot(off, off).real), _pair_product_sum(m.diagonal().real)


def _deviations(values: np.ndarray) -> np.ndarray:
    """a_i - mean.  Shifting by the first entry first leaves the values
    unchanged and makes them exactly 0 when all entries are equal."""
    shifted = values - values[0]
    shifted -= shifted.sum() / shifted.size
    return shifted


def _squared_deviation(values: np.ndarray) -> float:
    """sum_i (a_i - mean)^2.

    N times it is exactly the pairwise spread sum_{i<j} (a_i - a_j)^2; as a
    sum of squares it has none of the cancellation of N sum a_i^2 - (sum a_i)^2.
    """
    deviations = _deviations(values)
    return float(deviations @ deviations)


def _spread(squares: float, n: int, total: float) -> float:
    """N Q / ((N-1) t^2), linear in Q, for N entries of total t and squared
    deviation Q = sum_i (a_i - t/N)^2 (the squared center-of-mass distance and
    visibility), or for a matrix with Q its centred Frobenius sum (P_N^2)."""
    return n * squares / ((n - 1.0) * total * total)


def _spread_root(squares: float, n: int, total: float, context: str) -> float:
    return _capped(_clamped_sqrt(_spread(squares, n, total), context), context)


def _eigenvalue_spread(eigs: np.ndarray, total: float) -> float:
    """Center-of-mass distance, and maximal visibility, of eigenvalues of total ``total``."""
    return _spread_root(_squared_deviation(eigs), eigs.size, total, "center_of_mass")


def _centred(rho: DensityMatrix) -> tuple[np.ndarray, float]:
    """rho - (t/N) I, its diagonal the :func:`_deviations` of rho's, and the trace t."""
    centred = rho.entries.copy()
    np.fill_diagonal(centred, _deviations(rho.entries.diagonal().real))
    return centred, rho.entries.trace().real


@dataclass(frozen=True)
class CoherenceReport:
    """All measures of one state, cross-checked for mutual consistency."""

    dim: int
    p_n: float
    frobenius_distance: float
    center_of_mass: float
    bloch_norm: float
    purity: float
    mu_in_given_basis: float
    visibility: float
    pure_part_weight_sum: float


@dataclass(frozen=True)
class PurePartDecomposition:
    """Unique split of a state into N-1 orthonormal pure parts plus a
    maximally mixed remainder.

    The total pure weight bounds the coherence measure from above, with
    equality exactly when at most one weight is nonzero.  At N=2 there is
    a single weight lambda_1 - lambda_2, and it equals P_2.
    """

    weights: np.ndarray
    pure_states: np.ndarray
    mixed_weight: float


def p_n(rho: DensityMatrix) -> float:
    """Intrinsic degree of coherence sqrt((N Tr(rho^2) - 1) / (N - 1)).

    The radicand is evaluated through the exact rearrangement
    N Tr(rho^2) - t^2 = N sum_ij |rho_ij - delta_ij t/N|^2 (t = trace), a
    pure sum of squares; the direct difference would cancel catastrophically
    near the maximally mixed state and turn float noise into sqrt-amplified
    output noise.  The same value is the normalised Frobenius distance to
    I/N, so ``frobenius_distance_measure`` is this function.
    """
    centred, trace = _centred(rho)
    return _spread_root(_square_sum(centred), rho.dim, trace, "p_n")


def p2_determinant_form(rho: DensityMatrix) -> float:
    """Two-dimensional special case sqrt(1 - 4 det(rho))."""
    if rho.dim != 2:
        raise WrongDimensionError(f"determinant form needs dim 2, got {rho.dim}")
    m = rho.entries
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    return _capped(_clamped_sqrt(1.0 - 4.0 * det, "p2_determinant_form"), "p2_determinant_form")


frobenius_distance_measure = p_n


def center_of_mass_distance(spectrum: Spectrum) -> float:
    """Distance to the center of mass of point masses equal to the
    eigenvalues, placed on the vertices of a regular simplex."""
    return _eigenvalue_spread(spectrum.eigenvalues, float(np.sum(spectrum.eigenvalues)))


def mu_n(rho: DensityMatrix) -> float:
    """Basis-dependent degree of coherence in the stored basis.

    Ratio of summed squared off-diagonal magnitudes to summed products of
    diagonal pairs.  Raises DegenerateDiagonalError when every diagonal pair
    product vanishes (one diagonal entry is 1, the rest 0), because that 0/0
    form has no single limiting value; the caller decides.
    """
    numerator, denominator = _mu_sums(rho.entries)
    if denominator <= 0.0:
        raise DegenerateDiagonalError(
            "all diagonal pair products vanish; degree of coherence is 0/0 here"
        )
    return _capped(math.sqrt(max(numerator, 0.0) / denominator), "mu_n", _MU_CLAMP)


def _rotated_diagonal(a: float, b: float, w: complex, c: float, s: float) -> tuple[float, float]:
    """Diagonal of the 2x2 block [[a, w], [conj(w), b]] turned by the
    rotation of cosine ``c`` and sine ``s``; 2cs Re(w) is the cross term."""
    x = 2.0 * c * s * w.real
    return c * c * a + s * s * b + x, s * s * a + c * c * b - x


def interference_2d(rho: DensityMatrix, delta: float, theta: float) -> tuple[float, float]:
    """Two-port detection probabilities after a relative phase ``delta`` and
    a rotation ``theta`` applied to a two-dimensional state.

    The cross term carries the factor 2 that conjugation by the
    phase-then-rotation unitary produces (2 Re(rho_12 e^{i delta}) times
    sin(theta) cos(theta)); without it the maximal fringe visibility would
    not reach the degree of coherence.
    """
    if rho.dim != 2:
        raise WrongDimensionError(f"interference needs dim 2, got {rho.dim}")
    m = rho.entries
    w = complex(m[0, 1]) * cmath.exp(1j * delta)
    return _rotated_diagonal(m[0, 0].real, m[1, 1].real, w, math.cos(theta), math.sin(theta))


def visibility_f(probs) -> float:
    """Spread of a probability vector: sqrt of the mean squared pairwise
    difference normalised by the squared total.

    Scale-invariant, Schur-convex; 1 exactly when the mass sits on one
    entry, 0 exactly when all entries are equal.  Entries must be finite,
    and none may lie below -1e-9 times the total (eigenvalues a hair below
    zero pass).
    """
    arr = _as_array(probs, float)
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidParameterError("need a 1-d vector of at least 2 probabilities")
    if not np.isfinite(arr).all():
        raise InvalidParameterError("probabilities must be finite")
    total = float(np.sum(arr))
    if total <= 0.0:
        raise AllZeroError("probabilities sum to zero")
    if arr.min() < -_CLAMP * total:
        raise InvalidParameterError(f"probability {arr.min():.3e} is negative")
    return math.sqrt(_spread(_squared_deviation(arr), arr.size, total))


def visibility(rho: DensityMatrix) -> float:
    """Maximal interference visibility of the state over all measurement
    bases: the spread function evaluated on the eigenvalues, which majorize
    every achievable probability vector; one value with the center of mass."""
    centred, trace = _centred(rho)
    return _eigenvalue_spread(_eigvalsh(centred), trace)


def pure_part_decomposition(rho: DensityMatrix) -> PurePartDecomposition:
    """Unique decomposition into N-1 orthonormal pure parts with weights
    lambda_i - lambda_N plus a maximally mixed part of weight N*lambda_N."""
    spectrum = spectral_decompose(rho)
    lam = spectrum.eigenvalues
    return PurePartDecomposition(
        _readonly(lam[:-1] - lam[-1]),
        _readonly(spectrum.eigenvectors[:, :-1]),
        float(lam.size * lam[-1]),
    )


def pure_part_bound_check(
    decomposition: PurePartDecomposition, p: float
) -> tuple[bool, float]:
    """Verify the identity tying the coherence measure to the pure weights
    and the upper bound by the total pure weight; return (bound_holds, gap).

    ``p`` must be the coherence measure of the same state.  The identity is
    p == sqrt((sum s)^2 - (2N/(N-1)) * sum_{i<j} s_i s_j); its failure beyond
    1e-10 raises InternalInvariantViolation.  The gap sum(s) - p is zero
    exactly when at most one weight is nonzero (the cross sum vanishes), and
    strictly positive otherwise; at N=2 the single weight is P_2 itself.
    """
    return _weight_bound(decomposition.weights, p)


def _weight_bound(s: np.ndarray, p: float) -> tuple[bool, float]:
    n = s.size + 1
    weight_sum = float(np.sum(s))
    cross = _pair_product_sum(s)
    p_from_weights = _clamped_sqrt(
        weight_sum * weight_sum - (2.0 * n / (n - 1.0)) * cross, "pure_part_bound_check"
    )
    enforce("weight identity off by", abs(p_from_weights - p), _IDENTITY_TOL)
    gap = weight_sum - p
    bound_holds = p <= weight_sum + _IDENTITY_TOL
    return bound_holds, gap


def coherence_report(rho: DensityMatrix) -> CoherenceReport:
    """Evaluate every measure and enforce their mutual consistency.

    Three computations give the fields, and must agree within 1e-9: the
    centred Frobenius sum (``p_n``, ``frobenius_distance``), the Bloch
    components (``bloch_norm``) and the centred eigenvalues (``center_of_mass``,
    ``visibility``, ``pure_part_weight_sum``).  The basis-dependent degree of
    coherence must not exceed them; the pure weights must give the measure
    back through the identity of :func:`pure_part_bound_check` within 1e-10,
    and the measure must not exceed their total beyond 1e-9.  Any violation
    raises InternalInvariantViolation naming the offending pair.  For states
    whose diagonal makes the basis-dependent ratio a 0/0 form, the reported
    value is 0.0, the limit along nearby states in the same basis.
    """
    centred, trace = _centred(rho)
    eigs = _eigvalsh(centred)
    routes = {
        "p_n": p_n(rho),
        "center_of_mass": _eigenvalue_spread(eigs, trace),
        "bloch_norm": bloch_norm(to_bloch(rho)),
    }
    high = max(routes, key=routes.get)
    low = min(routes, key=routes.get)
    enforce(f"route spread {high} - {low}", routes[high] - routes[low], _REPORT_TOL)
    try:
        mu = mu_n(rho)
    except DegenerateDiagonalError:
        mu = 0.0
    enforce("mu_n against p_n", mu, routes["p_n"] + _REPORT_TOL)
    # the pure weights, ascending: the centring shifts no eigenvalue difference
    weights = eigs[1:] - eigs[0]
    _, gap = _weight_bound(weights, routes["p_n"])
    enforce("p_n over pure weight sum", -gap, _REPORT_TOL)
    fields = {
        **routes,
        "frobenius_distance": routes["p_n"],
        "visibility": routes["center_of_mass"],
        "purity": purity(rho),
        "mu_in_given_basis": mu,
        "pure_part_weight_sum": float(np.sum(weights)),
    }
    for name, value in fields.items():
        enforce(f"field {name}", value, 1.0 + _REPORT_TOL)
        enforce(f"field {name} negated", -value, 0.0)
    return CoherenceReport(rho.dim, **fields)


def max_route_discrepancy(report: CoherenceReport) -> float:
    """Largest pairwise difference among the five equivalent routes."""
    values = (
        report.p_n,
        report.frobenius_distance,
        report.center_of_mass,
        report.bloch_norm,
        report.visibility,
    )
    return max(values) - min(values)
