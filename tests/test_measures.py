from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qcoherence as qc
from qcoherence import measures, state
from qcoherence.measures import _mu_sums, _pair_product_sum, _squared_deviation

SQRT_007 = np.sqrt(0.07)  # 0.2645751311064591
DIAG_532 = np.diag([0.5, 0.3, 0.2])


def ginibre(dim, seed):
    return qc.random_state(dim, "ginibre_mixed", seed)


class TestPn:
    def test_pure_state(self):
        assert_allclose(qc.p_n(qc.random_state(4, "haar_pure", 1)), 1.0, atol=1e-12)

    def test_maximally_mixed(self):
        assert qc.p_n(qc.validate_density(np.eye(5) / 5)) == 0.0

    def test_hand_value(self):
        # (3*0.38 - 1)/2 = 0.07
        assert_allclose(qc.p_n(qc.validate_density(DIAG_532)), SQRT_007, atol=1e-15)

    def test_basis_independence(self):
        for i in range(4):
            dim = 2 + i
            rho = qc.random_state(dim, "ginibre_mixed", 140 + i)
            reference = qc.p_n(rho)
            for k in range(50):
                u = qc.haar_unitary(dim, 7000 + 50 * i + k)
                rotated = qc.validate_density(u @ rho.entries @ u.conj().T)
                assert abs(qc.p_n(rotated) - reference) < 1e-10


class TestP2DeterminantForm:
    def test_maximally_mixed(self):
        assert qc.p2_determinant_form(qc.validate_density(np.eye(2) / 2)) == 0.0

    def test_hand_value(self):
        # det = 0.25 - 0.0625
        rho = qc.validate_density([[0.5, 0.25], [0.25, 0.5]])
        assert_allclose(qc.p2_determinant_form(rho), 0.5, atol=1e-15)

    def test_pure_state(self):
        rho = qc.random_state(2, "haar_pure", 3)
        assert_allclose(qc.p2_determinant_form(rho), 1.0, atol=1e-7)

    def test_matches_trace_form(self):
        for i in range(25):
            rho = ginibre(2, 40 + i)
            assert abs(qc.p2_determinant_form(rho) - qc.p_n(rho)) < 1e-12

    def test_wrong_dimension(self):
        with pytest.raises(qc.WrongDimensionError):
            qc.p2_determinant_form(qc.validate_density(np.eye(3) / 3))


class TestFrobeniusDistance:
    def test_maximally_mixed(self):
        assert qc.frobenius_distance_measure(qc.validate_density(np.eye(3) / 3)) == 0.0

    def test_pure_state_dim4(self):
        rho = qc.random_state(4, "haar_pure", 8)
        assert_allclose(qc.frobenius_distance_measure(rho), 1.0, atol=1e-12)

    def test_hand_value(self):
        # sum (rho_ii - 1/3)^2 = 14/300; sqrt(3/2 * 14/300) = sqrt(0.07)
        rho = qc.validate_density(DIAG_532)
        assert_allclose(qc.frobenius_distance_measure(rho), SQRT_007, atol=1e-15)


class TestCenterOfMass:
    def test_simplex_centroid(self):
        spectrum = qc.spectral_decompose(qc.validate_density(np.eye(4) / 4))
        assert qc.center_of_mass_distance(spectrum) == 0.0

    def test_point_mass_at_vertex(self):
        spectrum = qc.spectral_decompose(qc.random_state(3, "haar_pure", 2))
        assert_allclose(qc.center_of_mass_distance(spectrum), 1.0, atol=1e-12)

    def test_hand_value(self):
        # (0.04 + 0.09 + 0.01)/2 = 0.07
        spectrum = qc.spectral_decompose(qc.validate_density(DIAG_532))
        assert_allclose(qc.center_of_mass_distance(spectrum), SQRT_007, atol=1e-15)


class TestMuN:
    def test_no_offdiagonal_correlation(self):
        assert qc.mu_n(qc.validate_density(np.diag([0.6, 0.4]))) == 0.0

    def test_unbalanced_pure_state_fully_coherent(self):
        eps = 0.1
        psi = np.array([eps, np.sqrt(1 - eps**2)])
        rho = qc.validate_density(np.outer(psi, psi))
        assert_allclose(qc.mu_n(rho), 1.0, atol=1e-12)

    def test_three_level_plus_state(self):
        # numerator = |0.5|^2, denominator = 0.5*0.5; both 0.25
        psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        rho = qc.validate_density(np.outer(psi, psi))
        assert_allclose(qc.mu_n(rho), 1.0, atol=1e-12)

    def test_degenerate_diagonal_raises(self):
        rho = qc.validate_density(np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(qc.DegenerateDiagonalError):
            qc.mu_n(rho)

    def test_purity_identity(self):
        # mu^2 == 1 - (1 - Tr rho^2)/(1 - sum rho_ii^2)
        for i in range(50):
            dim = 2 + i % 4
            rho = ginibre(dim, 300 + i)
            diag = rho.entries.diagonal().real
            expected = 1.0 - (1.0 - qc.purity(rho)) / (1.0 - float(diag @ diag))
            assert abs(qc.mu_n(rho) ** 2 - expected) < 1e-12

    def test_bounded_by_p_n_under_rotations(self):
        rho = ginibre(3, 77)
        ceiling = qc.p_n(rho)
        for k in range(50):
            u = qc.haar_unitary(3, 900 + k)
            rotated = qc.validate_density(u.conj().T @ rho.entries @ u)
            assert qc.mu_n(rotated) <= ceiling + 1e-9


class TestInterference2d:
    def test_no_rotation_reads_the_diagonal(self):
        rho = ginibre(2, 5)
        i1, i2 = qc.interference_2d(rho, 0.7, 0.0)
        assert_allclose([i1, i2], [rho.entries[0, 0].real, rho.entries[1, 1].real], atol=1e-15)

    def test_unpolarized_is_flat(self):
        rho = qc.validate_density(np.eye(2) / 2)
        for delta, theta in [(0.0, 0.3), (1.0, 2.0), (4.0, 0.9)]:
            assert_allclose(qc.interference_2d(rho, delta, theta), (0.5, 0.5), atol=1e-15)

    def test_aligned_phase_midpoint_rotation(self):
        # cross term 2*|rho12|*sin*cos*cos(0) = 0.25 at theta = pi/4
        rho = qc.validate_density([[0.5, 0.25], [0.25, 0.5]])
        i1, i2 = qc.interference_2d(rho, 0.0, np.pi / 4)
        assert_allclose([i1, i2], [0.75, 0.25], atol=1e-15)

    def test_probabilities_sum_to_one(self):
        rho = ginibre(2, 6)
        for delta in np.linspace(0, 2 * np.pi, 7):
            for theta in np.linspace(0, np.pi, 7):
                i1, i2 = qc.interference_2d(rho, delta, theta)
                assert abs(i1 + i2 - 1.0) < 1e-12

    def test_wrong_dimension(self):
        with pytest.raises(qc.WrongDimensionError):
            qc.interference_2d(ginibre(3, 0), 0.0, 0.0)

    def test_grid_maximised_fringe_matches_p_n(self):
        theta = np.linspace(0, np.pi, 200, endpoint=False)
        delta = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        for i in range(10):
            rho = qc.random_state(2, ("ginibre_mixed", "haar_pure")[i % 2], 60 + i)
            values = np.array(
                [[qc.interference_2d(rho, d, t)[0] for d in delta[::10]] for t in theta[::10]]
            )
            # coarse pass locates the scale; fine pass via the vectorised form
            m = rho.entries
            tt, dd = np.meshgrid(theta, delta, indexing="ij")
            amp, beta = abs(m[0, 1]), np.angle(m[0, 1])
            i1 = (
                m[0, 0].real * np.cos(tt) ** 2
                + m[1, 1].real * np.sin(tt) ** 2
                + 2 * amp * np.sin(tt) * np.cos(tt) * np.cos(beta + dd)
            )
            assert abs(values.max() - i1.max()) < 1e-2
            fringe = (i1.max() - i1.min()) / (i1.max() + i1.min())
            assert abs(fringe - qc.p_n(rho)) < 1e-3


class TestVisibilityF:
    def test_point_mass(self):
        assert qc.visibility_f([1.0, 0.0, 0.0, 0.0]) == 1.0

    def test_uniform(self):
        assert qc.visibility_f([0.25, 0.25, 0.25, 0.25]) == 0.0

    def test_hand_value(self):
        assert_allclose(qc.visibility_f([0.5, 0.3, 0.2]), SQRT_007, atol=1e-15)

    def test_scale_invariance(self):
        probs = np.array([0.1, 0.4, 0.2, 0.3])
        for c in (0.5, 2.0, 117.0):
            assert abs(qc.visibility_f(c * probs) - qc.visibility_f(probs)) < 1e-14

    def test_two_outcome_reduction(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.random(2) + 0.01
            assert abs(qc.visibility_f([a, b]) - abs(a - b) / (a + b)) < 1e-14

    def test_all_zero(self):
        with pytest.raises(qc.AllZeroError):
            qc.visibility_f([0.0, 0.0, 0.0])

    def test_too_short(self):
        with pytest.raises(qc.InvalidParameterError):
            qc.visibility_f([1.0])

    @pytest.mark.parametrize(
        "probs",
        [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0, 2.0], [2.0, -1.0], [0.5, 0.5, -2e-9]],
    )
    def test_non_finite_or_negative_entries(self, probs):
        with pytest.raises(qc.InvalidParameterError):
            qc.visibility_f(probs)

    def test_eigenvalue_noise_below_zero_passes(self):
        # eigenvalues of a validated state can sit a rounding error below 0
        assert_allclose(qc.visibility_f([1.0, -1e-16]), 1.0, atol=1e-15)
        assert_allclose(qc.visibility_f([0.5, 0.5, -5e-10]), 0.5, atol=1e-9)


class TestVisibility:
    def test_pure_state(self):
        assert_allclose(qc.visibility(qc.random_state(5, "haar_pure", 9)), 1.0, atol=1e-12)

    def test_maximally_mixed(self):
        assert qc.visibility(qc.validate_density(np.eye(6) / 6)) == 0.0

    def test_eigenvalue_route(self):
        assert_allclose(qc.visibility(qc.validate_density(DIAG_532)), SQRT_007, atol=1e-14)


class TestPurePartDecomposition:
    def test_hand_weights(self):
        d = qc.pure_part_decomposition(qc.validate_density(DIAG_532))
        assert_allclose(d.weights, [0.3, 0.1], atol=1e-15)
        assert_allclose(d.mixed_weight, 0.6, atol=1e-15)
        assert_allclose(d.weights.sum() + d.mixed_weight, 1.0, atol=1e-15)

    def test_maximally_mixed(self):
        d = qc.pure_part_decomposition(qc.validate_density(np.eye(4) / 4))
        assert_allclose(d.weights, np.zeros(3), atol=1e-15)
        assert_allclose(d.mixed_weight, 1.0, atol=1e-15)

    def test_pure_two_level(self):
        rho = qc.random_state(2, "haar_pure", 21)
        d = qc.pure_part_decomposition(rho)
        assert_allclose(d.weights, [1.0], atol=1e-12)
        assert abs(d.mixed_weight) < 1e-12

    def test_weights_sorted_and_reconstruction(self):
        for i in range(40):
            dim = 2 + i % 5
            rho = ginibre(dim, 800 + i)
            d = qc.pure_part_decomposition(rho)
            assert np.all(np.diff(d.weights) <= 1e-15)
            assert np.all(d.weights >= -1e-15)
            rebuilt = (d.pure_states * d.weights) @ d.pure_states.conj().T
            rebuilt += d.mixed_weight * np.eye(dim) / dim
            assert np.max(np.abs(rebuilt - rho.entries)) < 1e-10


class TestPurePartBoundCheck:
    def test_hand_gap(self):
        rho = qc.validate_density(DIAG_532)
        d = qc.pure_part_decomposition(rho)
        holds, gap = qc.pure_part_bound_check(d, qc.p_n(rho))
        assert holds
        assert_allclose(gap, 0.4 - SQRT_007, atol=1e-12)

    def test_pure_state_saturates(self):
        rho = qc.random_state(2, "haar_pure", 33)
        holds, gap = qc.pure_part_bound_check(qc.pure_part_decomposition(rho), qc.p_n(rho))
        assert holds
        assert abs(gap) < 1e-10

    def test_two_level_full_rank_saturates(self):
        for i in range(10):
            rho = ginibre(2, 600 + i)
            holds, gap = qc.pure_part_bound_check(
                qc.pure_part_decomposition(rho), qc.p_n(rho)
            )
            assert holds
            assert abs(gap) < 1e-10

    def test_single_pure_weight_saturates_any_dim(self):
        # spectrum (a, b, ..., b): only one nonzero weight, so the cross sum
        # vanishes and the bound is an equality
        for dim in (3, 4, 6):
            lam = np.full(dim, 0.3 / (dim - 1))
            lam[0] = 0.7
            rho = qc.validate_density(np.diag(lam))
            holds, gap = qc.pure_part_bound_check(
                qc.pure_part_decomposition(rho), qc.p_n(rho)
            )
            assert holds
            assert abs(gap) < 1e-12

    def test_rank_two_gap_is_positive_above_dim_two(self):
        # two nonzero weights leave a strictly positive cross sum: the gap
        # equals 1 - p (the bottom eigenvalue is 0, so the weights sum to 1)
        for dim in (3, 4, 6):
            rho = qc.random_state(dim, "rank_k", 70 + dim, rank=2)
            holds, gap = qc.pure_part_bound_check(
                qc.pure_part_decomposition(rho), qc.p_n(rho)
            )
            assert holds
            assert_allclose(gap, 1.0 - qc.p_n(rho), atol=1e-9)
            assert gap > 0.05

    def test_inconsistent_value_rejected(self):
        rho = qc.validate_density(DIAG_532)
        d = qc.pure_part_decomposition(rho)
        with pytest.raises(qc.InternalInvariantViolation):
            qc.pure_part_bound_check(d, 0.9)


class TestCoherenceReport:
    def test_maximally_mixed(self):
        rep = qc.coherence_report(qc.validate_density(np.eye(3) / 3))
        for value in (
            rep.p_n,
            rep.frobenius_distance,
            rep.center_of_mass,
            rep.bloch_norm,
            rep.visibility,
            rep.mu_in_given_basis,
        ):
            assert abs(value) < 1e-15
        assert_allclose(rep.purity, 1 / 3, atol=1e-15)

    def test_haar_pure(self):
        rep = qc.coherence_report(qc.random_state(5, "haar_pure", 12))
        for value in (
            rep.p_n,
            rep.frobenius_distance,
            rep.center_of_mass,
            rep.bloch_norm,
            rep.visibility,
        ):
            assert abs(value - 1.0) < 1e-9

    def test_hand_values(self):
        rep = qc.coherence_report(qc.validate_density(DIAG_532))
        assert_allclose(rep.p_n, SQRT_007, atol=1e-14)
        assert rep.mu_in_given_basis == 0.0
        assert_allclose(rep.pure_part_weight_sum, 0.4, atol=1e-14)
        assert qc.max_route_discrepancy(rep) < 1e-14

    def test_degenerate_diagonal_reports_zero(self):
        rep = qc.coherence_report(qc.validate_density(np.diag([1.0, 0.0, 0.0])))
        assert rep.mu_in_given_basis == 0.0
        assert abs(rep.p_n - 1.0) < 1e-12

    def test_route_agreement_random_sweep(self):
        for i in range(50):
            dim = 2 + i % 5
            rep = qc.coherence_report(ginibre(dim, 2000 + i))
            assert qc.max_route_discrepancy(rep) < 1e-9
            assert rep.mu_in_given_basis <= rep.p_n + 1e-9
            assert rep.p_n <= rep.pure_part_weight_sum + 1e-9

    def test_needs_no_eigenvectors(self, monkeypatch):
        def refused(rho):
            raise AssertionError("the report needs no eigenvectors")

        expected = qc.coherence_report(ginibre(5, 77))
        for module in (state, measures):
            monkeypatch.setattr(module, "spectral_decompose", refused)
        assert qc.coherence_report(ginibre(5, 77)) == expected

    def test_shared_fields_are_one_computation(self):
        for i in range(20):
            rho = qc.random_state(2 + i % 7, ("ginibre_mixed", "haar_pure")[i % 2], 3100 + i)
            rep = qc.coherence_report(rho)
            assert rep.frobenius_distance == rep.p_n == qc.p_n(rho)
            assert qc.frobenius_distance_measure(rho) == rep.p_n
            assert rep.visibility == rep.center_of_mass == qc.visibility(rho)

    def test_broken_weight_identity_raises(self, broken_weight_identity):
        rho = qc.validate_density(DIAG_532)
        with pytest.raises(qc.InternalInvariantViolation, match="^weight identity off by "):
            qc.coherence_report(rho)


@st.composite
def edge_states(draw) -> np.ndarray:
    """A state matrix at one of the edges the report must hold at: within
    1e-8 of the maximally mixed state, with a degenerate spectrum, or
    rank-deficient with one or more exact zero eigenvalues; N up to 64.
    The last two are diagonal or turned by a Haar unitary."""
    n = draw(st.integers(2, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    edge = draw(st.sampled_from(("near-mixed", "degenerate", "rank-deficient")))
    if edge == "near-mixed":
        eps = draw(st.sampled_from((1e-8, 1e-10, 1e-12, 1e-15, 0.0)))
        rho = qc.random_state(n, draw(st.sampled_from(("ginibre_mixed", "haar_pure"))), seed)
        return (1.0 - eps) * np.eye(n) / n + eps * rho.entries
    rng = np.random.default_rng(seed)
    if edge == "degenerate":
        levels = np.array([1.0, *draw(st.lists(st.sampled_from((0.0, 1e-12, 0.1, 0.25, 0.5)),
                                               max_size=2, unique=True))])
        lam = levels[rng.integers(levels.size, size=n)]
        lam[0] = 1.0
    else:
        lam = rng.random(n) + 1e-3
        lam[rng.permutation(n)[: draw(st.integers(1, n - 1))]] = 0.0
    lam /= lam.sum()
    if draw(st.booleans()):
        return np.diag(lam)
    u = qc.haar_unitary(n, seed)
    return (u * lam) @ u.conj().T


@settings(max_examples=60)
@given(edge_states())
def test_report_holds_at_the_edges(matrix):
    rho = qc.validate_density(matrix)
    rep = qc.coherence_report(rho)
    assert qc.max_route_discrepancy(rep) <= 1e-9
    assert rep.mu_in_given_basis <= rep.p_n + 1e-9
    split = qc.pure_part_decomposition(rho)
    holds, _ = qc.pure_part_bound_check(split, rep.p_n)
    assert holds
    assert np.all(split.weights >= 0.0)


# Reference pair loops for the shared sums; the vectorised helpers sum in
# another order, so they are held to a relative tolerance of 1e-12.


def _loop_spread(a):
    return sum((a[i] - a[j]) ** 2 for i in range(a.size) for j in range(i + 1, a.size))


def _loop_products(a):
    return sum(a[i] * a[j] for i in range(a.size) for j in range(i + 1, a.size))


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_pair_sums_match_loops(values):
    a = np.array(values)
    spread, products = _loop_spread(a), _loop_products(a)
    assert abs(a.size * _squared_deviation(a) - spread) <= 1e-12 * (1.0 + spread)
    assert abs(_pair_product_sum(a) - products) <= 1e-12 * (1.0 + products)


@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_mu_sums_match_loops(dim, seed):
    m = qc.random_state(dim, "ginibre_mixed", seed).entries
    numerator = sum(abs(m[i, j]) ** 2 for i in range(dim) for j in range(i + 1, dim))
    numerator_sum, denominator = _mu_sums(m)
    assert abs(numerator_sum - numerator) <= 1e-12 * numerator
    assert abs(denominator - _loop_products(m.diagonal().real)) <= 1e-12 * denominator


@pytest.mark.parametrize("n", (2, 3, 7, 40))
def test_spread_of_equal_entries_is_exactly_zero(n):
    assert _squared_deviation(np.full(n, 1.0 / 3.0)) == 0.0


# An exact oracle near the maximally mixed state.  The reference is the
# stored matrix read exactly as Fractions: P_N from its exact centred sum,
# square-rooted to 40 digits, and the total pure weight t - N lambda_min
# from an exact bracket of the smallest eigenvalue.  Every route must be
# within 1e-14 of it, relative, whatever the distance to I/N.

_ORACLE_DIMS = (2, 3, 8, 32)
_ORACLE_EPS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)


def _near_mixed(n, eps, rng, diagonal=False):
    """I/N + eps H for a symmetric H of integers in +-{1, 2, 3} off the
    diagonal, as stored by validation.  H's diagonal is zero or, with
    ``diagonal``, zero-sum integers c_i - c_(i-1) in [-6, 6], whose stored
    sum need not be a float; positive for eps <= 1e-4, N <= 32."""
    h = np.triu(rng.choice([-3, -2, -1, 1, 2, 3], size=(n, n)), k=1)
    h = h + h.T
    if diagonal:
        c = rng.integers(-3, 4, size=n)
        np.fill_diagonal(h, c - np.roll(c, 1))
    return qc.validate_density(np.eye(n) / n + eps * h)


def _exact_centred(rho):
    """The stored matrix minus (t/N) I as Fractions, and its trace t."""
    m = rho.entries
    assert not m.imag.any()
    rows = [[Fraction(float(v)) for v in row] for row in m.real]
    t = sum(rows[i][i] for i in range(rho.dim))
    for i in range(rho.dim):
        rows[i][i] -= t / rho.dim
    return rows, t


def _exact_p(rho):
    c, t = _exact_centred(rho)
    n = rho.dim
    radicand = n * sum(x * x for row in c for x in row) / ((n - 1) * t * t)
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(radicand.numerator) / Decimal(radicand.denominator)).sqrt())


def _count_below(c, x):
    """How many eigenvalues of the rational symmetric matrix c lie below x,
    exactly: the sign changes along the leading principal minors of c - xI
    (Sylvester's law of inertia), each minor a pivot of fraction-free
    (Bareiss) elimination on the integer matrix over the common denominator.
    None when a minor is 0."""
    n = len(c)
    den = lcm(x.denominator, *(v.denominator for row in c for v in row))
    a = [[int((v - (x if i == j else 0)) * den) for j, v in enumerate(row)]
         for i, row in enumerate(c)]
    prev, changes = 1, 0
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            return None
        changes += (pivot < 0) != (prev < 0)
        for i in range(k + 1, n):
            # the matrix stays symmetric: update and read the upper triangle only
            row, aki = a[i], a[k][i]
            for j in range(i, n):
                row[j] = (row[j] * pivot - aki * a[k][j]) // prev
        prev = pivot
    return changes


def _exact_weight_sum(rho):
    """t - N lambda_min = -N mu_min, mu_min the smallest eigenvalue of the
    exact centred matrix, as the centre of an exact bracket of mu_min no
    wider than 1e-15 relative.  The bracket starts at 5e-16 about a float
    estimate and widens fourfold until it holds."""
    c, _ = _exact_centred(rho)
    guess = Fraction(float(np.linalg.eigvalsh(np.array(c, dtype=float))[0]))
    radius = abs(guess) * Fraction(5, 10**16)
    while _count_below(c, guess - radius) != 0 or not _count_below(c, guess + radius):
        radius *= 4
    lo, hi = guess - radius, guess + radius
    while hi - lo > abs(guess) * Fraction(1, 10**15):
        mid = (lo + hi) / 2
        below = _count_below(c, mid)
        while below is None:  # a leading minor vanishes at mid: step off it
            mid = (lo + mid) / 2
            below = _count_below(c, mid)
        if below == 0:
            lo = mid
        else:
            hi = mid
    return float(-rho.dim * (lo + hi) / 2)


def _assert_exact(rho):
    rep = qc.coherence_report(rho)
    p = _exact_p(rho)
    for name in ("p_n", "frobenius_distance", "center_of_mass", "bloch_norm", "visibility"):
        value = getattr(rep, name)
        assert abs(value - p) <= 1e-14 * p, (name, value, p)
    weight_sum = _exact_weight_sum(rho)
    assert abs(rep.pure_part_weight_sum - weight_sum) <= 1e-14 * weight_sum, (
        rep.pure_part_weight_sum, weight_sum)


@pytest.mark.parametrize("eps", _ORACLE_EPS)
@pytest.mark.parametrize("n", _ORACLE_DIMS)
def test_routes_match_the_exact_value_near_the_mixed_state(n, eps):
    rng = np.random.default_rng(n * 1000 + int(-np.log10(eps)))
    for diagonal in (False, True):
        for _ in range(3):
            _assert_exact(_near_mixed(n, eps, rng, diagonal))


@settings(max_examples=25)
@given(st.sampled_from(_ORACLE_DIMS), st.floats(4.0, 12.0), st.integers(0, 2**32 - 1),
       st.booleans())
def test_routes_match_the_exact_value_property(n, decades, seed, diagonal):
    _assert_exact(_near_mixed(n, 10.0**-decades, np.random.default_rng(seed), diagonal))
