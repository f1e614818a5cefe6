import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qcoherence as qc

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def gellmann_basis(dim):
    """The N^2 - 1 generalised Gell-Mann generators as dense matrices, the
    reference that the package's entry-wise conversions are checked against:
    (symmetric, antisymmetric, diagonal), keyed by (j, k) and by l, each in
    the order of its part of ``BlochVector.components``."""
    symmetric, antisymmetric, diagonal = {}, {}, {}
    for j in range(1, dim + 1):
        for k in range(j + 1, dim + 1):
            u = np.zeros((dim, dim), dtype=complex)
            u[j - 1, k - 1] = u[k - 1, j - 1] = 1.0
            v = np.zeros((dim, dim), dtype=complex)
            v[j - 1, k - 1] = -1.0j
            v[k - 1, j - 1] = 1.0j
            symmetric[(j, k)], antisymmetric[(j, k)] = u, v
    for l in range(1, dim):
        w = np.zeros((dim, dim), dtype=complex)
        w[np.arange(l), np.arange(l)] = 1.0
        w[l, l] = -l
        diagonal[l] = np.sqrt(2.0 / (l * (l + 1))) * w
    return symmetric, antisymmetric, diagonal


def generators(dim):
    """All generators in the canonical order of ``BlochVector.components``."""
    return [mat for group in gellmann_basis(dim) for mat in group.values()]


class TestGellmannBasis:
    """The reference generator set above: the package builds none."""

    def test_pauli_reduction_is_exact(self):
        symmetric, antisymmetric, diagonal = gellmann_basis(2)
        assert np.array_equal(symmetric[(1, 2)], PAULI_X)
        assert np.array_equal(antisymmetric[(1, 2)], PAULI_Y)
        assert np.array_equal(diagonal[1], PAULI_Z)

    def test_second_diagonal_generator_dim3(self):
        expected = np.sqrt(1 / 3) * np.diag([1.0, 1.0, -2.0])
        assert_allclose(gellmann_basis(3)[2][2], expected, atol=1e-15)

    def test_dim4_orthogonality(self):
        mats = generators(4)
        assert len(mats) == 15
        for a, ma in enumerate(mats):
            for b, mb in enumerate(mats):
                inner = np.trace(ma @ mb).real
                assert abs(inner - (2.0 if a == b else 0.0)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_counts_hermitian_traceless(self, dim):
        symmetric, antisymmetric, diagonal = gellmann_basis(dim)
        pairs = dim * (dim - 1) // 2
        assert len(symmetric) == pairs
        assert len(antisymmetric) == pairs
        assert len(diagonal) == dim - 1
        for mat in generators(dim):
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
            assert abs(np.trace(mat)) < 1e-12

    def test_dimension_too_small(self):
        with pytest.raises(qc.DimensionTooSmallError):
            qc.from_bloch(qc.BlochVector(1, np.zeros(0)))


@pytest.mark.parametrize("dim", range(2, 9))
def test_entrywise_conversions_match_generator_sums(dim):
    """to_bloch gives sqrt(N/(2(N-1))) Tr(rho G) for every generator G, in
    canonical order, and from_bloch gives (I + K sum_G c_G G)/N with
    K = sqrt(N(N-1)/2), on states and on shrunk (still physical) vectors."""
    mats = generators(dim)
    scale = np.sqrt(dim * (dim - 1) / 2.0)
    rng = np.random.default_rng(dim)
    for i, kind in enumerate(("haar_pure", "ginibre_mixed", "ginibre_mixed")):
        rho = qc.random_state(dim, kind, 11 * dim + i)
        vec = qc.to_bloch(rho)
        traces = np.array([np.trace(rho.entries @ mat) for mat in mats])
        assert np.max(np.abs(traces.imag)) < 1e-15
        oracle = np.sqrt(dim / (2.0 * (dim - 1))) * traces.real
        assert np.max(np.abs(vec.components - oracle)) <= 1e-15
        shrunk = qc.BlochVector(dim, rng.random() * vec.components)
        expected = np.eye(dim, dtype=complex)
        for coeff, mat in zip(shrunk.components, mats):
            expected += scale * coeff * mat
        assert np.max(np.abs(qc.from_bloch(shrunk).entries - expected / dim)) <= 1e-15


class TestToBloch:
    def test_maximally_mixed_maps_to_origin_exactly(self):
        for n in (2, 3, 5):
            vec = qc.to_bloch(qc.validate_density(np.eye(n) / n))
            assert not np.any(vec.components)

    def test_two_level_real_coherence(self):
        # u_12, v_12, w_1
        vec = qc.to_bloch(qc.validate_density([[0.5, 0.25], [0.25, 0.5]]))
        assert_allclose(vec.components, [0.5, 0.0, 0.0], atol=1e-15)

    def test_three_level_diagonal(self):
        # u_12, u_13, u_23, v_12, v_13, v_23, then w_1, w_2
        vec = qc.to_bloch(qc.validate_density(np.diag([0.5, 0.3, 0.2])))
        assert np.all(np.abs(vec.components[:6]) < 1e-15)
        assert_allclose(vec.components[6], np.sqrt(0.75) * 0.2, atol=1e-15)
        assert_allclose(vec.components[7], 0.2, atol=1e-15)

    def test_components_are_read_only(self):
        vec = qc.to_bloch(qc.validate_density([[0.5, 0.25], [0.25, 0.5]]))
        with pytest.raises(ValueError):
            vec.components[0] = 1.0


class TestFromBloch:
    def test_origin_is_maximally_mixed(self):
        rho = qc.from_bloch(qc.BlochVector(5, np.zeros(24)))
        assert_allclose(rho.entries, np.eye(5) / 5, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_round_trip(self, dim):
        for i in range(20):
            rho = qc.random_state(dim, "ginibre_mixed", 37 * dim + i)
            back = qc.from_bloch(qc.to_bloch(rho))
            assert np.max(np.abs(back.entries - rho.entries)) < 1e-12

    def test_unit_sphere_point_outside_physical_body(self):
        # (1/3)(I + sqrt(3) W_1) has eigenvalue (1 - sqrt(3))/3 < 0
        comps = np.zeros(8)
        comps[6] = 1.0  # w_1
        with pytest.raises(qc.NotPSDError):
            qc.from_bloch(qc.BlochVector(3, comps))

    def test_tolerance_of_one(self):
        with pytest.raises(qc.InvalidParameterError):
            qc.from_bloch(qc.to_bloch(qc.validate_density(np.eye(2) / 2)), tol=1.0)

    def test_mismatched_components(self):
        with pytest.raises(qc.WrongDimensionError):
            qc.from_bloch(qc.BlochVector(3, np.zeros(4)))

    @pytest.mark.parametrize("shape", [(9,), (2, 4)])
    def test_components_of_wrong_shape(self, shape):
        # N^2 entries, and N^2 - 1 entries in a 2-d array, at N=3
        with pytest.raises(qc.WrongDimensionError):
            qc.from_bloch(qc.BlochVector(3, np.zeros(shape)))


class TestBlochNorm:
    def test_origin(self):
        vec = qc.to_bloch(qc.validate_density(np.eye(4) / 4))
        assert qc.bloch_norm(vec) == 0.0

    def test_two_level_example(self):
        rho = qc.validate_density([[0.5, 0.25], [0.25, 0.5]])
        # cross-check against sqrt(2 Tr(rho^2) - 1) with Tr(rho^2) = 0.625
        assert_allclose(qc.bloch_norm(qc.to_bloch(rho)), 0.5, atol=1e-15)
        assert_allclose(np.sqrt(2 * qc.purity(rho) - 1), 0.5, atol=1e-15)

    def test_three_level_example(self):
        rho = qc.validate_density(np.diag([0.5, 0.3, 0.2]))
        assert_allclose(qc.bloch_norm(qc.to_bloch(rho)), np.sqrt(0.07), atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_norm_equals_trace_formula(self, dim):
        for i in range(100):
            rho = qc.random_state(dim, "ginibre_mixed", 1000 * dim + i)
            norm = qc.bloch_norm(qc.to_bloch(rho))
            formula = np.sqrt((dim * qc.purity(rho) - 1) / (dim - 1))
            assert abs(norm - formula) < 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_basis_completeness(dim):
    mats = generators(dim)
    for i in range(100):
        rho = qc.random_state(dim, "ginibre_mixed", 555 * dim + i)
        rebuilt = np.eye(dim, dtype=complex) / dim
        for mat in mats:
            rebuilt += 0.5 * np.trace(rho.entries @ mat) * mat
        assert np.max(np.abs(rebuilt - rho.entries)) < 1e-10


@st.composite
def random_states(draw, max_dim):
    n = draw(st.integers(2, max_dim))
    kind = draw(st.sampled_from(("haar_pure", "ginibre_mixed", "rank_k")))
    rank = draw(st.integers(1, n)) if kind == "rank_k" else None
    return qc.random_state(n, kind, draw(st.integers(0, 2**32 - 1)), rank)


class TestBlochProperties:
    """The Bloch route at the sizes the array form is for, up to N=256."""

    @settings(max_examples=30)
    @given(st.integers(2, 256))
    @example(256)
    def test_maximally_mixed_maps_to_exact_zeros(self, n):
        vec = qc.to_bloch(qc.validate_density(np.eye(n) / n))
        assert not np.any(vec.components)
        assert vec.components.size == n * n - 1

    @settings(max_examples=30)
    @given(random_states(256))
    @example(qc.random_state(256, "ginibre_mixed", 1))
    def test_norm_agrees_with_p_n(self, rho):
        assert abs(qc.bloch_norm(qc.to_bloch(rho)) - qc.p_n(rho)) <= 1e-10

    @settings(max_examples=25)
    @given(random_states(32))
    @example(qc.random_state(32, "ginibre_mixed", 1))
    def test_round_trip(self, rho):
        back = qc.from_bloch(qc.to_bloch(rho))
        assert np.max(np.abs(back.entries - rho.entries)) <= 1e-12
