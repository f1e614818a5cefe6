import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcoherence as qc

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestGellmannBasis:
    def test_pauli_reduction_is_exact(self):
        basis = qc.gellmann_basis(2)
        assert np.array_equal(basis.symmetric[(1, 2)], PAULI_X)
        assert np.array_equal(basis.antisymmetric[(1, 2)], PAULI_Y)
        assert np.array_equal(basis.diagonal[1], PAULI_Z)

    def test_second_diagonal_generator_dim3(self):
        basis = qc.gellmann_basis(3)
        expected = np.sqrt(1 / 3) * np.diag([1.0, 1.0, -2.0])
        assert_allclose(basis.diagonal[2], expected, atol=1e-15)

    def test_dim4_orthogonality(self):
        mats = list(qc.gellmann_basis(4).matrices())
        assert len(mats) == 15
        for a, ma in enumerate(mats):
            for b, mb in enumerate(mats):
                inner = np.trace(ma @ mb).real
                assert abs(inner - (2.0 if a == b else 0.0)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_counts_hermitian_traceless(self, dim):
        basis = qc.gellmann_basis(dim)
        pairs = dim * (dim - 1) // 2
        assert len(basis.symmetric) == pairs
        assert len(basis.antisymmetric) == pairs
        assert len(basis.diagonal) == dim - 1
        for mat in basis.matrices():
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
            assert abs(np.trace(mat)) < 1e-12

    def test_dimension_too_small(self):
        with pytest.raises(qc.DimensionTooSmallError):
            qc.gellmann_basis(1)


class TestToBloch:
    def test_maximally_mixed_maps_to_origin_exactly(self):
        for n in (2, 3, 5):
            vec = qc.to_bloch(qc.validate_density(np.eye(n) / n))
            assert not np.any(vec.components())

    def test_two_level_real_coherence(self):
        vec = qc.to_bloch(qc.validate_density([[0.5, 0.25], [0.25, 0.5]]))
        assert_allclose(vec.u[(1, 2)], 0.5, atol=1e-15)
        assert_allclose(vec.v[(1, 2)], 0.0, atol=1e-15)
        assert_allclose(vec.w[1], 0.0, atol=1e-15)

    def test_three_level_diagonal(self):
        vec = qc.to_bloch(qc.validate_density(np.diag([0.5, 0.3, 0.2])))
        assert all(abs(value) < 1e-15 for value in vec.u.values())
        assert all(abs(value) < 1e-15 for value in vec.v.values())
        assert_allclose(vec.w[1], np.sqrt(0.75) * 0.2, atol=1e-15)
        assert_allclose(vec.w[2], 0.2, atol=1e-15)


class TestFromBloch:
    def _zero_vector(self, dim):
        pairs = [(j, k) for j in range(1, dim + 1) for k in range(j + 1, dim + 1)]
        return qc.BlochVector(
            dim,
            {key: 0.0 for key in pairs},
            {key: 0.0 for key in pairs},
            {l: 0.0 for l in range(1, dim)},
        )

    def test_origin_is_maximally_mixed(self):
        rho = qc.from_bloch(self._zero_vector(5))
        assert_allclose(rho.entries, np.eye(5) / 5, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_round_trip(self, dim):
        for i in range(20):
            rho = qc.random_state(dim, "ginibre_mixed", 37 * dim + i)
            back = qc.from_bloch(qc.to_bloch(rho))
            assert np.max(np.abs(back.entries - rho.entries)) < 1e-12

    def test_unit_sphere_point_outside_physical_body(self):
        # (1/3)(I + sqrt(3) W_1) has eigenvalue (1 - sqrt(3))/3 < 0
        vec = self._zero_vector(3)
        vec.w[1] = 1.0
        with pytest.raises(qc.NotPSDError):
            qc.from_bloch(vec)

    def test_tolerance_of_one(self):
        with pytest.raises(qc.InvalidParameterError):
            qc.from_bloch(qc.to_bloch(qc.validate_density(np.eye(2) / 2)), tol=1.0)

    def test_mismatched_components(self):
        bad = qc.BlochVector(3, {(1, 2): 0.0}, {(1, 2): 0.0}, {1: 0.0, 2: 0.0})
        with pytest.raises(qc.WrongDimensionError):
            qc.from_bloch(bad)


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
    mats = list(qc.gellmann_basis(dim).matrices())
    for i in range(100):
        rho = qc.random_state(dim, "ginibre_mixed", 555 * dim + i)
        rebuilt = np.eye(dim, dtype=complex) / dim
        for mat in mats:
            rebuilt += 0.5 * np.trace(rho.entries @ mat) * mat
        assert np.max(np.abs(rebuilt - rho.entries)) < 1e-10
