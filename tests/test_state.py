import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcoherence as qc


def _phase_oracle(column: np.ndarray) -> np.ndarray:
    """Reference phase rule, one column at a time: the first component
    above 1e-12 becomes real positive; a column without one is unchanged."""
    above = np.abs(column) > 1e-12
    if not np.any(above):
        return column
    pivot = column[int(np.argmax(above))]
    return column * (pivot.conj() / abs(pivot))


# Hermitian with unit trace; m_01 + conj(m_10) passes the float range
_OVERFLOWING_PAIR = np.array([[0.5, 9.99e307], [9.99e307, 0.5]], dtype=complex)
_OVERFLOWING_LATTICE = np.diag([0.5, 0.0, 0.5]).astype(complex)
_OVERFLOWING_LATTICE[0, 2] = _OVERFLOWING_LATTICE[2, 0] = 9.99e307


class TestValidateDensity:
    def test_maximally_mixed_is_valid(self):
        rho = qc.validate_density(np.eye(2) / 2)
        assert rho.dim == 2
        assert np.array_equal(rho.entries, np.eye(2) / 2)

    def test_indefinite_matrix_rejected(self):
        # 2x2 characteristic polynomial: eigenvalues 0.5 +- sqrt(0.26),
        # minimum ~ -0.0099
        assert 0.5 - np.sqrt(0.26) < -1e-9
        with pytest.raises(qc.NotPSDError):
            qc.validate_density([[0.6, 0.5], [0.5, 0.4]])

    def test_non_hermitian_rejected(self):
        with pytest.raises(qc.NotHermitianError):
            qc.validate_density([[0.5, 0.25j], [0.25j, 0.5]])

    def test_not_square(self):
        with pytest.raises(qc.NotSquareError):
            qc.validate_density(np.ones((2, 3)) / 6)

    def test_dimension_too_small(self):
        with pytest.raises(qc.DimensionTooSmallError):
            qc.validate_density([[1.0]])

    def test_wrong_trace(self):
        with pytest.raises(qc.NotUnitTraceError):
            qc.validate_density(np.eye(3))

    def test_non_finite_entries(self):
        with pytest.raises(qc.InvalidParameterError):
            qc.validate_density([[np.nan, 0.0], [0.0, 1.0]])

    def test_negative_tolerance(self):
        with pytest.raises(qc.InvalidParameterError):
            qc.validate_density(np.eye(2) / 2, tol=-1.0)

    @pytest.mark.parametrize("tol", [1.0, 1.5, 2.0, np.inf, np.nan])
    def test_tolerance_of_one_or_more(self, tol):
        # a trace within 1 of 1 may be zero or negative, and renormalising
        # by it would flip the sign of the state or divide 0 by 0
        with pytest.raises(qc.InvalidParameterError, match=r"outside \[0, 1\)"):
            qc.validate_density(np.eye(2) / 2, tol)

    def test_small_negative_eigenvalue_clamped(self):
        eps = 1e-12
        rho = qc.validate_density(np.diag([1.0 + eps, -eps]))
        vals = np.linalg.eigvalsh(rho.entries)
        assert vals.min() >= 0.0
        assert abs(np.trace(rho.entries).real - 1.0) < 1e-15

    def test_stored_entries_exactly_hermitian(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w = g @ g.conj().T
        rho = qc.validate_density(w / w.trace().real)
        assert np.array_equal(rho.entries, rho.entries.conj().T)

    def test_entries_are_readonly(self):
        rho = qc.validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 5.0

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: qc.validate_density([[9e307, 0.0], [0.0, 0.5]]), qc.NotUnitTraceError),
            (lambda: qc.validate_density([[0.5, 9e307], [-9e307, 0.5]]), qc.NotHermitianError),
            (lambda: qc.FockState(1, [[9e307, 0.0], [0.0, 0.5]], 0.0), qc.NotNormalizedError),
            # Hermitian with unit trace, but the part's off-diagonal pair overflows
            (lambda: qc.validate_density(_OVERFLOWING_PAIR), qc.NotPSDError),
            (lambda: qc.validate_density([[0.5, 9.99e307j], [-9.99e307j, 0.5]]), qc.NotPSDError),
            (lambda: qc.FockState(1, _OVERFLOWING_PAIR, 0.0), qc.NotPSDError),
            (lambda: qc.OamState(1, _OVERFLOWING_LATTICE, 0.0), qc.NotPSDError),
            (
                lambda: qc.CvState(qc.build_cv_grid(1, 2.0), "position", _OVERFLOWING_LATTICE),
                qc.NotPSDError,
            ),
            # no trace check: the finite-part check still runs
            (lambda: qc.AngularCoherence(2, _OVERFLOWING_PAIR), qc.NotPSDError),
        ],
        ids=[
            "trace", "hermiticity", "fock-trace", "positivity", "positivity-imaginary",
            "fock-positivity", "oam-positivity", "lattice-positivity", "angular-positivity",
        ],
    )
    def test_entry_past_half_the_float_range_rejected_without_warning(self, build, error):
        # the Hermitian part and the defect are made before the checks, and
        # doubling such an entry overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                build()


class TestSpectralDecompose:
    def test_diagonal_input_sorted(self):
        rho = qc.validate_density(np.diag([0.2, 0.5, 0.3]))
        spectrum = qc.spectral_decompose(rho)
        assert_allclose(spectrum.eigenvalues, [0.5, 0.3, 0.2], atol=1e-15)

    def test_two_level_closed_form(self):
        # (rho11 + rho22)/2 +- |rho12|
        rho = qc.validate_density([[0.5, 0.25], [0.25, 0.5]])
        spectrum = qc.spectral_decompose(rho)
        assert_allclose(spectrum.eigenvalues, [0.75, 0.25], atol=1e-15)

    def test_rank_one_projector(self):
        plus = np.full((2, 2), 0.5)
        spectrum = qc.spectral_decompose(qc.validate_density(plus))
        assert_allclose(spectrum.eigenvalues, [1.0, 0.0], atol=1e-15)

    def test_identity_block_is_canonical(self):
        spectrum = qc.spectral_decompose(qc.validate_density(np.eye(4) / 4))
        assert_allclose(spectrum.eigenvalues, np.full(4, 0.25), atol=1e-15)
        assert_allclose(spectrum.eigenvectors, np.eye(4), atol=1e-15)

    def test_phase_convention(self):
        rho = qc.random_state(5, "ginibre_mixed", 3)
        vecs = qc.spectral_decompose(rho).eigenvectors
        for col in vecs.T:
            pivot = col[np.argmax(np.abs(col) > 1e-12)]
            assert pivot.real > 0
            assert abs(pivot.imag) < 1e-12

    @pytest.mark.parametrize("dim", [*range(2, 11), 32, 64])
    def test_matches_per_column_phase_oracle(self, dim):
        for seed in range(5):
            rho = qc.random_state(dim, "ginibre_mixed", 1000 * dim + seed)
            vals, vecs = np.linalg.eigh(rho.entries)
            order = np.argsort(-vals, kind="stable")
            expected = np.column_stack([_phase_oracle(vecs[:, i]) for i in order])
            spectrum = qc.spectral_decompose(rho)
            assert np.array_equal(spectrum.eigenvalues, vals[order])
            assert np.array_equal(spectrum.eigenvectors, expected)

    @pytest.mark.parametrize(
        ("diagonal", "pivots"),
        [
            ([0.4, 0.2, 0.2, 0.2], [0, 1, 2, 3]),
            ([0.3, 0.3, 0.2, 0.2], [0, 1, 2, 3]),
            ([0.2, 0.4, 0.2, 0.2], [1, 0, 2, 3]),
        ],
    )
    def test_equal_eigenvalues_keep_solver_order(self, diagonal, pivots):
        vecs = qc.spectral_decompose(qc.validate_density(np.diag(diagonal))).eigenvectors
        assert [int(np.argmax(np.abs(col) > 1e-12)) for col in vecs.T] == pivots
        assert np.array_equal(np.abs(vecs), np.abs(vecs).round())

    def test_degenerate_output_reproducible(self):
        rho = qc.random_state(4, "haar_pure", 11)  # triple-degenerate zero block
        a = qc.spectral_decompose(rho)
        b = qc.spectral_decompose(rho)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reconstruction_and_orthonormality(self, dim):
        for i in range(100):
            rho = qc.random_state(dim, "ginibre_mixed", 100 * dim + i)
            spectrum = qc.spectral_decompose(rho)
            vecs = spectrum.eigenvectors
            gram = vecs.conj().T @ vecs
            assert np.max(np.abs(gram - np.eye(dim))) < 1e-10
            rebuilt = (vecs * spectrum.eigenvalues) @ vecs.conj().T
            assert np.max(np.abs(rebuilt - rho.entries)) < 1e-10
            assert abs(spectrum.eigenvalues.sum() - 1.0) < 1e-10
            assert spectrum.eigenvalues.min() > -1e-10
            assert spectrum.eigenvalues.max() < 1.0 + 1e-10
            assert np.all(np.diff(spectrum.eigenvalues) <= 0)


class TestPurity:
    def test_maximally_mixed(self):
        for n in (2, 3, 7):
            assert_allclose(qc.purity(qc.validate_density(np.eye(n) / n)), 1 / n, atol=1e-15)

    def test_pure_projector(self):
        rho = qc.random_state(4, "haar_pure", 0)
        assert_allclose(qc.purity(rho), 1.0, atol=1e-12)

    def test_hand_value(self):
        # 0.25 + 0.09 + 0.04
        rho = qc.validate_density(np.diag([0.5, 0.3, 0.2]))
        assert_allclose(qc.purity(rho), 0.38, atol=1e-15)

    def test_unitary_invariance(self):
        rho = qc.random_state(4, "ginibre_mixed", 5)
        for k in range(10):
            u = qc.haar_unitary(4, 50 + k)
            rotated = qc.validate_density(u @ rho.entries @ u.conj().T)
            assert abs(qc.purity(rotated) - qc.purity(rho)) < 1e-10


class TestRandomState:
    def test_haar_pure_purity(self):
        rho = qc.random_state(2, "haar_pure", 42)
        assert abs(qc.purity(rho) - 1.0) < 1e-12

    def test_rank_restriction(self):
        rho = qc.random_state(4, "rank_k", 9, rank=2)
        vals = np.linalg.eigvalsh(rho.entries)
        assert np.sum(vals > 1e-12) == 2

    def test_deterministic(self):
        a = qc.random_state(3, "ginibre_mixed", 17)
        b = qc.random_state(3, "ginibre_mixed", 17)
        assert np.array_equal(a.entries, b.entries)

    def test_all_kinds_validate_strictly(self):
        for i, (kind, rank) in enumerate(
            [("haar_pure", None), ("ginibre_mixed", None), ("rank_k", 3)]
        ):
            rho = qc.random_state(5, kind, i, rank)
            qc.validate_density(rho.entries, tol=1e-10)

    def test_invalid_rank(self):
        with pytest.raises(qc.InvalidRankError):
            qc.random_state(4, "rank_k", 0, rank=5)
        with pytest.raises(qc.InvalidRankError):
            qc.random_state(4, "rank_k", 0)
        with pytest.raises(qc.InvalidRankError):
            qc.random_state(4, "haar_pure", 0, rank=2)

    def test_unknown_kind(self):
        with pytest.raises(qc.InvalidParameterError):
            qc.random_state(4, "bures", 0)

    def test_dimension_too_small(self):
        with pytest.raises(qc.DimensionTooSmallError):
            qc.random_state(1, "haar_pure", 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True, False])
    @pytest.mark.parametrize("kind", ["haar_pure", "ginibre_mixed"])
    def test_seed_not_a_non_negative_integer(self, kind, seed):
        with pytest.raises(qc.InvalidParameterError, match="seed"):
            qc.random_state(2, kind, seed)


def test_complex_array_past_the_index_range_raises_memory_error():
    # the lag matrix of 1e16 Wigner rows on a d=256 lattice; numpy itself
    # refuses such a shape with ValueError
    with pytest.raises(MemoryError, match="^Unable to allocate a 10000000000000000 x 513 "):
        qc.state._complex_array((10**16, 513))
    assert qc.state._complex_array((2, 3), np.zeros).shape == (2, 3)


def _probe_states():
    grid = qc.build_cv_grid(16, 4.0, 0.5)
    cv = qc.gaussian_cv(grid, 0.6)
    oam = qc.geometric_oam(0.5, 3)
    return SimpleNamespace(grid=grid, cv=cv, oam=oam, w=qc.infdim.wigner_from_cv(cv, 8, 8))


# One call per size, count or real parameter of the library, each with a
# value of the wrong kind: a bool, a non-integral float or a string.
_PARAMETER_PROBES = {
    "random_state.dim": lambda s: qc.random_state(2.5, "haar_pure", 1),
    "random_state.rank": lambda s: qc.random_state(4, "rank_k", 1, rank=2.5),
    "haar_unitary.dim": lambda s: qc.basis_opt.haar_unitary("4", 1),
    "geometric_oam.cutoff": lambda s: qc.geometric_oam(0.5, True),
    "thermal_fock.cutoff": lambda s: qc.thermal_fock(1.0, 2.5),
    "OamState.tail_bound": lambda s: qc.OamState(3, s.oam.coefficients, True),
    "CvGrid.d": lambda s: qc.CvGrid(True, 4.0),
    "CvGrid.p_max": lambda s: qc.CvGrid(16, "4.0"),
    "oam_to_angle.grid_size": lambda s: qc.infdim.oam_to_angle(s.oam, 64.0),
    "wigner_from_cv.x_steps": lambda s: qc.infdim.wigner_from_cv(s.cv, 8.0, 8),
    "p_inf_wigner.hbar": lambda s: qc.infdim.p_inf_wigner(s.w, "1"),
    "geometric_oam.q": lambda s: qc.geometric_oam("0.5", 3),
    "thermal_cv.nbar": lambda s: qc.thermal_cv(s.grid, True),
    "gaussian_cv.sigma_x": lambda s: qc.gaussian_cv(s.grid, "0.6"),
}


@pytest.mark.parametrize("probe", list(_PARAMETER_PROBES))
def test_parameter_of_the_wrong_kind_is_invalid(probe):
    with pytest.raises(qc.InvalidParameterError):
        _PARAMETER_PROBES[probe](_probe_states())


@pytest.mark.parametrize(
    "call",
    [
        lambda: qc.validate_density([["a", "b"], ["c", "d"]]),
        lambda: qc.validate_density([[0.5, 0.0], [0.5]]),
        lambda: qc.OamState(0, [["x"]], 0.0),
        lambda: qc.visibility_f(["a", "b"]),
        lambda: qc.validate_density(np.eye(2) / 2, tol="1e-9"),
    ],
    ids=["strings", "ragged", "oam-strings", "visibility-strings", "string-tolerance"],
)
def test_entries_that_are_not_numbers_are_invalid(call):
    with pytest.raises(qc.InvalidParameterError):
        call()


# every entry reader of the library, through state._as_array, with the size
# of the projector diag(1, 0, ...) it is given and the matrix it stores
_ENTRY_READERS = {
    "validate_density": (2, lambda m: qc.validate_density(m).entries),
    "as_complex_matrix": (2, qc.state.as_complex_matrix),
    "OamState": (3, lambda m: qc.OamState(1, m, 0.0).coefficients),
    "FockState": (2, lambda m: qc.FockState(1, m, 0.0).coefficients),
    "CvState": (3, lambda m: qc.CvState(qc.CvGrid(1, 1.0), "position", m).matrix),
    "AngularCoherence": (2, lambda m: qc.AngularCoherence(2, m).samples),
}
# the projector's entries in kinds that numpy reads as something other than
# numbers; numpy parsed the strings and bytes and cast the rest
_NOT_NUMBERS = {
    "str": lambda m: m.astype(str).tolist(),
    "str-array": lambda m: m.astype(str),
    "bytes": lambda m: m.astype(bytes).tolist(),
    "bool": lambda m: m.astype(bool),
    "object": lambda m: m.astype(object),
}


@pytest.mark.parametrize("kind", list(_NOT_NUMBERS))
@pytest.mark.parametrize("reader", list(_ENTRY_READERS))
def test_entries_of_a_kind_other_than_number_are_invalid(reader, kind):
    size, read = _ENTRY_READERS[reader]
    with pytest.raises(qc.InvalidParameterError, match="^entries must be numbers of one shape: "):
        read(_NOT_NUMBERS[kind](np.diag([1.0] + [0.0] * (size - 1))))


# the projector's entries as every numeric dtype and as nested lists
_NUMBERS = {
    **{code: lambda m, code=code: m.astype(code)
       for code in sorted(set(np.typecodes["AllInteger"] + np.typecodes["AllFloat"]))},
    "int-list": lambda m: m.astype(int).tolist(),
    "float-list": lambda m: m.tolist(),
}


@pytest.mark.parametrize("kind", list(_NUMBERS))
@pytest.mark.parametrize("reader", list(_ENTRY_READERS))
def test_entries_of_every_numeric_kind_are_read(reader, kind):
    size, read = _ENTRY_READERS[reader]
    projector = np.diag([1.0] + [0.0] * (size - 1))
    assert np.array_equal(read(_NUMBERS[kind](projector)), read(projector))


def test_checked_parameters_are_stored_as_python_numbers():
    grid = qc.CvGrid(np.int64(4), 2, np.float32(0.5))
    assert (type(grid.d), type(grid.p_max), type(grid.hbar)) == (int, float, float)
    oam = qc.OamState(np.int64(0), [[1.0]], 0)
    assert (type(oam.cutoff), type(oam.declared_tail_bound)) == (int, float)
    assert type(qc.infdim.AngularCoherence(np.int64(2), np.eye(2) / 2).grid_size) is int
