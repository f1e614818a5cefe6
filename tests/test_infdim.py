import cmath
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qcoherence as qc
from qcoherence import infdim, jsonio, measures

INV_SQRT3 = 1 / np.sqrt(3)


class TestOamStates:
    def test_pure_superposition(self):
        state = qc.oam_mode_superposition({-1: 1.0, 1: 1.0}, 1)
        value, error = qc.p_inf_oam(state)
        assert_allclose(value, 1.0, atol=1e-15)
        assert error == 0.0

    def test_geometric_matches_series_oracle(self):
        # sum of squared geometric weights: (1-q)^2/(1-q^2) = (1-q)/(1+q)
        q = 0.5
        state = qc.geometric_oam(q, 60)
        value, error = qc.p_inf_oam(state)
        assert abs(value - np.sqrt((1 - q) / (1 + q))) < 1e-6
        assert error < 1e-15
        assert state.declared_tail_bound == q**61

    @pytest.mark.parametrize("q", (0.5, 0.9))
    def test_geometric_weights_match_per_mode_loop(self, q):
        """The one array fill of the mode weights against a per-mode loop."""
        loop = np.zeros((121, 121), dtype=complex)
        for mode in range(61):
            loop[mode + 60, mode + 60] = (1.0 - q) * q**mode
        assert_allclose(qc.geometric_oam(q, 60).coefficients, loop, rtol=1e-15, atol=0.0)

    def test_uniform_band(self):
        d = 50
        size = 2 * d + 1
        state = qc.OamState(d, np.eye(size, dtype=complex) / size, 0.0)
        value, _ = qc.p_inf_oam(state)
        assert_allclose(value, 1 / np.sqrt(size), atol=1e-12)

    def test_empty_state(self):
        state = qc.OamState(0, np.zeros((1, 1), dtype=complex), 1.0)
        with pytest.raises(qc.EmptyStateError):
            qc.p_inf_oam(state)

    def test_error_bound_propagation(self):
        state = qc.OamState(0, np.array([[0.99 + 0j]]), 0.01)
        value, error = qc.p_inf_oam(state)
        assert_allclose(error, 0.01 / (2 * value), atol=1e-15)

    def test_truncation_monotone_and_tail_dominates(self):
        q = 0.5
        coarse, _ = qc.p_inf_oam(qc.geometric_oam(q, 20))
        fine, _ = qc.p_inf_oam(qc.geometric_oam(q, 40))
        assert fine >= coarse
        assert abs(fine - coarse) < qc.geometric_oam(q, 20).declared_tail_bound

    def test_validation(self):
        with pytest.raises(qc.NotHermitianError):
            qc.OamState(1, np.triu(np.full((3, 3), 0.4 + 0j)), 0.0)
        with pytest.raises(qc.NotNormalizedError):
            qc.OamState(0, np.array([[2.0 + 0j]]), 0.0)
        with pytest.raises(qc.InvalidParameterError):
            qc.geometric_oam(1.5, 10)


class TestAngleRoute:
    def test_single_flat_mode(self):
        state = qc.oam_mode_superposition({0: 1.0}, 0)
        w = qc.oam_to_angle(state, 8)
        assert_allclose(w.samples, np.full((8, 8), 1 / (2 * np.pi)), atol=1e-15)
        assert_allclose(qc.p_inf_angle(w), 1.0, atol=1e-12)

    def test_pure_single_mode_is_flat_in_angle(self):
        state = qc.oam_mode_superposition({2: 1.0}, 3)
        w = qc.oam_to_angle(state, 32)
        assert_allclose(np.abs(w.samples), 1 / (2 * np.pi), atol=1e-12)
        assert_allclose(qc.p_inf_angle(w), 1.0, atol=1e-12)

    def test_nyquist_guard(self):
        state = qc.geometric_oam(0.5, 10)
        with pytest.raises(qc.GridTooCoarseError):
            qc.oam_to_angle(state, 41)
        qc.oam_to_angle(state, 42)

    def test_trace_quadrature(self):
        # the quadrature is exact for the band-limited samples, so the trace
        # reproduces the truncated mass; at cutoff 60 the deficit is 2^-61
        w = qc.oam_to_angle(qc.geometric_oam(0.5, 60), 256)
        m = w.grid_size
        trace = (2 * np.pi / m) * np.sum(w.samples.diagonal().real)
        assert abs(trace - 1.0) < 1e-10

    def test_dual_route_agreement(self):
        state = qc.geometric_oam(0.5, 60)
        oam_value, _ = qc.p_inf_oam(state)
        angle_value = qc.p_inf_angle(qc.oam_to_angle(state, 512))
        assert abs(oam_value - angle_value) < 1e-4

    def test_truncated_state_trace(self):
        # the samples integrate to the coefficient trace 1 - 0.99^65, not 1
        state = qc.geometric_oam(0.99, 64)
        w = qc.oam_to_angle(state, 260)
        trace = float(state.coefficients.trace().real)
        with pytest.raises(qc.NotNormalizedError):
            qc.p_inf_angle(w)
        assert abs(qc.p_inf_angle(w, trace) - qc.p_inf_oam(state)[0]) <= 1e-12

    def test_constant_samples(self):
        m = 16
        flat = qc.AngularCoherence(m, np.full((m, m), 1 / (2 * np.pi), dtype=complex))
        assert_allclose(qc.p_inf_angle(flat), 1.0, atol=1e-12)
        doubled = qc.AngularCoherence(m, np.full((m, m), 1 / np.pi, dtype=complex))
        with pytest.raises(qc.NotNormalizedError):
            qc.p_inf_angle(doubled)


class TestFockStates:
    def test_number_eigenstate(self):
        mat = np.zeros((6, 6), dtype=complex)
        mat[3, 3] = 1.0
        value, _ = qc.p_inf_fock(qc.FockState(5, mat, 0.0))
        assert value == 1.0

    def test_thermal_oracle(self):
        value, error = qc.p_inf_fock(qc.thermal_fock(1.0, 80))
        assert abs(value - INV_SQRT3) < 1e-6
        assert error < 1e-20

    def test_coherent_state_is_pure(self):
        state = qc.coherent_fock(np.sqrt(2.0), 40)
        value, _ = qc.p_inf_fock(state)
        assert abs(value - 1.0) < 1e-6
        # declared bound must dominate the actually discarded mass, up to
        # summation rounding
        discarded = 1.0 - float(np.sum(np.abs(state.coefficients) ** 2))
        assert discarded <= state.declared_tail_bound + 1e-12

    def test_complex_amplitude(self):
        state = qc.coherent_fock(1.0 + 0.5j, 40)
        value, _ = qc.p_inf_fock(state)
        assert abs(value - 1.0) < 1e-6

    def test_vacuum_limit(self):
        state = qc.thermal_fock(0.0, 10)
        assert_allclose(qc.p_inf_fock(state)[0], 1.0, atol=1e-15)
        assert state.declared_tail_bound == 0.0


class TestCvGrid:
    def test_hand_values(self):
        grid = qc.build_cv_grid(1, 1.0, 1.0)
        assert grid.dp == 1.0
        assert_allclose(grid.dx, 2 * np.pi / 3, atol=1e-15)
        assert_allclose(grid.positions(), [-2 * np.pi / 3, 0.0, 2 * np.pi / 3], atol=1e-15)

    @pytest.mark.parametrize("d,p_max,hbar", [(1, 1.0, 1.0), (64, 8.0, 1.0), (256, 16.0, 0.7), (37, 3.3, 2.9)])
    def test_defining_relation_machine_exact(self, d, p_max, hbar):
        grid = qc.build_cv_grid(d, p_max, hbar)
        lhs = grid.dx * grid.dp * (2 * d + 1)
        assert abs(lhs - 2 * np.pi * hbar) <= 4 * np.spacing(2 * np.pi * hbar)

    def test_fourier_unitarity(self):
        f = qc.build_cv_grid(128, 8.0).position_to_momentum_matrix()
        assert np.max(np.abs(f.conj().T @ f - np.eye(257))) < 1e-12

    def test_overlap_kernel_zeros_on_lattice(self):
        grid = qc.build_cv_grid(16, 4.0)
        assert abs(grid.overlap_kernel(grid.dx)) < 1e-12
        assert abs(grid.overlap_kernel(5 * grid.dx)) < 1e-12
        assert_allclose(grid.overlap_kernel(0.0), 1.0, atol=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(qc.InvalidParameterError):
            qc.build_cv_grid(0, 1.0)
        with pytest.raises(qc.InvalidParameterError):
            qc.build_cv_grid(4, -1.0)
        with pytest.raises(qc.InvalidParameterError):
            qc.build_cv_grid(4, 1.0, 0.0)

    @pytest.mark.parametrize(
        "d, p_max, hbar, match",
        [
            (4, 5e-324, 1.0, "position spacing inf "),  # dp = 0: dx divides by 0
            (4, 1e-300, 1.0, "position spacing 2.793e"),  # dx about 1e300
            (4, 1e-200, 1.0, "position spacing 2.793e"),
            (4, 8.0, 1e300, "position spacing 3.491e"),
            (1, 5e-324, 1.0, "position spacing inf "),  # 0 * dx is NaN
            (1, 1e300, 1e-300, "position spacing 0.000e"),  # dx = 0
        ],
        ids=["dp-zero", "p_max-1e-300", "p_max-1e-200", "hbar-1e300", "dx-inf", "dx-zero"],
    )
    def test_unrepresentable_lattice_rejected(self, d, p_max, hbar, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(qc.InvalidParameterError, match=match):
                qc.build_cv_grid(d, p_max, hbar)


class TestCvStates:
    def test_gaussian_is_pure(self):
        grid = qc.build_cv_grid(256, 16.0)
        state = qc.gaussian_cv(grid, np.sqrt(0.5))
        assert abs(qc.p_inf_cv(state) - 1.0) < 1e-3

    def test_purity_error_shrinks_with_resolution(self):
        errors = []
        for d in (64, 128, 256):
            grid = qc.build_cv_grid(d, np.sqrt(d))
            errors.append(abs(qc.p_inf_cv(qc.gaussian_cv(grid, np.sqrt(0.5))) - 1.0))
        assert errors[2] <= errors[0] + 1e-12
        assert errors[2] < 1e-3

    def test_displaced_packet(self):
        grid = qc.build_cv_grid(128, 12.0)
        state = qc.gaussian_cv(grid, 0.9, x0=1.5, p0=-2.0)
        assert abs(qc.p_inf_cv(state) - 1.0) < 1e-3

    def test_thermal_oracle(self):
        grid = qc.build_cv_grid(256, 16.0)
        state = qc.thermal_cv(grid, 1.0)
        assert abs(qc.p_inf_cv(state) - INV_SQRT3) < 1e-3

    def test_representation_independence(self):
        grid = qc.build_cv_grid(64, 8.0)
        state = qc.thermal_cv(grid, 1.0)
        flipped = qc.convert_representation(state)
        assert flipped.representation == "momentum"
        assert abs(qc.p_inf_cv(state) - qc.p_inf_cv(flipped)) < 1e-10
        back = qc.convert_representation(flipped)
        assert np.max(np.abs(back.matrix - state.matrix)) < 1e-12

    def test_unresolvable_state_rejected(self):
        grid = qc.build_cv_grid(8, 1.0)
        with pytest.raises(qc.NotNormalizedError):
            qc.gaussian_cv(grid, 0.05)

    def test_non_hermitian_rejected(self):
        grid = qc.build_cv_grid(2, 1.0)
        mat = np.zeros((5, 5), dtype=complex)
        mat[0, 0] = 1.0
        mat[0, 1] = 0.5j
        with pytest.raises(qc.NotHermitianError):
            qc.CvState(grid, "position", mat)

    @pytest.mark.parametrize(
        "p_max, build, match",
        [
            # sigma_x^2 underflows to 0, so its normalisation divides by 0
            (8.0, lambda g: qc.gaussian_cv(g, 1e-170), "square underflows to 0 or overflows"),
            (8.0, lambda g: qc.gaussian_cv(g, 5e-324), "square underflows to 0 or overflows"),
            # sigma_x^2 overflows
            (8.0, lambda g: qc.gaussian_cv(g, 1e155), "square underflows to 0 or overflows"),
            (8.0, lambda g: qc.gaussian_cv(g, 1e300), "square underflows to 0 or overflows"),
            # subnormal sigma_x^2: (x - x0)^2 / (4 sigma_x^2) overflows
            (8.0, lambda g: qc.gaussian_cv(g, 1e-155), r"^\(x - x0\)\^2 / \(4 sigma_x\^2\)"),
            (8.0, lambda g: qc.gaussian_cv(g, 1e-160), r"^\(x - x0\)\^2 / \(4 sigma_x\^2\)"),
            (8.0, lambda g: qc.gaussian_cv(g, 0.7, x0=1e300), r"^\(x - x0\)\^2"),
            (8.0, lambda g: qc.gaussian_cv(g, 0.7, x0=1e150, p0=1e300), r"^p0 \(x - x0\) / hbar"),
            (1e-150, lambda g: qc.thermal_cv(g, 1e10), r"^\(2 nbar \+ 1\) \(x - x'\)\^2"),
        ],
        ids=["sigma-1e-170", "sigma-5e-324", "sigma-1e155", "sigma-1e300", "sigma-1e-155",
             "sigma-1e-160", "x0-1e300", "p0-1e300", "thermal-nbar-1e10"],
    )
    def test_overflowing_parameters_rejected(self, p_max, build, match):
        grid = qc.build_cv_grid(4, p_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(qc.InvalidParameterError, match=match):
                build(grid)


def _stored(state):
    """The matrix a discretised-state container holds."""
    if isinstance(state, qc.CvState):
        return state.matrix
    if isinstance(state, qc.AngularCoherence):
        return state.samples
    return state.coefficients


# a record and a band cutoff or lattice for every family; complex alpha and a
# displaced packet are the cases whose raw input is not exactly Hermitian
STORAGE_FAMILIES = [
    pytest.param("geometric-oam", {"q": 0.5}, 16, id="geometric-oam"),
    pytest.param("thermal-fock", {"nbar": 1.0}, 40, id="thermal-fock"),
    pytest.param("coherent-fock", {"alpha_re": 1.0, "alpha_im": 0.0}, 40, id="coherent-fock"),
    pytest.param("coherent-fock", {"alpha_re": 1.0, "alpha_im": 0.5}, 40,
                 id="coherent-fock-complex"),
    pytest.param("gaussian-cv", {"sigma_x": np.sqrt(0.5), "x0": 0.0, "p0": 0.0}, (64, 8.0),
                 id="gaussian-cv"),
    pytest.param("gaussian-cv", {"sigma_x": 0.8, "x0": 0.7, "p0": -1.1}, (128, 16.0),
                 id="gaussian-cv-displaced"),
    pytest.param("thermal-cv", {"nbar": 1.0}, (64, 8.0), id="thermal-cv"),
]


def _family_state(family, record, support):
    if isinstance(support, tuple):  # a lattice's (d, p_max)
        support = qc.build_cv_grid(*support)
    return infdim.FAMILIES[family].build(record, support)


class TestHermitianStorage:
    """Every container stores the exactly Hermitian, read-only part of its
    input, as ``DensityMatrix`` does."""

    def test_every_family_is_covered(self):
        assert {case.values[0] for case in STORAGE_FAMILIES} == set(infdim.FAMILIES)

    @pytest.mark.parametrize(("family", "record", "support"), STORAGE_FAMILIES)
    def test_family_constructors(self, family, record, support):
        stored = _stored(_family_state(family, record, support))
        assert np.array_equal(stored, stored.conj().T)
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0, 0] = 0.0

    @pytest.mark.parametrize(("family", "record", "support"), STORAGE_FAMILIES)
    def test_reloaded_state_files(self, family, record, support):
        state = _family_state(family, record, support)
        reloaded = _stored(jsonio.infdim_state_from_dict(json.loads(jsonio.dumps_state(state))))
        assert np.array_equal(reloaded, reloaded.conj().T)
        assert not reloaded.flags.writeable

    @pytest.mark.parametrize(
        "build",
        [lambda g: qc.thermal_cv(g, 1.0), lambda g: qc.gaussian_cv(g, 0.8, x0=0.7, p0=-1.1)],
        ids=["thermal", "displaced-gaussian"],
    )
    def test_converted_representations(self, build):
        state = build(qc.build_cv_grid(64, 8.0))
        for converted in (qc.convert_representation(state),
                          qc.convert_representation(qc.convert_representation(state))):
            assert np.array_equal(converted.matrix, converted.matrix.conj().T)
            assert not converted.matrix.flags.writeable

    def test_mode_superposition_and_its_angle_samples(self):
        state = qc.oam_mode_superposition({-2: 1.0, 0: 0.5 - 0.3j, 1: 0.7j, 3: -0.4}, 3)
        samples = qc.oam_to_angle(state, 32).samples
        for stored in (state.coefficients, samples):
            assert np.array_equal(stored, stored.conj().T)
            assert not stored.flags.writeable

    def test_anti_hermitian_input_stores_its_hermitian_part(self):
        """An anti-Hermitian part of modulus 4e-13, inside the 1e-12 gate,
        is dropped: the stored matrix is (M + M^H) / 2 bit for bit."""
        grid = qc.build_cv_grid(17, 5.0)
        rng = np.random.default_rng(17)
        upper = np.triu(np.exp(2j * np.pi * rng.random((grid.size, grid.size))), 1)
        matrix = _random_lattice_matrix(17, 117) + 4e-13 * (upper - upper.conj().T)
        assert not np.array_equal(matrix, matrix.conj().T)
        stored = qc.CvState(grid, "position", matrix).matrix
        assert stored.tobytes() == ((matrix + matrix.conj().T) / 2.0).tobytes()
        assert not stored.flags.writeable


TAIL_FLOOR = 2.0**-511


def _lattice_positions(grid):
    return [m * grid.dx for m in range(-grid.d, grid.d + 1)]


def _thermal_oracle(grid, nbar):
    """Mehler's kernel times dx, one entry at a time in scalar arithmetic,
    with no tail dropped."""
    s, hbar, xs = 2.0 * nbar + 1.0, grid.hbar, _lattice_positions(grid)
    scale = grid.dx / math.sqrt(math.pi * hbar * s)
    return np.array(
        [[scale * math.exp(-((x + y) ** 2 / s + s * (x - y) ** 2) / (4.0 * hbar)) for y in xs]
         for x in xs],
        dtype=complex,
    )


def _gaussian_oracle(grid, sigma_x, x0, p0):
    """psi(x) psi(x')^* dx of the Gaussian packet, one entry at a time: the
    modulus from one exponential of the summed exponents, the phase
    p0 (x - x') / hbar; no tail dropped."""
    xs = _lattice_positions(grid)
    scale = grid.dx / math.sqrt(2.0 * math.pi * sigma_x**2)
    return np.array(
        [[scale * math.exp(-((x - x0) ** 2 + (y - x0) ** 2) / (4.0 * sigma_x**2))
          * cmath.exp(1j * p0 * (x - y) / grid.hbar) for y in xs]
         for x in xs]
    )


# (d, p_max, hbar) and the family's parameters; hbar != 1, and p0 != 0 for
# complex entries
TAIL_CASES = [
    pytest.param(qc.thermal_cv, _thermal_oracle, (32, 5.66, 1.0), (1.0,), id="thermal-d32"),
    pytest.param(qc.thermal_cv, _thermal_oracle, (40, 6.0, 0.7), (0.3,), id="thermal-hbar0.7"),
    pytest.param(qc.thermal_cv, _thermal_oracle, (24, 4.0, 1.9), (2.5,), id="thermal-hbar1.9"),
    pytest.param(qc.thermal_cv, _thermal_oracle, (28, 5.0, 0.45), (1.0,), id="thermal-hbar0.45"),
    pytest.param(qc.gaussian_cv, _gaussian_oracle, (32, 5.0, 1.0), (0.7, 0.0, 0.0),
                 id="gaussian-real"),
    pytest.param(qc.gaussian_cv, _gaussian_oracle, (48, 6.0, 1.2), (0.8, 0.5, 1.3),
                 id="gaussian-displaced"),
    pytest.param(qc.gaussian_cv, _gaussian_oracle, (36, 6.0, 1.5), (1.0, -2.0, -2.5),
                 id="gaussian-displaced-negative"),
]


@pytest.mark.parametrize(("build", "oracle", "grid_args", "params"), TAIL_CASES)
def test_lattice_constructors_store_no_tail_below_the_floor(build, oracle, grid_args, params):
    """``thermal_cv`` and ``gaussian_cv`` store every float below 2^-511 in
    magnitude as 0 and leave the rest, against a scalar oracle that shares
    no code with them, and the routes do not move."""
    grid = qc.build_cv_grid(*grid_args)
    state = build(grid, *params)
    unflushed = oracle(grid, *params)
    stored, expected = state.matrix.view(float), np.abs(unflushed.view(float))
    # the case has a tail to drop
    assert np.any((expected > 0.0) & (expected < TAIL_FLOOR))
    assert np.all((stored == 0.0) | (np.abs(stored) >= TAIL_FLOOR))
    # zero only where the oracle's sample lies below the floor, within 1e-12
    assert np.all(expected[stored == 0.0] < TAIL_FLOOR * (1.0 + 1e-12))
    assert np.all(expected[stored != 0.0] >= TAIL_FLOOR * (1.0 - 1e-12))
    reference = qc.CvState(grid, "position", unflushed)
    for ours, theirs in ((state, reference),
                         (qc.convert_representation(state), qc.convert_representation(reference))):
        assert abs(qc.p_inf_cv(ours) - qc.p_inf_cv(theirs)) <= 1e-15 * qc.p_inf_cv(theirs)


class TestCommutator:
    def test_structural_zeros_and_bulk_convergence(self):
        grid = qc.build_cv_grid(256, 16.0)
        probe = qc.gaussian_cv(grid, np.sqrt(0.5))
        expectation, deviation = qc.commutator_check(grid, probe)
        assert deviation <= 0.01

    def test_momentum_probe_equivalent(self):
        grid = qc.build_cv_grid(64, 8.0)
        probe = qc.gaussian_cv(grid, np.sqrt(0.5))
        _, dev_pos = qc.commutator_check(grid, probe)
        _, dev_mom = qc.commutator_check(grid, qc.convert_representation(probe))
        assert abs(dev_pos - dev_mom) < 1e-10

    def test_marginally_resolved_ladder_monotone(self):
        # a wide packet renormalised on the lattice: wide enough to feel the
        # edges at d = 64, contained at d = 256
        deviations = []
        for d in (64, 128, 256):
            grid = qc.build_cv_grid(d, np.sqrt(d))
            x = grid.positions()
            psi = np.exp(-(x**2) / (4 * 8.0**2)).astype(complex)
            psi /= np.linalg.norm(psi)
            probe = qc.CvState(grid, "position", np.outer(psi, psi.conj()))
            _, deviation = qc.commutator_check(grid, probe)
            deviations.append(deviation)
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] <= 0.01

    def test_lattice_edge_projector(self):
        # diagonal commutator elements vanish, so a lattice-point projector
        # sees expectation 0 and misses i*hbar by exactly hbar
        grid = qc.build_cv_grid(16, 4.0)
        mat = np.zeros((33, 33), dtype=complex)
        mat[-1, -1] = 1.0
        expectation, deviation = qc.commutator_check(grid, qc.CvState(grid, "position", mat))
        assert abs(expectation) < 1e-12
        assert_allclose(deviation, grid.hbar, atol=1e-12)

    def test_half_point_edge_state_grows_linearly(self):
        # the pathological case: deviation scales with the lattice size
        for d in (16, 64):
            grid = qc.build_cv_grid(d, np.sqrt(d))
            probe = qc.continuum_position_state(grid, (d + 0.5) * grid.dx)
            _, deviation = qc.commutator_check(grid, probe)
            assert 2.0 * d <= deviation / grid.hbar <= 4.0 * d

    def test_grid_mismatch(self):
        grid_a = qc.build_cv_grid(16, 4.0)
        grid_b = qc.build_cv_grid(16, 5.0)
        probe = qc.gaussian_cv(grid_a, 1.0)
        with pytest.raises(qc.GridMismatchError):
            qc.commutator_check(grid_b, probe)


class TestWigner:
    def test_pure_gaussian_transform(self):
        grid = qc.build_cv_grid(256, 40.0)
        state = qc.gaussian_cv(grid, np.sqrt(0.5))
        w = qc.wigner_from_cv(state, 241, 241, x_span=10.0, p_span=10.0)
        assert w.values.min() >= -1e-6
        norm = w.dx * w.dp * np.sum(w.values)
        assert abs(norm - 1.0) < 1e-3
        assert abs(qc.p_inf_wigner(w, grid.hbar) - qc.p_inf_cv(state)) < 1e-2

    def test_thermal_round_trip(self):
        grid = qc.build_cv_grid(256, 40.0)
        state = qc.thermal_cv(grid, 1.0)
        w = qc.wigner_from_cv(state, 241, 241, x_span=12.0, p_span=12.0)
        assert abs(qc.p_inf_wigner(w, grid.hbar) - INV_SQRT3) < 1e-3

    def test_direct_vacuum_samples(self):
        # minimum-uncertainty Gaussian: W = exp(-x^2/(2 s^2) - 2 s^2 p^2)/pi
        sigma_sq = 0.5
        x = np.linspace(-8, 8, 161)
        p = np.linspace(-8, 8, 161)
        xx, pp = np.meshgrid(x, p, indexing="ij")
        values = np.exp(-(xx**2) / (2 * sigma_sq) - 2 * sigma_sq * pp**2) / np.pi
        w = qc.WignerSamples(x, p, values)
        assert abs(qc.p_inf_wigner(w, 1.0) - 1.0) < 1e-3

    def test_direct_thermal_samples(self):
        s = 3.0  # 2*nbar + 1 at nbar = 1
        x = np.linspace(-10, 10, 201)
        p = np.linspace(-10, 10, 201)
        xx, pp = np.meshgrid(x, p, indexing="ij")
        values = np.exp(-(xx**2 + pp**2) / s) / (np.pi * s)
        w = qc.WignerSamples(x, p, values)
        assert abs(qc.p_inf_wigner(w, 1.0) - INV_SQRT3) < 1e-3

    def test_scaled_samples_rejected(self):
        x = np.linspace(-8, 8, 81)
        p = np.linspace(-8, 8, 81)
        xx, pp = np.meshgrid(x, p, indexing="ij")
        values = 2 * np.exp(-(xx**2) - pp**2) / np.pi
        with pytest.raises(qc.NotNormalizedError):
            qc.p_inf_wigner(qc.WignerSamples(x, p, values), 1.0)

    def test_requires_position_representation(self):
        grid = qc.build_cv_grid(32, 6.0)
        state = qc.convert_representation(qc.gaussian_cv(grid, 1.0))
        with pytest.raises(qc.GridMismatchError):
            qc.wigner_from_cv(state, 41, 41)

    def test_span_validation(self):
        grid = qc.build_cv_grid(32, 6.0)
        state = qc.gaussian_cv(grid, 1.0)
        with pytest.raises(qc.InvalidParameterError):
            qc.wigner_from_cv(state, 41, 41, p_span=100.0)


def test_cross_formalism_thermal_consistency():
    # the same physical state through photon-number, lattice and phase-space
    # routes, each within its own tolerance of the common value
    fock_value, _ = qc.p_inf_fock(qc.thermal_fock(1.0, 80))
    grid = qc.build_cv_grid(256, 40.0)
    state = qc.thermal_cv(grid, 1.0)
    cv_value = qc.p_inf_cv(state)
    wig_value = qc.p_inf_wigner(
        qc.wigner_from_cv(state, 241, 241, x_span=12.0, p_span=12.0), grid.hbar
    )
    assert abs(fock_value - INV_SQRT3) < 1e-6
    assert abs(cv_value - INV_SQRT3) < 1e-3
    assert abs(wig_value - INV_SQRT3) < 1e-3


# ---------------------------------------------------------------------------
# reference oracles for the lattice and angle transforms: the per-row Wigner
# quadrature, the dense centred-DFT products and the dense angle phase
# matrix, kept as the plain forms of what the library computes


def _wigner_rows_oracle(state, x_steps, p_steps, x_span=None, p_span=None):
    grid = state.grid
    hbar = grid.hbar
    n = grid.size
    x_max = grid.d * grid.dx
    x_span = x_max if x_span is None else x_span
    p_span = grid.p_max if p_span is None else p_span
    kernel = state.matrix / grid.dx
    xs = np.linspace(-x_span, x_span, x_steps)
    ps = np.linspace(-p_span, p_span, p_steps)
    dy = grid.dx / 2.0
    values = np.zeros((x_steps, p_steps))
    for a, xv in enumerate(xs):
        y_reach = x_max - abs(xv)
        if y_reach < 0.0:
            continue
        k_max = int(np.floor(y_reach / dy + 1e-12))
        y = np.arange(-k_max, k_max + 1) * dy
        frac_fwd = (xv + y + x_max) / grid.dx
        frac_bwd = (xv - y + x_max) / grid.dx
        i_fwd = np.clip(np.floor(frac_fwd).astype(int), 0, n - 2)
        i_bwd = np.clip(np.floor(frac_bwd).astype(int), 0, n - 2)
        w_fwd = np.clip(frac_fwd - i_fwd, 0.0, 1.0)
        w_bwd = np.clip(frac_bwd - i_bwd, 0.0, 1.0)
        g = (
            kernel[i_fwd, i_bwd] * (1.0 - w_fwd) * (1.0 - w_bwd)
            + kernel[i_fwd + 1, i_bwd] * w_fwd * (1.0 - w_bwd)
            + kernel[i_fwd, i_bwd + 1] * (1.0 - w_fwd) * w_bwd
            + kernel[i_fwd + 1, i_bwd + 1] * w_fwd * w_bwd
        )
        oscillations = np.exp(-2j * np.outer(ps, y) / hbar)
        values[a, :] = (oscillations @ g).real * dy / (np.pi * hbar)
    return xs, ps, values


def _dense_conversion_oracle(state):
    f = state.grid.position_to_momentum_matrix()
    if state.representation == "position":
        return f @ state.matrix @ f.conj().T
    return f.conj().T @ state.matrix @ f


def _dense_angle_oracle(state, grid_size):
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    phases = np.exp(1j * np.outer(theta, np.arange(-state.cutoff, state.cutoff + 1)))
    return phases @ state.coefficients @ phases.conj().T / (2.0 * np.pi)


def _random_lattice_matrix(d, seed, rank=3):
    # a PSD unit-trace lattice matrix of low rank, valid on any grid
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2 * d + 1, rank)) + 1j * rng.normal(size=(2 * d + 1, rank))
    mat = g @ g.conj().T
    return (mat + mat.conj().T) / (2.0 * np.trace(mat).real)


ORACLE_DS = (1, 2, 17, 64, 256)
ORACLE_HBARS = (0.5, 1.0, 3.7)


class TestLatticeOracles:
    @pytest.mark.parametrize("d", ORACLE_DS)
    @pytest.mark.parametrize("hbar", ORACLE_HBARS)
    @pytest.mark.parametrize("windowed", (False, True))
    @pytest.mark.parametrize("steps", ((33, 32), (32, 33)))
    def test_wigner_matches_row_oracle(self, d, hbar, windowed, steps):
        grid = qc.build_cv_grid(d, 0.9 * np.sqrt(d) + 0.3, hbar)
        state = qc.CvState(grid, "position", _random_lattice_matrix(d, 100 + d))
        spans = {}
        if windowed:
            spans = {"x_span": 0.37 * grid.d * grid.dx, "p_span": 0.61 * grid.p_max}
        w = qc.wigner_from_cv(state, *steps, **spans)
        xs, ps, values = _wigner_rows_oracle(state, *steps, **spans)
        assert np.array_equal(w.x, xs) and np.array_equal(w.p, ps)
        assert np.max(np.abs(w.values - values)) <= 1e-12

    @pytest.mark.parametrize("d", ORACLE_DS)
    @pytest.mark.parametrize("hbar", ORACLE_HBARS)
    def test_wigner_matches_row_oracle_off_hermitian(self, d, hbar):
        """A matrix just inside the Hermiticity gate: an anti-Hermitian part
        of modulus 4e-13 in every off-diagonal entry.  The state stores the
        Hermitian part; the row oracle sums every lag of that stored matrix,
        the library only the non-negative lags, which have the same real
        sum."""
        grid = qc.build_cv_grid(d, 0.9 * np.sqrt(d) + 0.3, hbar)
        rng = np.random.default_rng(700 + d)
        upper = np.triu(np.exp(2j * np.pi * rng.random((grid.size, grid.size))), 1)
        matrix = _random_lattice_matrix(d, 100 + d) + 4e-13 * (upper - upper.conj().T)
        state = qc.CvState(grid, "position", matrix)
        w = qc.wigner_from_cv(state, 33, 32)
        _, _, values = _wigner_rows_oracle(state, 33, 32)
        assert np.max(np.abs(w.values - values)) <= 1e-12

    def test_wigner_matches_row_oracle_on_physical_states(self):
        grid = qc.build_cv_grid(256, 40.0)
        for state, span in ((qc.thermal_cv(grid, 1.0), 12.0),
                            (qc.gaussian_cv(grid, 0.8, x0=0.7, p0=-1.1), 10.0)):
            w = qc.wigner_from_cv(state, 61, 60, x_span=span, p_span=span)
            _, _, values = _wigner_rows_oracle(state, 61, 60, x_span=span, p_span=span)
            assert np.max(np.abs(w.values - values)) <= 1e-12

    @pytest.mark.parametrize("d", ORACLE_DS)
    @pytest.mark.parametrize("hbar", ORACLE_HBARS)
    @pytest.mark.parametrize("representation", ("position", "momentum"))
    def test_conversion_matches_dense_oracle(self, d, hbar, representation):
        grid = qc.build_cv_grid(d, 1.3 * np.sqrt(d), hbar)
        state = qc.CvState(grid, representation, _random_lattice_matrix(d, 200 + d))
        converted = qc.convert_representation(state)
        assert converted.representation != representation
        assert np.max(np.abs(converted.matrix - _dense_conversion_oracle(state))) <= 1e-12


class TestAngleOracle:
    """``oam_to_angle`` conjugates the centred coefficients with the lattice
    DFT; the dense phase-matrix products are its oracle, at the smallest
    grid that resolves the band, the next (odd) size and 512."""

    @pytest.mark.parametrize("cutoff", (0, 1, 7, 60))
    @pytest.mark.parametrize("size", ("minimum", "odd", 512))
    def test_matches_dense_oracle(self, cutoff, size):
        band = 2 * cutoff + 1
        grid_size = {"minimum": 2 * band, "odd": 2 * band + 1}.get(size, size)
        state = qc.OamState(cutoff, _random_lattice_matrix(cutoff, 300 + cutoff), 0.0)
        samples = qc.oam_to_angle(state, grid_size).samples
        assert np.max(np.abs(samples - _dense_angle_oracle(state, grid_size))) <= 1e-12

    @pytest.mark.parametrize("grid_size", (18, 19, 512))
    def test_mode_superposition_matches_dense_oracle(self, grid_size):
        state = qc.oam_mode_superposition({-4: 1.0, -1: 0.5j, 2: -0.7 + 0.2j}, 4)
        samples = qc.oam_to_angle(state, grid_size).samples
        assert np.max(np.abs(samples - _dense_angle_oracle(state, grid_size))) <= 1e-12


SQUARE_SUM_ROUTES = ("oam", "fock", "angle", "position", "momentum", "wigner", "p_n", "purity")


@pytest.fixture(scope="module")
def square_sums():
    """Each route's value, the array whose squares it sums, and the map from
    that square sum to the value, on the README's states and an N=64
    Ginibre state."""
    oam = qc.geometric_oam(0.9, 60)
    fock = qc.coherent_fock(1.0 + 0.5j, 40)
    angle = qc.oam_to_angle(qc.geometric_oam(0.5, 60), 512)
    thermal = qc.thermal_cv(qc.build_cv_grid(256, 16.0), 1.0)
    momentum = qc.convert_representation(thermal)
    wigner = qc.wigner_from_cv(thermal, 241, 241)
    rho = qc.random_state(64, "ginibre_mixed", 3)
    centred, trace = measures._centred(rho)

    def root(weight):
        return lambda total: math.sqrt(weight * total)

    cell = 2.0 * np.pi * wigner.dx * wigner.dp
    return {
        "oam": (qc.p_inf_oam(oam)[0], oam.coefficients, root(1.0)),
        "fock": (qc.p_inf_fock(fock)[0], fock.coefficients, root(1.0)),
        "angle": (qc.p_inf_angle(angle), angle.samples, root((2.0 * np.pi / 512) ** 2)),
        "position": (qc.p_inf_cv(thermal), thermal.matrix, root(1.0)),
        "momentum": (qc.p_inf_cv(momentum), momentum.matrix, root(1.0)),
        "wigner": (qc.p_inf_wigner(wigner, 1.0), wigner.values, root(cell)),
        "p_n": (qc.p_n(rho), centred, root(64 / (63 * trace * trace))),
        "purity": (qc.purity(rho), rho.entries, lambda total: total),
    }


@pytest.mark.parametrize("route", SQUARE_SUM_ROUTES)
def test_square_sum_matches_elementwise_form(square_sums, route):
    """Every P route sums its squares through ``state._square_sum`` and must
    sit within 1e-15 relative of ``math.fsum`` of its squared float64
    components, which sums the rounded squares exactly.  A BLAS dot product
    accumulates in a few running sums and sits 5e-15 from it on the 2.6e5
    entries of the 512^2 angle grid."""
    value, x, finish = square_sums[route]
    components = np.ascontiguousarray(x).view(float).ravel()
    reference = finish(math.fsum((components * components).tolist()))
    assert abs(value - reference) <= 1e-15 * reference


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 40),
    p_max=st.floats(0.1, 50.0),
    hbar=st.floats(0.05, 20.0),
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_conversion_properties_on_random_lattice_states(d, p_max, hbar, rank, seed):
    grid = qc.build_cv_grid(d, p_max, hbar)
    state = qc.CvState(grid, "position", _random_lattice_matrix(d, seed, rank))
    momentum = qc.convert_representation(state)
    back = qc.convert_representation(momentum)
    assert back.representation == "position"
    assert np.max(np.abs(back.matrix - state.matrix)) <= 1e-12
    assert abs(qc.p_inf_cv(momentum) - qc.p_inf_cv(state)) <= 1e-10
    assert np.max(np.abs(momentum.matrix - _dense_conversion_oracle(state))) <= 1e-12
    assert np.max(np.abs(back.matrix - _dense_conversion_oracle(momentum))) <= 1e-12


NON_FINITE = (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0))
CONTAINERS = {
    "oam": lambda m: qc.OamState(1, m, 0.0),
    "fock": lambda m: qc.FockState(2, m, 0.0),
    "lattice": lambda m: qc.CvState(qc.build_cv_grid(1, 1.0), "position", m),
    "angle": lambda m: qc.AngularCoherence(3, m),
}


class TestNonFiniteInput:
    """Every discretised-state container rejects NaN and infinite entries,
    on the diagonal and in a Hermitian off-diagonal pair, before any
    eigensolver sees them."""

    @pytest.mark.parametrize("container", sorted(CONTAINERS))
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("where", ("diagonal", "off-diagonal"))
    def test_rejected(self, container, bad, where):
        mat = np.diag([0.5, 0.3, 0.2]).astype(complex)
        if where == "diagonal":
            mat[1, 1] = bad
        else:
            mat[0, 2] = bad
            mat[2, 0] = np.conj(bad)
        with pytest.raises(qc.InvalidParameterError):
            CONTAINERS[container](mat)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_wigner_samples_rejected(self, bad):
        x = np.linspace(-8, 8, 41)
        p = np.linspace(-8, 8, 41)
        xx, pp = np.meshgrid(x, p, indexing="ij")
        values = np.exp(-(xx**2) - pp**2) / np.pi
        values[20, 20] = bad
        with pytest.raises(qc.InvalidParameterError):
            qc.WignerSamples(x, p, values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_family_parameters_rejected_before_arithmetic(self, bad):
        grid = qc.build_cv_grid(16, 4.0, 0.5)
        calls = (
            lambda: qc.gaussian_cv(grid, 0.6, x0=bad),
            lambda: qc.gaussian_cv(grid, 0.6, p0=bad),
            lambda: qc.coherent_fock(complex(bad, 0.0), 12),
            lambda: qc.coherent_fock(complex(1.0, bad), 12),
        )
        for call in calls:
            with pytest.raises(qc.InvalidParameterError, match="finite"):
                call()

    def test_family_constructors_with_non_finite_parameters(self):
        grid = qc.build_cv_grid(64, 8.0)
        with pytest.raises(qc.InvalidParameterError):
            qc.gaussian_cv(grid, np.sqrt(0.5), x0=np.nan)
        with pytest.raises(qc.InvalidParameterError):
            qc.gaussian_cv(grid, np.sqrt(0.5), p0=np.inf)
        with pytest.raises(qc.InvalidParameterError):
            qc.coherent_fock(complex(1.0, np.inf), 64)

    @pytest.mark.parametrize("alpha", (1e200, complex(1e300, 1e300), complex(1.7e308, -1.7e308)))
    def test_coherent_fock_rejects_alpha_whose_mean_overflows(self, alpha):
        with pytest.raises(qc.InvalidParameterError, match="alpha"):
            qc.coherent_fock(alpha, 12)


class TestParametersOfTheWrongKind:
    """The values that a state file may hold in place of a number, passed
    straight to the types, which reject them as the loader does."""

    @pytest.mark.parametrize(
        "grid",
        [
            {"d": [1]}, {"d": "16"}, {"d": True}, {"d": 16.0},
            {"p_max": "4.0"}, {"p_max": None}, {"p_max": 10**400},
            {"hbar": True}, {"hbar": "1"},
        ],
        ids=lambda grid: ",".join(f"{k}={v!r:.8}" for k, v in grid.items()),
    )
    def test_grid(self, grid):
        with pytest.raises(qc.InvalidParameterError):
            qc.CvGrid(**{"d": 16, "p_max": 4.0, "hbar": 0.5, **grid})

    @pytest.mark.parametrize("cls", [qc.OamState, qc.FockState], ids=["oam", "fock"])
    @pytest.mark.parametrize(
        "fields",
        [
            {"tail_bound": 10**400}, {"tail_bound": True}, {"tail_bound": "0.1"},
            {"cutoff": True}, {"cutoff": "6"},
        ],
        ids=lambda fields: ",".join(f"{k}={v!r:.8}" for k, v in fields.items()),
    )
    def test_truncated_state(self, cls, fields):
        fields = {"cutoff": 0, "tail_bound": 0.0, **fields}
        with pytest.raises(qc.InvalidParameterError):
            cls(fields["cutoff"], [[1.0]], fields["tail_bound"])


# The infdim parameters read by the complex, integer and real rules: alpha
# and the mode amplitudes as finite complex numbers, the mode keys as
# integers and the Wigner spans as reals, each given a value of the wrong kind.
ESCAPE_PROBES = {
    "coherent_fock.alpha-str": lambda cv: qc.coherent_fock("1+1j", 8),
    "coherent_fock.alpha-bool": lambda cv: qc.coherent_fock(True, 8),
    "coherent_fock.alpha-bytes": lambda cv: qc.coherent_fock(b"1", 8),
    "coherent_fock.alpha-numpy-bool": lambda cv: qc.coherent_fock(np.True_, 8),
    "oam_mode_superposition.mode-float": lambda cv: qc.oam_mode_superposition({1.5: 1.0}, 3),
    "oam_mode_superposition.mode-bool": lambda cv: qc.oam_mode_superposition({True: 1.0}, 3),
    "oam_mode_superposition.mode-str": lambda cv: qc.oam_mode_superposition({"1": 1.0}, 3),
    "oam_mode_superposition.amplitude-str": lambda cv: qc.oam_mode_superposition({1: "1"}, 3),
    "oam_mode_superposition.amplitude-inf": lambda cv: qc.oam_mode_superposition({1: np.inf}, 3),
    "wigner_from_cv.x_span-str": lambda cv: infdim.wigner_from_cv(cv, 8, 8, x_span="1"),
    "wigner_from_cv.p_span-str": lambda cv: infdim.wigner_from_cv(cv, 8, 8, p_span="1"),
    "wigner_from_cv.x_span-nan": lambda cv: infdim.wigner_from_cv(cv, 8, 8, x_span=np.nan),
}


@pytest.mark.parametrize("probe", list(ESCAPE_PROBES))
def test_complex_mode_and_span_parameters_of_the_wrong_kind_are_invalid(probe):
    cv = qc.gaussian_cv(qc.build_cv_grid(16, 4.0, 0.5), 0.6)
    with pytest.raises(qc.InvalidParameterError):
        ESCAPE_PROBES[probe](cv)


def test_complex_mode_and_span_parameters_of_the_right_kind_are_read():
    cv = qc.gaussian_cv(qc.build_cv_grid(16, 4.0, 0.5), 0.6)
    assert np.array_equal(qc.coherent_fock(np.complex64(1 + 1j), 8).coefficients,
                          qc.coherent_fock(1 + 1j, 8).coefficients)
    assert np.array_equal(qc.coherent_fock(2, 8).coefficients,
                          qc.coherent_fock(2.0, 8).coefficients)
    state = qc.oam_mode_superposition({np.int64(-1): np.float32(1.0), 2: 1j}, 3)
    assert np.array_equal(state.coefficients,
                          qc.oam_mode_superposition({-1: 1.0, 2: 1j}, 3).coefficients)
    samples = infdim.wigner_from_cv(cv, 8, 8, x_span=np.float64(1.0), p_span=2)
    assert (samples.x[-1], samples.p[-1]) == (1.0, 2.0)


@pytest.mark.parametrize(
    ("amplitudes", "unit"),
    [({1: 1e200, 2: 1e200}, {1: 1, 2: 1}), ({1: 1e-200}, {1: 1})],
    ids=["large", "small"],
)
def test_mode_superposition_scales_before_its_norm(amplitudes, unit):
    # the norm squared the amplitudes: the large ones overflowed with a
    # RuntimeWarning, and the small one underflowed to an empty state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = qc.oam_mode_superposition(amplitudes, 3)
    assert np.array_equal(state.coefficients, qc.oam_mode_superposition(unit, 3).coefficients)


def test_mode_superposition_of_zero_amplitudes_is_empty():
    with pytest.raises(qc.EmptyStateError, match="^all amplitudes are zero$"):
        qc.oam_mode_superposition({1: 0.0, -2: 0j}, 3)


# containers with a positivity gate, by band size; OAM and lattice bands are odd
PSD_CONTAINERS = {
    "oam": (qc.OamState.label, lambda m: qc.OamState(len(m) // 2, m, 0.0)),
    "fock": (qc.FockState.label, lambda m: qc.FockState(len(m) - 1, m, 0.0)),
    "lattice": (
        "lattice state",
        lambda m: qc.CvState(qc.build_cv_grid(len(m) // 2, 1.0), "position", m),
    ),
}
PSD_CASES = [
    (name, size)
    for name in sorted(PSD_CONTAINERS)
    for size in (1, 2, 3, 4, 5, 9, 16, 17, 33, 64, 65)
    if (name == "fock" or size % 2) and not (name == "lattice" and size == 1)
]
# smallest eigenvalues around the gate at -1e-10, including the band
# (-1e-10, -5e-11) that the shifted factorisation leaves to eigvalsh
MIN_EIGENVALUES = (
    -3e-10, -1.5e-10, -1.01e-10, -1e-10, -9.9e-11, -8e-11, -6e-11,
    -5e-11, -4e-11, -3e-11, -1e-11, -1e-13, 0.0, 1e-12,
)


def _state_with_spectrum(spectrum, seed, imaginary=None):
    """A state U diag(spectrum) U^H with Haar-like unitary U; with
    ``imaginary`` given, U is real orthogonal and i B is added, B real
    antisymmetric with Frobenius norm ``imaginary`` (0 for a real state;
    a 1 x 1 state stays real)."""
    rng = np.random.default_rng(seed)
    size = len(spectrum)
    g = rng.normal(size=(size, size))
    if imaginary is None:
        g = g + 1j * rng.normal(size=(size, size))
    u, _ = np.linalg.qr(g)
    mat = (u * spectrum) @ u.conj().T
    if imaginary and size > 1:
        s = rng.normal(size=(size, size))
        b = s - s.T
        mat = mat + 1j * imaginary / np.linalg.norm(b) * b
    return mat


def _spectra(size, seed):
    """Unit-trace spectra whose smallest eigenvalue sweeps MIN_EIGENVALUES;
    every other spectrum repeats it and adds exact zeros."""
    if size == 1:
        yield np.array([1.0])
        return
    rng = np.random.default_rng(seed)
    for k, low in enumerate(MIN_EIGENVALUES):
        spectrum = np.zeros(size)
        repeats = 1 + (k % 2) * min(size - 2, 2)
        spectrum[:repeats] = low
        rest = size - repeats
        weights = rng.dirichlet(np.ones(rest))
        if k % 2 and rest > 2:
            weights[: rest // 3] = 0.0
            weights /= weights.sum()
        spectrum[repeats:] = weights * (1.0 - repeats * low)
        yield spectrum


def _sweep_positivity_gate(eigvalsh_calls, cholesky_dtypes, container, size, imaginary=None):
    """Build states whose smallest eigenvalue sweeps MIN_EIGENVALUES: the
    decision and message are eigvalsh's, eigvalsh is consulted below -6e-11
    and not above -3e-11, and the real part is factored exactly when the
    imaginary part's Frobenius norm is below 2.5e-11."""
    label, build = PSD_CONTAINERS[container]
    for k, spectrum in enumerate(_spectra(size, 300 + size)):
        mat = _state_with_spectrum(spectrum, 1000 * size + k, imaginary)
        oracle = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
        eigvalsh_calls.clear()
        cholesky_dtypes.clear()
        if oracle < -1e-10:
            with pytest.raises(qc.NotPSDError) as info:
                build(mat)
            assert str(info.value) == f"{label}: minimum eigenvalue {oracle:.3e}"
        else:
            build(mat)
        low = spectrum[0]
        if low <= -6e-11:
            assert eigvalsh_calls, f"eigvalsh not consulted at {low:.2e}"
        elif low >= -3e-11:
            assert not eigvalsh_calls, f"eigvalsh consulted at {low:.2e}"
        beta = np.linalg.norm(((mat + mat.conj().T) / 2.0).imag)
        assert cholesky_dtypes == [np.float64 if beta < 2.5e-11 else np.complex128]


class TestPositivityGate:
    """The Cholesky certificate accepts only what eigvalsh accepts, and
    every rejection carries eigvalsh's minimum eigenvalue in its message."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        """Sizes of the matrices the gate hands to eigvalsh, in call order."""
        calls = []
        real = infdim._eigvalsh

        def counted(mat):
            calls.append(len(mat))
            return real(mat)

        monkeypatch.setattr(infdim, "_eigvalsh", counted)
        return calls

    @pytest.fixture
    def cholesky_dtypes(self, monkeypatch):
        """Dtypes of the matrices the gate factors, in call order."""
        dtypes = []
        real = np.linalg.cholesky

        def recorded(mat):
            dtypes.append(mat.dtype)
            return real(mat)

        monkeypatch.setattr(np.linalg, "cholesky", recorded)
        return dtypes

    @pytest.mark.parametrize(("container", "size"), PSD_CASES)
    def test_decision_matches_eigvalsh(self, eigvalsh_calls, cholesky_dtypes, container, size):
        _sweep_positivity_gate(eigvalsh_calls, cholesky_dtypes, container, size)

    # real orthogonal states plus an imaginary part of this Frobenius norm,
    # on either side of the real-part certificate's 2.5e-11 threshold
    @pytest.mark.parametrize("imaginary", (0.0, 1e-13, 3e-11))
    @pytest.mark.parametrize(("container", "size"), PSD_CASES)
    def test_decision_matches_eigvalsh_on_real_states(
        self, eigvalsh_calls, cholesky_dtypes, container, size, imaginary
    ):
        _sweep_positivity_gate(eigvalsh_calls, cholesky_dtypes, container, size, imaginary)

    def test_benchmark_families_take_the_fast_path(self, monkeypatch, cholesky_dtypes):
        def refuse(mat):
            raise AssertionError("eigvalsh called on a positive state")

        monkeypatch.setattr(infdim, "_eigvalsh", refuse)
        for d in (32, 64):
            grid = qc.build_cv_grid(d, 2.0 * np.sqrt(d))
            for state in (qc.thermal_cv(grid, 1.0), qc.gaussian_cv(grid, np.sqrt(0.5))):
                qc.convert_representation(state)
        # position and momentum forms alike: real, or imaginary at rounding level
        assert cholesky_dtypes == [np.float64] * 8
        qc.thermal_fock(1.0, 80)
        qc.coherent_fock(complex(np.cos(0.3), np.sin(0.3)), 80)
        qc.geometric_oam(0.5, 60)

    def test_negative_state_reaches_eigvalsh(self, eigvalsh_calls):
        mat = _state_with_spectrum(np.array([-1e-9, 0.25, 0.75 + 1e-9]), 5)
        with pytest.raises(qc.NotPSDError, match="minimum eigenvalue -1.000e-09"):
            qc.FockState(2, mat, 0.0)
        assert eigvalsh_calls == [3]


def _unit_trace_ratio(d):
    """sigma / dx at which a Gaussian of width sigma, sampled at the 2d+1
    lattice points m * dx, sums to 1.  On a coarse lattice the sum crosses 1
    once: above it too few samples straddle the peak, below it the tails
    are cut off, so only this one ratio passes the 1e-10 trace check."""
    m = np.arange(-d, d + 1)
    lo, hi = 0.1, 3.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.sum(np.exp(-(m**2) / (2.0 * mid * mid))) / np.sqrt(2.0 * np.pi) / mid > 1.0:
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=40)
@given(
    d=st.integers(1, 4),
    hbar=st.floats(0.1, 10.0),
    family=st.sampled_from(("gaussian", "thermal")),
    width=st.floats(0.0, 3.0),
    p0=st.floats(-3.0, 3.0),
)
def test_coarse_lattice_routes_agree(d, hbar, family, width, p0):
    """On lattices of 3 to 9 points, where a ladder's coarse rungs sit, the
    position and momentum routes agree to 1e-12 wherever the state
    validates, and a lattice 1% off the one that holds it is rejected."""
    if family == "gaussian":
        sigma = 0.1 + width
        build = lambda grid: qc.gaussian_cv(grid, sigma, p0=p0)
    else:
        # the thermal diagonal is a Gaussian of variance hbar (2 nbar + 1) / 2
        sigma = np.sqrt(hbar * (2.0 * width + 1.0) / 2.0)
        build = lambda grid: qc.thermal_cv(grid, width)
    dx = sigma / _unit_trace_ratio(d)
    p_max = d * 2.0 * np.pi * hbar / ((2 * d + 1) * dx)
    state = build(qc.build_cv_grid(d, p_max, hbar))
    position = qc.p_inf_cv(state)
    momentum = qc.p_inf_cv(qc.convert_representation(state))
    assert abs(position - momentum) <= 1e-12
    with pytest.raises(qc.NotNormalizedError):
        build(qc.build_cv_grid(d, 1.01 * p_max, hbar))
