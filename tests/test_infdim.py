import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qcoherence as qc

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
# reference oracles for the lattice transforms: the per-row Wigner quadrature
# and the dense centred-DFT products, kept as the plain forms of what the
# library computes


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
