import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qcoherence as qc
from qcoherence.basis_opt import _MuScore, _VisibilityScore


class TestHaarUnitary:
    def test_unitarity(self):
        for dim in (2, 3, 6):
            assert qc.unitarity_defect(qc.haar_unitary(dim, 0)) < 1e-10

    def test_deterministic(self):
        assert np.array_equal(qc.haar_unitary(2, 123), qc.haar_unitary(2, 123))

    def test_negative_seed(self):
        with pytest.raises(qc.InvalidParameterError, match="seed"):
            qc.haar_unitary(2, -1)

    @pytest.mark.parametrize("seed", [True, 2.0])
    def test_bool_or_float_seed(self, seed):
        with pytest.raises(qc.InvalidParameterError, match="seed"):
            qc.haar_unitary(2, seed)

    def test_first_entry_moment(self):
        # Haar moment E|U_11|^2 = 1/N; Monte-Carlo check at N = 2
        total = 0.0
        for k in range(10_000):
            total += abs(qc.haar_unitary(2, k)[0, 0]) ** 2
        assert abs(total / 10_000 - 0.5) < 0.02


class TestEqualizingBasis:
    def test_two_level_hand_conjugation(self):
        rho = qc.validate_density(np.diag([0.75, 0.25]))
        u = qc.equalizing_basis(rho)
        rotated = u.conj().T @ rho.entries @ u
        assert_allclose(rotated, [[0.5, 0.25], [0.25, 0.5]], atol=1e-14)
        conj = qc.validate_density(rotated)
        assert_allclose(qc.mu_n(conj), 0.5, atol=1e-12)
        assert_allclose(qc.p_n(rho), 0.5, atol=1e-14)

    def test_maximally_mixed(self):
        rho = qc.validate_density(np.eye(4) / 4)
        u = qc.equalizing_basis(rho)
        assert qc.unitarity_defect(u) < 1e-10
        rotated = qc.validate_density(u.conj().T @ rho.entries @ u)
        assert qc.p_n(rho) == 0.0
        assert qc.mu_n(rotated) < 1e-12

    def test_three_level_diagonal(self):
        rho = qc.validate_density(np.diag([0.5, 0.3, 0.2]))
        u = qc.equalizing_basis(rho)
        rotated = u.conj().T @ rho.entries @ u
        assert np.max(np.abs(np.diag(rotated).real - 1 / 3)) < 1e-12
        conj = qc.validate_density(rotated)
        assert abs(qc.mu_n(conj) - np.sqrt(0.07)) < 1e-9

    def test_random_states_equalize(self):
        for i in range(20):
            dim = 2 + i % 4
            rho = qc.random_state(dim, "ginibre_mixed", 3000 + i)
            u = qc.equalizing_basis(rho)
            assert qc.unitarity_defect(u) < 1e-10
            diag = np.diag(u.conj().T @ rho.entries @ u).real
            assert np.max(np.abs(diag - 1 / dim)) < 1e-10


class TestMaximizeMu:
    def test_maximally_mixed_stays_zero(self):
        rho = qc.validate_density(np.eye(4) / 4)
        result = qc.maximize_mu(rho, 500, 0)
        assert result.best_value < 1e-12
        assert result.converged

    def test_two_level_haar_only(self):
        rho = qc.random_state(2, "ginibre_mixed", 2)
        result = qc.maximize_mu(rho, 10_000, 7, include_analytic_seed=False)
        assert abs(result.best_value - qc.p_n(rho)) < 1e-4

    def test_four_level_budget_sweep(self):
        rho = qc.random_state(4, "ginibre_mixed", 13)
        result = qc.maximize_mu(rho, 100_000, 5)
        assert abs(result.best_value - qc.p_n(rho)) < 1e-3
        assert result.best_value <= qc.p_n(rho) + 1e-6
        assert result.evaluations == 100_000

    def test_ceiling_assertion_mode(self):
        rho = qc.random_state(3, "ginibre_mixed", 8)
        result = qc.maximize_mu(rho, 3000, 1, include_analytic_seed=False)
        assert result.best_value <= qc.p_n(rho) + 1e-9

    def test_budget_validation(self):
        rho = qc.random_state(2, "ginibre_mixed", 0)
        with pytest.raises(qc.InvalidParameterError):
            qc.maximize_mu(rho, 0, 0)


class TestMaximizeVisibility:
    def test_analytic_seed_attains_maximum_immediately(self):
        rho = qc.random_state(4, "ginibre_mixed", 19)
        result = qc.maximize_visibility(rho, 1, 0)
        assert result.evaluations == 1
        assert abs(result.best_value - qc.visibility(rho)) < 1e-10
        assert result.converged

    def test_maximally_mixed(self):
        rho = qc.validate_density(np.eye(3) / 3)
        result = qc.maximize_visibility(rho, 200, 4)
        assert result.best_value < 1e-12

    def test_three_level_haar_only_reaches_ceiling(self):
        rho = qc.validate_density(np.diag([0.5, 0.3, 0.2]))
        result = qc.maximize_visibility(rho, 100_000, 11, include_analytic_seed=False)
        assert result.best_value >= 0.2645
        assert result.best_value <= qc.visibility(rho) + 1e-6

    def test_ceiling_assertion_mode(self):
        rho = qc.random_state(3, "ginibre_mixed", 23)
        result = qc.maximize_visibility(rho, 3000, 2, include_analytic_seed=False)
        assert result.best_value <= qc.visibility(rho) + 1e-10


class TestSearchMechanics:
    def test_trace_monotone_nondecreasing(self):
        rho = qc.random_state(3, "ginibre_mixed", 31)
        result = qc.maximize_mu(rho, 3000, 9, include_analytic_seed=False, trace_stride=50)
        values = [value for _, value in result.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert result.trace[-1][0] == result.evaluations

    def test_deterministic_for_fixed_seed(self):
        rho = qc.random_state(3, "ginibre_mixed", 44)
        a = qc.maximize_mu(rho, 2000, 3)
        b = qc.maximize_mu(rho, 2000, 3)
        assert a.best_value == b.best_value
        assert a.iterations == b.iterations
        assert np.array_equal(a.best_unitary, b.best_unitary)

    def test_best_unitary_is_unitary(self):
        rho = qc.random_state(4, "ginibre_mixed", 55)
        result = qc.maximize_visibility(rho, 2000, 6)
        assert qc.unitarity_defect(result.best_unitary) < 1e-10

    @pytest.mark.parametrize("search", [qc.maximize_mu, qc.maximize_visibility])
    def test_unitarity_enforced(self, search, broken_unitarity):
        rho = qc.random_state(3, "ginibre_mixed", 8)
        with pytest.raises(qc.InternalInvariantViolation, match="unitarity"):
            search(rho, 3000, 1, include_analytic_seed=False)

    @pytest.mark.parametrize("search", [qc.maximize_mu, qc.maximize_visibility])
    def test_negative_seed(self, search):
        rho = qc.random_state(3, "ginibre_mixed", 8)
        with pytest.raises(qc.InvalidParameterError, match="seed"):
            search(rho, 100, -3)

    @pytest.mark.parametrize("search", [qc.maximize_mu, qc.maximize_visibility])
    def test_bool_seed(self, search):
        rho = qc.random_state(3, "ginibre_mixed", 8)
        with pytest.raises(qc.InvalidParameterError, match="seed"):
            search(rho, 100, True)

    @pytest.mark.parametrize("search", [qc.maximize_mu, qc.maximize_visibility])
    @pytest.mark.parametrize(
        "name,budget,trace_stride",
        [
            ("budget", 10.5, 0),
            ("budget", True, 0),
            ("budget", np.float64(100.0), 0),
            ("trace_stride", 10, 2.5),
            ("trace_stride", 10, True),
        ],
    )
    def test_budget_and_stride_must_be_integers(self, search, name, budget, trace_stride):
        rho = qc.random_state(3, "ginibre_mixed", 8)
        with pytest.raises(qc.InvalidParameterError, match=f"^{name} must be an integer"):
            search(rho, budget, 0, trace_stride=trace_stride)

    def test_numpy_integer_budget_and_stride_accepted(self):
        rho = qc.random_state(3, "ginibre_mixed", 8)
        result = qc.maximize_mu(rho, np.int64(10), np.int64(0), trace_stride=np.int32(5))
        assert result.evaluations == 10
        assert [index for index, _ in result.trace] == [5, 10]

    @pytest.mark.parametrize("seeded", [True, False])
    @pytest.mark.parametrize("target", ["mu", "visibility"])
    def test_one_decomposition_per_search(self, decompositions, target, seeded):
        rho = qc.random_state(4, "ginibre_mixed", 3)
        search = qc.maximize_mu if target == "mu" else qc.maximize_visibility
        result = search(rho, 300, 0, include_analytic_seed=seeded)
        assert len(decompositions) == 1
        ceiling = qc.p_n(rho) if target == "mu" else qc.visibility(rho)
        assert result.analytic_value == ceiling


EDGE_KINDS = ("haar_pure", "rank_k", "near_mixed_1e-8", "near_mixed_1e-12", "two_level")


def _edge_state(kind: str, dim: int, seed: int) -> qc.DensityMatrix:
    if kind in ("haar_pure", "rank_k"):
        rank = 1 + seed % (dim - 1) if kind == "rank_k" else None
        return qc.random_state(dim, kind, seed, rank)
    if kind == "two_level":
        weight = np.random.default_rng(seed).random()
        return qc.validate_density(np.diag([weight, 1.0 - weight] + [0.0] * (dim - 2)))
    eps = float(kind.rsplit("_", 1)[1])
    other = qc.random_state(dim, "ginibre_mixed", seed).entries
    return qc.validate_density((1.0 - eps) * np.eye(dim) / dim + eps * other)


@settings(max_examples=150)
@given(
    dim=st.integers(2, 8),
    kind=st.sampled_from(EDGE_KINDS),
    state_seed=st.integers(0, 2**16),
    search_seed=st.integers(0, 2**16),
    target=st.sampled_from(("mu", "visibility")),
    seeded=st.booleans(),
)
def test_search_holds_its_ceiling_at_the_edges(dim, kind, state_seed, search_seed, target, seeded):
    # pure, rank-deficient, near-I/N and two-level diagonal states: the
    # search's own 1e-10 ceiling check never fires, and no value passes it
    rho = _edge_state(kind, dim, state_seed)
    search = qc.maximize_mu if target == "mu" else qc.maximize_visibility
    budget = 600
    result = search(rho, budget, search_seed, include_analytic_seed=seeded)
    ceiling = qc.p_n(rho) if target == "mu" else qc.visibility(rho)
    assert result.best_value <= ceiling + 1e-10
    assert result.evaluations == budget


def test_diagonal_majorized_by_spectrum():
    # partial sums of the sorted conjugated diagonal never exceed those of
    # the sorted eigenvalues
    for i in range(200):
        dim = 2 + i % 7
        rho = qc.random_state(dim, "ginibre_mixed", 10_000 + i)
        u = qc.haar_unitary(dim, 20_000 + i)
        diag = np.sort(np.diag(u.conj().T @ rho.entries @ u).real)[::-1]
        lam = qc.spectral_decompose(rho).eigenvalues
        assert abs(diag.sum() - lam.sum()) < 1e-10
        assert np.all(np.cumsum(diag) <= np.cumsum(lam) + 1e-10)


def test_schur_convexity_under_mixing():
    # averaging with permutations moves a vector down the majorization
    # order, so the spread function cannot increase
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = 2 + int(rng.integers(0, 6))
        y = rng.dirichlet(np.ones(n))
        mix = np.zeros((n, n))
        for _ in range(4):
            perm = rng.permutation(n)
            mix += np.eye(n)[perm] / 4.0
        x = mix @ y
        assert qc.visibility_f(x) <= qc.visibility_f(y) + 1e-12


def test_unseeded_search_quality():
    # without the analytic seeds every search must still close the gap to
    # its analytic ceiling: all within 1e-3, nearly all within 1e-6
    budget, stride = 3000, 100
    gaps = []
    for dim in (2, 3, 4, 6):
        for k in range(4):
            rho = qc.random_state(dim, "ginibre_mixed", 7000 + 10 * dim + k)
            for search, ceiling in (
                (qc.maximize_mu, qc.p_n(rho)),
                (qc.maximize_visibility, qc.visibility(rho)),
            ):
                result = search(
                    rho, budget, 100 + k, include_analytic_seed=False, trace_stride=stride
                )
                assert result.evaluations == budget
                indices = [index for index, _ in result.trace]
                assert indices == list(range(stride, budget + 1, stride))
                assert result.best_value <= ceiling + 1e-6
                gaps.append(ceiling - result.best_value)
    assert len(gaps) == 32
    assert max(gaps) <= 1e-3
    assert sum(gap <= 1e-6 for gap in gaps) >= 0.9 * len(gaps)


# Reference objectives: the literal sums of the N x N conjugation by the
# moved unitary, against which every 2x2 block score is checked.


def _reference_mu(mat: np.ndarray, u: np.ndarray) -> float:
    rows, cols = np.triu_indices(mat.shape[0], k=1)
    conjugated = u.conj().T @ mat @ u
    numerator = float(np.sum(np.abs(conjugated[rows, cols]) ** 2))
    diag = conjugated.diagonal().real
    denominator = float(np.sum(diag[rows] * diag[cols]))
    if denominator <= 1e-300:
        return 0.0
    return math.sqrt(numerator / denominator)


def _reference_visibility(mat: np.ndarray, u: np.ndarray) -> float:
    n = mat.shape[0]
    rows, cols = np.triu_indices(n, k=1)
    diag = np.einsum("ji,jk,ki->i", u.conj(), mat, u).real
    total = float(np.sum(diag))
    spread = float(np.sum((diag[rows] - diag[cols]) ** 2))
    return math.sqrt(spread / ((n - 1.0) * total * total))


SCORERS = ((_MuScore, _reference_mu), (_VisibilityScore, _reference_visibility))


def _moved(u, i, j, angle, phase, phase_i, phase_j):
    # Givens rotation on columns (i, j) followed by diagonal phases
    n = u.shape[0]
    givens = np.eye(n, dtype=complex)
    c, s = math.cos(angle), math.sin(angle)
    givens[i, i] = c
    givens[j, j] = c
    givens[i, j] = -np.exp(1j * phase) * s
    givens[j, i] = np.exp(-1j * phase) * s
    diag_phases = np.ones(n, dtype=complex)
    diag_phases[i] = np.exp(1j * phase_i)
    diag_phases[j] = np.exp(1j * phase_j)
    return (u @ givens) * diag_phases


def _block_error(score_cls, reference, mat, u, i, j, angle, phase, phase_i=0.4, phase_j=-1.3):
    score = score_cls()
    conj = u.conj().T @ mat @ u
    assert abs(score.rescore(conj) - reference(mat, u)) <= 1e-12
    w = complex(conj[i, j]) * complex(math.cos(phase), -math.sin(phase))
    value = score.block(
        float(conj[i, i].real), float(conj[j, j].real), w, math.cos(angle), math.sin(angle)
    )
    return abs(value - reference(mat, _moved(u, i, j, angle, phase, phase_i, phase_j)))


class TestBlockScoreOracle:
    ANGLES = (0.0, math.pi / 2, -math.pi / 2, 0.3, -1.1, 2.5)

    def _sweep(self, mat, u, rng):
        n = mat.shape[0]
        worst = 0.0
        for angle in self.ANGLES:
            i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
            phase = 2 * math.pi * rng.random()
            for score_cls, reference in SCORERS:
                worst = max(worst, _block_error(score_cls, reference, mat, u, i, j, angle, phase))
        return worst

    @pytest.mark.parametrize("dim", (2, 3, 4, 6, 16))
    @pytest.mark.parametrize("kind", ("ginibre_mixed", "haar_pure"))
    def test_random_states(self, dim, kind):
        rng = np.random.default_rng(dim)
        for k in range(5):
            rho = qc.random_state(dim, kind, 500 * dim + k)
            u = qc.haar_unitary(dim, 600 * dim + k)
            assert self._sweep(rho.entries, u, rng) <= 1e-12

    @pytest.mark.parametrize("dim", (2, 3, 4, 6, 16))
    def test_near_maximally_mixed(self, dim):
        eps = 1e-6
        rng = np.random.default_rng(40 + dim)
        for k in range(5):
            other = qc.random_state(dim, "ginibre_mixed", 700 * dim + k).entries
            mat = (1.0 - eps) * np.eye(dim) / dim + eps * other
            u = qc.haar_unitary(dim, 800 * dim + k)
            assert self._sweep(mat, u, rng) <= 1e-12

    @pytest.mark.parametrize("dim", (2, 3, 4, 6, 16))
    def test_pure_state_in_its_eigenbasis(self, dim):
        # all diagonal pair products vanish, so mu is 0 until a move
        # touches the occupied index
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 0] = 1.0
        u = np.eye(dim, dtype=complex)
        mu = _MuScore()
        assert mu.rescore(mat) == 0.0
        # any pair that misses the occupied index keeps both sums at 0
        assert mu.block(0.0, 0.0, 0j, math.cos(0.7), math.sin(0.7)) == 0.0
        pairs = [(0, dim - 1), (dim - 1, 0)] + ([(1, dim - 1)] if dim > 2 else [])
        for angle in self.ANGLES:
            for i, j in pairs:
                for score_cls, reference in SCORERS:
                    assert _block_error(score_cls, reference, mat, u, i, j, angle, 0.9) <= 1e-12
        assert _block_error(_MuScore, _reference_mu, mat, u, 0, 1, 0.0, 0.9) == 0.0


@settings(max_examples=300)
@given(
    dim=st.integers(2, 8),
    kind=st.sampled_from(("ginibre_mixed", "haar_pure")),
    state_seed=st.integers(0, 2**32 - 1),
    unitary_seed=st.integers(0, 2**32 - 1),
    pair=st.tuples(st.integers(0, 7), st.integers(1, 7)),
    angle=st.floats(-math.pi, math.pi),
    phases=st.tuples(*(st.floats(0.0, 2 * math.pi) for _ in range(3))),
)
def test_block_score_matches_reference(dim, kind, state_seed, unitary_seed, pair, angle, phases):
    i = pair[0] % dim
    j = (i + pair[1] % (dim - 1) + 1) % dim
    rho = qc.random_state(dim, kind, state_seed)
    u = qc.haar_unitary(dim, unitary_seed)
    phase, phase_i, phase_j = phases
    for score_cls, reference in SCORERS:
        assert _block_error(
            score_cls, reference, rho.entries, u, i, j, angle, phase, phase_i, phase_j
        ) <= 1e-12
