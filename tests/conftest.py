"""Hypothesis runs derandomized: every tier-1 run draws the same examples,
whatever the run's seed and whatever the local example database holds.

``broken_weight_identity`` breaks the pure-weight identity inside the
package, for the tests that check that a report enforces it;
``broken_unitarity`` makes every accepted move of the basis search leave
the unitary group, for the tests that check that a search enforces
unitarity; ``decompositions`` records every call of ``spectral_decompose``."""

import pytest
from hypothesis import settings

from qcoherence import basis_opt, measures, state

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture
def broken_weight_identity(monkeypatch):
    """Make the shared pure-part split add 1e-8 to the first weight: the
    weights then miss the identity beyond 1e-10, and still bound P_N."""
    shared = measures._pure_part

    def off_identity(spectrum):
        split = shared(spectrum)
        weights = split.weights.copy()
        weights[0] += 1e-8
        return measures.PurePartDecomposition(weights, split.pure_states, split.mixed_weight)

    monkeypatch.setattr(measures, "_pure_part", off_identity)


@pytest.fixture
def broken_unitarity(monkeypatch):
    """Scale every moved basis by 1 + 1e-8: no score changes (both are
    invariant under a common scale of the basis), and each accepted move
    takes the basis 2e-8 further from unitarity."""
    shared = basis_opt._apply_move

    def off_group(*args):
        return shared(*args) * (1.0 + 1e-8)

    monkeypatch.setattr(basis_opt, "_apply_move", off_group)


@pytest.fixture
def decompositions(monkeypatch):
    """The list of states passed to ``spectral_decompose`` from now on, by
    any module of the package that calls it."""
    shared = state.spectral_decompose
    calls = []

    def counted(rho):
        calls.append(rho)
        return shared(rho)

    for module in (state, measures, basis_opt):
        monkeypatch.setattr(module, "spectral_decompose", counted)
    return calls
