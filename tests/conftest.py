"""Hypothesis runs derandomized: every tier-1 run draws the same examples,
whatever the run's seed and whatever the local example database holds.

``broken_weight_identity`` breaks the pure-weight identity inside the
package, for the tests that check that a report enforces it."""

import pytest
from hypothesis import settings

from qcoherence import measures

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
