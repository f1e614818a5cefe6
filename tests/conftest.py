"""Hypothesis runs derandomized: every tier-1 run draws the same examples,
whatever the run's seed and whatever the local example database holds.

``broken_weight_identity`` breaks the pure-weight identity inside the
package, for the tests that check that a report enforces it;
``broken_unitarity`` makes every accepted move of the basis search leave
the unitary group, for the tests that check that a search enforces
unitarity; ``decompositions`` records every call of ``spectral_decompose``.
``shifted_bloch``, ``mu_above_p``, ``negated_weights``, ``field_out_of_range``
and ``lowered_ceiling`` each perturb one upstream quantity so that exactly
one more invariant gate must fire (``tests/test_gates.py``)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import settings

from qcoherence import basis_opt, measures, state

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture
def broken_weight_identity(monkeypatch):
    """Make the shared weight check add 1e-8 to the first pure weight it
    reads: the weights then miss the identity beyond 1e-10, and still bound
    P_N."""
    shared = measures._weight_bound

    def off_identity(weights, p):
        weights = weights.copy()
        weights[0] += 1e-8
        return shared(weights, p)

    monkeypatch.setattr(measures, "_weight_bound", off_identity)


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


@pytest.fixture
def shifted_bloch(monkeypatch):
    """Move the report's largest Bloch component 1e-8 further from zero:
    the Bloch-norm route then leaves the other four by more than 1e-9 at
    small N, and every other route is untouched."""
    shared = measures.to_bloch

    def shifted(rho):
        vec = shared(rho)
        comps = vec.components.copy()
        worst = np.argmax(np.abs(comps))
        comps[worst] += math.copysign(1e-8, comps[worst])
        return dataclasses.replace(vec, components=comps)

    monkeypatch.setattr(measures, "to_bloch", shifted)


@pytest.fixture
def mu_above_p(monkeypatch):
    """Make the report's basis-dependent value P_N + 1e-8, past mu <= P."""
    shared = measures.p_n
    monkeypatch.setattr(measures, "mu_n", lambda rho: shared(rho) + 1e-8)


@pytest.fixture
def negated_weights(monkeypatch):
    """Negate every pure weight that the report's weight check reads.  The
    identity sees only (sum s)^2 and the pair products, so it still holds;
    the gap sum(s) - P becomes -2P at N=2, where the single weight is P."""
    shared = measures._weight_bound
    monkeypatch.setattr(measures, "_weight_bound", lambda weights, p: shared(-weights, p))


@pytest.fixture(
    params=[
        ("purity", 1.1, "field purity "),
        ("mu_n", -0.5, "field mu_in_given_basis negated "),
    ],
    ids=["purity-above-1", "mu-below-0"],
)
def field_out_of_range(request, monkeypatch):
    """Make one reported field leave [0, 1] while every cross-check before
    the range check still holds; returns the message prefix that names it."""
    name, value, prefix = request.param
    monkeypatch.setattr(measures, name, lambda rho: value)
    return prefix


@pytest.fixture
def lowered_ceiling(monkeypatch):
    """Lower the mu search's analytic ceiling by 1e-8: the analytic seed
    reaches the true ceiling, so the first evaluation scores above it."""
    shared = basis_opt.p_n
    monkeypatch.setattr(basis_opt, "p_n", lambda rho: shared(rho) - 1e-8)
