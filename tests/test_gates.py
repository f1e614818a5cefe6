"""Every invariant gate that an upstream fault can reach, driven past its
limit by one perturbed quantity (the fixtures in ``conftest.py``, a
state built without validation, or an ``infdim`` route or closed form
patched on the module).  The library raises
InternalInvariantViolation with the gate's message prefix; where the gate
is on a CLI path, the command exits 3 with ``internal error: `` and no
traceback.  ``gate_sweep.py`` checks that each gate has such a test."""

import re

import numpy as np
import pytest

import qcoherence as qc
from qcoherence import infdim, jsonio
from qcoherence.cli import main
from qcoherence.errors import enforce

DIAG_532 = np.diag([0.5, 0.3, 0.2])
QUBIT = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])


def raises_gate(prefix):
    return pytest.raises(qc.InternalInvariantViolation, match="^" + re.escape(prefix))


def run_exit_3(tmp_path, capsys, argv, matrix, prefix):
    state_file = tmp_path / "state.json"
    state_file.write_text(jsonio.dumps_state(qc.validate_density(matrix)))
    assert_exit_3(capsys, [argv[0], "--input", str(state_file), *argv[1:]], prefix)


def assert_exit_3(capsys, argv, prefix):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: " + prefix)
    assert "Traceback" not in err


class TestEnforce:
    def test_message_format(self):
        with raises_gate("probe 2.0 is not <= 1.0"):
            enforce("probe", 2.0, 1.0)

    def test_limit_itself_passes(self):
        assert enforce("probe", 1.0, 1.0) is None

    def test_nan_fails(self):
        with raises_gate("probe nan is not <= 1.0"):
            enforce("probe", float("nan"), 1.0)


class TestRouteSpread:
    @pytest.mark.parametrize(
        "matrix", [DIAG_532, QUBIT, np.eye(3) / 3], ids=["diagonal", "qubit", "mixed"]
    )
    def test_report_raises(self, matrix, shifted_bloch):
        with raises_gate("route spread bloch_norm - "):
            qc.coherence_report(qc.validate_density(matrix))

    def test_cli_exit_3(self, tmp_path, capsys, shifted_bloch):
        run_exit_3(tmp_path, capsys, ["report"], DIAG_532, "route spread bloch_norm - ")


class TestMuBound:
    def test_report_raises(self, mu_above_p):
        with raises_gate("mu_n against p_n "):
            qc.coherence_report(qc.validate_density(QUBIT))

    def test_cli_exit_3(self, tmp_path, capsys, mu_above_p):
        run_exit_3(tmp_path, capsys, ["report"], QUBIT, "mu_n against p_n ")


class TestWeightSumBound:
    def test_report_raises(self, negated_weights):
        with raises_gate("p_n over pure weight sum "):
            qc.coherence_report(qc.validate_density(QUBIT))

    def test_cli_exit_3(self, tmp_path, capsys, negated_weights):
        run_exit_3(tmp_path, capsys, ["report"], QUBIT, "p_n over pure weight sum ")


class TestFieldRange:
    def test_report_raises(self, field_out_of_range):
        with raises_gate(field_out_of_range):
            qc.coherence_report(qc.validate_density(DIAG_532))

    def test_cli_exit_3(self, tmp_path, capsys, field_out_of_range):
        run_exit_3(tmp_path, capsys, ["report"], DIAG_532, field_out_of_range)


class TestUnvalidatedStates:
    """A DensityMatrix built without ``validate_density`` reaches the gates
    that no validated state can."""

    def test_clamped_sqrt(self):
        # 1 - 4 det = 1 - 4 * 0.3 = -0.2
        rho = qc.DensityMatrix(2, np.diag([0.5, 0.6]).astype(complex))
        with raises_gate("p2_determinant_form: negated radicand "):
            qc.p2_determinant_form(rho)

    def test_capped(self):
        # t = 1 and the centred diagonal is (1.5, -1.5): sqrt(2 * 4.5) = 3
        rho = qc.DensityMatrix(2, np.diag([2.0, -1.0]).astype(complex))
        with raises_gate("p_n: value "):
            qc.frobenius_distance_measure(rho)

    @pytest.mark.parametrize(
        "matrix, prefix",
        [
            ([[0.5, 0.1], [0.3, 0.5]], "v_12 imaginary residue "),
            ([[0.5, 0.1j], [0.1j, 0.5]], "u_12 imaginary residue "),
            ([[0.5 + 0.1j, 0.0], [0.0, 0.5]], "w_1 imaginary residue "),
        ],
        ids=["v", "u", "w"],
    )
    def test_bloch_residue(self, matrix, prefix):
        rho = qc.DensityMatrix(2, np.array(matrix, dtype=complex))
        with raises_gate(prefix):
            qc.to_bloch(rho)


class TestSearchCeiling:
    def test_search_raises(self, lowered_ceiling):
        with raises_gate("mu_n: evaluated value "):
            qc.maximize_mu(qc.validate_density(DIAG_532), 10, 0)

    def test_cli_exit_3(self, tmp_path, capsys, lowered_ceiling):
        run_exit_3(
            tmp_path, capsys, ["maximize", "--budget", "10"], DIAG_532, "mu_n: evaluated value "
        )


class TestInfdimRouteSpread:
    def test_oam_and_angle_exit_3(self, capsys, monkeypatch):
        shared = infdim.p_inf_angle
        monkeypatch.setattr(infdim, "p_inf_angle", lambda *args: shared(*args) * (1.0 + 1e-9))
        argv = ["infdim", "--family", "geometric-oam", "--grid-d", "16"]
        assert_exit_3(capsys, argv, "infdim route spread angle - oam ")

    @pytest.mark.parametrize("family", ["thermal-cv", "gaussian-cv"])
    def test_position_and_momentum_exit_3(self, capsys, monkeypatch, family):
        # scaling the momentum matrix instead would fail its trace check,
        # exit 2; at its defaults thermal-cv fails the Wigner route's
        # normalisation, exit 2, which is computed after the gate
        shared = infdim.p_inf_cv

        def scaled(state):
            value = shared(state)
            return value * (1.0 + 1e-9) if state.representation == "momentum" else value

        monkeypatch.setattr(infdim, "p_inf_cv", scaled)
        assert_exit_3(capsys, ["infdim", "--family", family],
                      "infdim route spread momentum - position ")


class TestInfdimTailBound:
    """A closed form 1e-6 off, on commands whose declared bound is below
    4e-13."""

    @pytest.mark.parametrize(
        "family, options",
        [
            ("geometric-oam", ["--q", "0.5", "--grid-d", "60"]),
            ("thermal-fock", ["--nbar", "1.0", "--grid-d", "40"]),
            ("coherent-fock", ["--alpha-re", "1.0", "--alpha-im", "0.5", "--grid-d", "40"]),
        ],
    )
    def test_cli_exit_3(self, capsys, monkeypatch, family, options):
        shared = infdim.FAMILIES[family]
        moved = shared._replace(closed_form=lambda record: shared.closed_form(record) + 1e-6)
        monkeypatch.setitem(infdim.FAMILIES, family, moved)
        assert_exit_3(capsys, ["infdim", "--family", family, *options],
                      "infdim closed form error ")
