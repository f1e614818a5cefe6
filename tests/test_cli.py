import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoherence as qc
from qcoherence import infdim, jsonio
from qcoherence.cli import _ladder_rungs, build_parser, main


def write_state(path, matrix):
    rho = qc.validate_density(matrix)
    path.write_text(jsonio.dumps(jsonio.density_to_dict(rho)))
    return rho


class TestReport:
    def test_maximally_mixed(self, tmp_path):
        state_file = tmp_path / "state.json"
        write_state(state_file, np.eye(3) / 3)
        out_file = tmp_path / "report.json"
        assert main(["report", "--input", str(state_file), "--output", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert report["p_n"] == 0.0
        assert abs(report["purity"] - 1 / 3) < 1e-15

    def test_hand_value(self, tmp_path):
        state_file = tmp_path / "state.json"
        write_state(state_file, np.diag([0.5, 0.3, 0.2]))
        out_file = tmp_path / "report.json"
        assert main(["report", "--input", str(state_file), "--output", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert abs(report["p_n"] - 0.2645751311064591) < 1e-12
        assert report["checks"]["max_route_discrepancy"] < 1e-9

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "matrix": [[')
        assert main(["report", "--input", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_unphysical_state_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            jsonio.dumps(
                {
                    "dim": 2,
                    "matrix": [[[0.6, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.4, 0.0]]],
                }
            )
        )
        assert main(["report", "--input", str(bad)]) == 2
        assert "eigenvalue" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "maximize"])
    @pytest.mark.parametrize(
        "content",
        [
            # an integer literal beyond the float range
            b'{"dim": 2, "matrix": [[[1' + b"0" * 400 + b', 0.0], [0.0, 0.0]], '
            b"[[0.0, 0.0], [0.0, 0.0]]]}",
            b'{"dim": 2, "matrix": "\xff\xfe"}',
            b"[" * 100_000,
        ],
        ids=["huge-integer", "non-utf8", "deep-nesting"],
    )
    def test_unreadable_state_file_exit_2(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main([command, "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_boolean_matrix_parts_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"dim": 2, "matrix": [[[0.5, false], [false, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}'
        )
        assert main(["report", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "upper, lower",
        [("[9.99e307, 0]", "[9.99e307, 0]"), ("[0, 9.99e307]", "[0, -9.99e307]")],
        ids=["real", "imaginary"],
    )
    def test_hermitian_part_past_the_float_range_exit_2(self, tmp_path, capsys, upper, lower):
        # Hermitian with unit trace, but doubling the off-diagonal pair overflows
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"dim": 2, "matrix": [[[0.5, 0], {upper}], [{lower}, [0.5, 0]]]}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["report", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_broken_weight_identity_exit_3(self, tmp_path, capsys, broken_weight_identity):
        state_file = tmp_path / "state.json"
        write_state(state_file, np.diag([0.5, 0.3, 0.2]))
        assert main(["report", "--input", str(state_file)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: weight identity off by ")
        assert "Traceback" not in err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["report", "--input", str(tmp_path / "nope.json")]) == 2

    def test_tsv_format(self, tmp_path, capsys):
        state_file = tmp_path / "state.json"
        write_state(state_file, np.eye(2) / 2)
        assert main(["report", "--input", str(state_file), "--format", "tsv"]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().split("\n")
        assert header.split("\t")[:2] == ["dim", "p_n"]
        assert row.split("\t")[0] == "2"


class TestMaximize:
    def test_mu_maximally_mixed(self, tmp_path):
        state_file = tmp_path / "state.json"
        write_state(state_file, np.eye(4) / 4)
        out_file = tmp_path / "max.json"
        assert (
            main(
                [
                    "maximize", "--input", str(state_file), "--target", "mu",
                    "--budget", "300", "--seed", "1", "--output", str(out_file),
                ]
            )
            == 0
        )
        result = json.loads(out_file.read_text())
        assert result["best_value"] < 1e-12
        assert abs(result["gap"]) < 1e-12
        assert result["evaluations"] == 300

    def test_visibility_analytic_seed(self, tmp_path):
        state_file = tmp_path / "state.json"
        write_state(state_file, np.diag([0.5, 0.3, 0.2]))
        out_file = tmp_path / "max.json"
        assert (
            main(
                [
                    "maximize", "--input", str(state_file), "--target", "visibility",
                    "--budget", "64", "--seed", "0", "--output", str(out_file),
                ]
            )
            == 0
        )
        result = json.loads(out_file.read_text())
        assert abs(result["gap"]) <= 1e-10
        assert result["converged"] is True
        assert len(result["best_unitary"]["columns"]) == 3

    def test_mu_random_three_level(self, tmp_path):
        state_file = tmp_path / "state.json"
        rho = qc.random_state(3, "ginibre_mixed", 6)
        state_file.write_text(jsonio.dumps(jsonio.density_to_dict(rho)))
        out_file = tmp_path / "max.json"
        assert (
            main(
                [
                    "maximize", "--input", str(state_file), "--target", "mu",
                    "--budget", "100000", "--seed", "2", "--output", str(out_file),
                ]
            )
            == 0
        )
        result = json.loads(out_file.read_text())
        assert result["gap"] <= 1e-3
        assert result["best_value"] <= result["analytic_value"] + 1e-6
        assert result["trace"][-1][0] == 100000

    def test_bad_budget_exit_2(self, tmp_path):
        state_file = tmp_path / "state.json"
        write_state(state_file, np.eye(2) / 2)
        assert main(["maximize", "--input", str(state_file), "--budget", "0"]) == 2

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        state_file = tmp_path / "state.json"
        write_state(state_file, np.eye(2) / 2)
        assert main(["maximize", "--input", str(state_file), "--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err

    @staticmethod
    def _near_pure_search(tmp_path, seed: int) -> tuple[int, Path]:
        # a pure state whose second eigenvalue is a rounding error: the mu
        # search walks to bases where one diagonal entry of U^dagger rho U
        # is near 1e-11
        state_file = tmp_path / "state.json"
        assert main(["random", "--dim", "2", "--kind", "haar_pure", "--seed", "204",
                     "--output", str(state_file)]) == 0
        out_file = tmp_path / f"max{seed}.json"
        code = main(["maximize", "--input", str(state_file), "--target", "mu",
                     "--budget", "1500", "--seed", str(seed), "--output", str(out_file)])
        return code, out_file

    @pytest.mark.parametrize("seed", range(5))
    def test_near_pure_state_holds_its_ceiling(self, tmp_path, seed):
        code, out_file = self._near_pure_search(tmp_path, seed)
        assert code == 0
        result = json.loads(out_file.read_text())
        assert result["best_value"] <= result["analytic_value"] + 1e-10
        assert result["evaluations"] == 1500

    def test_broken_unitarity_exit_3(self, tmp_path, capsys, broken_unitarity):
        # on this state every basis scores the ceiling up to rounding, so
        # the best basis is a moved one
        code, _ = self._near_pure_search(tmp_path, 0)
        assert code == 3
        assert "unitarity" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["mu", "visibility"])
    def test_one_decomposition(self, tmp_path, decompositions, target):
        state_file = tmp_path / "state.json"
        rho = write_state(state_file, np.diag([0.5, 0.3, 0.2]))
        out_file = tmp_path / "max.json"
        assert main(["maximize", "--input", str(state_file), "--target", target,
                     "--budget", "200", "--output", str(out_file)]) == 0
        assert len(decompositions) == 1
        ceiling = qc.p_n(rho) if target == "mu" else qc.visibility(rho)
        assert json.loads(out_file.read_text())["analytic_value"] == ceiling


class TestInfdim:
    def test_thermal_fock_oracle(self, tmp_path):
        out_file = tmp_path / "inf.json"
        assert (
            main(
                [
                    "infdim", "--family", "thermal-fock", "--nbar", "1.0",
                    "--grid-d", "80", "--output", str(out_file),
                ]
            )
            == 0
        )
        result = json.loads(out_file.read_text())
        assert abs(result["routes"]["fock"] - 1 / np.sqrt(3)) < 1e-6
        assert [rung["d"] for rung in result["ladder"]] == [20, 40, 80]
        assert len(result["differences"]) == 2

    def test_geometric_oam_dual_route(self, tmp_path):
        out_file = tmp_path / "inf.json"
        assert (
            main(
                [
                    "infdim", "--family", "geometric-oam", "--q", "0.5",
                    "--grid-d", "60", "--grid-m", "512", "--output", str(out_file),
                ]
            )
            == 0
        )
        result = json.loads(out_file.read_text())
        assert abs(result["routes"]["oam"] - result["routes"]["angle"]) <= 1e-4
        assert abs(result["routes"]["oam"] - np.sqrt(1 / 3)) < 1e-6

    @pytest.mark.parametrize(
        "options",
        (
            ["--grid-d", "16"],
            ["--q", "0.9", "--grid-d", "64"],
            ["--q", "0.99", "--grid-d", "64"],
            ["--grid-d", "128"],
        ),
        ids=["d16", "q0.9-d64", "q0.99-d64", "d128"],
    )
    def test_geometric_oam_truncated_states(self, tmp_path, capsys, options):
        """The angle route holds the quadrature to the truncated state's
        trace, not to 1, and the default angle grid resolves any band."""
        out_file = tmp_path / "inf.json"
        argv = ["infdim", "--family", "geometric-oam", *options, "--output", str(out_file)]
        assert main(argv) == 0, capsys.readouterr().err
        routes = json.loads(out_file.read_text())["routes"]
        assert abs(routes["oam"] - routes["angle"]) <= 1e-12

    def test_gaussian_cv_ladder(self, tmp_path):
        out_file = tmp_path / "inf.json"
        assert (
            main(
                [
                    "infdim", "--family", "gaussian-cv", "--grid-d", "256",
                    "--p-max", "16", "--output", str(out_file),
                ]
            )
            == 0
        )
        result = json.loads(out_file.read_text())
        values = [rung["value"] for rung in result["ladder"]]
        errors = [abs(v - 1.0) for v in values]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
        assert abs(result["differences"][-1]) < 1e-3
        assert abs(result["routes"]["position"] - 1.0) < 1e-3
        assert abs(result["routes"]["momentum"] - result["routes"]["position"]) < 1e-10

    def test_save_state_round_trips(self, tmp_path):
        out_file = tmp_path / "inf.json"
        state_file = tmp_path / "state.json"
        assert (
            main(
                [
                    "infdim", "--family", "coherent-fock", "--alpha-re", "1.0",
                    "--alpha-im", "0.5", "--grid-d", "30",
                    "--output", str(out_file), "--save-state", str(state_file),
                ]
            )
            == 0
        )
        saved = jsonio.infdim_state_from_dict(json.loads(state_file.read_text()))
        assert isinstance(saved, qc.FockState)
        value, _ = qc.p_inf_fock(saved)
        assert abs(value - 1.0) < 1e-6

    @pytest.mark.parametrize(
        "family,options,build",
        [
            ("geometric-oam", ["--q", "0.4", "--grid-d", "20"], lambda: qc.geometric_oam(0.4, 20)),
            ("thermal-fock", ["--nbar", "0.8", "--grid-d", "24"], lambda: qc.thermal_fock(0.8, 24)),
            (
                "coherent-fock",
                ["--alpha-re", "1.0", "--alpha-im", "-0.5", "--grid-d", "24"],
                lambda: qc.coherent_fock(1.0 - 0.5j, 24),
            ),
            (
                "gaussian-cv",
                ["--grid-d", "64", "--p-max", "16", "--sigma-x", "0.6", "--x0", "0.5"],
                lambda: qc.gaussian_cv(qc.build_cv_grid(64, 16.0), 0.6, 0.5, 0.0),
            ),
            (
                "thermal-cv",
                ["--nbar", "1.0", "--grid-d", "64", "--p-max", "16"],
                lambda: qc.thermal_cv(qc.build_cv_grid(64, 16.0), 1.0),
            ),
        ],
        ids=["geometric-oam", "thermal-fock", "coherent-fock", "gaussian-cv", "thermal-cv"],
    )
    def test_save_state_writes_the_top_state(self, tmp_path, family, options, build):
        out_file = tmp_path / "inf.json"
        state_file = tmp_path / "state.json"
        argv = ["infdim", "--family", family, *options, "--wigner-steps", "41",
                "--output", str(out_file), "--save-state", str(state_file)]
        assert main(argv) == 0
        top_state = build()
        if isinstance(top_state, qc.CvState):
            doc, p_inf = jsonio.cv_state_to_dict(top_state), qc.p_inf_cv
        else:
            doc, p_inf = jsonio.oam_state_to_dict(top_state), lambda s: qc.p_inf_oam(s)[0]
        text = state_file.read_text()
        assert text == jsonio.dumps(doc)
        saved = jsonio.infdim_state_from_dict(json.loads(text))
        assert type(saved) is type(top_state)
        route = json.loads(out_file.read_text())["routes"][top_state.representation]
        assert p_inf(saved) == route

    @pytest.mark.parametrize(
        "family,constructor,route,size_of",
        [
            ("thermal-cv", "thermal_cv", "position", lambda args: args[0].d),
            ("gaussian-cv", "gaussian_cv", "position", lambda args: args[0].d),
            ("thermal-fock", "thermal_fock", "fock", lambda args: args[1]),
            ("geometric-oam", "geometric_oam", "oam", lambda args: args[1]),
        ],
    )
    def test_ladder_top_rung_reuses_top_state(
        self, tmp_path, monkeypatch, family, constructor, route, size_of
    ):
        original = getattr(qc.infdim, constructor)
        sizes = []

        def counted(*args, **kwargs):
            sizes.append(size_of(args))
            return original(*args, **kwargs)

        monkeypatch.setattr(qc.infdim, constructor, counted)
        out_file = tmp_path / "inf.json"
        assert main(["infdim", "--family", family, "--grid-d", "64",
                     "--p-max", "16", "--wigner-steps", "41", "--output", str(out_file)]) == 0
        result = json.loads(out_file.read_text())
        assert result["ladder"][-1]["d"] == 64
        assert result["ladder"][-1]["value"] == result["routes"][route]
        assert sorted(sizes) == [16, 32, 64]

    @pytest.mark.parametrize("family", ["thermal-fock", "coherent-fock"])
    def test_cutoff_zero_ladder_is_the_top_rung(self, tmp_path, family):
        out_file = tmp_path / "inf.json"
        assert main(["infdim", "--family", family, "--grid-d", "0", "--output", str(out_file)]) == 0
        result = json.loads(out_file.read_text())
        assert result["ladder"] == [{"d": 0, "value": result["routes"]["fock"]}]
        assert result["differences"] == []

    @pytest.mark.parametrize(
        "top,rungs",
        [
            (0, [0]), (1, [1]), (2, [1, 2]), (3, [1, 3]), (60, [15, 30, 60]),
            (64, [16, 32, 64]), (80, [20, 40, 80]), (256, [64, 128, 256]),
        ],
    )
    def test_ladder_rungs(self, top, rungs):
        assert _ladder_rungs(top) == rungs

    def test_no_rung_above_the_top(self):
        for top in range(300):
            assert max(_ladder_rungs(top)) == top

    def test_bad_family_exit_2(self):
        with pytest.raises(SystemExit):
            main(["infdim", "--family", "squeezed"])

    def test_bad_grid_exit_2(self):
        assert main(["infdim", "--family", "thermal-cv", "--grid-d", "0"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "gaussian-cv", "--x0", "nan"],
            ["--family", "gaussian-cv", "--p0", "inf"],
            ["--family", "coherent-fock", "--alpha-im", "inf"],
            # finite, but |alpha|^2 overflows a float
            ["--family", "coherent-fock", "--alpha-re", "1e200"],
        ],
    )
    def test_non_finite_parameters_exit_2(self, argv, capsys):
        assert main(["infdim", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "finite" in err
        assert "Traceback" not in err


def run_quietly(argv) -> tuple[int, str, list]:
    """(exit code, stderr, warnings raised) of one in-process command."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("grid_d", ["4", "8"])
@pytest.mark.parametrize(
    "argv",
    [
        # each exited 1 with a ZeroDivisionError or an OverflowError
        ["--family", "gaussian-cv", "--sigma-x", "1e-170"],
        ["--family", "gaussian-cv", "--sigma-x", "1e-200"],
        ["--family", "gaussian-cv", "--sigma-x", "5e-324"],
        ["--family", "gaussian-cv", "--sigma-x", "1e155"],
        ["--family", "gaussian-cv", "--sigma-x", "1e300"],
        ["--family", "gaussian-cv", "--p-max", "5e-324"],
        ["--family", "thermal-cv", "--p-max", "5e-324"],
        # each printed a numpy overflow RuntimeWarning before exiting 2
        ["--family", "gaussian-cv", "--x0", "1e300"],
        ["--family", "gaussian-cv", "--hbar", "1e300"],
        ["--family", "thermal-cv", "--hbar", "1e300"],
        ["--family", "gaussian-cv", "--p-max", "1e-300"],
        ["--family", "thermal-cv", "--p-max", "1e-300"],
        ["--family", "gaussian-cv", "--p-max", "1e-200"],
        ["--family", "thermal-cv", "--p-max", "1e-200"],
        ["--family", "gaussian-cv", "--sigma-x", "1e-155"],
        ["--family", "gaussian-cv", "--sigma-x", "1e-160"],
        ["--family", "gaussian-cv", "--x0", "1e150", "--p0", "1e300"],
        ["--family", "thermal-cv", "--nbar", "1e10", "--p-max", "1e-150"],
    ],
    ids=" ".join,
)
def test_overflowing_lattice_flags_exit_2(argv, grid_d):
    code, err, caught = run_quietly(["infdim", *argv, "--grid-d", grid_d])
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err and "Warning" not in err
    assert caught == []


FUZZ_FLOATS = ("0", "1", "-1", "1e-300", "-1e-300", "5e-324", "1e155", "-1e155", "1e300",
               "-1e300", "nan", "inf", "-inf")


@st.composite
def infdim_commands(draw):
    """An ``infdim`` command: a family from ``infdim.FAMILIES``, some of the
    float flags of its parameter record plus --p-max and --hbar, each set to
    an edge value, and small integer flags (each grid at most a few MB)."""
    family = draw(st.sampled_from(tuple(infdim.FAMILIES)))
    defaults = build_parser().parse_args(["infdim", "--family", family])
    record = infdim.FAMILIES[family].parameters(defaults)
    flags = ["--" + key.replace("_", "-") for key in record if key != "cutoff"]
    argv = ["infdim", "--family", family, f"--grid-d={draw(st.integers(-2, 8))}"]
    for flag in draw(st.lists(st.sampled_from([*flags, "--p-max", "--hbar"]), unique=True)):
        argv.append(f"{flag}={draw(st.sampled_from(FUZZ_FLOATS))}")
    for flag in ("--grid-m", "--wigner-steps"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.integers(-2, 600))}")
    return argv


@settings(max_examples=300)
@given(argv=infdim_commands())
def test_fuzzed_family_flags_exit_0_or_2_without_traceback_or_warning(argv):
    code, err, caught = run_quietly(argv)
    assert code in (0, 2), err
    assert "Traceback" not in err and "Warning" not in err
    assert caught == []


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "--dim", "100000000", "--kind", "ginibre_mixed", "--seed", "1"],
        ["infdim", "--family", "geometric-oam", "--grid-d", "100000000"],
        ["random", "--dim", "1000000000", "--kind", "ginibre_mixed", "--seed", "1"],
        ["infdim", "--family", "thermal-cv", "--grid-d", "1000000000"],
    ],
    ids=["random", "infdim", "random-past-index-range", "infdim-past-index-range"],
)
def test_unallocatable_size_exit_2(argv, capsys):
    # each command's first allocation is its whole matrix, petabytes, so it
    # fails at once; past about 7.6e8 rows numpy cannot even count its bytes
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_coherent_fock_unallocatable_size_exit_2_before_the_amplitudes(monkeypatch, capsys):
    # the tail bound follows the O(d) amplitude loop, which would hold
    # hundreds of megabytes; the 1.42 PiB matrix must fail before either
    bounds = []
    shared = infdim._poisson_tail_bound

    def recorded(mean, cutoff):
        bounds.append(cutoff)
        return shared(mean, cutoff)

    monkeypatch.setattr(infdim, "_poisson_tail_bound", recorded)
    assert main(["infdim", "--family", "coherent-fock", "--grid-d", "10000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert bounds == []


@pytest.mark.parametrize("family", ["gaussian-cv", "thermal-cv"])
def test_lattice_unallocatable_size_exit_2_before_the_positions(monkeypatch, capsys, family):
    # the positions, and the amplitudes or outer sums built on them, would hold
    # hundreds of megabytes; the 5.68 PiB matrix must fail before them.  A
    # call is recorded and refused, so that a failing run stays small.
    calls = []

    def refused(grid):
        calls.append(grid.d)
        raise MemoryError("positions refused")

    monkeypatch.setattr(infdim.CvGrid, "positions", refused)
    assert main(["infdim", "--family", family, "--grid-d", "10000000"]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "5.68 PiB" in err and "complex128" in err
    assert "Traceback" not in err


def test_angle_unallocatable_size_exit_2_before_the_phases(monkeypatch, capsys):
    # the angles alone would hold 8 GB and the phase matrix 112 GB; the
    # samples, past numpy's index range, must fail before either.  A call is
    # recorded and refused, so that a failing run stays small.
    calls = []
    shared = np.arange

    def refused(*args, **kwargs):
        if any(isinstance(arg, int) and arg >= 10**9 for arg in args):
            calls.append(args)
            raise MemoryError("angles refused")
        return shared(*args, **kwargs)

    monkeypatch.setattr(np, "arange", refused)
    argv = ["infdim", "--family", "geometric-oam", "--grid-d", "3", "--grid-m", "1000000000"]
    assert main(argv) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate a 1000000000 x 1000000000 complex128 array")
    assert "Traceback" not in err


def test_wigner_unallocatable_steps_exit_2_before_the_axes(monkeypatch, capsys):
    # the axes alone would hold 8 GB each and the lag mask 513 GB; the 8.2 TB
    # lag matrix must fail before them.  A call is recorded and refused, so
    # that a failing run stays small.
    calls = []
    shared = np.linspace

    def refused(*args, **kwargs):
        if any(isinstance(arg, int) and arg >= 10**9 for arg in args):
            calls.append(args)
            raise MemoryError("axes refused")
        return shared(*args, **kwargs)

    monkeypatch.setattr(np, "linspace", refused)
    argv = ["infdim", "--family", "thermal-cv", "--grid-d", "256", "--p-max", "16",
            "--wigner-steps", "1000000000"]
    assert main(argv) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 7.47 TiB for an array with shape (1000000000, 513)")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "family, options",
    [
        ("coherent-fock", ["--alpha-re", "3.0", "--grid-d", "12"]),
        ("thermal-fock", ["--nbar", "5.0", "--grid-d", "20"]),
        ("geometric-oam", ["--q", "0.9", "--grid-d", "64"]),
    ],
)
def test_closed_form_error_within_the_declared_bound(tmp_path, family, options):
    # coherent-fock at alpha 3 truncated at 12 sits at 0.124 of a 0.161 bound
    out_file = tmp_path / "inf.json"
    assert main(["infdim", "--family", family, *options, "--output", str(out_file)]) == 0
    result = json.loads(out_file.read_text())
    assert list(result)[4:7] == ["error_bound", "closed_form", "closed_form_error"]
    value = result["routes"]["oam" if family == "geometric-oam" else "fock"]
    assert result["closed_form_error"] == result["closed_form"] - value
    assert 0.0 < result["closed_form_error"] <= result["error_bound"]


class TestRepeatedCalls:
    """``main`` called again in one process starts from the parser's
    defaults; nothing carries over from the previous call."""

    def test_default_cutoff_after_explicit_one(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        family = ["infdim", "--family", "thermal-fock"]
        assert main([*family, "--grid-d", "8", "--output", str(first)]) == 0
        assert main([*family, "--output", str(second)]) == 0
        assert json.loads(first.read_text())["parameters"]["cutoff"] == 8
        assert json.loads(second.read_text())["parameters"]["cutoff"] == 64

    def test_json_after_tsv(self, tmp_path):
        state_file = tmp_path / "state.json"
        write_state(state_file, np.diag([0.7, 0.3]))
        tsv, doc = tmp_path / "report.tsv", tmp_path / "report.json"
        assert main(["report", "--input", str(state_file), "--format", "tsv",
                     "--output", str(tsv)]) == 0
        assert main(["report", "--input", str(state_file), "--output", str(doc)]) == 0
        assert "\t" in tsv.read_text()
        assert json.loads(doc.read_text())["dim"] == 2

    def test_call_after_parse_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["infdim", "--family", "thermal-fock", "--grid-d", "eight"])
        assert exc.value.code == 2
        out_file = tmp_path / "inf.json"
        assert main(["infdim", "--family", "thermal-fock", "--output", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["parameters"]["cutoff"] == 64


class TestRandom:
    def test_haar_pure_reports_unit_coherence(self, tmp_path):
        state_file = tmp_path / "state.json"
        report_file = tmp_path / "report.json"
        assert (
            main(["random", "--dim", "5", "--kind", "haar_pure", "--seed", "7",
                  "--output", str(state_file)])
            == 0
        )
        assert main(["report", "--input", str(state_file), "--output", str(report_file)]) == 0
        report = json.loads(report_file.read_text())
        assert abs(report["p_n"] - 1.0) < 1e-9

    def test_rank_two_three_level_report(self, tmp_path):
        state_file = tmp_path / "state.json"
        report_file = tmp_path / "report.json"
        assert (
            main(["random", "--dim", "3", "--kind", "rank_k", "--rank", "2",
                  "--seed", "1", "--output", str(state_file)])
            == 0
        )
        assert main(["report", "--input", str(state_file), "--output", str(report_file)]) == 0
        report = json.loads(report_file.read_text())
        # bottom eigenvalue 0, so the pure weights sum to 1; the coherence
        # measure sits strictly below that for a genuinely mixed state
        assert abs(report["pure_part_weight_sum"] - 1.0) < 1e-9
        assert report["p_n"] < 1.0 - 1e-3
        assert report["p_n"] <= report["pure_part_weight_sum"] + 1e-9

    def test_invalid_rank_exit_2(self, tmp_path, capsys):
        assert main(["random", "--dim", "3", "--kind", "rank_k", "--rank", "9",
                     "--seed", "0"]) == 2
        assert "rank" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,dim,rank", [("haar_pure", 5, None), ("ginibre_mixed", 7, None), ("rank_k", 6, 2)]
    )
    def test_output_is_the_density_document(self, tmp_path, kind, dim, rank):
        state_file = tmp_path / "state.json"
        argv = ["random", "--dim", str(dim), "--kind", kind, "--seed", "11",
                "--output", str(state_file)]
        assert main(argv + (["--rank", str(rank)] if rank else [])) == 0
        rho = qc.random_state(dim, kind, 11, rank)
        assert state_file.read_text() == jsonio.dumps(jsonio.density_to_dict(rho))

    def test_unallocatable_size_exit_2_before_any_draw(self, monkeypatch, capsys):
        # the 1.42 PiB result exceeds any address space; drawing the haar_pure
        # vector first would hold hundreds of megabytes before failing
        draws = []
        seeded = qc.state._seeded_rng

        class Recorded:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                draws.append(name)
                return getattr(self._rng, name)

        monkeypatch.setattr(qc.state, "_seeded_rng", lambda seed: Recorded(seeded(seed)))
        assert main(["random", "--dim", "10000000", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert draws == []

    def test_negative_seed_exit_2(self, capsys):
        assert main(["random", "--dim", "2", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err


class TestDeterminism:
    def test_random_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["random", "--dim", "4", "--kind", "ginibre_mixed",
                         "--seed", "9", "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_maximize_byte_identical(self, tmp_path):
        state_file = tmp_path / "state.json"
        write_state(state_file, np.diag([0.4, 0.35, 0.25]))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["maximize", "--input", str(state_file), "--target", "mu",
                         "--budget", "2000", "--seed", "3",
                         "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_infdim_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["infdim", "--family", "thermal-fock", "--nbar", "1.0",
                         "--grid-d", "40", "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv, matrix",
    [
        (["report", "--tol", "2"], [[-0.25, 0.0], [0.0, -0.25]]),
        (["report", "--tol", "1.5"], [[0.0, 0.0], [0.0, 0.0]]),
        (["maximize", "--tol", "1.5", "--budget", "50"], [[0.0, 0.0], [0.0, 0.0]]),
    ],
)
def test_tolerance_of_one_or_more_exit_2(tmp_path, capsys, argv, matrix):
    # at such a tolerance a trace of -0.5 or 0 passes the trace check
    state_file = tmp_path / "state.json"
    state_file.write_text(
        json.dumps({"dim": 2, "matrix": [[[x, 0.0] for x in row] for row in matrix]})
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([argv[0], "--input", str(state_file), *argv[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert caught == []


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@st.composite
def fuzzed_state_files(draw) -> bytes:
    """A valid state file broken by one mutation that no reading of the
    document survives: a prefix short of the closing brace; bytes with
    the high bit set (undecodable, or a non-ASCII character in a number,
    in the structure or in one of the two keys); numbers replaced by
    integers of 20 to 5000 digits (beyond every entry's scale, or the
    float range, or the integer-parsing limit), by NaN, infinities or
    strings; or a number or the whole document nested in up to 100 000
    brackets."""
    rho = qc.random_state(draw(st.sampled_from((2, 3, 4))), "ginibre_mixed", draw(st.integers(0, 3)))
    text = jsonio.dumps(jsonio.density_to_dict(rho))
    kind = draw(st.sampled_from(("truncate", "flip", "number", "nest")))
    if kind == "truncate":
        return text[: draw(st.integers(0, text.rindex("}") - 1))].encode()
    if kind == "flip":
        data = bytearray(text.encode())
        for position in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=3)):
            data[position] |= 0x80
        return bytes(data)
    spans = [match.span() for match in NUMBER.finditer(text)]
    if kind == "number":
        chosen = draw(st.sets(st.integers(0, len(spans) - 1), min_size=1, max_size=3))
        replacement = draw(
            st.integers(20, 5000).map(lambda digits: "9" * digits)
            | st.sampled_from(("NaN", "Infinity", "-Infinity", "1e999", '"0.5"', '"x"'))
        )
        for index in sorted(chosen, reverse=True):
            start, stop = spans[index]
            text = text[:start] + replacement + text[stop:]
        return text.encode()
    depth = draw(st.integers(1, 100_000))
    start, stop = draw(st.sampled_from([(0, len(text.rstrip()))] + spans))
    return (text[:start] + "[" * depth + text[start:stop] + "]" * depth + text[stop:]).encode()


@settings(max_examples=120)
@given(content=fuzzed_state_files(), command=st.sampled_from(("report", "maximize")))
def test_fuzzed_state_files_exit_2_or_3_without_traceback(content, command):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "state.json"
        path.write_bytes(content)
        argv = [command, "--input", str(path), "--output", str(Path(workdir) / "out")]
        if command == "maximize":
            argv += ["--budget", "50"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (2, 3)
    assert "Traceback" not in err.getvalue()
