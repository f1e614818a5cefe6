import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoherence as qc
from qcoherence import jsonio
from qcoherence.cli import main


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
        ],
    )
    def test_non_finite_parameters_exit_2(self, argv, capsys):
        assert main(["infdim", *argv]) == 2
        err = capsys.readouterr().err
        assert "finite" in err
        assert "Traceback" not in err


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
