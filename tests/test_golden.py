"""Golden outputs of the seeded commands of acceptance criterion 8 and of
every ``infdim`` family.

``tests/golden/`` holds eleven outputs: the state written by ``random --dim 4
--kind ginibre_mixed --seed 9``, its ``report`` and ``maximize`` outputs,
the ``report`` of ``random --dim 64 --kind ginibre_mixed --seed 3`` (the
state itself is not kept), and the ``infdim`` outputs of all five families
(the gaussian-cv ladder, the README's d=256 thermal-cv report without its
state file, thermal-fock, geometric-oam and coherent-fock), plus
thermal-fock as TSV, plus one lattice state file.  The state, the reports
and the JSON infdim outputs are compared at 1e-12, key order included, so
a silent numeric drift or a reordered payload fails here even though two
runs of the same code still agree byte for byte.  The TSV header must
match exactly and its numbers within 1e-11, since TSV keeps 12
significant digits.  An absolute 1e-12 cannot see a lattice state's tail,
so the state file is compared by its bytes up to the matrix, by the places
of its zero floats and by its other floats at 1e-15 relative (see
:func:`test_lattice_state_file_matches_golden`).  The search is compared
by structure, because its path depends on the random stream and on the
order of floating-point operations: keys, the evaluation count, the trace
indices, the analytic value at 1e-12, the gap to it and the unitarity of
the best basis.  When an output is meant to change, regenerate its file alone,
as in ``PYTHONPATH=src python tests/test_golden.py report_dim64.json``, and
say why in the commit.  Only the named files are rewritten: the search path
of ``maximize.json`` differs by machine in the last digit.  With no names,
or with a name that is not a golden file, the script lists the valid names
and rewrites nothing; an unknown name exits with status 2.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcoherence import infdim, jsonio
from qcoherence.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
BUDGET = 3000
INFDIM = {
    "infdim_gaussian_cv.json": ["--family", "gaussian-cv", "--grid-d", "128", "--p-max", "11.3"],
    "infdim_thermal_cv.json": ["--family", "thermal-cv", "--nbar", "1.0", "--grid-d", "256",
                               "--p-max", "16"],
    "infdim_thermal_fock.json": ["--family", "thermal-fock", "--nbar", "1.0", "--grid-d", "40"],
    "infdim_thermal_fock.tsv": ["--family", "thermal-fock", "--nbar", "1.0", "--grid-d", "40",
                                "--format", "tsv"],
    "infdim_geometric_oam.json": ["--family", "geometric-oam", "--q", "0.5", "--grid-d", "60",
                                  "--grid-m", "512"],
    "infdim_coherent_fock.json": ["--family", "coherent-fock", "--alpha-re", "1.0",
                                  "--alpha-im", "0.5", "--grid-d", "40"],
}


# the file ``infdim --family thermal-cv --nbar 1.0 --grid-d 32 --p-max 5.66
# --save-state`` would write: the command exits 2 at its Wigner normalisation
# check (0.933) before it writes, so the file is made by the two calls its
# --save-state makes, the family's constructor on the lattice and dumps_state
STATE_FILE = "infdim_thermal_cv_state.json"


NAMES = ("random.json", "report.json", "report_dim64.json", "maximize.json", *INFDIM, STATE_FILE)


def _run(root: Path) -> dict[str, Path]:
    paths = {name: root / name for name in NAMES}
    state = str(paths["random.json"])
    # the N=64 state is an input only, so it is not among the returned paths
    state_64 = str(root / "random_dim64.json")
    commands = [
        ["random", "--dim", "4", "--kind", "ginibre_mixed", "--seed", "9", "--output", state],
        ["report", "--input", state, "--output", str(paths["report.json"])],
        ["random", "--dim", "64", "--kind", "ginibre_mixed", "--seed", "3", "--output", state_64],
        ["report", "--input", state_64, "--output", str(paths["report_dim64.json"])],
        ["maximize", "--input", state, "--target", "visibility", "--budget", str(BUDGET),
         "--seed", "5", "--output", str(paths["maximize.json"])],
    ]
    commands += [["infdim", *argv, "--output", str(paths[name])] for name, argv in INFDIM.items()]
    for argv in commands:
        assert main(argv) == 0, argv
    lattice_state = infdim.FAMILIES["thermal-cv"].build({"nbar": 1.0},
                                                         infdim.build_cv_grid(32, 5.66))
    with open(paths[STATE_FILE], "w", encoding="utf-8") as handle:
        handle.write(jsonio.dumps_state(lattice_state))
    return paths


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, Path]:
    return _run(tmp_path_factory.mktemp("golden"))


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _close(a, b, tol: float) -> None:
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _close(a[key], b[key], tol)
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b)
        for x, y in zip(a, b):
            _close(x, y, tol)
    elif isinstance(a, (int, float)) and not isinstance(a, bool):
        assert abs(a - b) <= tol, (a, b)
    else:
        assert a == b


def _keys(doc) -> object:
    if isinstance(doc, dict):
        return {key: _keys(value) for key, value in doc.items()}
    return None


def test_random_state_matches_golden(outputs):
    _close(_load(outputs["random.json"]), _load(GOLDEN / "random.json"), 1e-12)


def test_report_matches_golden(outputs):
    _close(_load(outputs["report.json"]), _load(GOLDEN / "report.json"), 1e-12)


def test_report_dim64_matches_golden(outputs):
    _close(_load(outputs["report_dim64.json"]), _load(GOLDEN / "report_dim64.json"), 1e-12)


@pytest.mark.parametrize(
    "name",
    [name for name in INFDIM if name.endswith(".json")],
    ids=lambda name: name.removesuffix(".json"),
)
def test_infdim_matches_golden(outputs, name):
    _close(_load(outputs[name]), _load(GOLDEN / name), 1e-12)


def test_infdim_tsv_matches_golden(outputs):
    header, row = outputs["infdim_thermal_fock.tsv"].read_text(encoding="utf-8").splitlines()
    golden_header, golden_row = (GOLDEN / "infdim_thermal_fock.tsv").read_text(
        encoding="utf-8"
    ).splitlines()
    assert header == golden_header
    cells, golden_cells = row.split("\t"), golden_row.split("\t")
    assert len(cells) == len(golden_cells)
    for cell, golden in zip(cells, golden_cells):
        try:
            expected = float(golden)
        except ValueError:
            assert cell == golden
        else:
            assert abs(float(cell) - expected) <= 1e-11, (cell, golden)


def test_lattice_state_file_matches_golden(outputs):
    """The text up to the matrix byte for byte, the zero floats in the same
    places and every other float within 1e-15 relative, with no absolute
    slack, so a stored tail (a float below 2^-511 where the golden holds 0)
    fails.  The matrix is not compared byte for byte: numpy's exp rounds
    differently with and without AVX-512 (NPY_DISABLE_CPU_FEATURES), which
    moves 160 of this file's 8,450 floats by up to 2 ulps, none of them a
    zero, and the file from 100,439 to 100,427 bytes."""
    text = outputs[STATE_FILE].read_text(encoding="utf-8")
    golden_text = (GOLDEN / STATE_FILE).read_text(encoding="utf-8")
    head = text.index('"matrix"')
    assert text[:head] == golden_text[:head]
    matrix = np.array(json.loads(text)["matrix"])
    golden = np.array(json.loads(golden_text)["matrix"])
    assert matrix.shape == golden.shape
    assert np.array_equal(matrix == 0.0, golden == 0.0)
    assert_allclose(matrix, golden, rtol=1e-15, atol=0.0)


def test_maximize_matches_golden_structure(outputs):
    search = _load(outputs["maximize.json"])
    golden = _load(GOLDEN / "maximize.json")
    assert _keys(search) == _keys(golden)
    assert search["target"] == golden["target"]
    assert search["evaluations"] == golden["evaluations"] == BUDGET
    assert [index for index, _ in search["trace"]] == [index for index, _ in golden["trace"]]
    assert abs(search["analytic_value"] - golden["analytic_value"]) <= 1e-12
    assert -1e-6 <= search["gap"] <= 1e-3
    columns = np.array(search["best_unitary"]["columns"])
    u = (columns[..., 0] + 1j * columns[..., 1]).T
    assert u.shape == (4, 4) == (search["best_unitary"]["dim"],) * 2
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10


if __name__ == "__main__":
    import shutil
    import sys
    import tempfile

    names = sys.argv[1:]
    unknown = [name for name in names if name not in NAMES]
    if unknown or not names:
        if unknown:
            print(f"unknown golden file: {', '.join(unknown)}", file=sys.stderr)
        print(f"usage: {sys.argv[0]} NAME [NAME ...]; names: {', '.join(NAMES)}",
              file=sys.stderr)
        sys.exit(2 if unknown else 0)
    with tempfile.TemporaryDirectory() as workdir:
        paths = _run(Path(workdir))
        for name in names:
            shutil.copyfile(paths[name], GOLDEN / name)
