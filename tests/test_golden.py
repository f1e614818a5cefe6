"""Golden outputs of the seeded commands of acceptance criterion 8.

``tests/golden/`` holds the five outputs: the state written by ``random
--dim 4 --kind ginibre_mixed --seed 9``, its ``report`` and ``maximize``
outputs, and the ``infdim`` outputs of the gaussian-cv ladder and of
thermal-fock.  The state, the report and both infdim outputs are compared
at 1e-12, so a silent numeric drift fails here even though two runs of
the same code still agree byte for byte.  The search is compared by
structure, because its path depends on the random stream and on the
order of floating-point operations: keys, the evaluation count, the trace
indices, the analytic value at 1e-12, the gap to it and the unitarity of
the best basis.  Regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` when an output is meant to
change, and say why in the commit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qcoherence.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
BUDGET = 3000


def _run(root: Path) -> dict[str, Path]:
    paths = {
        name: root / f"{name}.json"
        for name in ("random", "report", "maximize", "infdim_gaussian_cv", "infdim_thermal_fock")
    }
    state = str(paths["random"])
    commands = (
        ["random", "--dim", "4", "--kind", "ginibre_mixed", "--seed", "9", "--output", state],
        ["report", "--input", state, "--output", str(paths["report"])],
        ["maximize", "--input", state, "--target", "visibility", "--budget", str(BUDGET),
         "--seed", "5", "--output", str(paths["maximize"])],
        ["infdim", "--family", "gaussian-cv", "--grid-d", "128", "--p-max", "11.3",
         "--output", str(paths["infdim_gaussian_cv"])],
        ["infdim", "--family", "thermal-fock", "--nbar", "1.0", "--grid-d", "40",
         "--output", str(paths["infdim_thermal_fock"])],
    )
    for argv in commands:
        assert main(argv) == 0, argv
    return paths


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, Path]:
    return _run(tmp_path_factory.mktemp("golden"))


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _close(a, b, tol: float) -> None:
    if isinstance(a, dict):
        assert sorted(a) == sorted(b)
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
    _close(_load(outputs["random"]), _load(GOLDEN / "random.json"), 1e-12)


def test_report_matches_golden(outputs):
    _close(_load(outputs["report"]), _load(GOLDEN / "report.json"), 1e-12)


@pytest.mark.parametrize("name", ["infdim_gaussian_cv", "infdim_thermal_fock"])
def test_infdim_matches_golden(outputs, name):
    _close(_load(outputs[name]), _load(GOLDEN / f"{name}.json"), 1e-12)


def test_maximize_matches_golden_structure(outputs):
    search = _load(outputs["maximize"])
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
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        for path in _run(Path(workdir)).values():
            shutil.copyfile(path, GOLDEN / path.name)
