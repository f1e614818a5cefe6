import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoherence as qc
from qcoherence import jsonio


# Reference encoder: the token-appending form the module used to ship.  The
# module's encoder must reproduce its output byte for byte.
def _reference_encode(obj, parts, digits):
    if isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _reference_encode(value, parts, digits)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(", ")
            _reference_encode(value, parts, digits)
        parts.append("]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(jsonio.format_float(float(obj), digits))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    else:
        raise TypeError(f"cannot serialise object of type {type(obj)!r}")


def reference_dumps(obj, digits=jsonio.JSON_DIGITS):
    parts = []
    _reference_encode(obj, parts, digits)
    parts.append("\n")
    return "".join(parts)


def _reference_matrix_lists(matrix):
    return [[[complex(z).real, complex(z).imag] for z in row] for row in np.asarray(matrix)]


# Entries the 17-digit format must carry exactly: signed zero, the smallest
# subnormal, extremes and values that are not dyadic.
_EDGE_FLOATS = (
    -0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 0.1, 1 / 3, 1.7976931348623157e308
)


@st.composite
def _matrices(draw):
    """Complex matrices of shape 1x1, 1xk, kx1, kxk (k <= 12), 0x0 or kx0
    with finite parts."""
    k = draw(st.integers(1, 12))
    rows, cols = draw(st.sampled_from([(1, 1), (1, k), (k, 1), (k, k), (0, 0), (k, 0)]))
    parts = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS),
            min_size=2 * rows * cols,
            max_size=2 * rows * cols,
        )
    )
    pairs = np.array(parts, dtype=float).reshape(rows, cols, 2)
    matrix = np.empty((rows, cols), dtype=complex)
    matrix.real = pairs[..., 0]
    matrix.imag = pairs[..., 1]
    return matrix


class TestFloatFormatting:
    def test_seventeen_digit_round_trip(self):
        for value in (0.1, 1 / 3, np.sqrt(0.07), 1e-300, 123456.789):
            assert float(jsonio.format_float(value)) == value

    def test_non_finite_rejected(self):
        with pytest.raises(qc.InvalidParameterError):
            jsonio.format_float(float("nan"))

    def test_dumps_is_valid_json_and_deterministic(self):
        payload = {"a": 1, "b": [0.5, True, None, "x"], "c": {"d": 1 / 7}}
        text = jsonio.dumps(payload)
        assert text == jsonio.dumps(payload)
        assert json.loads(text) == {
            "a": 1,
            "b": [0.5, True, None, "x"],
            "c": {"d": 1 / 7},
        }


class TestEncoderOracle:
    """``jsonio.dumps`` against the reference encoder above."""

    @staticmethod
    def documents():
        rho = qc.random_state(4, "ginibre_mixed", 9)
        search = qc.maximize_visibility(rho, 400, 5, trace_stride=100)
        grid = qc.build_cv_grid(16, 4.0, 0.5)
        position = qc.gaussian_cv(grid, 0.6, x0=0.3, p0=-0.8)
        return {
            "density": jsonio.density_to_dict(rho),
            "report": jsonio.report_to_dict(qc.coherence_report(rho)),
            "maximize": jsonio.maximization_to_dict(search, qc.visibility(rho)),
            "oam": jsonio.oam_state_to_dict(
                qc.oam_mode_superposition({-2: 1.0, 1: 0.5j, 2: -0.3}, 3)
            ),
            "fock": jsonio.fock_state_to_dict(qc.coherent_fock(1.0 + 0.5j, 12)),
            "position": jsonio.cv_state_to_dict(position),
            "momentum": jsonio.cv_state_to_dict(qc.convert_representation(position)),
        }

    @pytest.mark.parametrize(
        "name", ["density", "report", "maximize", "oam", "fock", "position", "momentum"]
    )
    def test_state_and_result_documents(self, name):
        doc = self.documents()[name]
        assert jsonio.dumps(doc) == reference_dumps(doc)

    def test_matrix_lists_are_entrywise_pairs(self):
        # signed zeros and subnormal parts survive the conversion
        matrix = np.array(
            [[1.0 - 0.0j, -0.0 + 1e-310j], [np.complex128(complex(-0.0, -0.0)), 1 / 3 + 2j]]
        )
        lists = jsonio.matrix_to_lists(matrix)
        assert reference_dumps(lists) == reference_dumps(_reference_matrix_lists(matrix))
        unitary = qc.haar_unitary(3, 4)
        columns = jsonio.maximization_to_dict(
            qc.MaximizationResult(1.0, unitary, 0, 1, True, "mu", ()), 1.0
        )["best_unitary"]["columns"]
        assert reference_dumps(columns) == reference_dumps(_reference_matrix_lists(unitary.T))

    @settings(max_examples=200)
    @given(_matrices())
    def test_matrices_of_every_shape(self, matrix):
        lists = jsonio.matrix_to_lists(matrix)
        reference = _reference_matrix_lists(matrix)
        assert isinstance(lists, list)
        assert lists == reference
        assert jsonio.dumps(lists) == reference_dumps(reference)

    @pytest.mark.parametrize(
        "rows,cols",
        [
            (3, jsonio._BLOCK_FLOATS // 2 + 1),  # one row per block
            (2, jsonio._BLOCK_FLOATS // 2),  # one full-width row per block
            (2 * (jsonio._BLOCK_FLOATS // 128) + 5, 64),  # two full blocks and a short one
        ],
    )
    def test_matrices_spanning_blocks(self, rows, cols):
        rng = np.random.default_rng(rows * cols)
        matrix = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        matrix[0, 0], matrix[-1, -1] = complex(-0.0, 5e-324), complex(1e300, -0.0)
        lists = jsonio.matrix_to_lists(matrix)
        assert jsonio.dumps(lists) == reference_dumps(_reference_matrix_lists(matrix))

    def test_thermal_lattice_document(self):
        state = qc.thermal_cv(qc.build_cv_grid(64, 8.0), 1.0)
        doc = jsonio.cv_state_to_dict(state)
        assert jsonio.dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("part", ("real", "imag"))
    def test_non_finite_matrix_rejected(self, bad, part):
        matrix = np.diag([0.5, 0.3, 0.2]).astype(complex)
        matrix[1, 2] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
        expected = f"cannot serialise non-finite value {float(bad)}"
        for doc in (jsonio.matrix_to_lists(matrix), {"matrix": jsonio.matrix_to_lists(matrix)}):
            with pytest.raises(qc.InvalidParameterError, match=f"^{re.escape(expected)}$"):
                jsonio.dumps(doc)

    def test_matrix_lists_edited_after_conversion(self):
        # the encoder writes the entries as they are when it runs
        lists = jsonio.matrix_to_lists(np.eye(2, dtype=complex) / 2)
        lists[0][1][0] += 1e-3
        assert jsonio.dumps(lists) == reference_dumps(lists)
        lists[1][0][1] = float("inf")
        with pytest.raises(qc.InvalidParameterError, match="^cannot serialise non-finite value inf$"):
            jsonio.dumps(lists)

    def test_mixed_payload(self):
        payload = {
            "true": True,
            "false": False,
            "none": None,
            "int": 7,
            "negative": -3,
            "big": 2**70,
            "int64": np.int64(-5),
            "float64": np.float64(1 / 3),
            "float32": np.float32(0.1),
            "negative_zero": -0.0,
            "tiny": 1e-300,
            "huge": 1.7976931348623157e308,
            "escaped": 'quote " backslash \\ tab \t newline \n control \x01',
            "unicode": "\u00fcn\u00efc\u00f8d\u00e9 \u2713 \u2028 \U0001f600",
            3: "integer key",
            "nested": [[1, 2.5], (3, "x"), {}, [], ()],
        }
        text = jsonio.dumps(payload)
        assert text == reference_dumps(payload)
        assert json.loads(text)["negative_zero"] == 0.0

    @pytest.mark.parametrize(
        "value", [object(), 1 + 2j, np.bool_(True), {1, 2}, b"bytes", np.zeros(2)]
    )
    def test_unsupported_type_raises_type_error(self, value):
        with pytest.raises(TypeError):
            reference_dumps({"a": [value]})
        with pytest.raises(TypeError):
            jsonio.dumps({"a": [value]})

    @settings(max_examples=100)
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(),
            lambda children: st.lists(children)
            | st.tuples(children, children)
            | st.dictionaries(st.text() | st.integers(), children),
            max_leaves=30,
        )
    )
    def test_random_payloads(self, payload):
        assert jsonio.dumps(payload) == reference_dumps(payload)


class TestMatrixCodec:
    def test_round_trip_exact(self):
        rho = qc.random_state(3, "ginibre_mixed", 5)
        lists = jsonio.matrix_to_lists(rho.entries)
        back = jsonio.matrix_from_lists(lists)
        assert np.array_equal(back, rho.entries)

    def test_malformed_entries(self):
        with pytest.raises(qc.InvalidParameterError):
            jsonio.matrix_from_lists([[1.0, 2.0]])
        with pytest.raises(qc.InvalidParameterError):
            jsonio.matrix_from_lists([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
        with pytest.raises(qc.InvalidParameterError):
            jsonio.matrix_from_lists("nope")

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(qc.InvalidParameterError):
            jsonio.matrix_from_lists([[[10**400, 0]]])


class TestStateFiles:
    def test_density_round_trip(self):
        # rank-deficient states re-enter the clamp path on reload, which can
        # move entries by an ulp; full-rank states reload bit-exactly
        rank2 = qc.random_state(4, "rank_k", 3, rank=2)
        back = jsonio.density_from_dict(
            json.loads(jsonio.dumps(jsonio.density_to_dict(rank2)))
        )
        assert np.max(np.abs(back.entries - rank2.entries)) < 1e-14

        full = qc.random_state(4, "ginibre_mixed", 3)
        text = jsonio.dumps(jsonio.density_to_dict(full))
        reloaded = jsonio.density_from_dict(json.loads(text))
        assert np.array_equal(reloaded.entries, full.entries)
        assert jsonio.dumps(jsonio.density_to_dict(reloaded)) == text

    def test_missing_keys(self):
        with pytest.raises(qc.InvalidParameterError):
            jsonio.density_from_dict({"matrix": [[[1.0, 0.0]]]})

    def test_dim_mismatch(self):
        doc = jsonio.density_to_dict(qc.random_state(2, "haar_pure", 1))
        doc["dim"] = 3
        with pytest.raises(qc.InvalidParameterError):
            jsonio.density_from_dict(doc)

    def test_bloch_serialisation_keys(self):
        vec = qc.to_bloch(qc.validate_density(np.diag([0.5, 0.3, 0.2])))
        doc = jsonio.bloch_to_dict(vec)
        assert set(doc) == {"dim", "u", "v", "w"}
        assert set(doc["u"]) == {"1,2", "1,3", "2,3"}
        assert set(doc["w"]) == {"1", "2"}


class TestInfdimStateFiles:
    def test_oam_round_trip(self):
        state = qc.geometric_oam(0.5, 10)
        doc = json.loads(jsonio.dumps(jsonio.oam_state_to_dict(state)))
        back = jsonio.infdim_state_from_dict(doc)
        assert isinstance(back, qc.OamState)
        assert back.cutoff == state.cutoff
        assert np.array_equal(back.coefficients, state.coefficients)
        assert back.declared_tail_bound == state.declared_tail_bound

    def test_fock_round_trip(self):
        state = qc.thermal_fock(1.0, 12)
        doc = json.loads(jsonio.dumps(jsonio.fock_state_to_dict(state)))
        back = jsonio.infdim_state_from_dict(doc)
        assert isinstance(back, qc.FockState)
        assert np.array_equal(back.coefficients, state.coefficients)

    def test_cv_round_trip(self):
        grid = qc.build_cv_grid(16, 4.0, 0.5)
        state = qc.gaussian_cv(grid, 0.6)
        doc = json.loads(jsonio.dumps(jsonio.cv_state_to_dict(state)))
        back = jsonio.infdim_state_from_dict(doc)
        assert isinstance(back, qc.CvState)
        assert back.grid == grid
        assert back.representation == "position"
        assert np.max(np.abs(back.matrix - state.matrix)) == 0.0

    @staticmethod
    def _lattice_doc(**grid):
        state = qc.gaussian_cv(qc.build_cv_grid(16, 4.0, 0.5), 0.6)
        doc = json.loads(jsonio.dumps(jsonio.cv_state_to_dict(state)))
        doc["grid"].update(grid)
        return doc

    @staticmethod
    def _fock_doc(**fields):
        doc = json.loads(jsonio.dumps(jsonio.fock_state_to_dict(qc.thermal_fock(1.0, 6))))
        doc.update(fields)
        return doc

    @pytest.mark.parametrize(
        "grid",
        [
            {"d": [1]},
            {"d": "16"},
            {"d": True},
            {"d": 16.0},
            {"p_max": "4.0"},
            {"p_max": None},
            {"p_max": 10**400},
            {"hbar": True},
            {"hbar": "1"},
        ],
        ids=lambda grid: ",".join(f"{k}={v!r:.8}" for k, v in grid.items()),
    )
    def test_lattice_grid_values_must_be_numbers(self, grid):
        with pytest.raises(qc.InvalidParameterError):
            jsonio.infdim_state_from_dict(self._lattice_doc(**grid))

    @pytest.mark.parametrize(
        "fields",
        [
            {"tail_bound": 10**400},
            {"tail_bound": True},
            {"tail_bound": "0.1"},
            {"cutoff": True},
            {"cutoff": "6"},
        ],
        ids=lambda fields: ",".join(f"{k}={v!r:.8}" for k, v in fields.items()),
    )
    def test_truncated_state_fields_must_be_numbers(self, fields):
        with pytest.raises(qc.InvalidParameterError):
            jsonio.infdim_state_from_dict(self._fock_doc(**fields))

    def test_documents_load_before_the_edit(self):
        assert isinstance(jsonio.infdim_state_from_dict(self._lattice_doc()), qc.CvState)
        doc = self._fock_doc(tail_bound=1)
        assert jsonio.infdim_state_from_dict(doc).declared_tail_bound == 1.0

    def test_unknown_tag(self):
        with pytest.raises(qc.InvalidParameterError):
            jsonio.infdim_state_from_dict({"representation": "phase", "matrix": [[[1.0, 0.0]]]})


def test_tsv_rounds_to_twelve_digits_and_flattens():
    text = jsonio.tsv_from_dict(
        {"a": 1 / 3, "n": 4, "flag": True, "nested": {"kept": 1, "deeper": {}}, "ls": [1]}
    )
    header, row = text.strip().split("\n")
    assert header.split("\t") == ["a", "n", "flag", "nested.kept"]
    assert row.split("\t") == ["0.333333333333", "4", "true", "1"]
