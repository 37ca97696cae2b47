import hashlib
import json

import numpy as np
import pytest

from dsskit import (
    InvariantViolation,
    LocalSubspace,
    ProductOperator,
    SchemaError,
    SystemShape,
    Tolerance,
    fileio,
    run,
    tensor_power,
    three_qubit_example,
    werner,
)


def test_state_round_trip_exact(tmp_path):
    rho = werner(0.7)
    path = tmp_path / "state.json"
    fileio.write_state(str(path), rho)
    loaded = fileio.read_state(str(path))
    assert np.array_equal(loaded.mat, rho.mat)
    assert loaded.shape.labels == rho.shape.labels


def test_state_round_trip_composite_dims(tmp_path):
    two = tensor_power(three_qubit_example(0.5), 2)
    path = tmp_path / "two.json"
    fileio.write_state(str(path), two)
    loaded = fileio.read_state(str(path))
    assert loaded.shape.party("A").dims == (2, 2)
    assert np.array_equal(loaded.mat, two.mat)


def test_load_state_names_trace_invariant():
    doc = fileio.save_state(werner(0.7))
    doc["matrix"]["re"] = (0.9 * np.array(doc["matrix"]["re"])).tolist()
    with pytest.raises(InvariantViolation) as err:
        fileio.load_state(doc)
    assert err.value.invariant == "trace"


def test_load_state_names_psd_invariant():
    doc = {
        "parties": [{"label": "A", "dim": 2}],
        "matrix": {"re": [[1.001, 0.0], [0.0, -1e-3]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    }
    with pytest.raises(InvariantViolation) as err:
        fileio.load_state(doc)
    assert err.value.invariant == "positive-semidefinite"


def test_load_state_checks_to_the_given_tolerance():
    # Smallest eigenvalue -1e-8 and an antihermitian part of 1e-8.
    doc = {
        "parties": [{"label": "A", "dim": 2}],
        "matrix": {"re": [[1.0 + 1e-8, 0.0], [0.0, -1e-8]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    }
    with pytest.raises(InvariantViolation) as err:
        fileio.load_state(doc)
    assert err.value.invariant == "positive-semidefinite"
    assert fileio.load_state(doc, Tolerance(psd_atol=1e-7)).mat[1, 1] == -1e-8

    doc["matrix"]["im"] = [[0.0, 1e-8], [0.0, 0.0]]
    with pytest.raises(InvariantViolation) as err:
        fileio.load_state(doc, Tolerance(psd_atol=1e-7))
    assert err.value.invariant == "hermitian"
    fileio.load_state(doc, Tolerance(psd_atol=1e-7, herm_atol=1e-7))


def test_load_state_names_hermitian_invariant():
    doc = {
        "parties": [{"label": "A", "dim": 2}],
        "matrix": {"re": [[0.5, 1.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    }
    with pytest.raises(InvariantViolation) as err:
        fileio.load_state(doc)
    assert err.value.invariant == "hermitian"


def test_sparse_matrix_form():
    doc = {
        "parties": [{"label": "A", "dim": 2}],
        "matrix": [
            {"row": 0, "col": 0, "re": 0.5},
            {"row": 1, "col": 1, "re": 0.5},
        ],
    }
    rho = fileio.load_state(doc)
    assert np.allclose(rho.mat, np.eye(2) / 2)


def test_schema_errors():
    with pytest.raises(SchemaError):
        fileio.load_state({"matrix": {"re": [[1.0]]}})
    with pytest.raises(SchemaError):
        fileio.load_state({"parties": [], "matrix": {"re": [[1.0]]}})
    with pytest.raises(SchemaError):
        fileio.load_state({"parties": [{"label": "A", "dim": 2}], "matrix": {"re": [[1.0]]}})
    with pytest.raises(SchemaError):
        fileio.load_state(
            {"parties": [{"label": "A", "dim": 2, "dims": [3]}], "matrix": {"re": [[1.0]]}}
        )
    with pytest.raises(SchemaError):
        fileio.load_state(
            {
                "parties": [{"label": "A", "dim": 2}],
                "matrix": [{"row": 5, "col": 0, "re": 1.0}],
            }
        )


def test_read_json_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SchemaError):
        fileio.read_json(str(missing))
    garbage = tmp_path / "bad.json"
    garbage.write_text("{not json")
    with pytest.raises(SchemaError):
        fileio.read_json(str(garbage))


def test_undecodable_bytes_are_not_valid_json(tmp_path):
    # A UTF-16 byte-order mark is not UTF-8: a schema error, not a
    # UnicodeDecodeError, read directly or as a protocol's referenced file.
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(SchemaError, match="is not valid JSON: 'utf-8' codec can't decode byte 0xff"):
        fileio.read_json(str(path))
    with pytest.raises(SchemaError, match="referenced file .* is not valid JSON"):
        fileio.load_protocol({"steps": [{"kind": "project", "subspace": "utf16.json"}]}, base_dir=str(tmp_path))


def test_operator_round_trip(tmp_path):
    shape = SystemShape.qubits("AB")
    op = ProductOperator.from_parts(shape, {"A": np.diag([0.5, np.sqrt(3) / 2]).astype(complex)})
    path = tmp_path / "op.json"
    fileio.write_operator(str(path), op)
    loaded = fileio.read_operator(str(path))
    assert loaded.labels == op.labels
    for got, want in zip(loaded.factors, op.factors):
        assert np.allclose(got.mat, want.mat)


def test_operator_load_rescales():
    doc = {
        "factors": [
            {"party": "A", "matrix": {"re": [[2.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}}
        ]
    }
    op = fileio.load_operator(doc)
    assert op.factors[0].scale == pytest.approx(2.0)
    assert np.allclose(op.factors[0].mat, np.diag([1.0, 0.0]))


def test_operator_sparse_factor():
    doc = {
        "factors": [
            {"party": "A", "dim": 2, "matrix": [{"row": 0, "col": 0, "re": 0.5}, {"row": 1, "col": 1, "re": 1.0}]}
        ]
    }
    op = fileio.load_operator(doc)
    assert np.allclose(op.factors[0].mat, np.diag([0.5, 1.0]))
    with pytest.raises(SchemaError):
        fileio.load_operator({"factors": [{"party": "A", "matrix": [{"row": 0, "col": 0, "re": 1.0}]}]})


def test_subspace_round_trip(tmp_path):
    shape = SystemShape.of(("A", (2, 2)), ("B", (2, 2)), ("C", (2, 2)))
    sub = LocalSubspace.from_indices(shape, {lbl: (1, 2) for lbl in "ABC"})
    path = tmp_path / "sub.json"
    fileio.write_subspace(str(path), sub)
    loaded = fileio.read_subspace(str(path))
    assert loaded.labels == sub.labels
    for (_, got), (_, want) in zip(loaded.parties, sub.parties):
        assert np.array_equal(got, want)


E0 = {"re": [1.0, 0.0], "im": [0.0, 0.0]}


@pytest.mark.parametrize(
    "vectors,message",
    [
        ([[1.0, 0.0]], "subspace: party 0: expected an object, got list"),
        ([E0, "x"], "subspace: party 0 vector 1: expected an object, got str"),
        ([E0, {"im": [0.0, 0.0]}], "subspace: party 0 vector 1: missing required field 're'"),
        ([E0, {"re": [0.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0]}], "subspace: party 0 vector 1: expected a vector of length 2"),
        ([E0, {"re": [0.0, 1.0], "im": [0.0]}], "subspace: party 0 vector 1: expected a vector of length 2"),
        ([E0, {"re": [0.0, "x"], "im": [0.0, 0.0]}], "subspace: party 0 vector 1: re: could not convert string to float: 'x'"),
        ([E0, {"re": [0.0, 1.0], "im": [0.0, {}]}],
         "subspace: party 0 vector 1: im: float() argument must be a string or a real number, not 'dict'"),
        ([E0, {"re": [0.0, 10**400], "im": [0.0, 0.0]}], "subspace: party 0 vector 1: re: int too large to convert to float"),
        ([{"re": [[1.0, 0.0]], "im": [[0.0, 0.0]]}], "subspace: party 0: vectors must be nonempty 1-D"),
        ([{"re": [], "im": []}], "subspace: party 0: vectors must be nonempty 1-D"),
        ([{"re": 1.0, "im": 0.0}], "subspace: party 0: vectors must be nonempty 1-D"),
    ],
    ids=["list", "string", "no-re", "ragged-re", "short-im", "text", "object", "huge", "nested", "empty", "scalar"],
)
def test_malformed_subspace_vectors_name_their_first_fault(vectors, message):
    # A party's vectors are converted in one pass; a document that pass
    # cannot take is read vector by vector, which names the first fault.
    with pytest.raises(SchemaError) as err:
        fileio.load_subspace({"parties": [{"label": "A", "vectors": vectors}]})
    assert str(err.value) == message


def test_subspace_vectors_without_im_are_real():
    doc = {"parties": [{"label": "A", "vectors": [{"re": [0.0, 1.0]}, {"re": [1.0, 0.0], "im": None}]},
                       {"label": "B", "vectors": [{"re": [0.0, 1.0], "im": [0.0, 0.0]}, {"re": [1.0, 0.0]}]}]}
    sub = fileio.load_subspace(doc)
    for _, v in sub.parties:
        assert v.tobytes() == np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex).tobytes()


def test_read_document_digests_the_bytes_it_parsed(tmp_path):
    path = tmp_path / "crlf.json"
    data = b'{"a":\r\n [1,\r 2]}'
    path.write_bytes(data)
    assert fileio.read_document(str(path)) == ({"a": [1, 2]}, hashlib.sha256(data).hexdigest())
    # Line ends are read as a text file reads them: an error names the same place.
    path.write_bytes(b'{"a":\r\n [1,\r 2,]}')
    with open(path, encoding="utf-8") as fh, pytest.raises(json.JSONDecodeError) as want:
        json.load(fh)
    with pytest.raises(SchemaError) as got:
        fileio.read_json(str(path))
    assert str(got.value) == f"{str(path)!r} is not valid JSON: {want.value}"


def test_load_bases_requires_full_basis():
    shape = SystemShape.qubits("AB")
    sub = LocalSubspace.from_indices(shape, {"A": (0,), "B": (0, 1)})
    doc = fileio.save_subspace(sub)
    with pytest.raises(SchemaError):
        fileio.load_bases(doc, shape)
    full = fileio.save_subspace(LocalSubspace.full(shape))
    bases = fileio.load_bases(full, shape)
    assert set(bases) == {"A", "B"}


def test_protocol_file_with_references(tmp_path):
    two = tensor_power(three_qubit_example(0.5), 2)
    sub = LocalSubspace.from_indices(two.shape, {lbl: (1, 2) for lbl in "ABC"})
    fileio.write_subspace(str(tmp_path / "dss.json"), sub)

    h = (np.array([[1, 1], [1, -1]]) / np.sqrt(2)).tolist()
    gate = {"re": np.kron(np.eye(2), np.array(h)).tolist()}
    protocol_doc = {
        "steps": [
            {"kind": "project", "subspace": "dss.json"},
            {"kind": "local_unitary", "gates": {lbl: gate for lbl in "ABC"}},
            {"kind": "measure_and_discard", "party": "A", "subsystem": 1},
            {"kind": "measure_and_discard", "party": "B", "subsystem": 1},
            {"kind": "measure_and_discard", "party": "C", "subsystem": 1},
            {
                "kind": "conditional",
                "parity": "odd",
                "outcomes": [0, 1, 2],
                "step": {
                    "kind": "local_unitary",
                    "gates": {"A": {"re": [[1.0, 0.0], [0.0, -1.0]]}},
                },
            },
        ]
    }
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(protocol_doc))

    steps = fileio.read_protocol(str(path))
    assert len(steps) == 6
    result = run(steps, two)
    assert len(result.branches) == 8
    assert result.success_probability == pytest.approx(0.125, abs=1e-9)


def test_protocol_conditional_equals(tmp_path):
    doc = {
        "steps": [
            {"kind": "measure_and_discard", "party": "A", "subsystem": 0},
            {
                "kind": "conditional",
                "equals": [1],
                "step": {
                    "kind": "local_unitary",
                    "gates": {"B": {"re": [[0.0, 1.0], [1.0, 0.0]]}},
                },
            },
        ]
    }
    steps = fileio.load_protocol(doc)
    assert len(steps) == 2


def test_protocol_schema_errors():
    with pytest.raises(SchemaError):
        fileio.load_protocol({"steps": []})
    with pytest.raises(SchemaError):
        fileio.load_protocol({"steps": [{"kind": "warp"}]})
    with pytest.raises(SchemaError):
        fileio.load_protocol(
            {"steps": [{"kind": "conditional", "step": {"kind": "measure_and_discard", "party": "A", "subsystem": 0}}]}
        )


@pytest.mark.parametrize("positions", [[-1], [0.0], [True], "0", [0, "1"]])
def test_conditional_outcome_positions_must_be_nonnegative_integers(positions):
    doc = {"steps": [{
        "kind": "conditional", "parity": "odd", "outcomes": positions,
        "step": {"kind": "local_unitary", "gates": {"A": {"re": [[1.0, 0.0], [0.0, 1.0]]}}},
    }]}
    with pytest.raises(SchemaError) as err:
        fileio.load_protocol(doc)
    assert "'outcomes'" in str(err.value)


def test_missing_protocol_reference(tmp_path):
    doc = {"steps": [{"kind": "project", "subspace": "missing.json"}]}
    with pytest.raises(SchemaError):
        fileio.load_protocol(doc, base_dir=str(tmp_path))


ONE_QUBIT = [{"label": "A", "dim": 2}]
PURE_0 = {"re": [[1.0, 0.0], [0.0, 0.0]]}
IDENTITY_GATE = {"kind": "local_unitary", "gates": {"A": {"re": [[1.0, 0.0], [0.0, 1.0]]}}}


@pytest.mark.parametrize(
    "load,doc,context",
    [
        (fileio.load_state, {"parties": ONE_QUBIT, "matrix": [{"row": 0.9, "col": 0, "re": 1.0}]},
         "sparse entry 0: row"),
        (fileio.load_state, {"parties": ONE_QUBIT, "matrix": [{"row": 0, "col": 0.5, "re": 1.0}]},
         "sparse entry 0: col"),
        (fileio.load_state, {"parties": [{"label": "A", "dims": [2.7]}], "matrix": PURE_0}, "party 0: dims"),
        (fileio.load_state, {"parties": [{"label": "A", "dim": 2.0}], "matrix": PURE_0}, "party 0: dim"),
        (fileio.load_state, {"parties": [{"label": "A", "dim": True}], "matrix": PURE_0}, "party 0: dim"),
        (fileio.load_state, {"parties": [{"label": "A", "dims": [2], "dim": 2.5}], "matrix": PURE_0},
         "party 0: dim"),
        (fileio.load_operator, {"factors": [{"party": "A", "dim": 2.0,
                                             "matrix": [{"row": 0, "col": 0, "re": 1.0}]}]}, "factor 0: dim"),
        (fileio.load_protocol, {"steps": [{"kind": "measure_and_discard", "party": "A", "subsystem": 0.5}]},
         "step 0: subsystem"),
        (fileio.load_protocol, {"steps": [{"kind": "conditional", "equals": [0.5], "step": IDENTITY_GATE}]},
         "step 0: equals"),
        (fileio.load_protocol, {"steps": [{"kind": "conditional", "parity": "odd", "outcomes": [1.5],
                                           "step": IDENTITY_GATE}]}, "step 0: 'outcomes'"),
    ],
    ids=["row", "col", "dims", "dim-float", "dim-bool", "dim-with-dims", "factor-dim", "subsystem",
         "equals", "outcomes"],
)
def test_integer_fields_reject_non_integers(load, doc, context):
    with pytest.raises(SchemaError) as err:
        load(doc)
    assert context in str(err.value) and "expected an integer" in str(err.value)


def test_inline_step_error_names_the_step():
    doc = {"steps": [{"kind": "filter", "operator": {"factors": [
        {"party": "A", "matrix": {"re": [[1, 0], [0, "x"]]}}]}}]}
    with pytest.raises(SchemaError) as err:
        fileio.load_protocol(doc)
    assert str(err.value).startswith("protocol: step 0: operator: factor 0: re:")


def test_referenced_file_error_names_the_step_and_the_file(tmp_path):
    (tmp_path / "op.json").write_text(json.dumps({"factors": [
        {"party": "A", "matrix": {"re": [[1, 0], [0, "x"]]}}]}))
    (tmp_path / "sub.json").write_text(json.dumps({"parties": [
        {"label": "A", "vectors": [{"re": [1.0, 0.0]}, {"re": [1.0, 0.0]}]}]}))
    doc = {"steps": [IDENTITY_GATE, {"kind": "filter", "operator": "op.json"}]}
    with pytest.raises(SchemaError) as err:
        fileio.load_protocol(doc, base_dir=str(tmp_path))
    path = str(tmp_path / "op.json")
    assert str(err.value).startswith(f"protocol: step 1: file {path!r}: operator: factor 0: re:")

    doc = {"steps": [{"kind": "project", "subspace": "sub.json"}]}
    with pytest.raises(InvariantViolation) as err:
        fileio.load_protocol(doc, base_dir=str(tmp_path))
    assert err.value.invariant == "orthonormal"
    assert str(err.value).startswith(f"protocol: step 0: file {str(tmp_path / 'sub.json')!r}:")
