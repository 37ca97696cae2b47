"""Document schemas for states, operators, subspaces, bases and protocols.

Everything is JSON.  Matrices are stored either densely as
``{"re": [[...]], "im": [[...]]}`` or sparsely as a list of
``{"row", "col", "re", "im"}`` entries; vectors use the dense 1-D form.
Numbers are written with :func:`repr`-level precision so a save/load round
trip reproduces every entry exactly.  Schema problems raise
:class:`~dsskit.errors.SchemaError`; state invariant failures propagate as
:class:`~dsskit.errors.InvariantViolation` naming the failed invariant.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Mapping

import numpy as np

from .errors import InvariantViolation, SchemaError
from .linalg import DEFAULT_TOLERANCE, Tolerance, as_int
from .localops import LocalFactor, ProductOperator
from .protocols import (
    Conditional,
    Filter,
    LocalUnitary,
    MeasureAndDiscard,
    Project,
    ProtocolStep,
)
from .states import DensityMatrix, Party, SystemShape
from .subspaces import LocalSubspace


def _require(doc: Mapping, key: str, context: str) -> Any:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{context}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{context}: missing required field {key!r}")
    return doc[key]


def _convert(cast: Callable, value, context: str):
    """``cast(value)``; a value it cannot convert is a SchemaError naming ``context``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def _integer(value, context: str) -> int:
    """An integer field, by :func:`~dsskit.linalg.as_int`'s test; anything
    else is a SchemaError naming ``context``."""
    try:
        return as_int(value, context)
    except InvariantViolation as exc:
        raise SchemaError(str(exc)) from exc


def _integers(values, context: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise SchemaError(f"{context}: expected a list of integers, got {values!r}")
    return tuple(_integer(v, context) for v in values)


def _reals(value) -> np.ndarray:
    """A rectangular array of real numbers, such as the ``re`` part of a matrix."""
    return np.asarray(value, dtype=float)


def matrix_to_doc(mat: np.ndarray) -> dict:
    arr = np.asarray(mat, dtype=np.complex128)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def vector_to_doc(vec: np.ndarray) -> dict:
    arr = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def matrix_from_doc(doc, rows: int, cols: int, context: str) -> np.ndarray:
    """Parse a dense or sparse matrix document of known dimensions."""
    if isinstance(doc, list):
        mat = np.zeros((rows, cols), dtype=np.complex128)
        for i, entry in enumerate(doc):
            where = f"{context}: sparse entry {i}"
            row = _integer(_require(entry, "row", where), f"{where}: row")
            col = _integer(_require(entry, "col", where), f"{where}: col")
            if not (0 <= row < rows and 0 <= col < cols):
                raise SchemaError(f"{where}: index ({row}, {col}) outside {rows}x{cols}")
            re = _convert(float, entry.get("re", 0.0), f"{where}: re")
            im = _convert(float, entry.get("im", 0.0), f"{where}: im")
            mat[row, col] = re + 1j * im
        return mat
    re = _convert(_reals, _require(doc, "re", context), f"{context}: re")
    im_doc = doc.get("im")
    im = np.zeros_like(re) if im_doc is None else _convert(_reals, im_doc, f"{context}: im")
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise SchemaError(
            f"{context}: expected a {rows}x{cols} matrix, got re {re.shape} / im {im.shape}"
        )
    return re + 1j * im


def square_matrix_from_doc(doc, context: str) -> np.ndarray:
    """Parse a dense square matrix document whose side is read off ``re``."""
    re = _convert(_reals, _require(doc, "re", context), f"{context}: re")
    if re.ndim != 2 or re.shape[0] != re.shape[1]:
        raise SchemaError(f"{context}: matrix must be square")
    return matrix_from_doc(doc, re.shape[0], re.shape[0], context)


def vector_from_doc(doc, length: int, context: str) -> np.ndarray:
    re = _convert(_reals, _require(doc, "re", context), f"{context}: re")
    im_doc = doc.get("im")
    im = np.zeros_like(re) if im_doc is None else _convert(_reals, im_doc, f"{context}: im")
    if re.shape != (length,) or im.shape != (length,):
        raise SchemaError(f"{context}: expected a vector of length {length}")
    return re + 1j * im


def shape_from_doc(doc, context: str = "parties") -> SystemShape:
    parties_doc = _require(doc, "parties", context)
    if not isinstance(parties_doc, list) or not parties_doc:
        raise SchemaError(f"{context}: 'parties' must be a nonempty list")
    parties = []
    for i, entry in enumerate(parties_doc):
        where = f"{context}: party {i}"
        label = str(_require(entry, "label", where))
        if "dims" in entry:
            dims = _integers(entry["dims"], f"{where}: dims")
            if "dim" in entry and _integer(entry["dim"], f"{where}: dim") != int(np.prod(dims)):
                raise SchemaError(f"{where}: 'dim' disagrees with product of 'dims'")
        else:
            dims = (_integer(_require(entry, "dim", where), f"{where}: dim"),)
        parties.append(Party(label, dims))
    return SystemShape(tuple(parties))


def shape_to_doc(shape: SystemShape) -> list[dict]:
    out = []
    for p in shape.parties:
        entry: dict[str, Any] = {"label": p.label, "dim": p.dim}
        if len(p.dims) > 1:
            entry["dims"] = list(p.dims)
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def save_state(rho: DensityMatrix) -> dict:
    return {"parties": shape_to_doc(rho.shape), "matrix": matrix_to_doc(rho.mat)}


def load_state(doc, tol: Tolerance = DEFAULT_TOLERANCE) -> DensityMatrix:
    """The state of ``doc``, checked by the public constructor to ``tol``."""
    shape = shape_from_doc(doc, "state")
    d = shape.total_dim
    mat = matrix_from_doc(_require(doc, "matrix", "state"), d, d, "state: matrix")
    return DensityMatrix(shape, mat, tol)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def save_operator(op: ProductOperator) -> dict:
    return {
        "factors": [
            {"party": f.party, "matrix": matrix_to_doc(f.mat)} for f in op.factors
        ]
    }


def load_operator(doc) -> ProductOperator:
    """Parse a product operator; factors above unit spectral norm are rescaled.

    Rescaling only changes outcome probabilities; the applied divisor is
    recorded on each factor's ``scale``.  A sparse factor matrix needs an
    explicit ``dim`` on its entry; dense ones carry their own shape.
    """
    factors_doc = _require(doc, "factors", "operator")
    if not isinstance(factors_doc, list) or not factors_doc:
        raise SchemaError("operator: 'factors' must be a nonempty list")
    factors = []
    for i, entry in enumerate(factors_doc):
        where = f"operator: factor {i}"
        party = str(_require(entry, "party", where))
        mat_doc = _require(entry, "matrix", where)
        if isinstance(mat_doc, list):
            if "dim" not in entry:
                raise SchemaError(f"{where}: sparse factors need an explicit 'dim'")
            d = _integer(entry["dim"], f"{where}: dim")
            mat = matrix_from_doc(mat_doc, d, d, where)
        else:
            mat = square_matrix_from_doc(mat_doc, where)
        factors.append(LocalFactor.from_matrix(party, mat))
    return ProductOperator(tuple(factors))


# ---------------------------------------------------------------------------
# Subspaces and bases
# ---------------------------------------------------------------------------


def save_subspace(subspace: LocalSubspace) -> dict:
    return {
        "parties": [
            {"label": label, "vectors": [vector_to_doc(v[:, j]) for j in range(v.shape[1])]}
            for label, v in subspace.parties
        ]
    }


def load_subspace(doc) -> LocalSubspace:
    parties_doc = _require(doc, "parties", "subspace")
    if not isinstance(parties_doc, list) or not parties_doc:
        raise SchemaError("subspace: 'parties' must be a nonempty list")
    parties = []
    for i, entry in enumerate(parties_doc):
        where = f"subspace: party {i}"
        label = str(_require(entry, "label", where))
        vecs_doc = _require(entry, "vectors", where)
        if not isinstance(vecs_doc, list) or not vecs_doc:
            raise SchemaError(f"{where}: 'vectors' must be a nonempty list")
        parties.append((label, _party_vectors(vecs_doc, where)))
    return LocalSubspace(tuple(parties))


def _party_vectors(vecs_doc: list, where: str) -> np.ndarray:
    """A subspace party's vector documents as the columns of one matrix.

    The ``re`` rows of all vectors take one conversion and their ``im``
    rows another.  Documents that do not give two equal ``(vectors,
    length)`` arrays that way, with ``length >= 1``, are read vector by
    vector, which names the first fault, or fills a missing ``im`` with
    zeros.  Both ways convert each entry as :func:`_reals` does.
    """
    try:
        re = np.asarray([v["re"] for v in vecs_doc], dtype=float)
        im = np.asarray([v["im"] for v in vecs_doc], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError):
        re = im = None
    if re is not None and re.ndim == 2 and re.shape[1] > 0 and im.shape == re.shape:
        return (re + 1j * im).T
    first_re = _convert(_reals, _require(vecs_doc[0], "re", where), f"{where}: re")
    length = first_re.shape[0] if first_re.ndim == 1 else 0
    if length == 0:
        raise SchemaError(f"{where}: vectors must be nonempty 1-D")
    return np.column_stack([vector_from_doc(v, length, f"{where} vector {j}") for j, v in enumerate(vecs_doc)])


def load_bases(doc, shape: SystemShape) -> dict[str, np.ndarray]:
    """Parse per-party bases (subspace schema with one full basis per party)."""
    subspace = load_subspace(doc)
    bases = {}
    for label, v in subspace.parties:
        if label not in shape.labels:
            raise SchemaError(f"bases: unknown party {label!r}")
        d = shape.party(label).dim
        if v.shape != (d, d):
            raise SchemaError(
                f"bases: party {label!r} needs a full {d}-vector basis, got {v.shape[1]} vectors"
            )
        bases[label] = v
    return bases


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


def _resolve_ref(value, base_dir: str, loader: Callable, context: str):
    """A step field may be an inline document or a path to one.  An error
    inside it names the step, and the path of a referenced file."""
    where = context
    if isinstance(value, str):
        path = value if os.path.isabs(value) else os.path.join(base_dir, value)
        where = f"{context}: file {path!r}"
        try:
            data = _read_bytes(path)
        except OSError as exc:
            raise SchemaError(f"{context}: cannot read referenced file {path!r}: {exc}") from exc
        try:
            value = _decoded(data)
        except _NOT_JSON as exc:
            raise SchemaError(f"{context}: referenced file {path!r} is not valid JSON") from exc
    try:
        return loader(value)
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    except InvariantViolation as exc:
        raise InvariantViolation(exc.invariant, f"{where}: {exc}") from exc


def _step_from_doc(doc, base_dir: str, context: str) -> ProtocolStep:
    kind = str(_require(doc, "kind", context))
    if kind == "project":
        sub = _resolve_ref(_require(doc, "subspace", context), base_dir, load_subspace, context)
        return Project(sub)
    if kind == "filter":
        op = _resolve_ref(_require(doc, "operator", context), base_dir, load_operator, context)
        return Filter(op)
    if kind == "local_unitary":
        gates_doc = _require(doc, "gates", context)
        if not isinstance(gates_doc, Mapping) or not gates_doc:
            raise SchemaError(f"{context}: 'gates' must be a nonempty object")
        gates = {}
        for label, mat_doc in gates_doc.items():
            gates[str(label)] = square_matrix_from_doc(mat_doc, f"{context}: gate {label!r}")
        return LocalUnitary(gates)
    if kind == "measure_and_discard":
        party = str(_require(doc, "party", context))
        subsystem = _integer(_require(doc, "subsystem", context), f"{context}: subsystem")
        basis = None
        if doc.get("basis") is not None:
            basis = square_matrix_from_doc(doc["basis"], f"{context}: basis")
        return MeasureAndDiscard(party, subsystem, basis)
    if kind == "conditional":
        inner = _step_from_doc(_require(doc, "step", context), base_dir, f"{context}: step")
        if "parity" in doc:
            parity = str(doc["parity"])
            if parity not in ("odd", "even"):
                raise SchemaError(f"{context}: parity must be 'odd' or 'even', got {parity!r}")
            positions = doc.get("outcomes")
            if positions is not None:
                positions = list(_integers(positions, f"{context}: 'outcomes'"))
                if any(i < 0 for i in positions):
                    raise SchemaError(f"{context}: 'outcomes' must list positions >= 0, got {positions!r}")
            want = 1 if parity == "odd" else 0

            def predicate(outcomes: tuple[int, ...], _pos=positions, _want=want) -> bool:
                if _pos and max(_pos) >= len(outcomes):
                    raise InvariantViolation(
                        "outcomes", f"outcome position {max(_pos)} is out of range for {outcomes}"
                    )
                values = outcomes if _pos is None else tuple(outcomes[i] for i in _pos)
                return sum(values) % 2 == _want

            label = f"parity {parity}" + ("" if positions is None else f" of outcomes {positions}")
            return Conditional(predicate, inner, description=label)
        if "equals" in doc:
            expected = _integers(doc["equals"], f"{context}: equals")

            def predicate(outcomes: tuple[int, ...], _want=expected) -> bool:
                return outcomes[: len(_want)] == _want

            return Conditional(predicate, inner, description=f"outcomes start with {expected}")
        raise SchemaError(f"{context}: conditional needs 'parity' or 'equals'")
    raise SchemaError(f"{context}: unknown step kind {kind!r}")


def load_protocol(doc, base_dir: str = ".") -> list[ProtocolStep]:
    steps_doc = _require(doc, "steps", "protocol")
    if not isinstance(steps_doc, list) or not steps_doc:
        raise SchemaError("protocol: 'steps' must be a nonempty list")
    return [_step_from_doc(s, base_dir, f"protocol: step {i}") for i, s in enumerate(steps_doc)]


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


#: What :func:`_decoded` raises for bytes that are no JSON document: a
#: syntax error, bytes that are not UTF-8, or nesting deeper than the
#: decoder's recursion limit.
_NOT_JSON = (json.JSONDecodeError, UnicodeDecodeError, RecursionError)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decoded(data: bytes):
    """The JSON document of a file's bytes, read as a UTF-8 text file is
    read: strictly decoded, with CRLF and CR line ends as LF."""
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text)


def _read(path: str) -> tuple[Any, bytes]:
    """The JSON document of the file at ``path`` and the bytes it came from."""
    try:
        data = _read_bytes(path)
    except OSError as exc:
        raise SchemaError(f"cannot read {path!r}: {exc}") from exc
    try:
        return _decoded(data), data
    except _NOT_JSON as exc:
        raise SchemaError(f"{path!r} is not valid JSON: {exc}") from exc


def read_json(path: str):
    """The JSON document of the file at ``path``.  A file that cannot be
    read, or holds no JSON document, raises
    :class:`~dsskit.errors.SchemaError`."""
    return _read(path)[0]


def read_document(path: str) -> tuple[Any, str]:
    """:func:`read_json` and the SHA-256 hex digest of the file's bytes,
    both from one read."""
    doc, data = _read(path)
    return doc, hashlib.sha256(data).hexdigest()


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_state(path: str, tol: Tolerance = DEFAULT_TOLERANCE) -> DensityMatrix:
    return load_state(read_json(path), tol)


def write_state(path: str, rho: DensityMatrix) -> None:
    write_json(path, save_state(rho))


def read_subspace(path: str) -> LocalSubspace:
    return load_subspace(read_json(path))


def write_subspace(path: str, subspace: LocalSubspace) -> None:
    write_json(path, save_subspace(subspace))


def read_operator(path: str) -> ProductOperator:
    return load_operator(read_json(path))


def write_operator(path: str, op: ProductOperator) -> None:
    write_json(path, save_operator(op))


def read_protocol(path: str) -> list[ProtocolStep]:
    return load_protocol(read_json(path), base_dir=protocol_dir(path))


def protocol_dir(path: str) -> str:
    """The directory a protocol file's referenced files are relative to."""
    return os.path.dirname(os.path.abspath(path))
