"""Model files: JSON documents describing one model of any supported kind.

Complex entries are two-element ``[re, im]`` arrays (bare numbers are read as
real); matrices are nested row-major arrays. The ``kind`` field selects the
schema: ``hmm`` (per-symbol transition matrices), ``hqmm`` (per-symbol Kraus
lists), ``vn`` (projectors plus a unitary), or ``mps`` (site tensors plus
physical-space projectors), each one entry of the table ``KINDS``. Parsed
models are run through their validator; failures surface as
``ModelFileError`` with the offending field named.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from types import ModuleType
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import classical, mps, quantum
from .classical import HmmModel
from .linalg import checked_word
from .mps import MpsModel
from .quantum import HqmmModel, VnModel

BUNDLED_MODELS = (
    "even_process",
    "even_process_vn",
    "four_state",
    "four_symbol_hqmm",
    "cluster_phi_pi4",
    "cluster_phi_pi8",
)


class ModelFileError(ValueError):
    """Malformed or invalid model document."""


def _fail(path: str, message: str):
    raise ModelFileError(f"{path}: {message}" if path else message)


def _get(doc: dict, key: str):
    if key not in doc:
        _fail("", f"missing required field {key!r}")
    return doc[key]


def _number(x, path: str) -> complex:
    parts = x if isinstance(x, list) and len(x) == 2 else [x]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        _fail(path, f"expected a number or [re, im] pair, got {x!r}")
    try:
        return complex(*parts)
    except OverflowError:
        # json reads integers of any size; a float holds up to about 1.8e308
        _fail(path, "integer too large for a floating-point number")


def _size(doc: dict, key: str) -> int:
    x = _get(doc, key)
    # bool is an int subclass, and int() would silently truncate 2.7
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        _fail(key, f"expected a positive integer, got {x!r}")
    return x


def _matrix(rows, path: str, real_only: bool = False) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        _fail(path, "expected a non-empty array of rows")
    width = len(rows[0])
    out = np.zeros((len(rows), width), dtype=complex)
    for i, row in enumerate(rows):
        if len(row) != width:
            _fail(f"{path}[{i}]", f"row has {len(row)} entries, expected {width}")
        for j, x in enumerate(row):
            out[i, j] = _number(x, f"{path}[{i}][{j}]")
    return _real(out, path) if real_only else out


def _vector(entries, path: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        _fail(path, "expected a non-empty array")
    return _real(np.array([_number(x, f"{path}[{i}]") for i, x in enumerate(entries)]), path)


def _real(values: np.ndarray, path: str) -> np.ndarray:
    """The real parts of complex ``values``; a nonzero imaginary part, ``NaN``
    included, is refused."""
    if (values.imag != 0.0).any():
        _fail(path, "entries must be real")
    return values.real.copy()


def _alphabet(doc: dict) -> tuple[str, ...]:
    raw = _get(doc, "alphabet")
    if not isinstance(raw, list) or not raw or not all(isinstance(s, str) and s for s in raw):
        _fail("alphabet", "expected a non-empty array of non-empty strings")
    return tuple(raw)


def _matrices(raw, path: str) -> list[np.ndarray]:
    """An array of matrices, such as a Kraus list or the MPS tensors."""
    if not isinstance(raw, list):
        _fail(path, "expected an array of matrices")
    return [_matrix(m, f"{path}[{i}]") for i, m in enumerate(raw)]


def _symbol_keyed(doc, field: str, alphabet, read: Callable = _matrix) -> dict:
    """The field ``{symbol: value}``, with each value read by ``read(value, path)``."""
    raw = _get(doc, field)
    if not isinstance(raw, dict):
        _fail(field, "expected an object keyed by symbol")
    if set(raw) != set(alphabet):
        _fail(field, f"keys {sorted(raw)} do not match the alphabet {sorted(alphabet)}")
    return {s: read(raw[s], f'{field}["{s}"]') for s in alphabet}


def _encode_matrix(m: np.ndarray, real_only: bool = False):
    m = np.asarray(m)
    if real_only:
        return [[float(x.real) for x in row] for row in m]
    return [[[z.real, z.imag] for z in map(complex, row)] for row in m]


def _encode_symbol_keyed(mats: dict, alphabet, real_only: bool = False) -> dict:
    return {s: _encode_matrix(mats[s], real_only) for s in alphabet}


def _read_hmm(doc, alphabet, dim) -> dict:
    real_matrix = functools.partial(_matrix, real_only=True)
    return {"transitions": _symbol_keyed(doc, "transitions", alphabet, real_matrix)}


def _write_hmm(m: HmmModel) -> dict:
    return {"transitions": _encode_symbol_keyed(m.transitions, m.alphabet, real_only=True)}


def _read_hqmm(doc, alphabet, dim) -> dict:
    # an empty array is the zero operation: the symbol never occurs
    return {"dim": dim, "operations": _symbol_keyed(doc, "operations", alphabet, _matrices)}


def _write_hqmm(m: HqmmModel) -> dict:
    return {"operations": {s: [_encode_matrix(k) for k in m.operations[s]] for s in m.alphabet}}


def _read_vn(doc, alphabet, dim) -> dict:
    return {
        "projectors": _symbol_keyed(doc, "projectors", alphabet),
        "unitary": _matrix(_get(doc, "unitary"), "unitary"),
    }


def _write_vn(m: VnModel) -> dict:
    return {
        "projectors": _encode_symbol_keyed(m.projectors, m.alphabet),
        "unitary": _encode_matrix(m.unitary),
    }


def _read_mps(doc, alphabet, dim) -> dict:
    return {
        "bond_dim": _size(doc, "bond_dimension"),
        "phys_dim": _size(doc, "physical_dimension"),
        "tensors": _matrices(_get(doc, "tensors"), "tensors"),
        "projectors": _symbol_keyed(doc, "projectors", alphabet),
    }


def _write_mps(m: MpsModel) -> dict:
    return {
        "bond_dimension": m.bond_dim,
        "physical_dimension": m.phys_dim,
        "tensors": [_encode_matrix(v) for v in m.tensors],
        "projectors": _encode_symbol_keyed(m.projectors, m.alphabet),
    }


# the optional start state of a kind: (field, parse, encode)
_PRIOR = ("prior", _vector, lambda p: [float(x) for x in p])
_INITIAL = ("initial", _matrix, _encode_matrix)


class Kind(NamedTuple):
    """One model kind. ``read(doc, alphabet, dimension)`` gives the model's
    keywords for the kind's own fields, ``write(model)`` their encoding in
    document order. A ``sized`` kind's ``dimension`` field is checked against
    ``model.dim``. ``operational`` reduces a model to one whose kind's ``core``
    (``classical`` or ``quantum``) gives its steady state and linear representation."""

    name: str
    model: type
    read: Callable
    write: Callable
    validate: Callable
    start: tuple = _INITIAL
    sized: bool = True
    operational: Callable = lambda model: model
    core: ModuleType | None = None


KINDS = {
    kind.name: kind
    for kind in (
        Kind("hmm", HmmModel, _read_hmm, _write_hmm, classical.validate_hmm, _PRIOR, core=classical),
        Kind("hqmm", HqmmModel, _read_hqmm, _write_hqmm, quantum.validate_hqmm, core=quantum),
        Kind("vn", VnModel, _read_vn, _write_vn, quantum.validate_vn, operational=VnModel.to_hqmm),
        Kind(
            "mps",
            MpsModel,
            _read_mps,
            _write_mps,
            mps.validate_mps,
            sized=False,
            operational=mps.mps_to_hqmm,
        ),
    )
}
_KIND_OF_TYPE = {kind.model: kind for kind in KINDS.values()}


def kind_of(model) -> Kind | None:
    """The ``KINDS`` entry of ``type(model)``, or None for any other type."""
    return _KIND_OF_TYPE.get(type(model))


def parse_model(text: str, validate: bool = True):
    """Parse a document into its model; raises ``ModelFileError`` on any problem."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFileError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ModelFileError("document is nested too deeply") from None
    except ValueError:
        # the limit on the digits of an integer (4300 by default) is the
        # one other error json.loads raises
        raise ModelFileError("a number in the document has too many digits") from None
    if not isinstance(doc, dict):
        _fail("", "top-level value must be an object")
    name = _get(doc, "kind")
    kind = KINDS.get(name) if isinstance(name, str) else None
    if kind is None:
        _fail("kind", f"unknown kind {name!r}; expected one of {tuple(KINDS)}")
    alphabet = _alphabet(doc)
    field, parse_start, _ = kind.start
    try:
        dim = _size(doc, "dimension") if kind.sized else None
        fields = kind.read(doc, alphabet, dim)
        start = doc.get(field)
        fields[field] = parse_start(start, field) if start is not None else None
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            _fail("metadata", "expected an object")
        model = kind.model(alphabet=alphabet, **fields, metadata=metadata)
        if kind.sized and dim != model.dim:
            _fail("dimension", f"{dim} does not match the {model.dim} x {model.dim} matrices")
        problems = kind.validate(model) if validate else []
    except (ValueError, TypeError) as e:
        # a ModelFileError passes through with its text unchanged
        raise ModelFileError(str(e)) from None
    if problems:
        raise ModelFileError(
            "model fails validation: " + "; ".join(str(p) for p in problems)
        )
    return model


def serialize_model(model) -> str:
    """Inverse of ``parse_model``; numeric entries round-trip exactly."""
    kind = kind_of(model)
    if kind is None:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc = {"kind": kind.name, "alphabet": list(model.alphabet)}
    if kind.sized:
        doc["dimension"] = model.dim
    doc.update(kind.write(model))
    field, _, encode = kind.start
    if getattr(model, field) is not None:
        doc[field] = encode(getattr(model, field))
    if model.metadata:
        doc["metadata"] = model.metadata
    return json.dumps(doc, indent=2) + "\n"


def load_bundled(name: str):
    """Parse one of the models shipped with the package (see BUNDLED_MODELS)."""
    if name not in BUNDLED_MODELS:
        raise ValueError(f"unknown bundled model {name!r}; available: {BUNDLED_MODELS}")
    text = resources.files("hqmm").joinpath("data", f"{name}.json").read_text()
    return parse_model(text)


def parse_word(text: str, alphabet: Sequence[str]) -> tuple[str, ...]:
    """Word syntax used on the command line.

    Single-character alphabets read one symbol per character; alphabets with
    any multi-character symbol use comma-separated symbols. The empty string
    is the empty word.
    """
    if text == "":
        return ()
    if any(len(s) > 1 for s in alphabet) or "," in text:
        return checked_word(text.split(","), alphabet)
    return checked_word(text, alphabet)


def format_word(word: Iterable[str], alphabet: Sequence[str]) -> str:
    sep = "," if any(len(s) > 1 for s in alphabet) else ""
    return sep.join(word)
