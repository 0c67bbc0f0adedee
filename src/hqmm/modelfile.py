"""Model files: JSON documents describing one model of any supported kind.

Complex entries are two-element ``[re, im]`` arrays (bare numbers are read as
real); matrices are nested row-major arrays. The ``kind`` field selects the
schema: ``hmm`` (per-symbol transition matrices), ``hqmm`` (per-symbol Kraus
lists), ``vn`` (projectors plus a unitary), or ``mps`` (site tensors plus
physical-space projectors), each one row of the table ``KINDS``, which
declares its fields. Parsed models are run through their validator; failures
surface as ``ModelFileError`` with the offending field named.
"""

from __future__ import annotations

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


def _size(x, path: str) -> int:
    # bool is an int subclass, and int() would silently truncate 2.7
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        _fail(path, f"expected a positive integer, got {x!r}")
    return x


def _matrix(rows, path: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        _fail(path, "expected a non-empty array of rows")
    width = len(rows[0])
    out = np.zeros((len(rows), width), dtype=complex)
    for i, row in enumerate(rows):
        if len(row) != width:
            _fail(f"{path}[{i}]", f"row has {len(row)} entries, expected {width}")
        for j, x in enumerate(row):
            out[i, j] = _number(x, f"{path}[{i}][{j}]")
    return out


def _real_matrix(rows, path: str) -> np.ndarray:
    return _real(_matrix(rows, path), path)


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
    clash = next(((s, c) for s in raw for c in (_SYMBOL_SEP, _WORD_SEP) if c in s), None)
    if clash:
        _fail("alphabet", "symbol {!r} contains {!r}, a command-line separator".format(*clash))
    return tuple(raw)


def _matrices(raw, path: str) -> list[np.ndarray]:
    """An array of matrices, such as a Kraus list or the MPS tensors."""
    if not isinstance(raw, list):
        _fail(path, "expected an array of matrices")
    return [_matrix(m, f"{path}[{i}]") for i, m in enumerate(raw)]


def _encode_matrix(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in map(complex, row)] for row in np.asarray(m)]


def _encode_real(m: np.ndarray) -> list:
    return [[float(x.real) for x in row] for row in np.asarray(m)]


def _encode_matrices(mats) -> list:
    return [_encode_matrix(m) for m in mats]


class Field(NamedTuple):
    """One document field of a kind. ``read(value, path)`` gives the model's
    constructor argument ``keyword``, and ``encode`` writes that attribute
    back. A ``keyword`` of None marks a ``dimension`` that the model takes from
    its matrices, checked against and written from ``model.dim``. A
    ``per_symbol`` field is an object keyed by the alphabet. Only an
    ``optional`` field may be absent or ``null``, which reads as None."""

    key: str
    keyword: str | None
    read: Callable
    encode: Callable
    per_symbol: bool = False
    optional: bool = False


_DIMENSION = Field("dimension", None, _size, int)
_PROJECTORS = Field("projectors", "projectors", _matrix, _encode_matrix, per_symbol=True)
_INITIAL = Field("initial", "initial", _matrix, _encode_matrix, optional=True)


class Kind(NamedTuple):
    """One model kind, whose document fields and ``convert`` targets are each
    declared once, in its ``KINDS`` row. ``fields`` follow ``kind`` and
    ``alphabet`` in document order; ``conversions`` maps a ``convert --to``
    target to its function. ``operational`` reduces a model to one whose kind's
    ``core`` (``classical`` or ``quantum``) gives its steady state, operators
    and start vector, joined by ``analysis.linear_representation``."""

    name: str
    model: type
    fields: tuple[Field, ...]
    validate: Callable
    operational: Callable = lambda model: model
    core: ModuleType | None = None
    conversions: dict[str, Callable] = {}


KINDS = {
    kind.name: kind
    for kind in (
        Kind(
            "hmm",
            HmmModel,
            (
                _DIMENSION,
                Field("transitions", "transitions", _real_matrix, _encode_real, per_symbol=True),
                Field("prior", "prior", _vector, lambda p: [float(x) for x in p], optional=True),
            ),
            classical.validate_hmm,
            core=classical,
            conversions={
                "hqmm-embed": quantum.embed_classical,
                "hqmm-pure": quantum.pure_from_reversible,
            },
        ),
        Kind(
            "hqmm",
            HqmmModel,
            (
                Field("dimension", "dim", _size, int),
                # an empty array is the zero operation: the symbol never occurs
                Field("operations", "operations", _matrices, _encode_matrices, per_symbol=True),
                _INITIAL,
            ),
            quantum.validate_hqmm,
            core=quantum,
        ),
        Kind(
            "vn",
            VnModel,
            (
                _DIMENSION,
                _PROJECTORS,
                Field("unitary", "unitary", _matrix, _encode_matrix),
                _INITIAL,
            ),
            quantum.validate_vn,
            operational=VnModel.to_hqmm,
        ),
        Kind(
            "mps",
            MpsModel,
            (
                Field("bond_dimension", "bond_dim", _size, int),
                Field("physical_dimension", "phys_dim", _size, int),
                Field("tensors", "tensors", _matrices, _encode_matrices),
                _PROJECTORS,
                _INITIAL,
            ),
            mps.validate_mps,
            operational=mps.mps_to_hqmm,
        ),
    )
}
_KIND_OF_TYPE = {kind.model: kind for kind in KINDS.values()}


def kind_of(model) -> Kind | None:
    """The ``KINDS`` entry of ``type(model)``, or None for any other type."""
    return _KIND_OF_TYPE.get(type(model))


def _read_field(doc: dict, field: Field, alphabet):
    key = field.key
    if field.optional and doc.get(key) is None:
        return None
    raw = _get(doc, key)
    if not field.per_symbol:
        return field.read(raw, key)
    if not isinstance(raw, dict):
        _fail(key, "expected an object keyed by symbol")
    if set(raw) != set(alphabet):
        _fail(key, f"keys {sorted(raw)} do not match the alphabet {sorted(alphabet)}")
    return {s: field.read(raw[s], f'{key}["{s}"]') for s in alphabet}


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
    try:
        values = [(field, _read_field(doc, field, alphabet)) for field in kind.fields]
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            _fail("metadata", "expected an object")
        keywords = {field.keyword: value for field, value in values if field.keyword}
        model = kind.model(alphabet=alphabet, **keywords, metadata=metadata)
        for field, value in values:
            if field.keyword is None and value != model.dim:
                _fail(field.key, f"{value} does not match the {model.dim} x {model.dim} matrices")
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
    for field in kind.fields:
        value = getattr(model, field.keyword or "dim")
        if field.per_symbol:
            doc[field.key] = {s: field.encode(value[s]) for s in model.alphabet}
        elif value is not None or not field.optional:
            doc[field.key] = field.encode(value)
    if model.metadata:
        doc["metadata"] = model.metadata
    return json.dumps(doc, indent=2) + "\n"


def load_bundled(name: str):
    """Parse one of the models shipped with the package (see BUNDLED_MODELS)."""
    if name not in BUNDLED_MODELS:
        raise ValueError(f"unknown bundled model {name!r}; available: {BUNDLED_MODELS}")
    text = resources.files("hqmm").joinpath("data", f"{name}.json").read_text()
    return parse_model(text)


_SYMBOL_SEP, _WORD_SEP = ",", ";"  # separate a multi-character alphabet's symbols; words in a list


def parse_word(text: str, alphabet: Sequence[str]) -> tuple[str, ...]:
    """Word syntax used on the command line.

    Single-character alphabets read one symbol per character; alphabets with
    any multi-character symbol use comma-separated symbols. The empty string
    is the empty word.
    """
    if text == "":
        return ()
    if any(len(s) > 1 for s in alphabet) or _SYMBOL_SEP in text:
        return checked_word(text.split(_SYMBOL_SEP), alphabet)
    return checked_word(text, alphabet)


def format_word(word: Iterable[str], alphabet: Sequence[str]) -> str:
    sep = _SYMBOL_SEP if any(len(s) > 1 for s in alphabet) else ""
    return sep.join(word)
