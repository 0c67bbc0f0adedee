"""Model files: JSON documents describing one model of any supported kind.

Complex entries are two-element ``[re, im]`` arrays (bare numbers are read as
real); matrices are nested row-major arrays. The ``kind`` field selects the
schema: ``hmm`` (per-symbol transition matrices), ``hqmm`` (per-symbol Kraus
lists), ``vn`` (projectors plus a unitary), or ``mps`` (site tensors plus
physical-space projectors). Parsed models are run through their validator;
failures surface as ``ModelFileError`` with the offending field named.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from . import classical, mps, quantum
from .classical import HmmModel
from .mps import MpsModel
from .quantum import HqmmModel, VnModel

KINDS = ("hmm", "hqmm", "vn", "mps")

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


def _get(doc: dict, key: str, path: str, required: bool = True):
    if key not in doc:
        if required:
            _fail(path, f"missing required field {key!r}")
        return None
    return doc[key]


def _number(x, path: str) -> complex:
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return complex(x)
    if (
        isinstance(x, list)
        and len(x) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x)
    ):
        return complex(x[0], x[1])
    _fail(path, f"expected a number or [re, im] pair, got {x!r}")


def _integer(x, path: str) -> int:
    # bool is an int subclass, and int() would silently truncate 2.7
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        _fail(path, f"expected a positive integer, got {x!r}")
    return x


def _check_dimension(dim: int, size: int):
    if dim != size:
        _fail("dimension", f"{dim} does not match the {size} x {size} matrices")


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
    if real_only:
        if np.max(np.abs(out.imag)) > 0.0:
            _fail(path, "entries must be real")
        return out.real.copy()
    return out


def _vector(entries, path: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        _fail(path, "expected a non-empty array")
    return np.array([_number(x, f"{path}[{i}]").real for i, x in enumerate(entries)])


def _alphabet(doc: dict) -> tuple[str, ...]:
    raw = _get(doc, "alphabet", "")
    if not isinstance(raw, list) or not raw or not all(isinstance(s, str) and s for s in raw):
        _fail("alphabet", "expected a non-empty array of non-empty strings")
    return tuple(raw)


def _symbol_matrices(doc, field: str, alphabet, real_only=False) -> dict[str, np.ndarray]:
    raw = _get(doc, field, "")
    if not isinstance(raw, dict):
        _fail(field, "expected an object keyed by symbol")
    if set(raw) != set(alphabet):
        _fail(field, f"keys {sorted(raw)} do not match the alphabet {sorted(alphabet)}")
    return {s: _matrix(raw[s], f'{field}["{s}"]', real_only) for s in alphabet}


def _metadata(doc) -> dict:
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        _fail("metadata", "expected an object")
    return meta


def parse_model(text: str, validate: bool = True):
    """Parse a document into its model; raises ``ModelFileError`` on any problem."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFileError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ModelFileError("document is nested too deeply") from None
    if not isinstance(doc, dict):
        _fail("", "top-level value must be an object")
    kind = _get(doc, "kind", "")
    if kind not in KINDS:
        _fail("kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    alphabet = _alphabet(doc)
    try:
        if kind == "hmm":
            dim = _integer(_get(doc, "dimension", ""), "dimension")
            model = HmmModel(
                alphabet=alphabet,
                transitions=_symbol_matrices(doc, "transitions", alphabet, real_only=True),
                prior=(
                    _vector(doc["prior"], "prior") if doc.get("prior") is not None else None
                ),
                metadata=_metadata(doc),
            )
            _check_dimension(dim, model.n_states)
            problems = classical.validate_hmm(model) if validate else []
        elif kind == "hqmm":
            dim = _integer(_get(doc, "dimension", ""), "dimension")
            raw_ops = _get(doc, "operations", "")
            if not isinstance(raw_ops, dict) or set(raw_ops) != set(alphabet):
                _fail("operations", "expected an object keyed by every alphabet symbol")
            operations = {}
            for s in alphabet:
                ks = raw_ops[s]
                if not isinstance(ks, list):
                    _fail(f'operations["{s}"]', "expected an array of matrices")
                # an empty array is the zero operation: the symbol never occurs
                operations[s] = [
                    _matrix(k, f'operations["{s}"][{i}]') for i, k in enumerate(ks)
                ]
            model = HqmmModel(
                alphabet=alphabet,
                dim=dim,
                operations=operations,
                initial=(
                    _matrix(doc["initial"], "initial")
                    if doc.get("initial") is not None
                    else None
                ),
                metadata=_metadata(doc),
            )
            problems = quantum.validate_hqmm(model) if validate else []
        elif kind == "vn":
            dim = _integer(_get(doc, "dimension", ""), "dimension")
            model = VnModel(
                alphabet=alphabet,
                projectors=_symbol_matrices(doc, "projectors", alphabet),
                unitary=_matrix(_get(doc, "unitary", ""), "unitary"),
                initial=(
                    _matrix(doc["initial"], "initial")
                    if doc.get("initial") is not None
                    else None
                ),
                metadata=_metadata(doc),
            )
            _check_dimension(dim, model.dim)
            problems = quantum.validate_vn(model) if validate else []
        else:
            bond = _integer(_get(doc, "bond_dimension", ""), "bond_dimension")
            phys = _integer(_get(doc, "physical_dimension", ""), "physical_dimension")
            raw_tensors = _get(doc, "tensors", "")
            if not isinstance(raw_tensors, list):
                _fail("tensors", "expected an array of matrices")
            model = MpsModel(
                alphabet=alphabet,
                bond_dim=bond,
                phys_dim=phys,
                tensors=tuple(
                    _matrix(t, f"tensors[{i}]") for i, t in enumerate(raw_tensors)
                ),
                projectors=_symbol_matrices(doc, "projectors", alphabet),
                initial=(
                    _matrix(doc["initial"], "initial")
                    if doc.get("initial") is not None
                    else None
                ),
                metadata=_metadata(doc),
            )
            problems = mps.validate_mps(model) if validate else []
    except ModelFileError:
        raise
    except (ValueError, TypeError) as e:
        raise ModelFileError(str(e)) from None
    if problems:
        raise ModelFileError(
            "model fails validation: " + "; ".join(str(p) for p in problems)
        )
    return model


def _encode_complex(x: complex):
    return [x.real, x.imag]


def _encode_matrix(m: np.ndarray, real_only: bool = False):
    m = np.asarray(m)
    if real_only:
        return [[float(x.real) for x in row] for row in m]
    return [[_encode_complex(complex(x)) for x in row] for row in m]


def serialize_model(model) -> str:
    """Inverse of ``parse_model``; numeric entries round-trip exactly."""
    if isinstance(model, HmmModel):
        doc = {
            "kind": "hmm",
            "alphabet": list(model.alphabet),
            "dimension": model.n_states,
            "transitions": {
                s: _encode_matrix(model.transitions[s], real_only=True)
                for s in model.alphabet
            },
        }
        if model.prior is not None:
            doc["prior"] = [float(x) for x in model.prior]
    elif isinstance(model, HqmmModel):
        doc = {
            "kind": "hqmm",
            "alphabet": list(model.alphabet),
            "dimension": model.dim,
            "operations": {
                s: [_encode_matrix(k) for k in model.operations[s]]
                for s in model.alphabet
            },
        }
        if model.initial is not None:
            doc["initial"] = _encode_matrix(model.initial)
    elif isinstance(model, VnModel):
        doc = {
            "kind": "vn",
            "alphabet": list(model.alphabet),
            "dimension": model.dim,
            "projectors": {
                s: _encode_matrix(model.projectors[s]) for s in model.alphabet
            },
            "unitary": _encode_matrix(model.unitary),
        }
        if model.initial is not None:
            doc["initial"] = _encode_matrix(model.initial)
    elif isinstance(model, MpsModel):
        doc = {
            "kind": "mps",
            "alphabet": list(model.alphabet),
            "bond_dimension": model.bond_dim,
            "physical_dimension": model.phys_dim,
            "tensors": [_encode_matrix(v) for v in model.tensors],
            "projectors": {
                s: _encode_matrix(model.projectors[s]) for s in model.alphabet
            },
        }
        if model.initial is not None:
            doc["initial"] = _encode_matrix(model.initial)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    if getattr(model, "metadata", None):
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
        word = tuple(part for part in text.split(","))
    else:
        word = tuple(text)
    for s in word:
        if s not in alphabet:
            raise ValueError(f"unknown symbol {s!r}; alphabet is {tuple(alphabet)}")
    return word


def format_word(word: Iterable[str], alphabet: Sequence[str]) -> str:
    sep = "," if any(len(s) > 1 for s in alphabet) else ""
    return sep.join(word)
