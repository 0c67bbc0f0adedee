import hashlib
import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqmm import cli
from hqmm.classical import HmmModel
from hqmm.cluster import MeasurementBasis
from hqmm.modelfile import (
    BUNDLED_MODELS,
    KINDS,
    ModelFileError,
    format_word,
    load_bundled,
    parse_model,
    parse_word,
    serialize_model,
)
from hqmm.mps import MpsModel, cluster_mps, mps_to_hqmm
from hqmm.quantum import HqmmModel, VnModel

from conftest import random_density, random_hmm, random_mps, random_unitary


def test_bundled_even_process_matches_transition_matrices(even):
    assert even.alphabet == ("0", "1")
    assert np.array_equal(even.transitions["0"], [[0.5, 0.0], [0.0, 0.0]])
    assert np.array_equal(even.transitions["1"], [[0.0, 1.0], [0.5, 0.0]])
    assert even.prior is None


def test_bundled_four_state_matrices(four_state):
    assert four_state.alphabet == ("0", "1", "2", "3")
    assert np.array_equal(
        four_state.transitions["0"][0], [0.5, 0.0, 0.25, 0.25]
    )
    assert np.array_equal(four_state.prior, [0.25, 0.25, 0.25, 0.25])


def test_bundled_vn_structure(even_vn):
    assert isinstance(even_vn, VnModel)
    assert even_vn.dim == 3
    s = 1 / math.sqrt(2)
    assert np.allclose(even_vn.unitary[0], [s, 0, -s])


def test_bundled_models_parse_and_roundtrip():
    for name in BUNDLED_MODELS:
        model = load_bundled(name)
        again = parse_model(serialize_model(model))
        assert type(again) is type(model)
        assert again.alphabet == model.alphabet
        if isinstance(model, HmmModel):
            for s in model.alphabet:
                assert np.array_equal(again.transitions[s], model.transitions[s])
        elif isinstance(model, HqmmModel):
            for s in model.alphabet:
                for a, b in zip(again.operations[s], model.operations[s]):
                    assert np.array_equal(a, b)
            if model.initial is not None:
                assert np.array_equal(again.initial, model.initial)
        elif isinstance(model, VnModel):
            assert np.array_equal(again.unitary, model.unitary)
        elif isinstance(model, MpsModel):
            for a, b in zip(again.tensors, model.tensors):
                assert np.array_equal(a, b)


def test_load_bundled_unknown_name():
    with pytest.raises(ValueError, match="unknown bundled model"):
        load_bundled("nope")


def test_parse_rejects_bad_column_sum():
    doc = {
        "kind": "hmm",
        "alphabet": ["0", "1"],
        "dimension": 2,
        "transitions": {
            "0": [[1.0, 0.0], [0.5, 0.0]],
            "1": [[0.0, 0.5], [0.0, 0.5]],
        },
    }
    with pytest.raises(ModelFileError, match="column 0"):
        parse_model(json.dumps(doc))


def test_parse_rejects_unknown_kind():
    with pytest.raises(ModelFileError, match="unknown kind"):
        parse_model('{"kind": "markov", "alphabet": ["0"]}')


def test_parse_syntax_error_reports_position():
    with pytest.raises(ModelFileError, match="line 2"):
        parse_model('{"kind": "hmm",\n "alphabet": }')


def test_parse_deeply_nested_document():
    with pytest.raises(ModelFileError, match="nested too deeply"):
        parse_model("[" * 200_000 + "]" * 200_000)


def test_parse_missing_field():
    with pytest.raises(ModelFileError, match="transitions"):
        parse_model('{"kind": "hmm", "alphabet": ["0"], "dimension": 1}')


def test_parse_rejects_complex_hmm_entry():
    doc = {
        "kind": "hmm",
        "alphabet": ["0"],
        "dimension": 1,
        "transitions": {"0": [[[1.0, 0.5]]]},
    }
    with pytest.raises(ModelFileError, match="real"):
        parse_model(json.dumps(doc))


def test_parse_rejects_complex_prior_entry():
    """Its imaginary part was dropped, so the prior read as [1.0]."""
    doc = {
        "kind": "hmm",
        "alphabet": ["0"],
        "dimension": 1,
        "transitions": {"0": [[1.0]]},
        "prior": [[1.0, 0.5]],
    }
    with pytest.raises(ModelFileError, match=r"^prior: entries must be real$"):
        parse_model(json.dumps(doc))


def test_parse_field_path_in_matrix_error():
    doc = {
        "kind": "hmm",
        "alphabet": ["0"],
        "dimension": 1,
        "transitions": {"0": [["x"]]},
    }
    with pytest.raises(ModelFileError, match=r'transitions\["0"\]\[0\]\[0\]'):
        parse_model(json.dumps(doc))


def test_parse_complex_pairs():
    doc = {
        "kind": "hqmm",
        "alphabet": ["a"],
        "dimension": 1,
        "operations": {"a": [[[[0.6, 0.8]]]]},
    }
    model = parse_model(json.dumps(doc))
    assert model.operations["a"][0][0, 0] == complex(0.6, 0.8)


def test_parse_validation_failure_propagates():
    doc = {
        "kind": "hqmm",
        "alphabet": ["a", "b"],
        "dimension": 1,
        "operations": {"a": [[[1.0]]], "b": [[[1.0]]]},
    }
    with pytest.raises(ModelFileError, match="completeness"):
        parse_model(json.dumps(doc))
    # same document parses when validation is off
    model = parse_model(json.dumps(doc), validate=False)
    assert isinstance(model, HqmmModel)


def test_parse_word_single_char():
    assert parse_word("010", ("0", "1")) == ("0", "1", "0")
    assert parse_word("", ("0", "1")) == ()


def test_parse_word_multichar_alphabet():
    alphabet = ("up", "down")
    assert parse_word("up,down,up", alphabet) == ("up", "down", "up")
    assert format_word(("up", "down"), alphabet) == "up,down"


def test_parse_word_unknown_symbol():
    with pytest.raises(ValueError, match="unknown symbol"):
        parse_word("012", ("0", "1"))


def test_format_word_single_char():
    assert format_word(("0", "1", "1"), ("0", "1")) == "011"


def test_serialize_rejects_unknown_type():
    with pytest.raises(TypeError):
        serialize_model(42)


def test_roundtrip_with_prior_and_metadata():
    m = HmmModel(
        alphabet=("0", "1"),
        transitions={"0": np.array([[0.25]]), "1": np.array([[0.75]])},
        prior=np.array([1.0]),
        metadata={"name": "coin"},
    )
    again = parse_model(serialize_model(m))
    assert np.array_equal(again.prior, m.prior)
    assert again.metadata == {"name": "coin"}


def _integer_field_docs():
    """Valid documents keyed by test id: a field name, with a ``kind:``
    prefix where the field's default document is of another kind."""
    hmm = {
        "kind": "hmm",
        "alphabet": ["0"],
        "dimension": 1,
        "transitions": {"0": [[1.0]]},
    }
    hqmm = {
        "kind": "hqmm",
        "alphabet": ["0"],
        "dimension": 1,
        "operations": {"0": [[[1.0]]]},
    }
    vn = {
        "kind": "vn",
        "alphabet": ["0"],
        "dimension": 1,
        "projectors": {"0": [[1.0]]},
        "unitary": [[1.0]],
    }
    mps = {
        "kind": "mps",
        "alphabet": ["0", "1"],
        "bond_dimension": 1,
        "physical_dimension": 2,
        "tensors": [[[1.0]], [[0.0]]],
        "projectors": {"0": [[1.0, 0.0], [0.0, 0.0]], "1": [[0.0, 0.0], [0.0, 1.0]]},
    }
    return {
        "dimension": hqmm,
        "bond_dimension": mps,
        "physical_dimension": mps,
        "hmm:dimension": hmm,
        "vn:dimension": vn,
    }


@pytest.mark.parametrize(
    "field",
    ["dimension", "bond_dimension", "physical_dimension", "hmm:dimension", "vn:dimension"],
)
@pytest.mark.parametrize("value", [2.7, 1.0, True, "1", 0])
def test_parse_rejects_non_integer_dimension(field, value):
    doc = dict(_integer_field_docs()[field])
    parse_model(json.dumps(doc))  # the unmodified document is valid
    key = field.split(":")[-1]
    doc[key] = value
    with pytest.raises(ModelFileError, match=f"^{key}: expected a positive integer"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("kind", ["hmm", "vn"])
def test_parse_rejects_dimension_mismatch(kind):
    doc = dict(_integer_field_docs()[f"{kind}:dimension"], dimension=5)
    with pytest.raises(ModelFileError, match=r"^dimension: 5 does not match the 1 x 1 matrices"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize(
    "doc_id, field",
    [
        ("hmm:dimension", "transitions"),
        ("dimension", "operations"),
        ("vn:dimension", "projectors"),
        ("bond_dimension", "projectors"),
    ],
    ids=["hmm", "hqmm", "vn", "mps"],
)
def test_symbol_keyed_fields_share_their_messages(doc_id, field):
    """Every symbol-keyed field refuses a value that is not an object, or
    whose keys are not the alphabet, in the same words; an hqmm
    ``operations`` object used to get a message of its own."""
    doc = _integer_field_docs()[doc_id]
    parse_model(json.dumps(doc))  # the unmodified document is valid
    keyed, alphabet = doc[field], doc["alphabet"]
    cases = [
        (list(keyed.values()), "expected an object keyed by symbol"),
        ({}, f"keys [] do not match the alphabet {alphabet}"),
        ({**keyed, "x": []}, f"keys {[*alphabet, 'x']} do not match the alphabet {alphabet}"),
    ]
    for value, message in cases:
        with pytest.raises(ModelFileError, match=f"^{re.escape(f'{field}: {message}')}$"):
            parse_model(json.dumps(dict(doc, **{field: value})))


def test_operations_missing_a_symbol_are_named_like_other_fields():
    doc = {"kind": "hqmm", "alphabet": ["0", "1"], "dimension": 1, "operations": {"0": [[[1.0]]]}}
    message = "operations: keys ['0'] do not match the alphabet ['0', '1']"
    with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "top-level value must be an object"),
        ('"hmm"', "top-level value must be an object"),
        (
            '{"kind": "hmm", "alphabet": ["0"], "dimension": 1, "transitions": {"0": [[1%s]]}}'
            % ("0" * 400),
            'transitions["0"][0][0]: integer too large for a floating-point number',
        ),
    ],
    ids=["array", "string", "huge-integer"],
)
def test_parse_names_a_non_object_document_and_a_huge_integer(text, message):
    with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
        parse_model(text)


_PROJECTORS = {"0": [[1.0, 0.0], [0.0, 0.0]], "1": [[0.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"kind": "hqmm", "dimension": 1, "operations": {"0": [[[math.nan]]], "1": [[[1.0]]]}},
            "Kraus operator for '0' contains non-finite entries",
        ),
        (
            {"kind": "hqmm", "dimension": 1, "operations": {"0": [[[math.inf]]], "1": [[[1.0]]]}},
            "Kraus operator for '0' contains non-finite entries",
        ),
        (
            {
                "kind": "hqmm",
                "dimension": 1,
                "operations": {"0": [[[0.6]]], "1": [[[0.8]]]},
                "initial": [[math.nan]],
            },
            "initial state contains non-finite entries",
        ),
        (
            {
                "kind": "vn",
                "dimension": 2,
                "projectors": _PROJECTORS,
                "unitary": [[math.nan, 0.0], [0.0, 1.0]],
            },
            "unitary contains non-finite entries",
        ),
        (
            {
                "kind": "hmm",
                "dimension": 1,
                "transitions": {"0": [[0.5]], "1": [[0.5]]},
                "prior": [],
            },
            "prior: expected a non-empty array",
        ),
    ],
    ids=["kraus-nan", "kraus-infinity", "initial-nan", "unitary-nan", "prior-empty"],
)
def test_parse_names_non_finite_entries_and_an_empty_prior(doc, message):
    text = json.dumps(dict(doc, alphabet=["0", "1"]))
    with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
        parse_model(text)


def _generated_model(kind, seed, d, k, with_initial, metadata):
    """A valid model of ``kind`` with ``d`` states (or bond dimension) and
    ``k`` symbols (or physical levels), drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    initial = random_density(rng, d) if with_initial else None
    if kind == "hmm":
        return replace(random_hmm(rng, d, k, with_prior=with_initial), metadata=metadata)
    if kind == "vn":
        basis = random_unitary(rng, d)
        alphabet = tuple(str(i) for i in range(d))
        projectors = {s: np.outer(basis[:, i], basis[:, i].conj()) for i, s in enumerate(alphabet)}
        return VnModel(alphabet, projectors, random_unitary(rng, d), initial, metadata)
    m = replace(random_mps(rng, d, k), initial=initial, metadata=metadata)
    return m if kind == "mps" else replace(mps_to_hqmm(m), metadata=metadata)


def _model_arrays(m) -> list[np.ndarray]:
    if isinstance(m, HmmModel):
        arrays = [m.transitions[s] for s in m.alphabet] + [m.prior]
    elif isinstance(m, HqmmModel):
        arrays = [k for s in m.alphabet for k in m.operations[s]] + [m.initial]
    elif isinstance(m, VnModel):
        arrays = [m.projectors[s] for s in m.alphabet] + [m.unitary, m.initial]
    else:
        arrays = list(m.tensors) + [m.projectors[s] for s in m.alphabet] + [m.initial]
    return [a for a in arrays if a is not None]


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["hmm", "hqmm", "vn", "mps"]),
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    k=st.integers(1, 3),
    with_initial=st.booleans(),
    metadata=st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4), max_size=3),
)
def test_generated_models_roundtrip_exactly(kind, seed, d, k, with_initial, metadata):
    model = _generated_model(kind, seed, d, k, with_initial, metadata)
    again = parse_model(serialize_model(model))
    assert type(again) is type(model)
    assert again.alphabet == model.alphabet
    assert again.metadata == model.metadata
    before, after = _model_arrays(model), _model_arrays(again)
    assert len(after) == len(before)
    for a, b in zip(before, after):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


# any value json.loads gives, NaN and the infinities included
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=10,
)
MODEL_FIELDS = (
    "alphabet",
    "dimension",
    "transitions",
    "prior",
    "operations",
    "initial",
    "projectors",
    "unitary",
    "bond_dimension",
    "physical_dimension",
    "tensors",
    "metadata",
)
BUNDLED_DOCS = {name: json.loads(serialize_model(load_bundled(name))) for name in BUNDLED_MODELS}
_NUMBERS = st.integers(-1, 2) | st.floats()
_ENTRIES = _NUMBERS | st.lists(_NUMBERS, min_size=2, max_size=2)
_MATRICES = st.lists(st.lists(_ENTRIES, min_size=1, max_size=2), min_size=1, max_size=2)


def _shaped_fields(alphabet) -> dict:
    """Per field, trees of the shape the field asks for, so that a document
    gets past the shape checks to the model's own."""
    keyed = st.fixed_dictionaries({s: _MATRICES | st.lists(_MATRICES, max_size=2) for s in alphabet})
    sizes = st.integers(1, 2)
    return {
        "alphabet": st.just(list(alphabet)),
        "dimension": sizes,
        "transitions": keyed,
        "prior": st.lists(_ENTRIES, min_size=1, max_size=2),
        "operations": keyed,
        "initial": _MATRICES,
        "projectors": keyed,
        "unitary": _MATRICES,
        "bond_dimension": sizes,
        "physical_dimension": sizes,
        "tensors": st.lists(_MATRICES, max_size=2),
        "metadata": st.dictionaries(st.text(max_size=3), JSON_TREES, max_size=2),
    }


@st.composite
def _generated_documents(draw):
    """A document of any kind with any subset of the known fields, each a
    generated JSON tree, of the field's shape or of any other."""
    alphabet = draw(st.lists(st.text(min_size=1, max_size=2), min_size=1, max_size=3, unique=True))
    shaped = _shaped_fields(alphabet)
    doc = {"kind": draw(st.sampled_from(sorted(KINDS)))}
    for field in MODEL_FIELDS:
        # the field's shape three times as often as any other tree or none
        choice = draw(st.sampled_from(["shaped", "shaped", "shaped", "any", "absent"]))
        if choice != "absent":
            doc[field] = draw(shaped[field] if choice == "shaped" else JSON_TREES)
    return doc


def _assert_refused_or_roundtrips(doc):
    """``doc`` is refused with a ``ModelFileError``, or its model's text
    parses back to the same text."""
    try:
        model = parse_model(json.dumps(doc))
    except ModelFileError:
        return
    text = serialize_model(model)
    assert serialize_model(parse_model(text)) == text


@settings(max_examples=120)
@given(doc=_generated_documents())
@example(doc={"kind": "hmm", "alphabet": ["0"], "dimension": 1, "transitions": {"0": [[1]]}})
def test_generated_documents_are_refused_or_roundtrip(doc):
    _assert_refused_or_roundtrips(doc)


@pytest.mark.parametrize(
    "alphabet, symbol, separator",
    [(["a,b", "c"], "a,b", ","), ([",", "a"], ",", ","), (["x;y", "z"], "x;y", ";")],
)
def test_parse_refuses_a_symbol_holding_a_separator(alphabet, symbol, separator):
    """The command line separates symbols with "," and words with ";", so a
    symbol holding either could not be written there."""
    doc = {"kind": "hmm", "alphabet": alphabet, "dimension": 1}
    doc["transitions"] = {s: [[1.0 if s == alphabet[0] else 0.0]] for s in alphabet}
    message = f"alphabet: symbol {symbol!r} contains {separator!r}, a command-line separator"
    with pytest.raises(ModelFileError) as info:
        parse_model(json.dumps(doc))
    assert str(info.value) == message


# symbols drawn often from the separators and otherwise from any text
_SYMBOLS = st.one_of(
    st.text(st.sampled_from("ab,; é"), min_size=1, max_size=2), st.text(min_size=1, max_size=2)
)


@settings(max_examples=60)
@given(alphabet=st.lists(_SYMBOLS, min_size=1, max_size=3, unique=True))
@example(alphabet=["a,b", "c"])
@example(alphabet=["x;y", "z"])
def test_every_word_of_an_accepted_alphabet_reads_back(alphabet):
    """Every word up to length 3 over an alphabet that a model file may hold
    reads back from its command-line form, alone and in a word list."""
    doc = {"kind": "hmm", "alphabet": alphabet, "dimension": 1}
    doc["transitions"] = {s: [[1.0 if s == alphabet[0] else 0.0]] for s in alphabet}
    try:
        model = parse_model(json.dumps(doc))
    except ModelFileError:
        return
    words = [w for n in range(4) for w in itertools.product(model.alphabet, repeat=n)]
    for w in words:
        assert parse_word(format_word(w, model.alphabet), model.alphabet) == w
    listed = ";".join(format_word(w, model.alphabet) for w in words)
    assert cli._word_list(listed, model.alphabet) == words


def _nodes(tree, path=()):
    """The path of every node of a JSON tree, the root's first."""
    yield path
    if isinstance(tree, dict):
        children = tree.items()
    elif isinstance(tree, list):
        children = enumerate(tree)
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replaced(tree, path, node):
    """A copy of ``tree`` with the node at ``path`` replaced by ``node``."""
    if not path:
        return node
    key, rest = path[0], path[1:]
    if isinstance(tree, dict):
        return {**tree, key: _replaced(tree[key], rest, node)}
    return [_replaced(x, rest, node) if i == key else x for i, x in enumerate(tree)]


@st.composite
def _bundled_with_one_node_replaced(draw):
    doc = BUNDLED_DOCS[draw(st.sampled_from(BUNDLED_MODELS))]
    path = draw(st.sampled_from(list(_nodes(doc))))
    return _replaced(doc, path, draw(JSON_TREES))


@settings(max_examples=200)
@given(doc=_bundled_with_one_node_replaced())
def test_bundled_documents_with_a_generated_node_are_refused_or_roundtrip(doc):
    _assert_refused_or_roundtrips(doc)


_REPLACEMENTS = (None, "x", [], {})
# the outcome of replacing one field of a document with each of _REPLACEMENTS
# in turn: the message it is refused with, or None where it still parses
_REPLACED_FIELD_OUTCOMES = {
    ("four_state", "dimension"): (
        "dimension: expected a positive integer, got None",
        "dimension: expected a positive integer, got 'x'",
        "dimension: expected a positive integer, got []",
        "dimension: expected a positive integer, got {}",
    ),
    ("four_state", "transitions"): (
        "transitions: expected an object keyed by symbol",
        "transitions: expected an object keyed by symbol",
        "transitions: expected an object keyed by symbol",
        "transitions: keys [] do not match the alphabet ['0', '1', '2', '3']",
    ),
    ("four_state", "prior"): (
        None,
        "prior: expected a non-empty array",
        "prior: expected a non-empty array",
        "prior: expected a non-empty array",
    ),
    ("four_symbol_hqmm", "dimension"): (
        "dimension: expected a positive integer, got None",
        "dimension: expected a positive integer, got 'x'",
        "dimension: expected a positive integer, got []",
        "dimension: expected a positive integer, got {}",
    ),
    ("four_symbol_hqmm", "operations"): (
        "operations: expected an object keyed by symbol",
        "operations: expected an object keyed by symbol",
        "operations: expected an object keyed by symbol",
        "operations: keys [] do not match the alphabet ['0', '1', '2', '3']",
    ),
    ("four_symbol_hqmm", "initial"): (
        None,
        "initial: expected a non-empty array of rows",
        "initial: expected a non-empty array of rows",
        "initial: expected a non-empty array of rows",
    ),
    ("even_process_vn", "dimension"): (
        "dimension: expected a positive integer, got None",
        "dimension: expected a positive integer, got 'x'",
        "dimension: expected a positive integer, got []",
        "dimension: expected a positive integer, got {}",
    ),
    ("even_process_vn", "projectors"): (
        "projectors: expected an object keyed by symbol",
        "projectors: expected an object keyed by symbol",
        "projectors: expected an object keyed by symbol",
        "projectors: keys [] do not match the alphabet ['0', '1']",
    ),
    ("even_process_vn", "unitary"): (
        "unitary: expected a non-empty array of rows",
        "unitary: expected a non-empty array of rows",
        "unitary: expected a non-empty array of rows",
        "unitary: expected a non-empty array of rows",
    ),
    ("even_process_vn", "initial"): (
        None,
        "initial: expected a non-empty array of rows",
        "initial: expected a non-empty array of rows",
        "initial: expected a non-empty array of rows",
    ),
    ("cluster_mps", "bond_dimension"): (
        "bond_dimension: expected a positive integer, got None",
        "bond_dimension: expected a positive integer, got 'x'",
        "bond_dimension: expected a positive integer, got []",
        "bond_dimension: expected a positive integer, got {}",
    ),
    ("cluster_mps", "physical_dimension"): (
        "physical_dimension: expected a positive integer, got None",
        "physical_dimension: expected a positive integer, got 'x'",
        "physical_dimension: expected a positive integer, got []",
        "physical_dimension: expected a positive integer, got {}",
    ),
    ("cluster_mps", "tensors"): (
        "tensors: expected an array of matrices",
        "tensors: expected an array of matrices",
        "need one tensor per physical level: got 0, expected 2",
        "tensors: expected an array of matrices",
    ),
    ("cluster_mps", "projectors"): (
        "projectors: expected an object keyed by symbol",
        "projectors: expected an object keyed by symbol",
        "projectors: expected an object keyed by symbol",
        "projectors: keys [] do not match the alphabet ['0', '1']",
    ),
    ("cluster_mps", "initial"): (
        None,
        "initial: expected a non-empty array of rows",
        "initial: expected a non-empty array of rows",
        "initial: expected a non-empty array of rows",
    ),
}


@pytest.mark.parametrize("name, field", list(_REPLACED_FIELD_OUTCOMES))
def test_every_field_replaced_by_a_wrong_value_gives_its_own_message(name, field):
    """Every field of every kind, given ``null``, a string, an empty array or
    an empty object. Only the optional start state reads ``null`` as absent: a
    required field given ``null`` is read, and refused in its own words."""
    if name == "cluster_mps":
        doc = json.loads(serialize_model(cluster_mps(MeasurementBasis(phi=math.pi / 4, xi=0.0))))
    else:
        doc = BUNDLED_DOCS[name]
    for value, message in zip(_REPLACEMENTS, _REPLACED_FIELD_OUTCOMES[name, field]):
        text = json.dumps(dict(doc, **{field: value}))
        if message is None:
            parse_model(text)
        else:
            with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
                parse_model(text)


# sha256 of the documents of kinds whose bytes no bundled file pins
_SERIALIZED_DIGESTS = {
    "mps-initial": "73101ba4006134eeaced7b288e801102394596c21c500ad222d03ee340fd952e",
    "mps": "f2ec380b01d79d9f0b093ffb82c3909e3b92d686d9252ab468d95eb6c1d34264",
    "vn-initial": "d7d4d72230e429dbe2f455edd5736fa981a0a960eb64f5c11235fde1ab90c654",
}


@pytest.mark.parametrize("name", list(_SERIALIZED_DIGESTS))
def test_serialized_documents_keep_their_bytes(name):
    """An MPS readout with and without its start state, and a vn model with
    one; every entry is exact in binary, so the digests hold on any platform."""
    readout = cluster_mps(MeasurementBasis(phi=0.0, xi=0.0))
    rho = np.array([[0.5, 0.25j, 0.0], [-0.25j, 0.25, 0.0], [0.0, 0.0, 0.25]])
    model = {
        "mps-initial": readout,
        "mps": replace(readout, initial=None),
        "vn-initial": replace(load_bundled("even_process_vn"), initial=rho),
    }[name]
    text = serialize_model(model)
    assert hashlib.sha256(text.encode()).hexdigest() == _SERIALIZED_DIGESTS[name]
