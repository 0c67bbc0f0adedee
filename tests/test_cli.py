import copy
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hqmm
from hqmm import classical, modelfile
from hqmm.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("models")
    out = {}
    for name in modelfile.BUNDLED_MODELS:
        p = base / f"{name}.json"
        p.write_text(modelfile.serialize_model(modelfile.load_bundled(name)))
        out[name] = str(p)
    return out


def test_wordprob_forbidden_word(paths):
    code, out, err = run(["wordprob", paths["even_process"], "010"])
    assert code == 0
    assert out.strip() == "0.000000000000"


def test_wordprob_initial_options(paths):
    code, out, _ = run(["wordprob", paths["even_process"], "0", "--initial", "1,0"])
    assert code == 0
    assert out.strip() == "0.500000000000"
    code, out, _ = run(["wordprob", paths["even_process"], "0", "--initial", "mixed"])
    assert code == 0
    assert out.strip() == "0.250000000000"


def test_wordprob_unknown_symbol_is_usage_error(paths):
    code, out, err = run(["wordprob", paths["even_process"], "012"])
    assert code == 2
    assert "unknown symbol" in err


def test_wordprob_bad_initial(paths):
    code, _, err = run(["wordprob", paths["even_process"], "0", "--initial", "1,2,3"])
    assert code == 2


def test_hankel_four_state(paths):
    code, out, _ = run(["hankel", paths["four_state"]])
    assert code == 0
    assert "rank = 3" in out
    assert "0.0625" in out


def test_hankel_custom_words(paths):
    code, out, _ = run(
        ["hankel", paths["even_process"], "--rows", ";0;1;00", "--cols", ";0;1"]
    )
    assert code == 0
    assert "rank = 2" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_hankel_rejects_meaningless_tol(paths, tol):
    code, out, err = run(["hankel", paths["four_state"], "--tol", tol])
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol: rank cutoff must be finite and nonnegative")


def test_cluster_h3_at_maximum():
    code, out, _ = run(["cluster", "--phi", "0.7853981634", "--xi", "0", "h3"])
    assert code == 0
    assert out.strip() == "3.000000000000"


def test_cluster_kraus_output():
    code, out, _ = run(["cluster", "--phi", "0.785398163397448", "--xi", "0", "kraus"])
    assert code == 0
    assert "K_0:" in out and "K_1:" in out
    assert "0.5" in out


def test_cluster_dist(paths):
    code, out, _ = run(["cluster", "--phi", "0.6", "--xi", "0.3", "dist", "-n", "2"])
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 4
    assert all(l.split()[1] == "0.250000000000" for l in lines)


def test_validate_all_bundled(paths):
    for name, path in paths.items():
        code, out, err = run(["validate", path])
        assert code == 0, (name, err)
        assert out.strip() == "ok"


def test_validate_reports_problems(tmp_path):
    doc = {
        "kind": "hmm",
        "alphabet": ["0", "1"],
        "dimension": 2,
        "transitions": {
            "0": [[1.0, 0.0], [0.5, 0.0]],
            "1": [[0.0, 0.5], [0.0, 0.5]],
        },
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(p)])
    assert code == 1
    assert "column-stochastic" in err


def test_validate_reports_non_finite_prior(tmp_path):
    # json reads the NaN literal, and every comparison with NaN is false, so
    # only a check of its own catches it
    doc = json.loads(modelfile.serialize_model(modelfile.load_bundled("even_process")))
    doc["prior"] = [math.nan, 1.0]
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(p)])
    assert (code, out) == (1, "")
    assert err == "[prior-finite] index=0: entry nan is not finite\n"
    refused = "error: model fails validation: [prior-finite] index=0: entry nan is not finite\n"
    for argv in (["dist", str(p), "-n", "1"], ["wordprob", str(p), "0", "--initial", "mixed"]):
        assert run(argv) == (1, "", refused)


def test_dimension_mismatch_is_model_error(tmp_path):
    doc = json.loads(modelfile.serialize_model(modelfile.load_bundled("even_process")))
    doc["dimension"] = 3
    p = tmp_path / "mismatch.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(["sample", str(p), "-n", "5", "--seed", "1"])
    assert (code, out) == (1, "")
    assert err == "error: dimension: 3 does not match the 2 x 2 matrices\n"


def test_missing_file_is_usage_error():
    code, _, err = run(["steady", "/nonexistent/model.json"])
    assert code == 2


def test_deeply_nested_file_is_model_error(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 200_000 + "]" * 200_000)
    for command in ("validate", "steady"):
        code, out, err = run([command, str(p)])
        assert (code, out) == (1, "")
        assert err == "error: document is nested too deeply\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "{even_process}", "--to", "hqmm-embed", "-o", "{bad}"],
        ["dist", "{even_process}", "-n", "2", "--csv", "{bad}"],
        ["cluster", "--phi", "0.4", "--xi", "1.1", "dist", "-n", "2", "--csv", "{bad}"],
        ["scan-entropy", "--phi-steps", "2", "--xi-steps", "2", "-o", "{bad}"],
    ],
)
def test_unwritable_output_is_usage_error(paths, tmp_path, argv):
    bad = str(tmp_path / "missing" / "out.txt")
    code, out, err = run([a.format(bad=bad, **paths) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {bad}: ")


def test_usage_error_on_missing_subcommand():
    code, _, _ = run([])
    assert code == 2


def test_steady_even(paths):
    code, out, _ = run(["steady", paths["even_process"]])
    assert code == 0
    assert "unique" in out
    assert "0.666666666667" in out and "0.333333333333" in out


def test_steady_cluster(paths):
    code, out, _ = run(["steady", paths["cluster_phi_pi8"]])
    assert code == 0
    assert "0.5" in out


STEADY_STDOUT = {
    "cluster_phi_pi4": "steady state (unique):\n  0.5    0\n    0  0.5\n",
    "even_process": "steady state (unique):\n0.666666666667 0.333333333333\n",
}


@pytest.mark.parametrize("name", sorted(STEADY_STDOUT))
def test_steady_prints_nothing_else_by_default(paths, name):
    """The fixed-point DEBUG record stays off the default streams of a fresh
    process; only the state is printed."""
    env = dict(os.environ, PYTHONPATH=str(Path(hqmm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hqmm.cli", "steady", paths[name]],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, STEADY_STDOUT[name], "")


def test_dist_and_entropy(paths):
    code, out, _ = run(["dist", paths["even_process"], "-n", "2"])
    assert code == 0
    assert "01 0.166666666667" in out
    code, out, _ = run(["entropy", paths["even_process"], "-n", "1"])
    assert code == 0
    assert out.strip() == "0.918295834054"  # H(1/3)


def test_dist_csv(paths, tmp_path):
    csv = tmp_path / "dist.csv"
    code, out, _ = run(["dist", paths["four_state"], "-n", "1", "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "word,probability"
    assert len(lines) == 5
    assert lines[1] == "0,0.250000000000"


def test_convert_embed_matches_source(paths, tmp_path):
    out_path = tmp_path / "embedded.json"
    code, _, _ = run(
        ["convert", paths["even_process"], "--to", "hqmm-embed", "-o", str(out_path)]
    )
    assert code == 0
    even = modelfile.load_bundled("even_process")
    for word in itertools.chain.from_iterable(
        itertools.product("01", repeat=n) for n in range(1, 5)
    ):
        text = "".join(word)
        c1, out1, _ = run(["wordprob", str(out_path), text])
        assert c1 == 0
        expect = classical.word_probability(even, word)
        assert abs(float(out1) - expect) < 2e-12


def test_convert_pure(paths, tmp_path):
    out_path = tmp_path / "pure.json"
    code, _, _ = run(
        ["convert", paths["even_process"], "--to", "hqmm-pure", "-o", str(out_path)]
    )
    assert code == 0
    model = modelfile.parse_model(out_path.read_text())
    assert model.dim == 2
    assert all(len(model.operations[s]) == 1 for s in model.alphabet)


def test_convert_pure_rejects_irreversible(paths, tmp_path):
    code, _, err = run(
        [
            "convert",
            paths["four_state"],
            "--to",
            "hqmm-pure",
            "-o",
            str(tmp_path / "x.json"),
        ]
    )
    assert code == 1
    assert "not reversible" in err


def test_convert_rejects_quantum_source(paths, tmp_path):
    code, _, err = run(
        [
            "convert",
            paths["four_symbol_hqmm"],
            "--to",
            "hqmm-embed",
            "-o",
            str(tmp_path / "x.json"),
        ]
    )
    assert code == 1


def test_scan_entropy(tmp_path):
    csv = tmp_path / "scan.csv"
    code, out, _ = run(
        ["scan-entropy", "--phi-steps", "9", "--xi-steps", "5", "-o", str(csv)]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "phi,xi,H3"
    assert len(lines) == 1 + 9 * 5
    values = [float(l.split(",")[2]) for l in lines[1:]]
    assert max(values) == pytest.approx(3.0, abs=1e-12)
    assert min(values) > 2.8


def test_sample_reproducible(paths):
    c1, out1, _ = run(["sample", paths["even_process"], "-n", "50", "--seed", "3"])
    c2, out2, _ = run(["sample", paths["even_process"], "-n", "50", "--seed", "3"])
    assert c1 == c2 == 0
    assert out1 == out2
    assert set(out1.strip()) <= {"0", "1"}
    assert "010" not in out1


def test_sample_mps_model(tmp_path):
    # exercises the mps kind end to end through the reduction
    from hqmm.cluster import MeasurementBasis
    from hqmm.mps import cluster_mps

    p = tmp_path / "cluster_mps.json"
    p.write_text(modelfile.serialize_model(cluster_mps(MeasurementBasis(0.4, 1.0))))
    code, out, _ = run(["sample", str(p), "-n", "25", "--seed", "1"])
    assert code == 0
    assert len(out.strip()) == 25


def test_vn_model_through_cli(paths):
    code, out, _ = run(["wordprob", paths["even_process_vn"], "010"])
    assert code == 0
    assert out.strip() == "0.000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "{even_process}", "-n", "-1"],
        ["entropy", "{even_process}", "-n", "-1"],
        ["cluster", "--phi", "0.4", "--xi", "1.1", "dist", "-n", "-1"],
        ["sample", "{even_process}", "-n", "-5", "--seed", "1"],
        ["wordprob", "{even_process}", "0", "--initial", "1,nan"],
        ["wordprob", "{even_process}", "0", "--initial", "1,inf"],
    ],
)
def test_bad_counts_and_weights_are_usage_errors(paths, argv):
    code, out, err = run([a.format(**paths) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--phi-steps", "--xi-steps"])
def test_scan_entropy_rejects_empty_grid(tmp_path, flag):
    csv = tmp_path / "scan.csv"
    argv = ["scan-entropy", "--phi-steps", "3", "--xi-steps", "3", "-o", str(csv)]
    argv[argv.index(flag) + 1] = "0"
    code, out, err = run(argv)
    assert code == 2
    assert err.startswith(f"error: {flag} must be at least 1")
    assert not csv.exists()


def test_steady_four_symbol_prints_exact_zeros_off_the_diagonal(paths):
    """The stationary state of ``four_symbol_hqmm`` is I/2. The transfer
    matrix sums its Kraus terms in operator order, so the coherences come
    out as exact zeros, not as round-off printed to 12 digits."""
    code, out, err = run(["steady", paths["four_symbol_hqmm"]])
    assert (code, err) == (0, "")
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [row[i] for i, row in enumerate(rows)] == ["0.5", "0.5"]
    off = [cell for i, row in enumerate(rows) for j, cell in enumerate(row) if i != j]
    assert off == ["0", "0"]


# documents that parse but fail validation, one per kind
FAILING_DOCS = {
    "hmm": {
        "kind": "hmm",
        "alphabet": ["0", "1"],
        "dimension": 2,
        "transitions": {"0": [[1.0, 0.0], [0.5, 0.0]], "1": [[0.0, 0.5], [0.0, 0.5]]},
        "prior": [0.5, 0.25],
    },
    "hqmm": {
        "kind": "hqmm",
        "alphabet": ["0", "1"],
        "dimension": 1,
        "operations": {"0": [[[0.5]]], "1": [[[0.5]]]},
        "initial": [[2.0]],
    },
    "vn": {
        "kind": "vn",
        "alphabet": ["0", "1"],
        "dimension": 2,
        "projectors": {"0": [[1.0, 0.0], [0.0, 0.0]], "1": [[0.0, 0.0], [0.0, 0.5]]},
        "unitary": [[2.0, 0.0], [0.0, 1.0]],
    },
    "mps": {
        "kind": "mps",
        "alphabet": ["0", "1"],
        "bond_dimension": 1,
        "physical_dimension": 2,
        "tensors": [[[1.0]], [[1.0]]],
        "projectors": {"0": [[1.0, 0.0], [0.0, 0.0]], "1": [[0.0, 0.0], [0.0, 1.0]]},
        "initial": [[-1.0]],
    },
}


@pytest.mark.parametrize("kind", sorted(FAILING_DOCS))
def test_validate_and_parse_refuse_with_the_same_problems(tmp_path, kind):
    p = tmp_path / f"{kind}.json"
    p.write_text(json.dumps(FAILING_DOCS[kind]))
    code, out, problems = run(["validate", str(p)])
    assert (code, out) == (1, "")
    assert len(problems.splitlines()) >= 2
    code, out, refused = run(["steady", str(p)])
    assert (code, out) == (1, "")
    joined = "; ".join(problems.splitlines())
    assert refused == f"error: model fails validation: {joined}\n"


@pytest.mark.parametrize(
    "dimension, operations, message",
    [
        # the empty first list used to build a dimension x dimension gram
        # (14.6 TiB here) before the second list's shape was checked
        (10**6, {"0": [], "1": [[[1.0]]]}, "Kraus operator for '1' has shape (1, 1), expected"),
        (10**6, {"0": [], "1": []}, "operations: expected at least one Kraus operator"),
        (1, {"0": [], "1": []}, "operations: expected at least one Kraus operator"),
    ],
)
def test_empty_kraus_lists_are_named_errors(tmp_path, dimension, operations, message):
    doc = {"kind": "hqmm", "alphabet": ["0", "1"], "dimension": dimension}
    p = tmp_path / "kraus.json"
    p.write_text(json.dumps(dict(doc, operations=operations)))
    for command in ("validate", "steady"):
        code, out, err = run([command, str(p)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")


# documents that break a rule every model kind shares, each with the error it
# must give: a repeated symbol (the repeat has a zero projector, so the
# projector set is still complete and orthogonal) or an ``initial`` state that
# is not dimension x dimension
_ZERO, _ONE = [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]
_DIAGONAL = {"0": [[1.0, 0.0], [0.0, 0.0]], "1": [[0.0, 0.0], [0.0, 1.0]]}
SHARED_RULE_DOCS = {
    "vn-repeated-symbol": (
        {
            "kind": "vn",
            "alphabet": ["0", "0", "1"],
            "dimension": 2,
            "projectors": {"0": _ZERO, "1": _ONE},
            "unitary": [[0.0, 1.0], [1.0, 0.0]],
        },
        "alphabet contains duplicate symbols",
    ),
    "mps-repeated-symbol": (
        {
            "kind": "mps",
            "alphabet": ["0", "0", "1"],
            "bond_dimension": 1,
            "physical_dimension": 2,
            "tensors": [[[0.6]], [[0.8]]],
            "projectors": {"0": _ZERO, "1": _ONE},
        },
        "alphabet contains duplicate symbols",
    ),
    "hqmm-initial-3x3": (
        {
            "kind": "hqmm",
            "alphabet": ["0", "1"],
            "dimension": 2,
            "operations": {s: [p] for s, p in _DIAGONAL.items()},
            "initial": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        },
        "initial state must be 2 x 2, got shape (3, 3)",
    ),
    "vn-initial-1x1": (
        {
            "kind": "vn",
            "alphabet": ["0", "1"],
            "dimension": 2,
            "projectors": _DIAGONAL,
            "unitary": [[0.0, 1.0], [1.0, 0.0]],
            "initial": [[1.0]],
        },
        "initial state must be 2 x 2, got shape (1, 1)",
    ),
    "mps-initial-1x1": (
        {
            "kind": "mps",
            "alphabet": ["0", "1"],
            "bond_dimension": 2,
            "physical_dimension": 2,
            "tensors": [[[0.6, 0.0], [0.0, 0.0]], [[0.8, 0.0], [0.0, 1.0]]],
            "projectors": _DIAGONAL,
            "initial": [[1.0]],
        },
        "initial state must be 2 x 2, got shape (1, 1)",
    ),
}


def _model_commands(path: str, symbol: str) -> list[list[str]]:
    """Every subcommand that reads a model file, past ``validate``."""
    return [
        ["steady", path],
        ["dist", path, "-n", "2"],
        ["hankel", path],
        ["sample", path, "-n", "20", "--seed", "1"],
        ["wordprob", path, symbol],
    ]


@pytest.mark.parametrize("name", sorted(SHARED_RULE_DOCS))
def test_shared_rules_are_named_by_every_command(tmp_path, name):
    doc, message = SHARED_RULE_DOCS[name]
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(doc))
    for argv in [["validate", str(p)]] + _model_commands(str(p), "0"):
        assert run(argv) == (1, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("field", ["dimension", "entry"])
def test_overlong_integer_is_model_error(tmp_path, field):
    doc = json.loads(modelfile.serialize_model(modelfile.load_bundled("even_process")))
    if field == "dimension":
        doc["dimension"] = "DIGITS"
    else:
        doc["transitions"]["0"][0][0] = "DIGITS"
    p = tmp_path / "long.json"
    # json.dumps would refuse to write the integer itself
    p.write_text(json.dumps(doc).replace('"DIGITS"', "9" * 5000))
    code, out, err = run(["validate", str(p)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "set_int_max_str_digits" not in err


def _fuzz_bases() -> list[dict]:
    """Valid documents of every kind, with a prior or initial state on some,
    and one hqmm document whose first symbol never occurs (an empty list)."""
    from hqmm.cluster import MeasurementBasis, cluster_kraus
    from hqmm.mps import cluster_mps
    from hqmm.quantum import HqmmModel

    cluster = cluster_kraus(MeasurementBasis(0.4, 1.0))
    silent = HqmmModel(
        alphabet=("never",) + cluster.alphabet,
        dim=2,
        operations={"never": [], **cluster.operations},
    )
    models = [
        modelfile.load_bundled(name)
        for name in ("even_process", "four_state", "four_symbol_hqmm", "even_process_vn")
    ]
    models += [silent, cluster_mps(MeasurementBasis(0.3, 0.5))]
    return [json.loads(modelfile.serialize_model(m)) for m in models]


FUZZ_BASES = _fuzz_bases()
FUZZ_SIZES = [10**6, 10**400, -3, 0]
DELETE = object()
FUZZ_VALUES = FUZZ_SIZES + [math.nan, [], {}, [[1.0]], "1", DELETE]


@st.composite
def _mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    size = draw(st.sampled_from([None] + FUZZ_SIZES))
    if size is not None:
        for key in ("dimension", "bond_dimension", "physical_dimension"):
            if key in doc:
                doc[key] = size
    for _ in range(draw(st.integers(0, 2))):
        parent, key = None, None
        node = doc
        # walk down from the top level, one field or entry at a time
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = parent[key]
        if parent is None:
            continue
        value = draw(st.sampled_from(FUZZ_VALUES + [[node]]))
        if value is DELETE:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(value)
    return doc


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=_mutated_documents())
def test_mutated_model_files_give_named_errors(tmp_path, doc):
    """Every mutated document exits 0, 1 or 2 without a traceback, and no
    exit 0 prints nan."""
    p = tmp_path / "fuzzed.json"
    p.write_text(json.dumps(doc))
    for command in ("validate", "steady"):
        code, out, err = run([command, str(p)])
        assert code in (0, 1, 2), (command, err)
        assert code != 0 or "nan" not in out.lower(), (command, out)


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=_mutated_documents())
@example(doc=SHARED_RULE_DOCS["vn-repeated-symbol"][0])
@example(doc=SHARED_RULE_DOCS["mps-repeated-symbol"][0])
@example(doc=SHARED_RULE_DOCS["hqmm-initial-3x3"][0])
@example(doc=SHARED_RULE_DOCS["vn-initial-1x1"][0])
@example(doc=SHARED_RULE_DOCS["mps-initial-1x1"][0])
def test_documents_that_validate_work_in_every_command(tmp_path, doc):
    """A document that ``validate`` accepts is accepted by every other
    subcommand too."""
    p = tmp_path / "fuzzed.json"
    p.write_text(json.dumps(doc))
    if run(["validate", str(p)])[0] != 0:
        return
    for argv in _model_commands(str(p), doc["alphabet"][0]):
        code, out, err = run(argv)
        assert code == 0, (argv, err)
