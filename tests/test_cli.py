import argparse
import contextlib
import copy
import csv
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hqmm
from hqmm import analysis, classical, cli, cluster, linalg, modelfile, quantum
from hqmm.classical import HmmModel
from hqmm.cli import main

from conftest import random_hmm, random_mps


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


def test_one_parser_per_process_keeps_no_flag_between_calls(paths):
    """``main`` parses every call with one parser; a call without ``--initial``
    after one with it still starts from the stationary state, P(0) = 1/3."""
    even = paths["even_process"]
    assert run(["wordprob", even, "0", "--initial", "mixed"])[1] == "0.250000000000\n"
    assert run(["wordprob", even, "0"])[1] == "0.333333333333\n"
    assert cli.build_parser() is not cli.build_parser()


def test_wordprob_unknown_symbol_is_usage_error(paths):
    code, out, err = run(["wordprob", paths["even_process"], "012"])
    assert code == 2
    assert "unknown symbol" in err


def test_wordprob_bad_initial(paths):
    code, _, err = run(["wordprob", paths["even_process"], "0", "--initial", "1,2,3"])
    assert code == 2


def _even_with_prior(tmp_path, prior) -> str:
    """The even process's document with this ``prior`` field, written to a file."""
    doc = json.loads(modelfile.serialize_model(modelfile.load_bundled("even_process")))
    path = tmp_path / "even-prior.json"
    path.write_text(json.dumps(dict(doc, prior=prior)))
    return str(path)


def test_wordprob_initial_steady_is_stationary_despite_a_prior(tmp_path):
    """``steady`` was read as no flag, so the model's prior [0, 1] gave P(0) = 0."""
    path = _even_with_prior(tmp_path, [0.0, 1.0])
    assert run(["wordprob", path, "0"]) == (0, "0.000000000000\n", "")
    assert run(["wordprob", path, "0", "--initial", "steady"]) == (0, "0.333333333333\n", "")


@pytest.mark.parametrize("name", ["four_state", "four_symbol_hqmm"])
def test_wordprob_initial_steady_matches_a_stationary_own_start(paths, name):
    alphabet = modelfile.load_bundled(name).alphabet
    words = ["".join(w) for n in (0, 1, 2) for w in itertools.product(alphabet, repeat=n)]
    for word in words[:6]:
        own = run(["wordprob", paths[name], word])
        assert own[0] == 0
        assert run(["wordprob", paths[name], word, "--initial", "steady"]) == own


def _sparse_stochastic_hmm(model_seed, n_states, n_symbols, with_prior):
    """A random HMM with about 40 % exact zeros, its columns rescaled to sum
    to 1. The first symbol keeps its diagonal, so no column is emptied."""
    rng = np.random.default_rng(model_seed)
    model = random_hmm(rng, n_states, n_symbols, with_prior)
    for k, s in enumerate(model.alphabet):
        zero = rng.random((n_states, n_states)) < 0.4
        if k == 0:
            np.fill_diagonal(zero, False)
        model.transitions[s][zero] = 0.0
    mass = model.total().sum(axis=0)
    transitions = {s: t / mass for s, t in model.transitions.items()}
    return HmmModel(model.alphabet, transitions, model.prior)


def _mps_readout(model_seed, bond_dim, own_start):
    model = random_mps(np.random.default_rng(model_seed), bond_dim, 2)
    return model if own_start else dataclasses.replace(model, initial=None)


@st.composite
def _models_and_starts(draw):
    """A generated model and an ``--initial`` flag: none, ``steady``,
    ``mixed`` or generated weights, as ``(model, flag)``."""
    seed = st.integers(0, 2**32 - 1)
    model = draw(
        st.one_of(
            st.builds(
                _sparse_stochastic_hmm, seed, st.integers(1, 4), st.integers(1, 3), st.booleans()
            ),
            st.builds(_mps_readout, seed, st.integers(2, 4), st.booleans()),
            st.builds(
                lambda phi, xi: cluster.cluster_kraus(cluster.MeasurementBasis(phi, xi)),
                st.floats(0.0, math.pi, exclude_max=True),
                st.floats(0.0, 2 * math.pi, exclude_max=True),
            ),
        )
    )
    d = modelfile.kind_of(model).operational(model).dim
    weights = st.lists(st.floats(0.0, 10.0), min_size=d, max_size=d).filter(any)
    flag = draw(st.one_of(st.sampled_from([None, "steady", "mixed"]), weights))
    return model, flag


@settings(max_examples=10, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_models_and_starts())
@example(case=(_mps_readout(0, 3, own_start=True), None))
def test_wordprob_prints_the_kinds_own_word_probability(tmp_path, case):
    """For every word up to length 4, ``wordprob`` prints what the model
    kind's own ``word_probability`` gives from the start the flag names,
    built here from the flag."""
    model, flag = case
    path = tmp_path / "model.json"
    path.write_text(modelfile.serialize_model(model))
    native = modelfile.kind_of(model).operational(model)
    core = modelfile.kind_of(native).core
    d = native.dim
    argv = []
    start = None
    if flag == "steady":
        argv = ["--initial", "steady"]
        start = core.steady_state(native)[0]
    elif flag is not None:
        text = ",".join(map(repr, flag)) if isinstance(flag, list) else flag
        argv = ["--initial", text]
        weights = np.full(d, 1.0 / d) if flag == "mixed" else np.array(flag) / np.sum(flag)
        start = weights if core is classical else np.diag(weights).astype(complex)
    for n in range(5):
        for word in itertools.product(native.alphabet, repeat=n):
            expected = cli._fmt(core.word_probability(native, word, start)) + "\n"
            got = run(["wordprob", str(path), "".join(word), *argv])
            assert got == (0, expected, ""), (word, flag)


def test_complex_prior_entry_is_refused(tmp_path):
    """Its imaginary part was dropped, so the prior read as [0.5, 0.5] and
    ``validate`` printed ok."""
    path = _even_with_prior(tmp_path, [[0.5, 0.7], 0.5])
    for command in ("validate", "steady"):
        assert run([command, path]) == (1, "", "error: prior: entries must be real\n")


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


@pytest.mark.parametrize("field", ['transitions["0"]', "prior"])
def test_a_nan_imaginary_part_is_refused(tmp_path, field):
    """``max(|imag|) > 0`` is false for NaN, so ``[0.5, NaN]`` read as 0.5 and
    ``validate`` printed ok."""
    doc = json.loads(modelfile.serialize_model(modelfile.load_bundled("even_process")))
    if field == "prior":
        doc["prior"] = [[0.5, math.nan], 0.5]
    else:
        doc["transitions"]["0"][0][0] = [0.5, math.nan]
    p = tmp_path / "nan-imaginary.json"
    p.write_text(json.dumps(doc))
    for command in ("validate", "steady"):
        assert run([command, str(p)]) == (1, "", f"error: {field}: entries must be real\n")


def test_an_overflowing_gram_is_a_named_violation(tmp_path):
    """The gram of a finite Kraus entry of 2e251 is infinite, and ``hermitize``
    of it warned ``invalid value encountered in divide``, an error here."""
    doc = json.loads(modelfile.serialize_model(modelfile.load_bundled("four_symbol_hqmm")))
    doc["operations"]["0"][0][1][0] = [2e251, 0.0]
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps(doc))
    problems = (
        "[finite] symbol='0': sum_i K_i^dagger K_i has non-finite entries",
        "[completeness]: sum over all symbols of K^dagger K deviates from identity by inf",
    )
    assert run(["validate", str(p)]) == (1, "", "".join(f"{v}\n" for v in problems))
    refused = "error: model fails validation: " + "; ".join(problems) + "\n"
    assert run(["steady", str(p)]) == (1, "", refused)


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
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full, so a write that fails after open is not tried")
    # /dev/full opens, then every write to it fails with ENOSPC
    code, out, err = run([a.format(bad="/dev/full", **paths) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write /dev/full: ")


def _run_child(argv, stdout, stderr=subprocess.PIPE):
    """``hqmm`` in a child process under ``-X dev -W error``, writing its
    standard output and standard error to the descriptors ``stdout`` and
    ``stderr``."""
    env = dict(os.environ, PYTHONPATH=str(Path(hqmm.__file__).parents[1]))
    command = [sys.executable, "-X", "dev", "-W", "error", "-m", "hqmm.cli", *argv]
    return subprocess.run(
        command, stdout=stdout, stderr=stderr, text=True, env=env, timeout=60, check=False
    )


def _assert_stdout_refused(proc):
    """Exit 2 with the one line naming standard output: no traceback, and no
    second report from the interpreter's flush at exit."""
    assert proc.returncode == 2
    line, *rest = proc.stderr.splitlines()
    assert rest == []
    assert line.startswith("error: cannot write standard output: ")


@pytest.mark.parametrize(
    "argv", [["dist", "{even_process}", "-n", "2"], ["steady", "{even_process}"]]
)
def test_full_standard_output_is_usage_error(paths, argv):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full, so a write that fails after open is not tried")
    with open("/dev/full", "w") as full:
        proc = _run_child([a.format(**paths) for a in argv], full)
    _assert_stdout_refused(proc)
    assert "No space left on device" in proc.stderr


@pytest.mark.parametrize("n", ["3", "300000"])
def test_closed_pipe_on_standard_output_is_usage_error(paths, n):
    """The read end is closed before the child writes, so every write to the
    pipe fails, for a line shorter than the buffer and for one longer."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_child(["sample", paths["even_process"], "-n", n, "--seed", "1"], write)
    finally:
        os.close(write)
    _assert_stdout_refused(proc)
    assert "Broken pipe" in proc.stderr


@pytest.fixture(params=["unbuffered", "buffered"])
def stdout_buffering(request, monkeypatch):
    """The child's standard streams written through at once, or held in
    Python's buffers until a flush (standard error's at each line end): with
    a buffer, a failed write that is not closed away is retried at exit and
    reported a second time, or ends the interpreter with exit code 120."""
    if request.param == "unbuffered":
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "{even_process}", "-n", "2"],
        ["steady", "{even_process}"],
        ["--help"],
        ["dist", "--help"],
    ],
)
def test_full_standard_output_is_usage_error_buffered_or_not(paths, stdout_buffering, argv):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full, so a write that fails after open is not tried")
    with open("/dev/full", "w") as full:
        proc = _run_child([a.format(**paths) for a in argv], full)
    _assert_stdout_refused(proc)
    assert "No space left on device" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "{even_process}", "-n", "3", "--seed", "1"],
        ["sample", "{even_process}", "-n", "300000", "--seed", "1"],
        ["--help"],
    ],
)
def test_closed_pipe_on_standard_output_is_usage_error_buffered_or_not(
    paths, stdout_buffering, argv
):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_child([a.format(**paths) for a in argv], write)
    finally:
        os.close(write)
    _assert_stdout_refused(proc)
    assert "Broken pipe" in proc.stderr


def _not_stochastic(tmp_path) -> str:
    """A model file that parses but fails validation: its columns do not sum to 1."""
    doc = {
        "kind": "hmm",
        "alphabet": ["0", "1"],
        "dimension": 2,
        "transitions": {"0": [[1.0, 0.0], [0.5, 0.0]], "1": [[0.0, 0.5], [0.0, 0.5]]},
    }
    p = tmp_path / "not_stochastic.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["dist", "{missing}", "-n", "1"], 2),
        (["dist", "{even_process}"], 2),
        (["validate", "{not_stochastic}"], 1),
        (["steady", "{not_stochastic}"], 1),
        (["dist", "{even_process}", "-n", "2"], 0),
    ],
    ids=["missing-file", "usage", "violations", "model-error", "success"],
)
def test_full_standard_error_keeps_the_exit_code_buffered_or_not(
    paths, tmp_path, stdout_buffering, argv, code
):
    """The error line, argparse's usage or the violation lines are lost, but
    the exit code is the command's: nothing escapes ``cli.main`` (exit 1) and
    the interpreter's flush at exit has nothing to retry (exit 120). Standard
    output is what it is with a working standard error."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full, so a write that fails after open is not tried")
    files = dict(paths, missing=str(tmp_path / "missing.json"), not_stochastic=_not_stochastic(tmp_path))
    argv = [a.format(**files) for a in argv]
    with open("/dev/full", "w") as full:
        proc = _run_child(argv, subprocess.PIPE, stderr=full)
    assert proc.returncode == code
    assert proc.stdout == run(argv)[1]


class _FullStream(io.StringIO):
    """A stream whose every write fails as a write to a full disk does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failing_standard_error_is_not_a_standard_output_failure(paths, tmp_path):
    """``validate``'s violation lines to a failing standard error were
    reported as a failure of standard output, which was closed for it, and
    that report then escaped ``cli.main`` as an ``OSError``."""
    out, err = io.StringIO(), _FullStream()
    assert main(["validate", _not_stochastic(tmp_path)], out=out, err=err) == 1
    assert err.closed and not out.closed
    out, err = io.StringIO(), _FullStream()
    assert main(["steady", paths["even_process"]], out=out, err=err) == 0
    assert not err.closed
    assert out.getvalue() == run(["steady", paths["even_process"]])[1]


def test_csv_quotes_words_of_a_multi_character_alphabet(tmp_path):
    up_down = HmmModel(
        ("up", "down"),
        {"up": np.array([[0.25, 0.25], [0.0, 0.0]]), "down": np.array([[0.0, 0.0], [0.75, 0.75]])},
    )
    model_path = tmp_path / "up_down.json"
    model_path.write_text(modelfile.serialize_model(up_down))
    csv_path = tmp_path / "words.csv"
    code, out, err = run(["dist", str(model_path), "-n", "2", "--csv", str(csv_path)])
    assert (code, out, err) == (0, f"wrote {csv_path}\n", "")
    with open(csv_path, newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["word", "probability"]
    assert all(len(row) == 2 for row in rows)
    code, table, _ = run(["dist", str(model_path), "-n", "2"])
    assert code == 0
    words = itertools.product(up_down.alphabet, repeat=2)
    expected = {modelfile.format_word(w, up_down.alphabet) for w in words}
    assert {word for word, _ in rows} == expected
    assert "down,down" in expected
    assert [f"{word} {p}" for word, p in rows] == table.splitlines()


def test_usage_error_on_missing_subcommand():
    code, _, _ = run([])
    assert code == 2


def test_argparse_usage_error_goes_to_the_given_err(paths):
    code, out, err = run(["dist", paths["even_process"]])
    assert (code, out) == (2, "")
    assert err.startswith("usage: hqmm dist ")
    assert "error: the following arguments are required: -n" in err


def test_help_goes_to_the_given_out():
    code, out, err = run(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: hqmm ")


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


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
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


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
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


@pytest.mark.parametrize(
    "name,huge,unit",
    [
        ("even_process", "1e308,1e308", "1,1"),
        ("four_state", "1e308,1e308,1e308,1e308", "1,1,1,1"),
        ("four_symbol_hqmm", "1.7e308,1.7e308", "1,1"),
    ],
)
def test_wordprob_initial_weights_whose_sum_overflows(paths, name, huge, unit):
    # before, the sum overflowed to inf with a RuntimeWarning, every weight
    # divided to 0 and wordprob printed 0.000000000000 with exit 0
    expected = run(["wordprob", paths[name], "0", "--initial", unit])
    assert expected[0] == 0 and expected[1].strip() != "0.000000000000"
    assert run(["wordprob", paths[name], "0", "--initial", huge]) == expected


# enumerations whose memory estimate is past the float range ended in an
# OverflowError from the budget message, and at -n 3 * 10**8 the exact
# estimate took about 1.7 s to build before it
HUGE_ENUMERATIONS = [
    ["dist", "@even_process", "-n", "2000"],
    ["entropy", "@four_state", "-n", "600"],
    ["cluster", "--phi", "0.3", "--xi", "0", "dist", "-n", "1100"],
    ["dist", "@even_process", "-n", str(3 * 10**8)],
]
# scan-entropy grids whose axis NumPy cannot allocate ended in its MemoryError
HUGE_GRIDS = [
    ["scan-entropy", "--phi-steps", str(10**11), "--xi-steps", "2", "-o", "@out"],
    ["scan-entropy", "--phi-steps", "2", "--xi-steps", str(10**11), "-o", "@out"],
]


def _resolve(argv, paths, tmp_path):
    """``@name`` is a bundled model's path, ``@missing`` a file that does not
    exist and ``@out`` an output path."""
    names = dict(paths, missing=str(tmp_path / "missing.json"), out=str(tmp_path / "out.csv"))
    return [names[a[1:]] if a.startswith("@") else a for a in argv]


@pytest.mark.parametrize("argv", HUGE_ENUMERATIONS, ids=lambda argv: " ".join(argv))
def test_huge_enumeration_is_refused_fast_by_the_budget(paths, tmp_path, argv):
    start = time.perf_counter()
    code, out, err = run(_resolve(argv, paths, tmp_path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: enumeration of ") and err.endswith(" GiB budget\n")


def test_huge_sample_is_refused_fast_by_the_budget(paths):
    """``sample`` keeps every symbol, about 9 bytes each, so ``-n 10**12``
    ran until memory ran out. A child process with a timeout runs it first,
    so that a sampler without the budget fails here without filling memory."""
    argv = ["sample", paths["even_process"], "-n", str(10**12), "--seed", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(hqmm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hqmm.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
        check=False,
    )
    message = "error: a trajectory of 1000000000000 symbols needs about 1.58e+04 GiB, "
    message += "over the 2 GiB budget\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)
    start = time.perf_counter()
    assert run(argv) == (1, "", message)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", ["even_process", "even-long-symbols"])
def test_trajectory_bytes_bounds_traced_peak(paths, tmp_path, name):
    """The estimate that ``sample``'s budget checks bounds the traced peak
    of ``cmd_sample`` at 10**5 symbols of the even process, with its own
    one-character symbols and with four-character ones."""
    if name == "even-long-symbols":
        even = modelfile.load_bundled("even_process")
        renamed = dict(zip(even.alphabet, ("even", "odds")))
        model = classical.HmmModel(
            alphabet=tuple(renamed.values()),
            transitions={renamed[s]: t for s, t in even.transitions.items()},
        )
        path = tmp_path / "long.json"
        path.write_text(modelfile.serialize_model(model))
    else:
        path, model = paths[name], modelfile.load_bundled(name)
    args = argparse.Namespace(file=str(path), n=10**5, seed=7)
    tracemalloc.start()
    try:
        cli.cmd_sample(args, io.StringIO(), io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= analysis._trajectory_bytes(10**5, model.alphabet)


class _Discard(io.TextIOBase):
    """A text stream that drops what is written to it, like a CLI stdout sent
    nowhere; a ``StringIO`` would also hold the whole printed table."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize(
    "name, n", [("even_process", 13), ("four_symbol_hqmm", 6), ("cluster_phi_pi8", 12)]
)
def test_enumeration_bytes_bounds_traced_peak(paths, name, n):
    """The estimate that the enumeration budget checks bounds the traced peak
    of ``cmd_dist`` over at least 2**13 words, and is at most four times it."""
    model = cli._load(paths[name])
    coordinates = analysis.linear_representation(model)[1].size
    estimate = analysis._enumeration_bytes(len(model.alphabet), n, coordinates)
    args = argparse.Namespace(file=paths[name], n=n, csv=None)
    tracemalloc.start()
    try:
        assert cli.cmd_dist(args, _Discard(), io.StringIO()) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate / 4 <= peak <= estimate


@pytest.mark.parametrize("argv", HUGE_GRIDS, ids=["phi", "xi"])
def test_grid_that_cannot_be_allocated_is_one_error_line(paths, tmp_path, argv):
    code, out, err = run(_resolve(argv, paths, tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


_SUBCOMMANDS = [
    "validate", "steady", "wordprob", "dist", "entropy", "hankel", "convert", "cluster",
    "scan-entropy", "sample",
]
_FILES = st.sampled_from([f"@{name}" for name in modelfile.BUNDLED_MODELS] + ["@missing"])
_ENUMERATION_LENGTHS = st.one_of(st.sampled_from([-1, 0, 1, 7]), st.integers(10**3, 10**12))
_REALS = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "0", "0.3", "2.5"])
_INITIALS = st.sampled_from(
    ["steady", "mixed", "", ",", "1,", "1,0", "0,0", "nan,1", "-1,2", "a,b", "1e308,1e308"]
    + ["1,1,1,1"]
)
_WORDS = st.sampled_from(["", ";", ";0;1", "0;;1", "2", "x", "0,1", "01;10;3"])


@st.composite
def _argument_vectors(draw):
    """An ``hqmm`` command line: every subcommand, with counts, reals and
    strings at and past their edges. Every case is fast by design: ``sample``
    draws at most 10**4 symbols, and a ``scan-entropy`` grid has at most
    31 x 31 points or an axis of at least 10**11 that cannot be allocated."""
    command = draw(st.sampled_from(_SUBCOMMANDS))
    if command in ("validate", "steady"):
        return [command, draw(_FILES)]
    if command == "wordprob":
        argv = ["wordprob", draw(_FILES), draw(_WORDS)]
        return argv + (["--initial", draw(_INITIALS)] if draw(st.booleans()) else [])
    if command in ("dist", "entropy"):
        return [command, draw(_FILES), "-n", str(draw(_ENUMERATION_LENGTHS))]
    if command == "hankel":
        argv = ["hankel", draw(_FILES)]
        for flag, values in (("--rows", _WORDS), ("--cols", _WORDS), ("--tol", _REALS)):
            if draw(st.booleans()):
                argv += [flag, draw(values)]
        return argv
    if command == "convert":
        target = draw(st.sampled_from(["hqmm-embed", "hqmm-pure"]))
        return ["convert", draw(_FILES), "--to", target, "-o", "@out"]
    if command == "cluster":
        argv = ["cluster", "--phi", draw(_REALS), "--xi", draw(_REALS)]
        tail = draw(st.sampled_from(["kraus", "h3", "dist"]))
        if tail == "dist":
            return argv + ["dist", "-n", str(draw(_ENUMERATION_LENGTHS))]
        return argv + [tail]
    if command == "scan-entropy":
        small = st.integers(-1, 31)
        steps = draw(
            st.one_of(
                st.tuples(small, small),
                st.tuples(st.integers(10**11, 10**12), small),
                st.tuples(small, st.integers(10**11, 10**12)),
            )
        )
        phi_steps, xi_steps = (str(n) for n in steps)
        return ["scan-entropy", "--phi-steps", phi_steps, "--xi-steps", xi_steps, "-o", "@out"]
    lengths = st.one_of(st.sampled_from([-1, 0, 1, 7]), st.integers(0, 10**4))
    seed = draw(st.integers(-(2**70), 2**70))
    return ["sample", draw(_FILES), "-n", str(draw(lengths)), "--seed", str(seed)]


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argument_vectors())
@example(argv=HUGE_ENUMERATIONS[0])
@example(argv=HUGE_ENUMERATIONS[1])
@example(argv=HUGE_ENUMERATIONS[2])
@example(argv=HUGE_GRIDS[0])
@example(argv=HUGE_GRIDS[1])
def test_argument_vectors_give_named_errors(paths, tmp_path, argv):
    """Every command line exits 0, 1 or 2 without raising, and no exit 0
    prints nan."""
    code, out, err = run(_resolve(argv, paths, tmp_path))
    assert code in (0, 1, 2), (argv, err)
    assert code != 0 or "nan" not in out.lower(), (argv, out)


def _refuse_stationary_solve(*args, **kwargs):
    raise AssertionError("a stationary state was solved for")


@pytest.mark.parametrize("name", ["even_process", "mps-D3"])
def test_wordprob_weights_and_mixed_solve_no_stationary_state(paths, tmp_path, monkeypatch, name):
    """``--initial`` weights or ``mixed`` on a model without a start of its
    own built the default representation, solving for the stationary state,
    and then replaced its start. With every stationary solver refusing, they
    still print what they print with the solvers in place."""
    if name in paths:
        path = paths[name]
    else:
        path = str(tmp_path / f"{name}.json")
        Path(path).write_text(modelfile.serialize_model(_mps_readout(7, 3, own_start=False)))
    model = modelfile.parse_model(Path(path).read_text())
    assert model.prior is None if name == "even_process" else model.initial is None
    d = modelfile.kind_of(model).operational(model).dim
    weights = ",".join(str(k) for k in range(1, d + 1))
    argvs = [
        ["wordprob", path, word, "--initial", start]
        for word in ("0", "011", "01101")
        for start in (weights, "mixed")
    ]
    expected = [run(argv) for argv in argvs]
    assert all(code == 0 and out != "0.000000000000\n" for code, out, _ in expected)
    monkeypatch.setattr(classical, "steady_state", _refuse_stationary_solve)
    monkeypatch.setattr(quantum, "steady_state", _refuse_stationary_solve)
    monkeypatch.setattr(linalg, "_stationary_vector", _refuse_stationary_solve)
    assert [run(argv) for argv in argvs] == expected


@pytest.mark.parametrize("name", ["even_process", "four_state", "four_symbol_hqmm"])
def test_wordprob_initial_uniform_is_mixed(paths, name):
    """README names ``uniform`` as an alias of ``mixed``."""
    alphabet = modelfile.load_bundled(name).alphabet
    for word in ("", alphabet[0], "".join(alphabet[::-1])):
        mixed = run(["wordprob", paths[name], word, "--initial", "mixed"])
        assert mixed[0] == 0
        assert run(["wordprob", paths[name], word, "--initial", "uniform"]) == mixed


@pytest.mark.parametrize(
    "phi, xi, tail",
    [("nan", "0.3", ["h3"]), ("0.3", "inf", ["kraus"]), ("-inf", "nan", ["dist", "-n", "2"])],
)
def test_non_finite_cluster_angles_are_usage_errors(phi, xi, tail):
    """A non-finite angle exited 1, where every other bad flag value, such as
    a non-finite ``--tol`` or ``--initial`` weight, is a usage error."""
    argv = ["cluster", f"--phi={phi}", f"--xi={xi}", *tail]
    assert run(argv) == (2, "", "error: basis angles must be finite\n")


@pytest.mark.parametrize(
    "argv, joined",
    [
        (["--phi", "-1e-3", "--xi", "0", "h3"], ["--phi=-1e-3", "--xi", "0", "h3"]),
        (["--phi", "0.3", "--xi", "-2.5e0", "kraus"], ["--phi", "0.3", "--xi=-2.5e0", "kraus"]),
        (
            ["--xi", "0", "--phi", "-1e-3", "dist", "-n", "1"],
            ["--xi", "0", "--phi=-1e-3", "dist", "-n", "1"],
        ),
    ],
)
def test_a_negative_float_spelled_with_an_exponent_is_an_angle(argv, joined):
    """argparse took ``-1e-3`` for a flag and ended with ``expected one
    argument``; the value reads as it does after ``=``."""
    code, out, err = run(["cluster", *argv])
    assert (code, err) == (0, "")
    assert run(["cluster", *joined]) == (code, out, err)
    if argv[-1] == "h3":
        assert out == "2.999997114635\n"


def test_a_negative_infinite_angle_or_tol_is_the_named_usage_error(paths):
    assert run(["cluster", "--phi", "-inf", "--xi", "0", "h3"]) == (
        2,
        "",
        "error: basis angles must be finite\n",
    )
    assert run(["hankel", paths["even_process"], "--tol", "-1e-3"]) == (
        2,
        "",
        "error: --tol: rank cutoff must be finite and nonnegative, got -0.001\n",
    )


@pytest.mark.parametrize(
    "argv, spelled",
    [
        (["cluster", "--ph", "-1e-3", "--xi", "0", "h3"], ["cluster", "--phi=-1e-3", "--xi=0", "h3"]),
        (["cluster", "--p", "-1e-3", "--x", "-2", "h3"], ["cluster", "--phi=-1e-3", "--xi=-2", "h3"]),
        (["hankel", "even_process", "--to", "-1e-3"], ["hankel", "even_process", "--tol=-1e-3"]),
        (["hankel", "even_process", "--t", "-inf"], ["hankel", "even_process", "--tol=-inf"]),
    ],
)
def test_a_negative_float_after_an_abbreviated_flag_is_its_value(paths, argv, spelled):
    """argparse takes a unique prefix of a long option, so ``--ph -1e-3``
    ended with ``argument --phi: expected one argument``."""
    code, out, err = run([paths.get(a, a) for a in argv])
    assert "expected one argument" not in err
    assert (code, out, err) == run([paths.get(a, a) for a in spelled])


@pytest.mark.parametrize(
    "argv",
    [
        # convert's own --to takes a target, not a number
        ["convert", "even_process", "--to", "-1e-3", "-o", "out.json"],
        # --tol is an option of hankel, not of dist
        ["dist", "even_process", "-n", "1", "--tol", "-1e-3"],
        # --h is a prefix of --help alone, which takes no value
        ["hankel", "even_process", "--h", "-1"],
    ],
)
def test_a_flag_that_names_no_float_option_of_its_subcommand_stays_apart(paths, argv):
    argv = [paths.get(a, a) for a in argv]
    assert cli._join_negative_floats(argv) == argv


@pytest.mark.parametrize(
    "argv, unrecognized",
    [
        (["cluster", "--phi", "0", "--xi", "0", "dist", "-n", "1", "--ph", "-1"], "--ph -1"),
        (["cluster", "--phi", "0", "--xi", "0", "h3", "--xi", "-1e-3"], "--xi -1e-3"),
    ],
)
def test_a_flag_after_the_nested_subcommand_is_read_by_its_parser(argv, unrecognized):
    """``--phi`` and ``--xi`` are options of ``cluster``, not of its ``dist``
    or ``h3``. The pre-pass read them against ``cluster`` to the end, so the
    error named ``--ph=-1`` where argparse alone names ``--ph -1``."""
    assert cli._join_negative_floats(argv) == argv
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"unrecognized arguments: {unrecognized}\n")


_PRE_PASS_WORDS = st.sampled_from(
    [*_SUBCOMMANDS, "kraus", "h3"] + [f"{name}.json" for name in modelfile.BUNDLED_MODELS]
)
_PRE_PASS_FLAGS = st.sampled_from(
    ["--phi", "--ph", "--p", "--xi", "--x", "--tol", "--to", "--t", "--rows", "--initial"]
    + ["-n", "--seed", "--csv", "-o"]
)
_PRE_PASS_VALUES = st.sampled_from(["0", "0.3", "2", "-1", "-0.5", "-1e-3", "-inf", "h3"])


# the options each (sub)command reads, each by its spellings in the vocabulary
_OWN_OPTIONS = {
    "wordprob": [["--initial"]],
    "dist": [["-n"], ["--csv"]],
    "entropy": [["-n"]],
    "hankel": [["--tol", "--to", "--t"], ["--rows"]],
    "convert": [["--to"], ["-o"]],
    "cluster": [["--phi", "--ph", "--p"], ["--xi", "--x"]],
    "sample": [["-n"], ["--seed"]],
}


@st.composite
def _pre_pass_argvs(draw):
    """A subcommand and its positionals, then the options it reads, each
    present or not, in any order, spelled in full, abbreviated or as any flag
    of the vocabulary, and followed by a value; ``cluster`` goes on with a
    nested name and its options. One more name or path may stand anywhere."""

    def options(level):
        present = [o for o in _OWN_OPTIONS.get(level, []) if draw(st.integers(0, 3))]
        tokens = []
        for spellings in draw(st.permutations(present)):
            tokens += [draw(st.one_of(st.sampled_from(spellings), _PRE_PASS_FLAGS))]
            tokens += [draw(_PRE_PASS_VALUES)]
        return tokens

    command = draw(st.sampled_from(_SUBCOMMANDS))
    positionals = {"wordprob": 2, "cluster": 0, "scan-entropy": 0}.get(command, 1)
    argv = [command, *(draw(_PRE_PASS_WORDS) for _ in range(positionals)), *options(command)]
    if command == "cluster":
        nested = draw(st.sampled_from(["kraus", "dist", "h3"]))
        argv += [nested, *options(nested)]
    if not draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(1, len(argv))), draw(_PRE_PASS_WORDS))
    return argv


def _parsed(argv):
    """argparse's namespace for ``argv``, or None where it refuses it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=300, deadline=None)
@given(argv=_pre_pass_argvs())
@example(argv=["cluster", "--ph", "-1", "--x", "-0.5", "dist", "-n", "2", "--csv", "h3"])
@example(argv=["cluster", "--xi", "0", "--phi", "0.3", "h3"])
@example(argv=["hankel", "even_process.json", "--t", "-0.5", "--rows", "0"])
def test_the_pre_pass_keeps_what_argparse_alone_accepts(argv):
    """Joining only merges a flag with a float-spelled token after it, and
    where argparse alone accepts ``argv`` it reads the joined argv the same."""
    joined = cli._join_negative_floats(argv)
    rest = iter(argv)
    for token in joined:
        flag = next(rest)
        if token != flag:
            value = next(rest)
            assert token == f"{flag}={value}" and value.startswith("-")
            float(value)
    assert next(rest, None) is None
    namespace = _parsed(argv)
    if namespace is not None:
        assert _parsed(joined) == namespace


def test_cli_outputs_tool_prints_the_committed_record():
    """``tools/cli_outputs.py`` exits cleanly. On Python 3.11, the version
    ``tools/cli_outputs.txt`` was recorded on, every warning is an error and it
    prints that record line for line; elsewhere, as in CI, a RuntimeWarning is."""
    tools = Path(__file__).resolve().parents[1] / "tools"
    recorded = sys.version_info[:2] == (3, 11)
    warnings = "error" if recorded else "error::RuntimeWarning"
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(hqmm.__file__).parents[1]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-W", warnings, str(tools / "cli_outputs.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    if recorded:
        assert proc.stdout.splitlines() == (tools / "cli_outputs.txt").read_text().splitlines()
