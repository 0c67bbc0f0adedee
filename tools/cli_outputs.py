"""Print one digest line per command for a fixed list of ``hqmm`` commands.

Each line is ``argv -> sha256(stdout|stderr), exit code``, with model files
named by their base name so that two checkouts give comparable lines; a command
that writes a file (``-o`` or ``--csv``) adds ``, file sha256(contents)``.
Commands run in-process through ``hqmm.cli.main``, from inside a temporary
directory, so that the ``wrote <path>`` lines name a relative path.

``tools/cli_outputs.txt`` records the output; to check that a change leaves
every printed byte as it was, diff against it (the tier-1 test
``tests/test_cli.py::test_cli_outputs_tool_prints_the_committed_record``
does so on Python 3.11, the version the record was made on):

    PYTHONPATH=src python tools/cli_outputs.py | diff tools/cli_outputs.txt -

A change that adds commands appends them at the end of ``commands()`` and
their lines at the end of that file.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from hqmm import cli, modelfile
from hqmm.mps import MpsModel

CLUSTER_PHIS = (0.3, math.pi / 8, math.pi / 4, 1.1, math.pi / 2)
CLUSTER_XIS = (0.0, math.pi / 3, 2.5)
# (bond dimension, physical dimension); D = 6 has 1296 terms per sampler
# kernel, above the size the sampler compiles
MPS_SHAPES = ((2, 2), (3, 2), (4, 3), (6, 2))
# draws long enough to run past the sampler's state-cache cap, on models
# whose conditional states do not recur
LONG_SAMPLE_MODELS = ("cluster_phi_pi8", "mps-D3", "mps-D6")
LONG_SAMPLE_LENGTH = 3000
# draws whose lengths fall on either side of the sampler's blocks of
# generator states (512 draws each), on a recurring and a non-recurring model
BLOCK_EDGE_MODELS = ("even_process", "cluster_phi_pi8")
BLOCK_EDGE_LENGTHS = (1, 511, 512, 513, 1024, 1025)
# more draws past the cap: a model whose states recur now and then, and the
# largest representation whose kernels are compiled
LATE_LONG_SAMPLE_MODELS = ("cluster_phi_pi4", "mps-D4")
# two words of non-zero probability from every start, per model
NONZERO_WORDS = {
    "even_process": ("011", "01101"),
    "even_process_vn": ("011", "01101"),
    "four_state": ("13", "3120"),
    "four_symbol_hqmm": ("13", "3120"),
    "cluster_phi_pi4": ("011", "01101"),
    "cluster_phi_pi8": ("011", "01101"),
    "mps-D2": ("011", "01101"),
    "mps-D3": ("011", "01101"),
    "mps-D4": ("021", "1200"),
    "mps-D6": ("011", "01101"),
}


def _random_mps(rng, bond_dim, phys_dim) -> MpsModel:
    """Isometric tensors from a QR factorization, read out in a random basis."""
    shape = (phys_dim * bond_dim, bond_dim)
    q, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    u, _ = np.linalg.qr(
        rng.normal(size=(phys_dim, phys_dim)) + 1j * rng.normal(size=(phys_dim, phys_dim))
    )
    alphabet = tuple(str(k) for k in range(phys_dim))
    return MpsModel(
        alphabet=alphabet,
        bond_dim=bond_dim,
        phys_dim=phys_dim,
        tensors=tuple(q[i * bond_dim : (i + 1) * bond_dim] for i in range(phys_dim)),
        projectors={s: np.outer(u[:, k], u[:, k].conj()) for k, s in enumerate(alphabet)},
    )


def _model_commands(path: str, alphabet) -> list[list[str]]:
    word = modelfile.format_word(itertools.islice(itertools.cycle(alphabet), 3), alphabet)
    return [
        ["validate", path],
        ["steady", path],
        ["wordprob", path, word],
        ["wordprob", path, word, "--initial", "mixed"],
        ["dist", path, "-n", "3"],
        ["entropy", path, "-n", "4"],
        ["hankel", path],
        ["sample", path, "-n", "200", "--seed", "7"],
    ]


# documents that parse but fail validation, one per kind
FAILING_DOCS = {
    "hmm-bad": {
        "kind": "hmm",
        "alphabet": ["0", "1"],
        "dimension": 2,
        "transitions": {"0": [[1.0, 0.0], [0.5, 0.0]], "1": [[0.0, 0.5], [0.0, 0.5]]},
    },
    "hqmm-bad": {
        "kind": "hqmm",
        "alphabet": ["0", "1"],
        "dimension": 1,
        "operations": {"0": [[[0.5]]], "1": [[[0.5]]]},
        "initial": [[2.0]],
    },
    "vn-bad": {
        "kind": "vn",
        "alphabet": ["0"],
        "dimension": 1,
        "projectors": {"0": [[1.0]]},
        "unitary": [[2.0]],
    },
    "mps-bad": {
        "kind": "mps",
        "alphabet": ["0", "1"],
        "bond_dimension": 1,
        "physical_dimension": 2,
        "tensors": [[[1.0]], [[1.0]]],
        "projectors": {"0": [[1.0, 0.0], [0.0, 0.0]], "1": [[0.0, 0.0], [0.0, 1.0]]},
    },
}

# the field each kind cannot do without, deleted from its failing document
REQUIRED_FIELDS = {
    "hmm-bad": "transitions",
    "hqmm-bad": "operations",
    "vn-bad": "unitary",
    "mps-bad": "tensors",
}

# hqmm documents with empty Kraus lists; the huge dimension must be refused
# before any dimension x dimension array is built
KRAUS_DOCS = {
    "hqmm-no-kraus": {"0": [], "1": []},
    "hqmm-no-kraus-huge": {"0": [], "1": []},
    "hqmm-empty-first-huge": {"0": [], "1": [[[1.0]]]},
}


# an MPS document whose projector for "0" is 3 x 3 on a 2-level physical space
WRONG_PROJECTOR_DOC = {
    "kind": "mps",
    "alphabet": ["0", "1"],
    "bond_dimension": 1,
    "physical_dimension": 2,
    "tensors": [[[0.6]], [[0.8]]],
    "projectors": {
        "0": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "1": [[0.0, 0.0], [0.0, 1.0]],
    },
}
# a grid axis whose points alone need 800 GB
HUGE_STEPS = "100000000000"

# documents that each break one rule of the model files
_P0, _P1 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]
REFUSED_DOCS = {
    "hmm-entry-range": {
        "kind": "hmm",
        "alphabet": ["0"],
        "dimension": 2,
        "transitions": {"0": [[1.2, 0.0], [-0.2, 1.0]]},
    },
    "hmm-nan": {
        "kind": "hmm",
        "alphabet": ["0", "1"],
        "dimension": 1,
        "transitions": {"0": [[math.nan]], "1": [[0.5]]},
    },
    "hmm-not-square": {
        "kind": "hmm",
        "alphabet": ["0"],
        "dimension": 1,
        "transitions": {"0": [[0.5, 0.5]]},
    },
    "hmm-mixed-dimensions": {
        "kind": "hmm",
        "alphabet": ["0", "1"],
        "dimension": 1,
        "transitions": {"0": [[0.5]], "1": [[0.5, 0.0], [0.0, 0.5]]},
    },
    "vn-unitary-3x3": {
        "kind": "vn",
        "alphabet": ["0", "1"],
        "dimension": 3,
        "projectors": {"0": _P0, "1": _P1},
        "unitary": np.eye(3).tolist(),
    },
    "vn-projector-3x3": {
        "kind": "vn",
        "alphabet": ["0", "1"],
        "dimension": 2,
        "projectors": {"0": _P0, "1": np.diag([0.0, 1.0, 0.0]).tolist()},
        "unitary": np.eye(2).tolist(),
    },
    "vn-not-hermitian": {
        "kind": "vn",
        "alphabet": ["0", "1"],
        "dimension": 2,
        "projectors": {"0": [[1.0, 1.0], [0.0, 0.0]], "1": [[0.0, -1.0], [0.0, 1.0]]},
        "unitary": np.eye(2).tolist(),
    },
    "top-level-array": [],
    "hmm-huge-integer": {
        "kind": "hmm",
        "alphabet": ["0"],
        "dimension": 1,
        "transitions": {"0": [[10**400]]},
    },
    "hqmm-operations-missing-symbol": {
        "kind": "hqmm",
        "alphabet": ["0", "1"],
        "dimension": 1,
        "operations": {"0": [[[1.0]]]},
    },
}

# a valid, reversible HMM whose one entry for "0" is a tolerated -1e-13
NEGATIVE_ENTRY_DOC = {
    "kind": "hmm",
    "alphabet": ["0", "1"],
    "dimension": 2,
    "transitions": {"0": [[0.0, 0.0], [-1e-13, 0.0]], "1": [[1.0000000000001, 0.0], [0.0, 1.0]]},
}

# a valid HMM whose symbols are words, so a CSV word holds commas
MULTI_CHARACTER_DOC = {
    "kind": "hmm",
    "alphabet": ["up", "down"],
    "dimension": 2,
    "transitions": {"up": [[0.25, 0.25], [0.0, 0.0]], "down": [[0.0, 0.0], [0.75, 0.75]]},
}

# HMMs, valid but for a symbol holding "," or ";", which the command line
# reads as separators
SEPARATOR_DOCS = {
    f"hmm-symbol-{name}": {
        "kind": "hmm",
        "alphabet": [symbol, "z"],
        "dimension": 1,
        "transitions": {symbol: [[0.5]], "z": [[0.5]]},
    }
    for name, symbol in (("comma", "a,b"), ("semicolon", "x;y"))
}

# documents with a non-finite matrix entry or an empty prior
NON_FINITE_DOCS = {
    "hqmm-kraus-nan": {
        "kind": "hqmm",
        "alphabet": ["0", "1"],
        "dimension": 1,
        "operations": {"0": [[[math.nan]]], "1": [[[1.0]]]},
    },
    "hqmm-kraus-infinity": {
        "kind": "hqmm",
        "alphabet": ["0", "1"],
        "dimension": 1,
        "operations": {"0": [[[math.inf]]], "1": [[[1.0]]]},
    },
    "hqmm-initial-nan": {
        "kind": "hqmm",
        "alphabet": ["0", "1"],
        "dimension": 1,
        "operations": {"0": [[[0.6]]], "1": [[[0.8]]]},
        "initial": [[math.nan]],
    },
    "vn-unitary-nan": {
        "kind": "vn",
        "alphabet": ["0", "1"],
        "dimension": 2,
        "projectors": {"0": _P0, "1": _P1},
        "unitary": [[math.nan, 0.0], [0.0, 1.0]],
    },
    "hmm-prior-empty": {
        "kind": "hmm",
        "alphabet": ["0", "1"],
        "dimension": 1,
        "transitions": {"0": [[0.5]], "1": [[0.5]]},
        "prior": [],
    },
}

# documents that break a rule every kind shares: a repeated symbol (the
# repeat has a zero projector, so the projector set is still complete and
# orthogonal) or an ``initial`` state that is not dimension x dimension
_ZERO, _ONE = [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]
SHARED_RULE_DOCS = {
    "vn-repeated-symbol": {
        "kind": "vn",
        "alphabet": ["0", "0", "1"],
        "dimension": 2,
        "projectors": {"0": _ZERO, "1": _ONE},
        "unitary": [[0.0, 1.0], [1.0, 0.0]],
    },
    "mps-repeated-symbol": {
        "kind": "mps",
        "alphabet": ["0", "0", "1"],
        "bond_dimension": 1,
        "physical_dimension": 2,
        "tensors": [[[0.6]], [[0.8]]],
        "projectors": {"0": _ZERO, "1": _ONE},
    },
    "hqmm-initial-3x3": {
        "kind": "hqmm",
        "alphabet": ["0", "1"],
        "dimension": 2,
        "operations": {"0": [[[1.0, 0.0], [0.0, 0.0]]], "1": [[[0.0, 0.0], [0.0, 1.0]]]},
        "initial": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    },
    "vn-initial-1x1": {
        "kind": "vn",
        "alphabet": ["0", "1"],
        "dimension": 2,
        "projectors": {"0": [[1.0, 0.0], [0.0, 0.0]], "1": [[0.0, 0.0], [0.0, 1.0]]},
        "unitary": [[0.0, 1.0], [1.0, 0.0]],
        "initial": [[1.0]],
    },
    "mps-initial-1x1": {
        "kind": "mps",
        "alphabet": ["0", "1"],
        "bond_dimension": 2,
        "physical_dimension": 2,
        "tensors": [[[0.6, 0.0], [0.0, 0.0]], [[0.8, 0.0], [0.0, 1.0]]],
        "projectors": {"0": [[1.0, 0.0], [0.0, 0.0]], "1": [[0.0, 0.0], [0.0, 1.0]]},
        "initial": [[1.0]],
    },
}


def _even_with_priors() -> dict:
    """The even process's document with a complex prior entry, and with its
    own start state [0, 1], which is not the stationary one."""
    even = json.loads(modelfile.serialize_model(modelfile.load_bundled("even_process")))
    return {
        "hmm-prior-complex": dict(even, prior=[[0.5, 0.7], 0.5]),
        "hmm-prior-0-1": dict(even, prior=[0.0, 1.0]),
    }


def _nan_imaginary_and_overflow_docs() -> dict:
    """The even process with ``[0.5, NaN]`` in a transition matrix and in its
    prior, and ``four_symbol_hqmm`` with a Kraus entry of 2e251."""
    even = json.loads(modelfile.serialize_model(modelfile.load_bundled("even_process")))
    transitions = json.loads(json.dumps(even["transitions"]))
    transitions["0"][0][0] = [0.5, math.nan]
    four = json.loads(modelfile.serialize_model(modelfile.load_bundled("four_symbol_hqmm")))
    four["operations"]["0"][0][1][0] = [2e251, 0.0]
    return {
        "hmm-transition-nan-imaginary": dict(even, transitions=transitions),
        "hmm-prior-nan-imaginary": dict(even, prior=[[0.5, math.nan], 0.5]),
        "hqmm-gram-overflow": four,
    }


def _write_documents(workdir: Path, docs: dict) -> list[str]:
    paths = []
    for name, doc in docs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def _failing_documents(workdir: Path) -> list[str]:
    docs = dict(FAILING_DOCS)
    docs["unknown-kind"] = dict(FAILING_DOCS["hmm-bad"], kind="markov")
    for name, field in REQUIRED_FIELDS.items():
        docs[f"{name}-no-{field}"] = {
            k: v for k, v in FAILING_DOCS[name].items() if k != field
        }
    docs["hqmm-empty-first"] = dict(
        FAILING_DOCS["hqmm-bad"], dimension=2, operations={"0": [], "1": [[[1.0]]]}
    )
    for name, operations in KRAUS_DOCS.items():
        dimension = 10**6 if name.endswith("huge") else 1
        docs[name] = {
            "kind": "hqmm",
            "alphabet": ["0", "1"],
            "dimension": dimension,
            "operations": operations,
        }
    return _write_documents(workdir, docs)


def _error_commands(workdir: Path) -> list[list[str]]:
    bundled = {
        name: str(resources.files("hqmm").joinpath("data", f"{name}.json"))
        for name in ("even_process", "four_symbol_hqmm", "cluster_phi_pi8")
    }
    argvs = [
        ["convert", bundled["even_process"], "--to", "hqmm-embed", "-o", "embed.json"],
        ["convert", bundled["even_process"], "--to", "hqmm-pure", "-o", "pure.json"],
        ["convert", bundled["four_symbol_hqmm"], "--to", "hqmm-embed", "-o", "no.json"],
        ["wordprob", bundled["even_process"], "011", "--initial", "1,3"],
        ["wordprob", bundled["four_symbol_hqmm"], "012", "--initial", "2,1"],
        ["wordprob", bundled["cluster_phi_pi8"], "011", "--initial", "0.25,0.5"],
    ]
    for path in _failing_documents(workdir):
        argvs += [["validate", path], ["steady", path]]
    for path in _write_documents(workdir, SHARED_RULE_DOCS):
        argvs += [
            ["validate", path],
            ["steady", path],
            ["dist", path, "-n", "2"],
            ["hankel", path],
            ["sample", path, "-n", "20", "--seed", "1"],
            ["wordprob", path, "0"],
        ]
    return argvs


def commands(workdir: Path) -> list[list[str]]:
    argvs, paths = [], {}
    for name in modelfile.BUNDLED_MODELS:
        paths[name] = str(resources.files("hqmm").joinpath("data", f"{name}.json"))
        argvs += _model_commands(paths[name], modelfile.load_bundled(name).alphabet)
    rng = np.random.default_rng(20101)
    for bond_dim, phys_dim in MPS_SHAPES:
        model = _random_mps(rng, bond_dim, phys_dim)
        name = f"mps-D{bond_dim}"
        paths[name] = str(workdir / f"{name}.json")
        Path(paths[name]).write_text(modelfile.serialize_model(model))
        argvs += _model_commands(paths[name], model.alphabet)
    for name in LONG_SAMPLE_MODELS:
        argvs.append(["sample", paths[name], "-n", str(LONG_SAMPLE_LENGTH), "--seed", "7"])
    for phi, xi in itertools.product(CLUSTER_PHIS, CLUSTER_XIS):
        grid = ["cluster", "--phi", repr(phi), "--xi", repr(xi)]
        argvs += [grid + ["h3"], grid + ["dist", "-n", "3"]]
    argvs += _error_commands(workdir)
    for name, length in itertools.product(BLOCK_EDGE_MODELS, BLOCK_EDGE_LENGTHS):
        argvs.append(["sample", paths[name], "-n", str(length), "--seed", "7"])
    for name in LATE_LONG_SAMPLE_MODELS:
        argvs.append(["sample", paths[name], "-n", str(LONG_SAMPLE_LENGTH), "--seed", "7"])
    for path in _write_documents(workdir, {"mps-projector-3x3": WRONG_PROJECTOR_DOC}):
        argvs += [["validate", path], ["steady", path]]
    argvs += [
        ["dist", paths["even_process"], "-n", "2000"],
        ["entropy", paths["four_state"], "-n", "600"],
        ["cluster", "--phi", "0.3", "--xi", "0", "dist", "-n", "1100"],
        ["scan-entropy", "--phi-steps", HUGE_STEPS, "--xi-steps", "2", "-o", "grid.csv"],
        ["scan-entropy", "--phi-steps", "2", "--xi-steps", HUGE_STEPS, "-o", "grid.csv"],
    ]
    for path in _write_documents(workdir, REFUSED_DOCS):
        argvs += [["validate", path], ["steady", path]]
    (path,) = _write_documents(workdir, {"hmm-negative-entry": NEGATIVE_ENTRY_DOC})
    argvs.append(["convert", path, "--to", "hqmm-pure", "-o", "pure-negative-entry.json"])
    for path in _write_documents(workdir, NON_FINITE_DOCS):
        argvs += [["validate", path], ["steady", path]]
    complex_prior, own_prior = _write_documents(workdir, _even_with_priors())
    argvs += [["validate", complex_prior], ["steady", complex_prior]]
    argvs.append(["wordprob", own_prior, "0", "--initial", "steady"])
    for path in _write_documents(workdir, _nan_imaginary_and_overflow_docs()):
        argvs += [["validate", path], ["steady", path]]
    for name, words in NONZERO_WORDS.items():
        model = modelfile.parse_model(Path(paths[name]).read_text())
        d = modelfile.kind_of(model).operational(model).dim
        weights = ",".join(str(k) for k in range(1, d + 1))
        for word, start in itertools.product(words, (None, "steady", "mixed", weights)):
            flag = ["--initial", start] if start else []
            argvs.append(["wordprob", paths[name], word, *flag])
    argvs += [
        ["convert", paths["even_process_vn"], "--to", "hqmm-embed", "-o", "from-vn.json"],
        ["convert", paths["mps-D2"], "--to", "hqmm-pure", "-o", "from-mps.json"],
        ["convert", paths["even_process"], "--to", "mps", "-o", "to-mps.json"],
        ["cluster", "--phi", "nan", "--xi", "0.3", "h3"],
        ["cluster", "--phi", "0.3", "--xi", "inf", "kraus"],
        ["cluster", "--phi", "-1e-3", "--xi", "0", "h3"],
        ["cluster", "--phi", "0.3", "--xi", "-2.5e0", "kraus"],
        ["cluster", "--phi", "-inf", "--xi", "0", "h3"],
        ["hankel", paths["even_process"], "--tol", "-1e-3"],
        ["cluster", "--ph", "-1e-3", "--xi", "0", "h3"],
        ["hankel", paths["even_process"], "--to", "-1e-3"],
        ["convert", paths["even_process"], "--to", "-1e-3", "-o", "negative.json"],
        ["cluster", "--phi", "0", "--xi", "0", "dist", "-n", "1", "--ph", "-1"],
        ["cluster", "--phi", "0", "--xi", "0", "h3", "--xi", "-1e-3"],
        ["cluster", "--xi", "0", "--phi", "-1e-3", "dist", "-n", "1"],
        ["dist", paths["even_process"], "-n", "3", "--csv", "words.csv"],
    ]
    (path,) = _write_documents(workdir, {"up-down": MULTI_CHARACTER_DOC})
    argvs.append(["dist", path, "-n", "2", "--csv", "up-down.csv"])
    argvs += [["validate", path] for path in _write_documents(workdir, SEPARATOR_DOCS)]
    return argvs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in commands(Path(tmp)):
                out, err = io.StringIO(), io.StringIO()
                code = cli.main(argv, out=out, err=err)
                digest = _sha256(f"{out.getvalue()}|{err.getvalue()}")
                shown = " ".join(Path(a).name if a.endswith(".json") else a for a in argv)
                written = Path(argv[-1]) if {"-o", "--csv"} & set(argv) else None
                if written is not None and written.exists():
                    digest += f", file {_sha256(written.read_text())}"
                print(f"{shown} -> {digest}, exit {code}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
