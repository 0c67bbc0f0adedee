"""Print one digest line per command for a fixed list of ``hqmm`` commands.

Each line is ``argv -> sha256(stdout|stderr), exit code``, with model files
named by their base name so that two checkouts give comparable lines; a
command that writes a file adds ``, file sha256(contents)``. The list covers
``steady``, ``validate``, ``wordprob`` (stationary and maximally mixed start),
``dist``, ``entropy``, ``hankel`` and ``sample`` on every bundled model and on
three seeded random MPS readouts, plus ``cluster h3`` and ``cluster dist``
over a small (phi, xi) grid. It also covers the error paths: ``convert`` to
both quantum forms and from a quantum source, ``wordprob`` from explicit
weights, ``validate`` and ``steady`` on documents that fail validation or
parsing, one or more of each kind, and every model command on documents that
break a rule all kinds share (a repeated symbol, a start state of the wrong
shape). Commands run in-process through
``hqmm.cli.main``, from inside a temporary directory, so that the ``wrote
<path>`` lines name a relative path. To check that a change leaves every
printed byte as it was, run it on both checkouts and diff the outputs:

    PYTHONPATH=src python tools/cli_outputs.py > after.txt
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
MPS_SHAPES = ((2, 2), (3, 2), (4, 3))  # (bond dimension, physical dimension)


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
    argvs = []
    for name in modelfile.BUNDLED_MODELS:
        path = str(resources.files("hqmm").joinpath("data", f"{name}.json"))
        argvs += _model_commands(path, modelfile.load_bundled(name).alphabet)
    rng = np.random.default_rng(20101)
    for bond_dim, phys_dim in MPS_SHAPES:
        model = _random_mps(rng, bond_dim, phys_dim)
        path = workdir / f"mps-D{bond_dim}.json"
        path.write_text(modelfile.serialize_model(model))
        argvs += _model_commands(str(path), model.alphabet)
    for phi, xi in itertools.product(CLUSTER_PHIS, CLUSTER_XIS):
        grid = ["cluster", "--phi", repr(phi), "--xi", repr(xi)]
        argvs += [grid + ["h3"], grid + ["dist", "-n", "3"]]
    return argvs + _error_commands(workdir)


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
                written = Path(argv[-1]) if "-o" in argv else None
                if written is not None and written.exists():
                    digest += f", file {_sha256(written.read_text())}"
                print(f"{shown} -> {digest}, exit {code}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
