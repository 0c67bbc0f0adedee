"""Print one digest line per command for a fixed list of ``hqmm`` commands.

Each line is ``argv -> sha256(stdout|stderr), exit code``, with model files
named by their base name so that two checkouts give comparable lines. The
list covers ``steady``, ``validate``, ``wordprob`` (stationary and maximally
mixed start), ``dist``, ``entropy``, ``hankel`` and ``sample`` on every
bundled model and on three seeded random MPS readouts, plus ``cluster h3``
and ``cluster dist`` over a small (phi, xi) grid. Commands run in-process
through ``hqmm.cli.main``. To check that a change leaves every printed byte
as it was, run it on both checkouts and diff the outputs:

    PYTHONPATH=src python tools/cli_outputs.py > after.txt
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
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
    return argvs


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            code = cli.main(argv, out=out, err=err)
            digest = hashlib.sha256(f"{out.getvalue()}|{err.getvalue()}".encode()).hexdigest()
            shown = " ".join(Path(a).name if a.endswith(".json") else a for a in argv)
            print(f"{shown} -> {digest}, exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
