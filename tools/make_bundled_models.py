"""Regenerate the bundled model files under src/hqmm/data/."""

import math
from pathlib import Path

import numpy as np

from hqmm import classical, cluster, modelfile, quantum

DATA = Path(__file__).resolve().parent.parent / "src" / "hqmm" / "data"


def even_process() -> classical.HmmModel:
    return classical.HmmModel(
        alphabet=("0", "1"),
        transitions={
            "0": np.array([[0.5, 0.0], [0.0, 0.0]]),
            "1": np.array([[0.0, 1.0], [0.5, 0.0]]),
        },
        metadata={"name": "even process", "source": "two-state generator of the even language"},
    )


def even_process_vn() -> quantum.VnModel:
    s = 1 / math.sqrt(2)
    return quantum.VnModel(
        alphabet=("0", "1"),
        projectors={
            "0": np.diag([1.0, 0.0, 0.0]).astype(complex),
            "1": np.diag([0.0, 1.0, 1.0]).astype(complex),
        },
        unitary=np.array(
            [[s, 0.0, -s], [s, 0.0, s], [0.0, -1.0, 0.0]], dtype=complex
        ),
        metadata={
            "name": "even process (projective generator)",
            "source": "three-state projector/unitary realization of the even language",
        },
    )


def four_state() -> classical.HmmModel:
    t0 = np.zeros((4, 4))
    t0[0] = [0.5, 0.0, 0.25, 0.25]
    t1 = np.zeros((4, 4))
    t1[1] = [0.0, 0.5, 0.25, 0.25]
    t2 = np.zeros((4, 4))
    t2[2] = [0.25, 0.25, 0.5, 0.0]
    t3 = np.zeros((4, 4))
    t3[3] = [0.25, 0.25, 0.0, 0.5]
    return classical.HmmModel(
        alphabet=("0", "1", "2", "3"),
        transitions={"0": t0, "1": t1, "2": t2, "3": t3},
        prior=np.array([0.25, 0.25, 0.25, 0.25]),
        metadata={
            "name": "four-state compass walk",
            "source": "4-symbol process whose Hankel block has rank 3",
        },
    )


def four_symbol_hqmm() -> quantum.HqmmModel:
    s = 1 / math.sqrt(2)
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    plus = np.array([s, s], dtype=complex)
    minus = np.array([s, -s], dtype=complex)
    proj = lambda v: np.outer(v, v.conj())
    ops = {
        "0": [s * proj(up)],
        "1": [s * proj(down)],
        "2": [s * proj(plus)],
        "3": [s * proj(minus)],
    }
    return quantum.HqmmModel(
        alphabet=("0", "1", "2", "3"),
        dim=2,
        operations=ops,
        initial=np.eye(2, dtype=complex) / 2,
        metadata={
            "name": "two-state four-symbol model",
            "source": "qubit model matching the four-state compass walk",
        },
    )


def cluster_preset(phi: float, xi: float, name: str) -> quantum.HqmmModel:
    model = cluster.cluster_kraus(cluster.MeasurementBasis(phi, xi))
    return quantum.HqmmModel(
        alphabet=model.alphabet,
        dim=model.dim,
        operations=model.operations,
        metadata={"name": name, "source": "cluster-state readout Kraus pair"},
    )


def bundled_models() -> dict:
    """Every bundled model, keyed by its file name without ``.json``."""
    return {
        "even_process": even_process(),
        "even_process_vn": even_process_vn(),
        "four_state": four_state(),
        "four_symbol_hqmm": four_symbol_hqmm(),
        "cluster_phi_pi4": cluster_preset(math.pi / 4, 0.0, "cluster readout, phi=pi/4 xi=0"),
        "cluster_phi_pi8": cluster_preset(math.pi / 8, 0.0, "cluster readout, phi=pi/8 xi=0"),
    }


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for name, model in bundled_models().items():
        path = DATA / f"{name}.json"
        path.write_text(modelfile.serialize_model(model))
        reparsed = modelfile.parse_model(path.read_text())
        assert type(reparsed) is type(model), name
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
