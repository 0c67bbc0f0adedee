"""Golden sampled sequences.

sha256 of ``" ".join(sample_trajectory(model, 10_000, seed))`` for every
bundled model and the diagonal embedding of ``four_state`` (d = 4, with
many Kraus operators), seeds 1-3. The sampled
sequences are part of the package's reproducibility contract, so any change
to the samplers must reproduce them bit for bit.
"""

import hashlib

import pytest

from hqmm import analysis, modelfile, quantum

STEPS = 10_000

GOLDEN = {
    "even_process": {
        1: "88d66ebfbdd4a03b41323731b1bcf1d0a2fac7546aceaa06bfd168752d688a9d",
        2: "bbda902ee0d9f91ad90c2068b2bf2ff045a82507f879a9f7ec4b59e7b55998f8",
        3: "664380572e14099c54f645a42ea1ea33a7063b77f123ab8db8a5e887251dca50",
    },
    "even_process_vn": {
        1: "88d66ebfbdd4a03b41323731b1bcf1d0a2fac7546aceaa06bfd168752d688a9d",
        2: "bbda902ee0d9f91ad90c2068b2bf2ff045a82507f879a9f7ec4b59e7b55998f8",
        3: "664380572e14099c54f645a42ea1ea33a7063b77f123ab8db8a5e887251dca50",
    },
    "four_state": {
        1: "4c785196f3d5f6db24d6bc8ec6f9f36142d973f8859da75998e1b68c8b49745d",
        2: "5993157ba30c8325dd6c8db26d65852a52e6fd306b18263aa8b4add99c317a94",
        3: "23e03c8a3be14deb1382f5ba601430472eacf2ccd437c4f95d24de195b68ed08",
    },
    "four_symbol_hqmm": {
        1: "4c785196f3d5f6db24d6bc8ec6f9f36142d973f8859da75998e1b68c8b49745d",
        2: "5993157ba30c8325dd6c8db26d65852a52e6fd306b18263aa8b4add99c317a94",
        3: "23e03c8a3be14deb1382f5ba601430472eacf2ccd437c4f95d24de195b68ed08",
    },
    "cluster_phi_pi4": {
        1: "aa32e0b50983057079054291e617cdde4e21f33a5e402f615bc7e1d5aab41891",
        2: "dedfa18b351863c374ba444ee834d061b9ca9f007c27e421e0b3d4f2526d55f5",
        3: "9e7f39123c9b191cccf0b215ae490b0bfb261c56a237a7afe00419c7ee6f12d9",
    },
    "cluster_phi_pi8": {
        1: "ef2e9fbd4a7da3cea920c42949655ce6d0c031d8da8d40050bcb67e75c2b1807",
        2: "cff3cf1e04d3e0014c40507304a3bed7edbe677a36212ac2247abf129233ad8a",
        3: "ddd770fc1dd225007395f162ca817f2a0afba188a1b85becbd12ebb61939f379",
    },
    "embedded_four_state": {
        1: "4c785196f3d5f6db24d6bc8ec6f9f36142d973f8859da75998e1b68c8b49745d",
        2: "5993157ba30c8325dd6c8db26d65852a52e6fd306b18263aa8b4add99c317a94",
        3: "23e03c8a3be14deb1382f5ba601430472eacf2ccd437c4f95d24de195b68ed08",
    },
}


def _model(name):
    if name == "embedded_four_state":
        return quantum.embed_classical(modelfile.load_bundled("four_state"))
    model = modelfile.load_bundled(name)
    return model.to_hqmm() if hasattr(model, "to_hqmm") else model


@pytest.mark.parametrize(
    "name,seed", [(name, seed) for name in GOLDEN for seed in GOLDEN[name]]
)
def test_golden_sequence(name, seed):
    seq = analysis.sample_trajectory(_model(name), STEPS, seed)
    assert hashlib.sha256(" ".join(seq).encode()).hexdigest() == GOLDEN[name][seed]


def test_golden_sequences_survive_cache_overflow(monkeypatch):
    # past the cap, states are recomputed instead of cached; output must not change
    monkeypatch.setattr(analysis, "_STATE_CACHE_CAP", 8)
    for name in ("cluster_phi_pi8", "four_state"):
        seq = analysis.sample_trajectory(_model(name), STEPS, 1)
        assert hashlib.sha256(" ".join(seq).encode()).hexdigest() == GOLDEN[name][1]
