"""Golden sampled sequences and word tables.

sha256 of ``" ".join(sample_trajectory(model, 10_000, seed))`` for every
bundled model and the diagonal embedding of ``four_state`` (d = 4, with
many Kraus operators), seeds 1-3. The sampled
sequences are part of the package's reproducibility contract, so any change
to the samplers must reproduce them bit for bit.

The word-table pins are sha256 of the stdout of ``hqmm dist -n 6`` and
``hqmm entropy -n 5`` on every bundled model file, and of
``hqmm cluster --phi ... --xi ... dist -n 3`` at three fixed angles: any
change to enumeration, marginalization or block entropy must print the same
bytes.
"""

import hashlib
import io
import math
from importlib import resources

import pytest

from hqmm import analysis, cli, modelfile, quantum

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
    # past the cap, states are recomputed instead of cached; output must not
    # change, with compiled kernels or, no terms compiled, accumulated ones
    monkeypatch.setattr(analysis, "_STATE_CACHE_CAP", 8)
    for terms in (analysis._COMPILED_TERMS, 0):
        monkeypatch.setattr(analysis, "_COMPILED_TERMS", terms)
        for name in ("cluster_phi_pi8", "four_state"):
            seq = analysis.sample_trajectory(_model(name), STEPS, 1)
            assert hashlib.sha256(" ".join(seq).encode()).hexdigest() == GOLDEN[name][1]


GOLDEN_CLI = {
    "even_process": {
        "dist": "7d0478490e1da334a4abbf283d2029ab76a5f6d28012e812b28952782ee88084",
        "entropy": "dafb53fe19a86cae6c12febfa7910c43808b43a910a82a319f20d590ce786769",
    },
    "even_process_vn": {
        "dist": "7d0478490e1da334a4abbf283d2029ab76a5f6d28012e812b28952782ee88084",
        "entropy": "dafb53fe19a86cae6c12febfa7910c43808b43a910a82a319f20d590ce786769",
    },
    "four_state": {
        "dist": "64db4cd2de5e87d36c6ece845b2046cd2efe2e2b4fb5974d4ecfc7ce8336eff9",
        "entropy": "ac9623431a21582b091f99bd6768012e12ff767513766d6daccd528ab5dcc539",
    },
    "four_symbol_hqmm": {
        "dist": "64db4cd2de5e87d36c6ece845b2046cd2efe2e2b4fb5974d4ecfc7ce8336eff9",
        "entropy": "ac9623431a21582b091f99bd6768012e12ff767513766d6daccd528ab5dcc539",
    },
    "cluster_phi_pi4": {
        "dist": "44be83ee9c5e8ad5e3c2db7dfdb8d400727a84400c4d6c4817e3a59202d7024e",
        "entropy": "1284c3ca8bae7e2fa01f5b1aa55cd49c8bd1cc5d5bdef60153c2d5d75367dbcf",
    },
    "cluster_phi_pi8": {
        "dist": "3fac66bb936697abd49ce4461a278bfca227b01b0fd3d11896c716b1e8e676bd",
        "entropy": "5670950d52427a58903bc04a8f94d68f1bd8b14cb97457747cba6ab3a6e6c452",
    },
}
CLI_LENGTHS = {"dist": "6", "entropy": "5"}

GOLDEN_CLUSTER_DIST = {
    (0.3, 0.0): "af6f52e59b89ccc4926dd1be5a52f13f5f3f35532baf0c03f51fcec18d324dd5",
    (math.pi / 8, math.pi / 3): (
        "a750019cc8531194c2a487ba60d458a9d613efe01b7f48540ba7c219e4d171fe"
    ),
    (1.1, 2.5): "e02b5a75c1e47295ba6ed91903fbce642410eab1906e9eb2afd2cea77768882d",
}


def _stdout_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(argv, out=out, err=err) == 0, err.getvalue()
    assert err.getvalue() == ""
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize(
    "name,command", [(name, command) for name in GOLDEN_CLI for command in GOLDEN_CLI[name]]
)
def test_golden_word_table_output(name, command):
    path = str(resources.files("hqmm").joinpath("data", f"{name}.json"))
    argv = [command, path, "-n", CLI_LENGTHS[command]]
    assert _stdout_digest(argv) == GOLDEN_CLI[name][command]


@pytest.mark.parametrize("phi,xi", list(GOLDEN_CLUSTER_DIST))
def test_golden_cluster_dist_output(phi, xi):
    argv = ["cluster", "--phi", repr(phi), "--xi", repr(xi), "dist", "-n", "3"]
    assert _stdout_digest(argv) == GOLDEN_CLUSTER_DIST[phi, xi]
