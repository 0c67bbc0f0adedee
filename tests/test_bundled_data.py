"""The committed bundled models are exactly what tools/make_bundled_models.py writes."""

import importlib.util
from pathlib import Path

import pytest

from hqmm import modelfile

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "hqmm" / "data"


def _tool():
    spec = importlib.util.spec_from_file_location(
        "make_bundled_models", ROOT / "tools" / "make_bundled_models.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODELS = _tool().bundled_models()


def test_tool_covers_every_data_file():
    assert sorted(MODELS) == sorted(p.stem for p in DATA.glob("*.json"))
    assert sorted(MODELS) == sorted(modelfile.BUNDLED_MODELS)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_regenerated_bytes_match_committed(name):
    text = modelfile.serialize_model(MODELS[name])
    assert text.encode() == (DATA / f"{name}.json").read_bytes()
