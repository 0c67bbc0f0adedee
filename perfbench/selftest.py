"""Self-test of the benchmark harness (kept out of the package test suite).

    python3 -m pytest -q perfbench/selftest.py

Runs every workload at minimum size, traced and untraced, and checks that
the result line carries every metric named in BENCHMARK.json with its unit.
Traced counts are per pass, so a longer run must report the same counts.
A deliberately wrong sampling digest (in a copy of the checkout) must be
counted as a failure without stopping the run, and the recorded digests
must match the current sampler.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _copy_checkout(dest: Path, with_sources: bool) -> Path:
    """A copy of BENCHMARK.json and the benchmark, and optionally of src/."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("out", "work", "__pycache__")
    shutil.copytree(HERE, dest / HERE.name, ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def _smoke(workload, trace, seconds=0, root=ROOT):
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", str(seconds),
        "--trace", str(trace), "--smoke", root=root,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-2].removeprefix("summary "))
    return json.loads(lines[-1]), summary


def _assert_metrics(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result, summary = _smoke(workload, 0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert summary["failed_frac"] == 0.0
    for m in result["metrics"].values():
        assert m["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    result, _ = _smoke(workload, 1)
    _assert_metrics(result, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0
    assert (HERE / "out" / f"spans-{workload}-seed3.json").is_file()


def test_traced_counts_do_not_depend_on_pass_count():
    short, short_summary = _smoke("sample", 1)
    long, long_summary = _smoke("sample", 1, seconds=2)
    assert long_summary["passes"] > short_summary["passes"]
    for m in SPEC["per_layer"]:
        if m["unit"] == "count":
            assert long["metrics"][m["name"]] == short["metrics"][m["name"]], m["name"]
    assert short["metrics"]["analysis.sample_trajectory.symbols"]["value"] > 0


def test_wrong_digest_is_counted_and_run_completes(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=True)
    digests = root / HERE.name / "digests.json"
    doc = json.loads(digests.read_text())
    for per_seed in doc["digests"].values():
        for seed in per_seed:
            per_seed[seed] = "0" * 64
    digests.write_text(json.dumps(doc))
    result, summary = _smoke("sample", 0, root=root)
    _assert_metrics(result, SPEC["end_to_end"])
    assert not result["correct"]
    assert result["failed"] > 0
    assert summary["failed_frac"] > 0


def test_recorded_digests_match_sampler():
    from hqmm import analysis, modelfile

    sys.path.insert(0, str(HERE))
    from workloads import DIGEST_SEEDS, DIGEST_STEPS, operational, sequence_digest

    digests = json.loads((HERE / "digests.json").read_text())["digests"]
    for name in modelfile.BUNDLED_MODELS:
        model = operational(modelfile.load_bundled(name))
        for seed in DIGEST_SEEDS:
            seq = analysis.sample_trajectory(model, DIGEST_STEPS, seed)
            assert sequence_digest(seq) == digests[name][str(seed)], (name, seed)


def test_fails_without_package_sources(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=False)
    proc = _run(
        "--workload", "stats", "--seed", "1", "--seconds", "1", "--trace", "0", root=root
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
