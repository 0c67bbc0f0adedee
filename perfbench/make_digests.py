#!/usr/bin/env python3
"""Record the fixed-seed sampling digests that the `sample` workload checks.

For each bundled model and each seed in ``DIGEST_SEEDS`` this draws
``DIGEST_STEPS`` symbols with ``sample_trajectory`` (default initial state)
and stores the sha256 of the sequence in ``perfbench/digests.json``. The
recorded file pins the sampler's output: a change that alters any sampled
sequence fails the benchmark's digest check. Rerun only to re-pin on purpose:

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hqmm import analysis, modelfile  # noqa: E402

from workloads import DIGEST_SEEDS, DIGEST_STEPS, operational, sequence_digest  # noqa: E402


def main() -> int:
    digests = {}
    for name in modelfile.BUNDLED_MODELS:
        model = operational(modelfile.load_bundled(name))
        digests[name] = {
            str(seed): sequence_digest(analysis.sample_trajectory(model, DIGEST_STEPS, seed))
            for seed in DIGEST_SEEDS
        }
    doc = {"steps": DIGEST_STEPS, "seeds": list(DIGEST_SEEDS), "digests": digests}
    (HERE / "digests.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
