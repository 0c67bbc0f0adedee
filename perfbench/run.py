#!/usr/bin/env python3
"""Layered benchmark for hqmm.

    python3 perfbench/run.py --workload stats --seed 1 --seconds 20 --trace 0

Runs one seeded, closed-loop, single-client workload (``stats``, ``sample``,
``readout`` or ``cli``) against the package in ``src/hqmm`` of the checkout
that holds this file. A pass is a fixed list of tasks built from the seed; the
run repeats the pass until ``--seconds`` have elapsed and at least
``MIN_TASKS`` tasks have run, checking every result.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
every time scaled to a reference machine speed (see ``speed.py``).
With ``--trace 1`` it reports per-layer metrics instead: untraced passes
alternate with traced ones, which open a span around each of the
benchmark's calls into ``hqmm``; spans are written to ``perfbench/out/``.
Earlier stdout lines record the machine and a readable summary.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads change dense-solver timings by more than 10x on small
# matrices; pin them before NumPy is first imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
OUT = HERE / "out"

MIN_TASKS = 100
# The reference is timed whenever a segment of at least this many seconds of
# tasks has run, so a burst within a pass scales only the tasks near it. A
# quarter second keeps the reference (about 25 ms) near a tenth of the run.
SEGMENT_S = 0.25
# Set-up samples are fresh processes of about 0.3-1.6 s, spread evenly over
# the measured passes; their median is reported. Scaled to the reference
# speed, the median of 10 spread 0.02-0.07 (IQR/median) over ten seeds; 8
# keep a ``readout`` run near 40 s.
SETUP_SAMPLES = 8
# no new pass starts after this many seconds, so a run ends within 180 s
DEADLINE_S = 100.0
SETUP_TIMEOUT_S = 60

WORKLOADS = ("stats", "sample", "readout", "cli")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

# per-layer metrics: span name -> reported name; all are busy (self) time in s
LAYER_SPANS = {
    "analysis.enumerate_distribution": "analysis.enumerate_distribution.busy_s",
    "analysis.hankel_block": "analysis.hankel_block.busy_s",
    "analysis.block_entropy": "analysis.block_entropy.busy_s",
    "analysis.sample_trajectory": "analysis.sample_trajectory.busy_s",
    "quantum.word_probability": "quantum.word_probability.busy_s",
    "classical.word_probability": "classical.word_probability.busy_s",
    "quantum.steady_state": "quantum.steady_state.busy_s",
    "classical.steady_state": "classical.steady_state.busy_s",
    "linalg.transfer_matrix": "linalg.transfer_matrix.busy_s",
    "linalg.fixed_point": "linalg.fixed_point.busy_s",
    "linalg.numerical_rank": "linalg.numerical_rank.busy_s",
    "mps.validate_mps": "mps.validate_mps.busy_s",
    "mps.mps_to_hqmm": "mps.mps_to_hqmm.busy_s",
    "cluster.build_cluster": "cluster.build_cluster.busy_s",
    "cluster.oracle_word_probability": "cluster.oracle_word_probability.busy_s",
    "cluster.h3_closed_form": "cluster.h3_closed_form.busy_s",
    "modelfile.parse_model": "modelfile.parse_model.busy_s",
    "modelfile.serialize_model": "modelfile.serialize_model.busy_s",
    "cli.startup": "cli.startup_s",
    "cli.main": "cli.main.busy_s",
}

# work counts computed from the inputs of the tasks that ran
LAYER_COUNTS = (
    "analysis.enumerate_distribution.words",
    "analysis.hankel_block.entries",
    "analysis.sample_trajectory.symbols",
    "quantum.apply_symbol.calls",
    "linalg.fixed_point.order",
)


def _import_package():
    """Import the checkout's hqmm and the workloads; exit 2 if it is absent."""
    if not (SRC / "hqmm" / "__init__.py").is_file():
        print(f"error: hqmm sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hqmm

    if Path(hqmm.__file__).resolve().parent != (SRC / "hqmm").resolve():
        print(f"error: imported hqmm from {hqmm.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import spans
    import speed
    import workloads

    return spans, speed, workloads


def machine_record(cpus: list[int]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(cpus),
        "pinned_cpu": cpus[-1],
        "platform": platform.platform(),
    }


class PassResult:
    """Latencies, work and failures of repeated passes over one task list."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.latency_s: list[float] = []
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: dict[str, int] = {}
        # per task: REFERENCE_S over the reference time around its segment
        self.scale: list[float] = []
        # per pass: the sum of its segments' times, each scaled
        self.scaled_pass_s: list[float] = []
        # ru_maxrss (KiB) of this process and of its children after pass 1
        self.first_pass_rss_kib: tuple[int, int] | None = None


def run_passes(
    tasks, tracers, seconds, min_tasks, max_passes=None, between=None, reference=None
) -> list[PassResult]:
    """Repeat the pass until the time and task floors are met (closed loop).

    Pass p runs under ``tracers[p % len(tracers)]`` and is recorded in the
    result of that tracer, so traced and untraced passes alternate and see
    the same drift in machine speed. ``between(measured_s)``, when given, is
    called after each pass. ``reference``, when given, is timed at the start
    of each pass and after any task that ends a segment of at least
    ``SEGMENT_S`` (and after the last task), so each segment's tasks are
    scaled by the two reference times around it. Neither counts towards
    ``seconds``.
    """
    results = [PassResult() for _ in tracers]
    began = time.perf_counter()
    paused = 0.0
    p = 0
    while True:
        tracer, res = tracers[p % len(tracers)], results[p % len(tracers)]
        if reference is not None:
            ref_last = reference.time()
            paused += ref_last
        pass_s = scaled_s = 0.0
        seg_first = len(res.latency_s)
        t_seg = time.perf_counter()
        for i, task in enumerate(tasks):
            tracer.task_id = f"p{p}.t{i}"
            t0 = time.perf_counter()
            try:
                with tracer.span("task"):
                    task.run(tracer)
                ok = True
            except Exception as e:  # a failed task is counted; the run goes on
                ok = False
                if len(res.errors) < 5:
                    res.errors.append(f"{task.kind}: {type(e).__name__}: {e}")
            res.latency_s.append(time.perf_counter() - t0)
            res.attempted += 1
            if ok:
                res.work += task.work
                for name, n in task.counts.items():
                    res.counts[name] = res.counts.get(name, 0) + n
            else:
                res.failed += 1
            seg_s = time.perf_counter() - t_seg
            if i == len(tasks) - 1 or (reference is not None and seg_s >= SEGMENT_S):
                scale = 1.0
                if reference is not None:
                    ref = reference.time()
                    paused += ref
                    scale = reference.factor(ref_last, ref)
                    ref_last = ref
                pass_s += seg_s
                scaled_s += seg_s * scale
                res.scale += [scale] * (len(res.latency_s) - seg_first)
                seg_first = len(res.latency_s)
                t_seg = time.perf_counter()
        res.pass_s.append(pass_s)
        res.scaled_pass_s.append(scaled_s)
        if res.first_pass_rss_kib is None:
            res.first_pass_rss_kib = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            )
        tracer.task_id = None
        p += 1
        if between is not None:
            t_between = time.perf_counter()
            between(t_between - began - paused)
            paused += time.perf_counter() - t_between
        elapsed = time.perf_counter() - began
        measured = elapsed - paused
        attempted = sum(r.attempted for r in results)
        if max_passes is not None:
            if p >= max_passes:
                break
        elif elapsed >= DEADLINE_S or (
            p % len(tracers) == 0 and measured >= seconds and attempted >= min_tasks
        ):
            break
    return results


def _percentile(values, q: int) -> float:
    """The q-th percentile, interpolated within the data (never beyond the
    largest value, which matters for a smoke run's few tasks)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class SetupSampler:
    """Times fresh set-up processes (import to warm-up), ``count`` in all:
    one after the first pass, then one each time another ``seconds / (count
    - 1)`` of passes have run, and any still missing after the last pass.
    None runs before the first pass, whose ``ru_maxrss`` is the peak."""

    def __init__(self, args, count: int, reference):
        self.reference = reference
        self.argv = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-only",
        ]
        self.count = count
        self.interval = args.seconds / max(count - 1, 1)
        self.times: list[float] = []
        self.scaled: list[float] = []

    def sample(self) -> None:
        before = self.reference.time()
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, capture_output=True, timeout=SETUP_TIMEOUT_S)
        self.times.append(time.perf_counter() - t0)
        after = self.reference.time()
        self.scaled.append(self.times[-1] * self.reference.factor(before, after))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.decode()[-2000:]}")

    def between_passes(self, measured_s: float) -> None:
        taken = len(self.times)
        if taken < self.count - 1 and measured_s >= taken * self.interval:
            self.sample()

    def finish(self) -> None:
        while len(self.times) < self.count:
            self.sample()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="minimum size: one task of each kind, one set-up sample, no task floor",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # the reference, the passes and every child process share one core
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    spans, speed, workloads = _import_package()
    digests = json.loads((HERE / "digests.json").read_text())["digests"]
    WORK.mkdir(exist_ok=True)

    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            tasks = workloads.build(args.workload, args.seed, Path(tmp), spans.NullTracer(), digests)
            run_passes(workloads.warmup_tasks(tasks), [spans.NullTracer()], 0, 0, max_passes=1)
        return 0

    machine = machine_record(cpus)
    print("machine " + json.dumps(machine), flush=True)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        if args.trace:
            tracer.task_id = "setup"
        tasks = workloads.build(args.workload, args.seed, Path(tmp), tracer, digests)
        # warm-up outcomes are not scored; the measured passes repeat every task
        run_passes(workloads.warmup_tasks(tasks), [spans.NullTracer()], 0, 0, max_passes=1)
        if args.smoke:
            tasks = workloads.one_of_each_kind(tasks)
        min_tasks = 0 if args.smoke else MIN_TASKS
        if args.trace:
            first_span = len(tracer.spans)
            plain, traced = run_passes(
                tasks, [spans.NullTracer(), tracer], args.seconds, min_tasks
            )
        else:
            reference = speed.Reference()
            sampler = SetupSampler(args, 1 if args.smoke else SETUP_SAMPLES, reference)
            (result,) = run_passes(
                tasks, [tracer], args.seconds, min_tasks,
                between=sampler.between_passes, reference=reference,
            )
            # read after the first pass: later passes repeat the same work,
            # and allocator fragmentation would tie the peak to the pass count
            own_kib, children_kib = result.first_pass_rss_kib
            peak_kib = children_kib if args.workload == "cli" else own_kib

    if args.trace:
        # per traced pass, so that the figures do not grow with the number
        # of passes a faster program fits into the same seconds
        n_traced = len(traced.pass_s)
        busy = tracer.self_times(first_span)
        probe_s = sum(busy.get(name, 0.0) for name in workloads.PROBE_SPANS)
        plain_s = statistics.fmean(plain.pass_s)
        traced_s = (sum(traced.pass_s) - probe_s) / n_traced
        metrics = {
            out: _metric(busy.get(name, 0.0) / n_traced, "s")
            for name, out in LAYER_SPANS.items()
        }
        for name in LAYER_COUNTS:
            metrics[name] = _metric(traced.counts.get(name, 0) / n_traced, "count")
        metrics["trace.overhead_frac"] = _metric((traced_s - plain_s) / plain_s, "ratio")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        errors = plain.errors + traced.errors
        OUT.mkdir(exist_ok=True)
        tracer.write(
            OUT / f"spans-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "machine": machine, "metrics": metrics},
        )
        summary = {"passes": len(traced.pass_s), "tasks": traced.attempted}
    else:
        sampler.finish()
        latencies = [t * f for t, f in zip(result.latency_s, result.scale)]
        # every pass repeats the same tasks, so once scaled to the reference
        # speed (speed.py) passes differ only by noise the reference missed
        run_s = statistics.median(result.scaled_pass_s)
        values = {
            "setup_s": statistics.median(sampler.scaled),
            "run_s": run_s,
            "work_per_s": result.work / len(result.pass_s) / run_s,
            "task_p50_ms": 1e3 * statistics.median(latencies),
            "task_p90_ms": 1e3 * _percentile(latencies, 90),
            "peak_rss_mib": peak_kib / 1024.0,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
        attempted, failed, errors = result.attempted, result.failed, result.errors
        summary = {
            "passes": len(result.pass_s),
            "tasks": result.attempted,
            "tasks_per_pass": len(tasks),
            "work_unit": workloads.WORK_UNITS[args.workload],
            "raw_run_s": statistics.median(result.pass_s),
            "raw_setup_s": statistics.median(sampler.times),
            "median_scale": statistics.median(result.scale),
        }
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"run-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump({
                "workload": args.workload, "seed": args.seed, "machine": machine,
                "metrics": metrics, "summary": summary, "pass_s": result.pass_s,
                "scaled_pass_s": result.scaled_pass_s, "scale": result.scale,
                "setup_samples_s": sampler.times,
                "latency_s": result.latency_s, "kinds": [t.kind for t in tasks],
            }, f)
    for line in errors:
        print(f"failure: {line}", file=sys.stderr)
    summary["failed_frac"] = failed / attempted
    print("summary " + json.dumps(summary), flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
