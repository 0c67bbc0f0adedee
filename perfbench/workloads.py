"""The four benchmark workloads and their correctness checks.

``build(name, seed, workdir, tracer, digests)`` is the set-up step: it makes
the workload's models from the seed, writes them to model files in
``workdir`` and reads them back, so the program sees only generated inputs.
It returns one pass: a fixed list of tasks. The composition of a pass (model
shapes, word lengths, bond dimensions, command kinds) is the same for every
seed; the seed chooses entries, angles, words and sampler seeds.

Each task calls into ``hqmm`` through ``tracer`` spans named
``<module>.<function>`` and raises ``CheckFailed`` when a result is wrong.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from hqmm import analysis, classical, cli, cluster, linalg, modelfile, mps, quantum
from hqmm.classical import HmmModel
from hqmm.quantum import VnModel

import inputs

WORK_UNITS = {
    "stats": "word probabilities (enumerated words plus Hankel entries)",
    "sample": "symbols drawn",
    "readout": "stationary states solved",
    "cli": "commands completed",
}

# spans that time a measurement probe rather than a call the task makes;
# the tracing overhead is computed without them
PROBE_SPANS = ("cli.startup",)

DIGEST_STEPS = 10_000
DIGEST_SEEDS = (1, 2, 3)


class CheckFailed(Exception):
    """A correctness check on a program output did not hold."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Task:
    """One closed-loop request: ``run(tracer)`` makes the calls and checks.

    ``warm``, when set, is what the warm-up pass runs in place of ``run``.
    """

    kind: str
    work: int
    run: Callable
    counts: dict = field(default_factory=dict)
    warm: Callable | None = None


def sequence_digest(symbols) -> str:
    """sha256 of a sampled sequence, symbols separated by single spaces."""
    return hashlib.sha256(" ".join(symbols).encode()).hexdigest()


def operational(model):
    """The word-statistics form of a parsed model (as the CLI reduces it)."""
    if isinstance(model, VnModel):
        return model.to_hqmm()
    if isinstance(model, mps.MpsModel):
        return mps.mps_to_hqmm(model)
    return model


def _through_file(model, path: Path, tr):
    """Write ``model`` to a model file and parse it back."""
    with tr.span("modelfile.serialize_model"):
        text = modelfile.serialize_model(model)
    path.write_text(text)
    with tr.span("modelfile.parse_model"):
        return modelfile.parse_model(path.read_text())


def _layer(model):
    """(module, span prefix, state count) for a classical or quantum model."""
    if isinstance(model, HmmModel):
        return classical, "classical", model.n_states
    return quantum, "quantum", model.dim


def _words(alphabet, max_len: int, min_len: int = 0):
    return [w for n in range(min_len, max_len + 1) for w in itertools.product(alphabet, repeat=n)]


def _channel(model, state: np.ndarray) -> np.ndarray:
    """The forgetful map applied by the benchmark's own arithmetic."""
    if isinstance(model, HmmModel):
        return model.total() @ state
    ks = np.stack([k for s in model.alphabet for k in model.operations[s]])
    return np.einsum("kab,bc,kdc->ad", ks, state, ks.conj())


def _entropy(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


# ---------------------------------------------------------------------------
# stats: process-language reports (enumeration, entropy, Hankel rank)

# (random HMM state count, alphabet size, enumeration length, Hankel word length)
STATS_RANDOM_HMMS = ((2, 2, 12, 3), (3, 3, 7, 2), (5, 2, 11, 3), (6, 4, 5, 2))
STATS_EMBEDDED_HMMS = ((3, 2, 10, 3), (4, 3, 6, 2), (6, 2, 9, 3))
STATS_CLUSTERS = 4
STATS_CLUSTER_SIZE = (10, 3)
STATS_BUNDLED = {  # name: (enumeration length, Hankel word length, exact rank)
    "even_process": (12, 3, None),
    "four_state": (5, 2, 3),
    "four_symbol_hqmm": (5, 2, None),
}


def _stats_task(kind, model, n, max_len, basis=None, exact_rank=None) -> Task:
    mod, layer, dim = _layer(model)
    alphabet = model.alphabet
    k = len(alphabet)
    words = _words(alphabet, max_len)
    rank_bound = dim if layer == "classical" else dim * dim
    given = model.prior if layer == "classical" else model.initial
    word_symbols = sum(len(w) for w in words)
    counts = {
        "analysis.enumerate_distribution.words": k**n,
        "analysis.hankel_block.entries": len(words) ** 2,
    }
    if layer == "quantum":
        # apply_symbol calls of the prefix-tree enumeration, the Hankel
        # entries and the word-probability checks, counted from the inputs
        counts["quantum.apply_symbol.calls"] = (
            sum(k**m for m in range(1, n + 1)) + 2 * len(words) * word_symbols + word_symbols
        )

    def run(tr):
        with tr.span(f"{layer}.steady_state"):
            state, _ = mod.steady_state(model)
        residual = float(np.max(np.abs(_channel(model, state) - state)))
        check(residual <= 1e-9, f"{kind}: stationary residual {residual:.3e}")
        start = state if given is None else given
        with tr.span("analysis.enumerate_distribution"):
            dist = analysis.enumerate_distribution(model, n, initial=start)
        with tr.span("analysis.block_entropy"):
            entropy = analysis.block_entropy(dist)
        with tr.span("analysis.hankel_block"):
            block = analysis.hankel_block(model, words, words)
        with tr.span("linalg.numerical_rank"):
            rank = linalg.numerical_rank(block.matrix)

        check(len(dist.probabilities) == k**n, f"{kind}: table has {len(dist.probabilities)} words")
        mass = dist.total()
        check(abs(mass - 1.0) <= 1e-9, f"{kind}: length-{n} mass {mass!r}")
        check(-1e-12 <= entropy <= n * math.log2(k) + 1e-9, f"{kind}: entropy {entropy!r}")
        check(rank <= rank_bound, f"{kind}: Hankel rank {rank} > {rank_bound}")
        if exact_rank is not None:
            check(rank == exact_rank, f"{kind}: Hankel rank {rank} != {exact_rank}")
        marginal = dist
        while marginal.length > max_len:
            marginal = marginal.marginalize_last()
        h = block.matrix
        # the empty word is row 0 and column 0, so H[0, j] = P(w_j) = H[j, 0]
        for j, w in enumerate(words):
            with tr.span(f"{layer}.word_probability"):
                p = mod.word_probability(model, w, initial=start)
            check(
                abs(h[0, j] - p) <= 1e-12 and abs(h[j, 0] - p) <= 1e-12,
                f"{kind}: Hankel entry for {w} disagrees with word_probability",
            )
            if len(w) == max_len:
                check(
                    abs(marginal.probabilities[w] - p) <= 1e-10,
                    f"{kind}: enumerated marginal of {w} disagrees with word_probability",
                )
        if basis is not None:
            closed = cluster.length3_closed_form(basis)
            worst = max(abs(marginal.probabilities[w] - q) for w, q in closed.items())
            check(worst <= 1e-10, f"{kind}: length-3 marginal off closed form by {worst:.3e}")
            with tr.span("cluster.h3_closed_form"):
                h3 = cluster.h3_closed_form(basis)
            h_marginal = analysis.block_entropy(marginal)
            check(abs(h_marginal - h3) <= 1e-9, f"{kind}: H3 {h_marginal!r} != {h3!r}")

    return Task(kind, k**n + len(words) ** 2, run, counts)


def _build_stats(seed, workdir, tr, digests) -> list[Task]:
    rng = np.random.default_rng([seed, 1])
    tasks = []
    n, max_len = STATS_CLUSTER_SIZE
    for i in range(STATS_CLUSTERS):
        basis = inputs.random_basis(rng)
        model = _through_file(cluster.cluster_kraus(basis), workdir / f"cluster{i}.json", tr)
        tasks.append(_stats_task("cluster", model, n, max_len, basis=basis))
    for name, (n, max_len, exact_rank) in STATS_BUNDLED.items():
        model = _through_file(modelfile.load_bundled(name), workdir / f"{name}.json", tr)
        tasks.append(_stats_task(name, model, n, max_len, exact_rank=exact_rank))
    for d, k, n, max_len in STATS_RANDOM_HMMS:
        model = _through_file(inputs.random_hmm(rng, d, k), workdir / f"hmm{d}x{k}.json", tr)
        tasks.append(_stats_task(f"hmm-d{d}-a{k}", model, n, max_len))
    for d, k, n, max_len in STATS_EMBEDDED_HMMS:
        embedded = quantum.embed_classical(inputs.random_hmm(rng, d, k))
        model = _through_file(embedded, workdir / f"embedded{d}x{k}.json", tr)
        tasks.append(_stats_task(f"embedded-d{d}-a{k}", model, n, max_len))
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


# ---------------------------------------------------------------------------
# sample: trajectory sampling on all three sampler paths

SAMPLE_LENGTH = 4000
# the generic d >= 3 sampler misses its state cache on every step of an MPS
# readout, at about 50 us a step; a shorter draw keeps it from dominating
SAMPLE_MPS_LENGTH = 1500
SAMPLE_REPEATS = 2  # seeded tasks per model and pass
SAMPLE_SEEDED_CLUSTERS = 2
SAMPLE_MPS_SHAPE = (3, 2)  # bond dimension, physical dimension


def _linear_form(model):
    """Per-symbol matrices M_s and the unit functional u, so that
    P(s_1 ... s_n) = u M_{s_n} ... M_{s_1} vec(state). Quantum operations
    become column-stacking superoperators sum_i conj(K_i) (x) K_i."""
    if isinstance(model, HmmModel):
        return {s: model.transitions[s] for s in model.alphabet}, np.ones(model.n_states)
    ops = {
        s: sum(np.kron(k.conj(), k) for k in model.operations[s]) for s in model.alphabet
    }
    return ops, np.eye(model.dim).reshape(-1, order="F")


def _pair_sigmas(ops, unit, state, trials) -> dict:
    """Standard deviation of each length-2 word's frequency over ``trials``
    overlapping positions of a stationary sequence.

    Neighbouring positions are correlated, so the binomial variance
    p(1 - p)/trials understates the spread (by up to 1.6x for the bundled
    models). The asymptotic variance adds twice the summed covariances:
    the one-step overlap P(aaa) - p^2 for a repeated symbol, and
    sum_j (u A S^j A pi - p^2) = u A (I - S + pi u)^{-1} A pi - p^2 for the
    rest, with A = M_b M_a and S = sum_s M_s.
    """
    pi = state.reshape(-1, order="F")
    total = sum(ops.values())
    z = np.linalg.inv(np.eye(len(pi)) - total + np.outer(pi, unit))
    sigmas = {}
    for a, b in itertools.product(ops, repeat=2):
        pair = ops[b] @ ops[a]
        p = float((unit @ pair @ pi).real)
        overlap = float((unit @ ops[a] @ pair @ pi).real) if a == b else 0.0
        tail = float((unit @ pair @ z @ pair @ pi).real) - p * p
        var = p * (1.0 - p) + 2.0 * (overlap - p * p) + 2.0 * tail
        sigmas[(a, b)] = math.sqrt(max(var, 0.0) / trials)
    return sigmas


def _sample_task(kind, model, length, seed) -> Task:
    mod, layer, _ = _layer(model)
    alphabet = model.alphabet
    ops, unit = _linear_form(model)

    def run(tr):
        with tr.span(f"{layer}.steady_state"):
            state, _ = mod.steady_state(model)
        with tr.span("analysis.sample_trajectory"):
            seq = analysis.sample_trajectory(model, length, seed, initial=state)
        check(len(seq) == length, f"{kind}: drew {len(seq)} of {length} symbols")
        check(set(seq) <= set(alphabet), f"{kind}: symbol outside {alphabet}")
        seen = Counter(zip(seq, seq[1:]))
        trials = length - 1
        sigmas = _pair_sigmas(ops, unit, state, trials)
        for w, sigma in sigmas.items():
            with tr.span(f"{layer}.word_probability"):
                p = mod.word_probability(model, w, initial=state)
            freq = seen[w] / trials
            check(
                abs(freq - p) <= 6.0 * sigma + 1e-12,
                f"{kind} seed {seed}: frequency of {''.join(w)} is {freq:.5f}, "
                f"P = {p:.5f} (6 sigma = {6 * sigma:.5f})",
            )

    return Task(kind, length, run, {"analysis.sample_trajectory.symbols": length})


def _digest_task(name, model, seed, expected) -> Task:
    alphabet = set(model.alphabet)

    def run(tr):
        with tr.span("analysis.sample_trajectory"):
            seq = analysis.sample_trajectory(model, DIGEST_STEPS, seed)
        check(set(seq) <= alphabet, f"digest {name}: symbol outside the alphabet")
        check(
            sequence_digest(seq) == expected,
            f"digest {name} seed {seed}: sampled sequence differs from the recorded one",
        )

    return Task(
        f"digest-{name}", DIGEST_STEPS, run, {"analysis.sample_trajectory.symbols": DIGEST_STEPS}
    )


def _build_sample(seed, workdir, tr, digests) -> list[Task]:
    rng = np.random.default_rng([seed, 2])
    bundled = {
        name: operational(
            _through_file(modelfile.load_bundled(name), workdir / f"{name}.json", tr)
        )
        for name in modelfile.BUNDLED_MODELS
    }
    # the recorded digests run on every pass, whatever the workload seed
    tasks = [
        _digest_task(name, bundled[name], s, digests[name][str(s)])
        for name in modelfile.BUNDLED_MODELS
        for s in DIGEST_SEEDS
    ]
    models = {
        "even_process": bundled["even_process"],
        "cluster_phi_pi8": bundled["cluster_phi_pi8"],
        "four_symbol_hqmm": bundled["four_symbol_hqmm"],
    }
    for i in range(SAMPLE_SEEDED_CLUSTERS):
        basis = inputs.random_basis(rng)
        models[f"cluster{i}"] = _through_file(
            cluster.cluster_kraus(basis), workdir / f"cluster{i}.json", tr
        )
    embedded = quantum.embed_classical(modelfile.load_bundled("four_state"))
    models["embedded_four_state"] = _through_file(embedded, workdir / "embedded.json", tr)
    readout = inputs.random_mps(rng, *SAMPLE_MPS_SHAPE)
    models["mps_readout"] = operational(_through_file(readout, workdir / "mps.json", tr))
    seeded = [
        _sample_task(
            name,
            model,
            SAMPLE_MPS_LENGTH if name == "mps_readout" else SAMPLE_LENGTH,
            int(rng.integers(1, 2**62)),
        )
        for name, model in models.items()
        for _ in range(SAMPLE_REPEATS)
    ]
    order = rng.permutation(len(seeded))
    return tasks + [seeded[i] for i in order]


# ---------------------------------------------------------------------------
# readout: MPS reduction and stationary state, cluster oracle cross-checks

READOUT_MPS = ((4, 6), (8, 6), (16, 3), (24, 1))  # (bond dimension, tasks per pass)
READOUT_CLUSTERS = 9
READOUT_ORACLE_QUBITS = (12, 13, 14)
READOUT_WORD_LENGTH = 3


def _readout_task(kind, model, oracle_case=None) -> Task:
    alphabet = model.alphabet
    words = _words(alphabet, READOUT_WORD_LENGTH, min_len=1)
    order = model.bond_dim**2

    def run(tr):
        with tr.span("mps.validate_mps"):
            problems = mps.validate_mps(model)
        check(not problems, f"{kind}: validate_mps reported {problems}")
        with tr.span("mps.mps_to_hqmm"):
            hqmm_model = mps.mps_to_hqmm(model)
        with tr.span("linalg.transfer_matrix"):
            transfer = linalg.transfer_matrix(hqmm_model.operations)
        with tr.span("linalg.fixed_point"):
            rho, unique = linalg.fixed_point(transfer)
        check(unique, f"{kind}: fixed point reported as not unique")
        residual = float(np.linalg.norm(_channel(hqmm_model, rho) - rho))
        check(residual <= 1e-9, f"{kind}: ||L(rho) - rho|| = {residual:.3e}")
        trace = complex(np.trace(rho))
        check(abs(trace - 1.0) <= 1e-10, f"{kind}: trace {trace!r}")
        low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
        check(low >= -1e-10, f"{kind}: smallest eigenvalue {low:.3e}")
        probs = {(): 1.0}
        for w in words:
            with tr.span("quantum.word_probability"):
                probs[w] = quantum.word_probability(hqmm_model, w, initial=rho)
        for n in range(1, READOUT_WORD_LENGTH + 1):
            mass = sum(p for w, p in probs.items() if len(w) == n)
            check(abs(mass - 1.0) <= 1e-10, f"{kind}: length-{n} mass {mass!r}")
        # stationarity: summing out the first or the last symbol gives P(w)
        for w, p in probs.items():
            if len(w) < READOUT_WORD_LENGTH:
                first = sum(probs[(s,) + w] for s in alphabet)
                last = sum(probs[w + (s,)] for s in alphabet)
                check(
                    abs(first - p) <= 1e-10 and abs(last - p) <= 1e-10,
                    f"{kind}: marginals of {w} are not stationary",
                )
        if oracle_case is None:
            return
        basis, n_qubits = oracle_case
        with tr.span("cluster.build_cluster"):
            oracle = cluster.build_cluster(n_qubits)
        for w in words:
            with tr.span("cluster.oracle_word_probability"):
                brute = cluster.oracle_word_probability(oracle, basis, w)
            with tr.span("quantum.word_probability"):
                p = quantum.word_probability(hqmm_model, w)
            check(abs(brute - p) <= 1e-10, f"{kind}: oracle {brute!r} != model {p!r} for {w}")
        with tr.span("cluster.h3_closed_form"):
            h3 = cluster.h3_closed_form(basis)
        h = _entropy(p for w, p in probs.items() if len(w) == 3)
        check(abs(h - h3) <= 1e-9, f"{kind}: stationary H3 {h!r} != closed form {h3!r}")

    return Task(kind, 1, run, {"linalg.fixed_point.order": order})


def _build_readout(seed, workdir, tr, digests) -> list[Task]:
    rng = np.random.default_rng([seed, 3])
    tasks = []
    for bond_dim, count in READOUT_MPS:
        for i in range(count):
            phys_dim = 2 + i % 2
            model = _through_file(
                inputs.random_mps(rng, bond_dim, phys_dim),
                workdir / f"mps{bond_dim}-{i}.json",
                tr,
            )
            tasks.append(_readout_task(f"mps-D{bond_dim}", model))
    for i in range(READOUT_CLUSTERS):
        basis = inputs.random_basis(rng)
        n_qubits = READOUT_ORACLE_QUBITS[i % len(READOUT_ORACLE_QUBITS)]
        model = _through_file(mps.cluster_mps(basis), workdir / f"cluster{i}.json", tr)
        tasks.append(_readout_task("cluster", model, (basis, n_qubits)))
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


# ---------------------------------------------------------------------------
# cli: one `python -m hqmm.cli` subprocess per task

CLI_TIMEOUT_S = 60


def child_env() -> dict:
    """Environment for CLI children: package on the path, BLAS pinned."""
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _cli_task(kind, argv, outputs, env) -> Task:
    def run(tr):
        if tr.enabled:
            with tr.span("cli.startup"):
                probe = subprocess.run(
                    [sys.executable, "-c", "import hqmm.cli"],
                    env=env,
                    capture_output=True,
                    timeout=CLI_TIMEOUT_S,
                )
            check(probe.returncode == 0, f"import probe failed: {probe.stderr[-500:]!r}")
        proc = subprocess.run(
            [sys.executable, "-m", "hqmm.cli", *argv],
            env=env,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
        check(
            proc.returncode == 0,
            f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr[-500:]!r}",
        )
        written = {p: p.read_bytes() for p in outputs}
        out, err = io.StringIO(), io.StringIO()
        with tr.span("cli.main"):
            code = cli.main(argv, out, err)
        check(code == 0, f"{' '.join(argv)}: in-process exit {code}: {err.getvalue()!r}")
        check(
            proc.stdout == out.getvalue().encode(),
            f"{' '.join(argv)}: subprocess stdout differs from in-process main",
        )
        for p in outputs:
            check(p.read_bytes() == written[p], f"{' '.join(argv)}: {p.name} differs")
        if kind == "convert":
            text = written[outputs[0]].decode()
            with tr.span("modelfile.parse_model"):
                converted = modelfile.parse_model(text)
            with tr.span("modelfile.serialize_model"):
                again = modelfile.serialize_model(converted)
            check(again == text, "convert: written model does not round-trip")

    def warm(tr):
        # the children start from a fresh interpreter either way, so the
        # warm-up only runs the in-process side of each command kind
        cli.main(argv, io.StringIO(), io.StringIO())

    return Task(kind, 1, run, warm=warm)


# one pass: (kind, subcommand, bundled model or None); every bundled model
# and every subcommand appears, so the work of a pass does not depend on the
# seed, which chooses only words, angles and sampler seeds
CLI_PASS = (
    ("validate", "validate", "four_state"),
    ("steady", "steady", "even_process_vn"),
    ("wordprob", "wordprob", "four_symbol_hqmm"),
    ("entropy", "entropy", "cluster_phi_pi4"),
    ("dist", "dist", "even_process"),
    ("hankel", "hankel", "cluster_phi_pi8"),
    ("sample", "sample", "cluster_phi_pi8"),
    ("cluster-h3", "cluster", None),
    ("cluster-dist", "cluster", None),
    ("convert", "convert", "even_process"),
    ("scan-entropy", "scan-entropy", None),
)
CLI_WORD_LENGTH = 4
CLI_SAMPLE_LENGTH = "1000"
CLI_SCAN_STEPS = "8"


def _build_cli(seed, workdir, tr, digests) -> list[Task]:
    rng = np.random.default_rng([seed, 4])
    files = {}
    alphabets = {}
    for name in modelfile.BUNDLED_MODELS:
        path = workdir / f"{name}.json"
        alphabets[name] = _through_file(modelfile.load_bundled(name), path, tr).alphabet
        files[name] = str(path)

    def angles():
        return ["--phi", f"{rng.uniform(0, math.pi):.6f}", "--xi", f"{rng.uniform(0, 2 * math.pi):.6f}"]

    scan = workdir / "scan.csv"
    csv = workdir / "dist.csv"
    converted = workdir / "converted.json"
    commands = []  # (kind, argv, output files)
    for kind, sub, name in CLI_PASS:
        argv = [sub] if name is None else [sub, files[name]]
        outputs = []
        short_n = "8" if name and len(alphabets[name]) == 2 else "4"
        if kind == "wordprob":
            symbols = rng.choice(alphabets[name], size=CLI_WORD_LENGTH)
            argv.append(modelfile.format_word([str(s) for s in symbols], alphabets[name]))
        elif kind == "entropy":
            argv += ["-n", short_n]
        elif kind == "dist":
            argv += ["-n", short_n, "--csv", str(csv)]
            outputs = [csv]
        elif kind == "sample":
            argv += ["-n", CLI_SAMPLE_LENGTH, "--seed", str(int(rng.integers(0, 2**31)))]
        elif kind == "cluster-h3":
            argv += [*angles(), "h3"]
        elif kind == "cluster-dist":
            argv += [*angles(), "dist", "-n", "6"]
        elif kind == "convert":
            argv += ["--to", "hqmm-embed", "-o", str(converted)]
            outputs = [converted]
        elif kind == "scan-entropy":
            argv += ["--phi-steps", CLI_SCAN_STEPS, "--xi-steps", CLI_SCAN_STEPS, "-o", str(scan)]
            outputs = [scan]
        commands.append((kind, argv, outputs))
    env = child_env()
    order = rng.permutation(len(commands))
    return [_cli_task(*commands[i], env) for i in order]


_SETUP = {
    "stats": _build_stats,
    "sample": _build_sample,
    "readout": _build_readout,
    "cli": _build_cli,
}


def build(name: str, seed: int, workdir: Path, tracer, digests: dict) -> list[Task]:
    """Set up workload ``name`` for ``seed`` and return one pass of tasks."""
    return _SETUP[name](seed, Path(workdir), tracer, digests)


def one_of_each_kind(tasks: list[Task]) -> list[Task]:
    """The first task of each kind, in pass order."""
    seen = set()
    out = []
    for t in tasks:
        if t.kind not in seen:
            seen.add(t.kind)
            out.append(t)
    return out


def warmup_tasks(tasks: list[Task]) -> list[Task]:
    """The warm-up pass: one task of each kind, run in its warm-up form."""
    return [replace(t, run=t.warm or t.run) for t in one_of_each_kind(tasks)]
