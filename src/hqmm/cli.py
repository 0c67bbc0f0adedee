"""Command-line front end.

Subcommands: validate, steady, wordprob, dist, entropy, hankel, convert,
cluster (kraus | dist | h3), scan-entropy, sample. Exit codes: 0 success,
1 model/validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, cluster, modelfile
from .linalg import numerical_rank


class UsageError(ValueError):
    """Bad command-line input (exit code 2)."""


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def _fmt_entry(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-14:
        return f"{z.real:.12g}"
    return f"({z.real:.12g}{z.imag:+.12g}j)"


def _print_matrix(m: np.ndarray, out) -> None:
    cells = [[_fmt_entry(x) for x in row] for row in np.atleast_2d(m)]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("  " + "  ".join(c.rjust(width) for c in row), file=out)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from None


def _load(path: str):
    """The model of a file, reduced to a kind with a ``core`` (``Kind.operational``)."""
    model = modelfile.parse_model(_read(path))
    return modelfile.kind_of(model).operational(model)


@contextlib.contextmanager
def _write(path: str, out):
    try:
        with open(path, "w", newline="\n") as f:
            yield f
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from None
    print(f"wrote {path}", file=out)


def _representation(text: str | None, model) -> analysis.Representation:
    """The model's representation from the start ``--initial`` names, by default
    its own, else the stationary one. Weights are the first ``d`` coordinates."""
    core = modelfile.kind_of(model).core
    if text is None or text == "steady":
        return analysis.linear_representation(model, core.steady_state(model)[0] if text else None)
    d = model.dim
    weights = np.full(d, 1.0 / d) if text in ("mixed", "uniform") else _weights(text, d)
    mats = core.operators(model)
    return analysis.Representation(mats, np.concatenate([weights, np.zeros(mats.shape[1] - d)]), d)


def _weights(text: str, d: int) -> np.ndarray:
    try:
        w = np.array([float(p) for p in text.split(",")])
    except ValueError:
        raise UsageError(f"cannot parse initial distribution {text!r}") from None
    if w.shape != (d,) or not np.all(np.isfinite(w)) or w.min() < 0 or w.max() <= 0:
        raise UsageError(
            f"initial distribution needs {d} finite nonnegative weights, got {text!r}"
        )
    with np.errstate(over="ignore"):
        total = w.sum()
    if total == np.inf:
        # only the ratios matter, and these weights' sum is past the largest float
        w = w / w.max()
        total = w.sum()
    return w / total


def _at_least(value: int, flag: str, least: int = 0) -> int:
    if value < least:
        raise UsageError(f"{flag} must be at least {least}, got {value}")
    return value


def _word_list(text: str, alphabet) -> list[tuple[str, ...]]:
    try:
        return [modelfile.parse_word(part, alphabet) for part in text.split(modelfile._WORD_SEP)]
    except ValueError as e:
        raise UsageError(str(e)) from None


def _print_distribution(dist: analysis.WordDistribution, alphabet, csv_path, out) -> None:
    items = sorted(dist.probabilities.items())
    if csv_path:
        with _write(csv_path, out) as f:
            rows = csv.writer(f, lineterminator="\n")
            rows.writerow(("word", "probability"))
            rows.writerows((modelfile.format_word(w, alphabet), _fmt(p)) for w, p in items)
    else:
        for word, p in items:
            print(f"{modelfile.format_word(word, alphabet) or '(empty)'} {_fmt(p)}", file=out)


def cmd_validate(args, out, err) -> int:
    model = modelfile.parse_model(_read(args.file), validate=False)
    problems = modelfile.kind_of(model).validate(model)
    if problems:
        for p in problems:
            print(str(p), file=err)
        return 1
    print("ok", file=out)
    return 0


def cmd_steady(args, out, err) -> int:
    model = _load(args.file)
    state, unique = modelfile.kind_of(model).core.steady_state(model)
    print(f"steady state ({'unique' if unique else 'non-unique, canonical'}):", file=out)
    if state.ndim == 1:
        print(" ".join(_fmt(p) for p in state), file=out)
    else:
        _print_matrix(state, out)
    return 0


def cmd_wordprob(args, out, err) -> int:
    model = _load(args.file)
    try:
        word = modelfile.parse_word(args.word, model.alphabet)
    except ValueError as e:
        raise UsageError(str(e)) from None
    print(_fmt(_representation(args.initial, model).probability(word, model.alphabet)), file=out)
    return 0


def cmd_dist(args, out, err) -> int:
    model = _load(args.file)
    dist = analysis.enumerate_distribution(model, _at_least(args.n, "-n"))
    _print_distribution(dist, model.alphabet, args.csv, out)
    return 0


def cmd_entropy(args, out, err) -> int:
    model = _load(args.file)
    dist = analysis.enumerate_distribution(model, _at_least(args.n, "-n"))
    print(_fmt(analysis.block_entropy(dist)), file=out)
    return 0


def cmd_hankel(args, out, err) -> int:
    model = _load(args.file)
    rows = _word_list(args.rows, model.alphabet) if args.rows is not None else None
    cols = _word_list(args.cols, model.alphabet) if args.cols is not None else None
    block = analysis.hankel_block(model, rows, cols)
    try:
        rank = numerical_rank(block.matrix, tol=args.tol)
    except ValueError as e:
        raise UsageError(f"--tol: {e}") from None
    _print_matrix(block.matrix, out)
    print(f"rank = {rank}", file=out)
    return 0


def cmd_convert(args, out, err) -> int:
    model = modelfile.parse_model(_read(args.file))
    convert = modelfile.kind_of(model).conversions.get(args.to)
    if convert is None:
        raise ValueError("convert expects a classical (hmm) model file")
    converted = convert(model)
    with _write(args.output, out) as f:
        f.write(modelfile.serialize_model(converted))
    return 0


def cmd_cluster(args, out, err) -> int:
    try:
        basis = cluster.MeasurementBasis(phi=args.phi, xi=args.xi)
    except ValueError as e:
        raise UsageError(str(e)) from None
    model = cluster.cluster_kraus(basis)
    if args.cluster_cmd == "kraus":
        for s in model.alphabet:
            print(f"K_{s}:", file=out)
            _print_matrix(model.operations[s][0], out)
    elif args.cluster_cmd == "dist":
        dist = analysis.enumerate_distribution(model, _at_least(args.n, "-n"))
        _print_distribution(dist, model.alphabet, args.csv, out)
    else:
        print(_fmt(cluster.h3_closed_form(basis)), file=out)
    return 0


def cmd_scan_entropy(args, out, err) -> int:
    phis = np.linspace(0.0, math.pi, _at_least(args.phi_steps, "--phi-steps", 1))
    xis = np.linspace(0.0, 2 * math.pi, _at_least(args.xi_steps, "--xi-steps", 1))
    with _write(args.output, out) as f:
        f.write("phi,xi,H3\n")
        for phi in phis:
            for xi in xis:
                h = cluster.h3_closed_form(cluster.MeasurementBasis(phi, xi))
                f.write(f"{phi:.12f},{xi:.12f},{_fmt(h)}\n")
    return 0


def cmd_sample(args, out, err) -> int:
    model = _load(args.file)
    symbols = analysis.sample_trajectory(model, _at_least(args.n, "-n"), args.seed)
    print(modelfile.format_word(symbols, model.alphabet), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqmm",
        description="Stochastic and quantum finite-state generators: "
        "validation, word statistics, Hankel rank bounds, cluster-state readout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file against its invariants")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("steady", help="stationary state of a model")
    p.add_argument("file")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("wordprob", help="probability of one word")
    p.add_argument("file")
    p.add_argument("word", help="symbols, e.g. 010; comma-separated for multi-char alphabets")
    p.add_argument(
        "--initial",
        help="'steady' (the stationary state), 'mixed', or comma-separated basis weights;"
        " default: the model's own start state, else the stationary state",
    )
    p.set_defaults(func=cmd_wordprob)

    p = sub.add_parser("dist", help="complete length-n word distribution")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--csv", help="write word,probability rows to this path")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("entropy", help="block entropy (bits) at length n")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("hankel", help="Hankel block and its numerical rank")
    p.add_argument("file")
    p.add_argument(
        "--rows", help="semicolon-separated row words (empty segment = empty word)"
    )
    p.add_argument("--cols", help="semicolon-separated column words")
    p.add_argument("--tol", type=float, help="singular-value cutoff (default: automatic)")
    p.set_defaults(func=cmd_hankel)

    p = sub.add_parser("convert", help="convert a classical model to a quantum one")
    p.add_argument("file")
    targets = [to for kind in modelfile.KINDS.values() for to in kind.conversions]
    p.add_argument("--to", choices=targets, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("cluster", help="cluster-state readout model at (phi, xi)")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    csub = p.add_subparsers(dest="cluster_cmd", required=True)
    csub.add_parser("kraus", help="print the two Kraus operators")
    cd = csub.add_parser("dist", help="stationary length-n word distribution")
    cd.add_argument("-n", type=int, required=True)
    cd.add_argument("--csv")
    csub.add_parser("h3", help="closed-form length-3 block entropy")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("scan-entropy", help="CSV sweep of H3 over the (phi, xi) grid")
    p.add_argument("--phi-steps", type=int, required=True)
    p.add_argument("--xi-steps", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_scan_entropy)

    p = sub.add_parser("sample", help="draw a reproducible symbol sequence")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    return parser


# one parser per process: parse_args leaves it unchanged
_parser = functools.cache(build_parser)


def _takes_float(flag: str, parser: argparse.ArgumentParser) -> bool:
    """Whether ``parser`` reads ``flag`` as a float option: the one it names,
    else the long option it is a unique prefix of."""
    options = parser._option_string_actions
    if flag not in options and flag.startswith("--"):
        matches = [o for o in options if o.startswith(flag)]
        if len(matches) == 1:
            flag = matches[0]
    action = options.get(flag)
    return action is not None and action.type is float


def _join_negative_floats(argv: list[str]) -> list[str]:
    """``--phi -1e-3`` as ``--phi=-1e-3``: argparse reads only ``-<digits>``
    and ``-<digits>.<digits>`` as negative numbers, so it took a value such
    as ``-1e-3`` or ``-inf`` for a flag. The walk starts at the top parser and
    moves to a subcommand's parser at its name; a flag joins when the parser
    reached reads it as a float option, abbreviated (``--ph``) or not."""
    parser = _parser()
    joined: list[str] = []
    for token in argv:
        if joined and token.startswith("-") and _takes_float(joined[-1], parser):
            with contextlib.suppress(ValueError):
                float(token)
                joined[-1] += "=" + token
                continue
        choices = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = next(choices, {}).get(token, parser)
        joined.append(token)
    return joined


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = _join_negative_floats(sys.argv[1:] if argv is None else argv)
    try:
        # argparse prints usage errors and --help to sys.stderr and sys.stdout
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return code
    try:
        try:
            code = args.func(args, out, err)
            out.flush()
        except OSError as e:
            raise UsageError(f"cannot write standard output: {e}") from None
        return code
    except UsageError as e:
        print(f"error: {e}", file=err)
        return 2
    except (ValueError, MemoryError) as e:
        print(f"error: {e}", file=err)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
