"""Command line front end.

One executable, five subcommands, three exit codes: 0 success, 1 bad
arguments, unreadable input or running out of memory, 2 domain errors
(fold collisions, copy failures, unknown scenarios); an interrupt exits
130. JSON output is sorted and seeded so the same invocation is
byte-identical run to run.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
from pathlib import Path

# Each command reads its input file, then imports the modules it runs, so
# a usage error, --help or a missing file loads nothing of chainfold
# beyond this module and errors.
from .errors import DomainError

DEFAULT_SEED = 7


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; our contract reserves 2 for domain errors
    def error(self, message):
        sys.exit(_report(f"{self.prog}: error: {message}\n", 1))


def _write(stream, text: str) -> None:
    """Write `text` to `stream` and flush it. A closed stream, which Python
    leaves as None, fails as a write to its closed fd would. After a failed
    write, the stream's fd points at os.devnull, so that the interpreter's
    exit flush of the bytes still buffered has nothing left to fail on."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, stream.fileno())
        finally:
            os.close(devnull)
        raise


def _report(line: str, code: int) -> int:
    """Write `line` to stderr, if stderr takes it, and return exit `code`:
    a closed, full or reader-less stderr changes no exit code."""
    try:
        _write(sys.stderr, line)
    except OSError:
        pass
    return code


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _int_at_least(low: int, rule: str):
    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    return check


# the seeded streams would reject a negative seed, the copier a negative
# cycle budget, `StreamExperiment` a trial count below 1 and `run_scenario`
# a negative length or tick count, but only after the command's modules (and
# for `evolve` numpy) load: a fresh `python -c "import numpy"` takes about
# 150 ms on a 2-vCPU x86_64 host
_non_negative = _int_at_least(0, "must not be negative")
_positive = _int_at_least(1, "must be positive")


def _cmd_fold(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    from .folding import export_obj, fold, render_ascii, to_json_dict
    from .mdl import parse_mdl

    chain = parse_mdl(text, strict=args.strict)
    structure = fold(chain, permissive=args.permissive)
    if args.format == "ascii":
        sys.stdout.write(render_ascii(structure))
    elif args.format == "obj":
        sys.stdout.write(export_obj(structure))
    else:
        _emit(to_json_dict(structure))
    return 0


def _cmd_corpus_verify(args) -> int:
    from .corpus import verify_corpus

    reports = verify_corpus(args.fixtures)
    if args.json:
        _emit(
            {
                "fixtures": {
                    fid: {
                        "ok": r.ok,
                        "checks": [
                            {"name": c.name, "ok": c.ok, "detail": c.detail}
                            for c in r.checks
                        ],
                    }
                    for fid, r in reports.items()
                }
            }
        )
    else:
        width = max(map(len, reports), default=0)
        for fid in sorted(reports):
            r = reports[fid]
            mark = "PASS" if r.ok else "FAIL"
            notes = "" if r.ok else "  " + "; ".join(
                f"{c.name}: {c.detail}" for c in r.checks if not c.ok
            )
            sys.stdout.write(f"{fid:<{width}}  {mark}{notes}\n")
        total = len(reports)
        good = sum(r.ok for r in reports.values())
        sys.stdout.write(f"{good}/{total} fixtures pass\n")
    return 0 if all(r.ok for r in reports.values()) else 2


def _cmd_corpus_stats(args) -> int:
    from .corpus import corpus_stats

    _emit(corpus_stats(args.fixtures))
    return 0


def _load_tape_file(path: str):
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    from .encoding import tape_from_json_dict, tape_from_kinds

    if p.suffix == ".json":
        try:
            raw = json.loads(text)
        except RecursionError:
            raise ValueError(f"{path} nests JSON too deeply to read") from None
        return tape_from_json_dict(raw)
    from .mdl import parse_mdl

    return tape_from_kinds(t.canonical for t in parse_mdl(text))


def _cmd_copy(args) -> int:
    tape = _load_tape_file(args.tape)
    # `seeded_copy` draws numpy's seeded stream in Python, so a copy never
    # imports numpy
    from . import kernels
    from .copier import Sparing, SubunitProfile, seeded_copy
    from .encoding import negative_copy, tape_to_json_dict

    profile = SubunitProfile(sparing=Sparing[args.sparing.upper()])
    run = seeded_copy(tape, profile=profile, seed=args.seed, max_cycles=args.max_cycles)
    _emit(
        {
            "config": {
                "tape": str(args.tape),
                "sparing": args.sparing,
                "seed": args.seed,
                "max_cycles": args.max_cycles,
            },
            "cycles": run.cycles,
            "backend": kernels.active_backend(),
            "mutations": list(run.mutations),
            "mutation_count": len(run.mutations),
            "faithful": run.output == negative_copy(tape),
            "output": tape_to_json_dict(run.output),
        }
    )
    return 0


def _cmd_evolve(args) -> int:
    from . import kernels, protoevolution

    alphabet = protoevolution.build_alphabet(
        args.alphabet_size, include_separator=args.separator
    )
    exp = protoevolution.StreamExperiment(
        alphabet=alphabet,
        require_separator=args.separator,
        trials=args.trials,
        seed=args.seed,
    )
    report = protoevolution.mhbbg_probability(exp)
    _emit(
        {
            "config": {
                "alphabet_size": args.alphabet_size,
                "separator": args.separator,
                "trials": args.trials,
                "seed": args.seed,
            },
            "analytic": str(report.analytic),
            "analytic_float": float(report.analytic),
            "monte_carlo": report.monte_carlo,
            "stderr": report.stderr,
            "hits": report.hits,
            "trials": report.trials,
            "warning": report.warning,
            "backend": kernels.active_backend(),
        }
    )
    return 0


def _cmd_scenario(args) -> int:
    from .kinematics import run_scenario, trace_summary, write_trace

    trace = run_scenario(args.name, length=args.length, ticks=args.ticks, seed=args.seed)
    if args.trace_out:
        with Path(args.trace_out).open("w", encoding="utf-8") as fh:
            write_trace(trace, fh)
    _emit(trace_summary(trace))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="chainfold", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fold = sub.add_parser("fold", help="fold a chain file into a structure")
    p_fold.add_argument("file", help="path to an .mdl chain file")
    p_fold.add_argument("--format", choices=("ascii", "json", "obj"), default="ascii")
    p_fold.add_argument("--strict", action="store_true", help="reject loose token spacing")
    p_fold.add_argument(
        "--permissive", action="store_true", help="record collisions instead of failing"
    )
    p_fold.set_defaults(func=_cmd_fold)

    p_corpus = sub.add_parser("corpus", help="fixture corpus tools")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_verify = corpus_sub.add_parser("verify", help="re-check every fixture")
    p_verify.add_argument("--fixtures", help="fixture directory (default: the bundled corpus)")
    p_verify.add_argument("--json", action="store_true", help="machine-readable report")
    p_verify.set_defaults(func=_cmd_corpus_verify)
    p_stats = corpus_sub.add_parser("stats", help="cross-machine statistics")
    p_stats.add_argument("--fixtures", help="fixture directory (default: the bundled corpus)")
    p_stats.set_defaults(func=_cmd_corpus_stats)

    p_copy = sub.add_parser("copy", help="run the randomized tape copier")
    p_copy.add_argument("--tape", required=True, help=".json tape or .mdl chain")
    p_copy.add_argument(
        "--sparing", choices=("one_side", "both_sides"), default="one_side"
    )
    p_copy.add_argument("--seed", type=_non_negative, default=DEFAULT_SEED)
    p_copy.add_argument("--max-cycles", type=_non_negative, default=None)
    p_copy.set_defaults(func=_cmd_copy)

    p_evolve = sub.add_parser("evolve", help="random-stream self-copy statistics")
    p_evolve.add_argument("--alphabet-size", type=int, default=6)
    p_evolve.add_argument("--trials", type=_positive, default=1_000_000)
    p_evolve.add_argument("--seed", type=_non_negative, default=DEFAULT_SEED)
    p_evolve.add_argument(
        "--separator", action="store_true", help="require a trailing dissolvable"
    )
    p_evolve.set_defaults(func=_cmd_evolve)

    p_scn = sub.add_parser("scenario", help="simulate a track-machine template")
    p_scn.add_argument("--name", required=True, help="walker, retainer, or shuttle")
    p_scn.add_argument("--length", type=_non_negative, default=8)
    p_scn.add_argument("--ticks", type=_non_negative, default=None)
    p_scn.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="echoed in the output only; the templates draw nothing from it",
    )
    p_scn.add_argument("--trace-out", default=None, help="write the full trace JSON here")
    p_scn.set_defaults(func=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    # chainfold calls no BLAS routine, so numpy need not start a worker pool
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # a command's output is written once, when the command finishes, so a
    # closed, full or reader-less stdout fails inside the `try` below
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:  # --help and usage errors leave by argparse's SystemExit
            # the caller's stream goes back before a MemoryError can end this
            buffer, sys.stdout = sys.stdout, stdout
            if text := buffer.getvalue():  # an error before any output keeps its code
                _write(stdout, text)
    except DomainError as exc:
        return _report(f"chainfold: {exc}\n", 2)
    except (OSError, ValueError) as exc:  # MdlError and JSONDecodeError included
        if len(name := str(getattr(exc, "filename", ""))) > 200:
            exc.filename = name[:200] + "..."  # a 60 kB path, say, is not echoed whole
        return _report(f"chainfold: {exc}\n", 1)
    except KeyboardInterrupt:
        return _report("chainfold: interrupted\n", 130)
    except MemoryError:  # reported below, once the frames its traceback holds are freed
        pass
    # a constant, so that writing it allocates next to nothing
    return _report("chainfold: out of memory\n", 1)


if __name__ == "__main__":
    sys.exit(main())
