"""Command-line front end.

Subcommands: validate, reach, min-switches, decompose, pathnum-lb, gen
(walks, chain, dag), oracle.  Each command returns its exit status and
its text, and `run` writes the text to stdout, or the one `error:` line to
stderr, in its only write.
Exit codes: 0 affirmative/success, 1 negative answer (unreachable,
invalid), 2 usage or input error.  File arguments accept '-' for stdin, at
most one of them per command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from enum import IntEnum
from typing import NoReturn, Sequence

from .dagcover import minimal_path_decomposition
from .decomposition import (
    DecompositionFormatError,
    WalkDecomposition,
    format_decomposition,
    parse_decomposition,
    path_number_lower_bound,
    validate_path_decomposition,
    validate_walk_decomposition,
)
from .graph import GraphFormatError, format_graph, parse_graph
from .reach import decide_reachability
from .testkit import (
    InstanceSeed,
    gen_decomposed_instance,
    gen_random_dag,
    oracle_min_switches,
    oracle_reachable,
    switch_chain,
)


class ExitStatus(IntEnum):
    OK = 0        # affirmative answer / success
    NEGATIVE = 1  # negative answer: unreachable, validation failed
    USAGE = 2     # usage or input error


def _load(path: str, parse):
    """parse(text of path), with an unreadable path or a format error
    reported as an input error."""
    if path == "-" and sys.stdin is None:
        raise ValueError("cannot read -: stdin is closed")
    try:
        if path == "-":
            # Decode stdin as strict UTF-8 like files, whatever the locale.
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    except ValueError as exc:  # open() refuses a path with a NUL byte
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except (GraphFormatError, DecompositionFormatError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _checked_universe(args) -> tuple[WalkDecomposition, int | None]:
    """Load the decomposition and, when a graph is given, validate coverage
    against it first and use its vertex count as the universe."""
    w = _load(args.decomp, parse_decomposition)
    if args.graph is None:
        return w, None
    g = _load(args.graph, parse_graph)
    report = validate_walk_decomposition(g, w)
    if not report.ok:
        raise ValueError(
            f"decomposition does not cover the graph "
            f"({len(report.violations)} violations, run validate for details)")
    return w, g.n


def _cmd_validate(args) -> tuple[ExitStatus, str]:
    g = _load(args.graph, parse_graph)
    w = _load(args.decomp, parse_decomposition)
    check = validate_path_decomposition if args.paths else validate_walk_decomposition
    report = check(g, w)
    if report.ok:
        return ExitStatus.OK, "ok\n"
    return ExitStatus.NEGATIVE, "".join(
        f"{violation.kind.value} {violation.detail}\n" for violation in report.violations)


def _cmd_reach(args) -> tuple[ExitStatus, str]:
    """reach and min-switches: one query, formatted by command."""
    w, n = _checked_universe(args)
    res = decide_reachability(w, args.src, args.dst, n=n)
    if args.command == "min-switches":
        line = res.min_switches if res.reachable else "UNREACHABLE"
    elif res.reachable:
        line = (f"REACHABLE switches={res.min_switches} "
                f"iterations={res.iterations} peak_words={res.peak_words}")
    else:
        line = f"UNREACHABLE iterations={res.iterations} peak_words={res.peak_words}"
    return (ExitStatus.OK if res.reachable else ExitStatus.NEGATIVE), f"{line}\n"


def _cmd_decompose(args) -> tuple[ExitStatus, str]:
    # A cyclic graph raises CyclicGraphError, whose message is the diagnostic.
    cover = minimal_path_decomposition(_load(args.graph, parse_graph))
    return ExitStatus.OK, format_decomposition(cover)


def _cmd_pathnum_lb(args) -> tuple[ExitStatus, str]:
    g = _load(args.graph, parse_graph)
    return ExitStatus.OK, f"{path_number_lower_bound(g)}\n"


def _cmd_gen(args) -> tuple[ExitStatus, str]:
    if args.kind == "walks":
        spec = InstanceSeed(n=args.n, k=args.k, max_len=args.max_len, seed=args.seed)
        return ExitStatus.OK, format_decomposition(gen_decomposed_instance(spec))
    if args.kind == "chain":
        return ExitStatus.OK, format_decomposition(switch_chain(args.n, args.k))
    return ExitStatus.OK, format_graph(gen_random_dag(args.n, args.p, args.seed))


def _cmd_oracle(args) -> tuple[ExitStatus, str]:
    if args.decomp is not None:
        w, n = _checked_universe(args)
        count = oracle_min_switches(w, args.src, args.dst, n=n)
        reachable = count is not None
        line = f"REACHABLE switches={count}" if reachable else "UNREACHABLE"
    elif args.graph is not None:
        reachable = oracle_reachable(_load(args.graph, parse_graph), args.src, args.dst)
        line = "REACHABLE" if reachable else "UNREACHABLE"
    else:
        raise ValueError("oracle needs --decomp or --graph")
    return (ExitStatus.OK if reachable else ExitStatus.NEGATIVE), f"{line}\n"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors raise a one-line ValueError, which
    `run` reports as it reports an input error, instead of printing the
    usage text; subparsers are made with the same class."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(" ".join(message.splitlines()))


# Built once per process; parse_args leaves the parser as it was.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pathreach",
        description="Reachability over walk decompositions and minimal DAG path covers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a decomposition against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--decomp", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--paths", action="store_true",
                      help="require edge-disjoint simple paths covering every edge")
    mode.add_argument("--walks", action="store_true",
                      help="require only that the union of steps equals the edge set")
    p.set_defaults(func=_cmd_validate)

    for name in ("reach", "min-switches"):
        p = sub.add_parser(name, help="decide reachability over a decomposition")
        p.add_argument("--decomp", required=True)
        p.add_argument("--graph", help="optional graph to validate coverage against")
        p.add_argument("--from", dest="src", type=int, required=True)
        p.add_argument("--to", dest="dst", type=int, required=True)
        p.set_defaults(func=_cmd_reach)

    p = sub.add_parser("decompose", help="minimal path decomposition of a DAG")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("pathnum-lb", help="degree-imbalance lower bound on the path number")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_pathnum_lb)

    p = sub.add_parser("gen", help="generate a reproducible instance")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    pw = gen_sub.add_parser("walks", help="random walk decomposition")
    pw.add_argument("--n", type=int, required=True)
    pw.add_argument("--k", type=int, required=True)
    pw.add_argument("--max-len", type=int, required=True)
    pw.add_argument("--seed", type=int, required=True)
    pc = gen_sub.add_parser("chain", help="worst-case chain decomposition")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--k", type=int, required=True)
    pd = gen_sub.add_parser("dag", help="random DAG")
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--p", type=float, required=True)
    pd.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="brute-force reference answers")
    p.add_argument("--decomp", help="decomposition for the switch-count oracle")
    p.add_argument("--graph", help="graph for the plain reachability oracle")
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch one command line and write its text to stdout, or the one
    `error:` line to stderr; returns the exit code without exiting."""
    try:
        args = _build_parser().parse_args(argv)
        # Stdin can be read once: checked before either file is read.
        if getattr(args, "graph", None) == "-" == getattr(args, "decomp", None):
            raise ValueError("stdin ('-') given for both --graph and --decomp")
        status, text = args.func(args)
    except SystemExit:  # --help printed the usage text
        return ExitStatus.OK
    except ValueError as exc:
        # A usage error, an unreadable or malformed input, or a library
        # ValueError naming an argument out of its range.
        status, text = ExitStatus.USAGE, f"error: {exc}\n"
    # Exit 2 writes its line to stderr, any other status its answer to
    # stdout.  A stream that cannot take it (a reader that stopped early,
    # an fd open read-only) loses the text, not the status.
    with contextlib.suppress(OSError):
        (sys.stderr if status == ExitStatus.USAGE else sys.stdout).write(text)
    return status


def main() -> None:
    # No `print` is left to skip a None stream, and a stream closed at start
    # (`>&-`, `2>&-`) is None, on which `write` raises AttributeError, not
    # the OSError that `run` suppresses.
    if sys.stdout is None:
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    status = run()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            # A failed write stays buffered.  Point the stream at devnull so
            # the flush at exit is silent too; the recipe of the "Note on
            # SIGPIPE" in Python's `signal` docs.
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(status)
