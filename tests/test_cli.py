import argparse
import contextlib
import io
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
import tomllib
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pathreach
from pathreach import cli
from pathreach.cli import run
from pathreach.decomposition import format_decomposition, parse_decomposition
from pathreach.graph import format_graph, parse_graph
from pathreach.testkit import gen_random_dag, switch_chain

OVERLAP_FILE = "1 6 7 2 3 4 5 10 9 8\n1 2 3 4 9 3 8\n"

REACHABLE_RE = re.compile(r"^REACHABLE switches=(\d+) iterations=(\d+) peak_words=(\d+)$")
UNREACHABLE_RE = re.compile(r"^UNREACHABLE iterations=(\d+) peak_words=(\d+)$")


@pytest.fixture
def overlap_decomp(tmp_path):
    path = tmp_path / "overlap.walks"
    path.write_text(OVERLAP_FILE)
    return str(path)


@pytest.fixture
def diamond_graph(tmp_path):
    path = tmp_path / "diamond.g"
    path.write_text("n 4\ne 0 1\ne 0 2\ne 1 3\ne 2 3\n")
    return str(path)


@pytest.fixture
def cycle_graph(tmp_path):
    path = tmp_path / "cycle2.g"
    path.write_text("n 2\ne 0 1\ne 1 0\n")
    return str(path)


class TestReach:
    def test_reachable_line(self, overlap_decomp, capsys):
        code = run(["reach", "--decomp", overlap_decomp, "--from", "5", "--to", "3"])
        out = capsys.readouterr().out.strip()
        m = REACHABLE_RE.match(out)
        assert code == 0 and m and m.group(1) == "1"

    def test_unreachable_line(self, overlap_decomp, capsys):
        code = run(["reach", "--decomp", overlap_decomp, "--from", "8", "--to", "1"])
        out = capsys.readouterr().out.strip()
        assert code == 1 and UNREACHABLE_RE.match(out)

    def test_with_matching_graph(self, tmp_path, capsys):
        g = tmp_path / "g.g"
        g.write_text("n 3\ne 0 1\ne 1 2\n")
        d = tmp_path / "d.walks"
        d.write_text("0 1\n1 2\n")
        code = run(["reach", "--decomp", str(d), "--graph", str(g),
                    "--from", "0", "--to", "2"])
        out = capsys.readouterr().out.strip()
        assert code == 0 and REACHABLE_RE.match(out).group(1) == "1"

    def test_graph_mismatch_is_input_error(self, tmp_path, capsys):
        g = tmp_path / "g.g"
        g.write_text("n 3\ne 0 1\ne 1 2\n")
        d = tmp_path / "d.walks"
        d.write_text("0 1\n")
        code = run(["reach", "--decomp", str(d), "--graph", str(g),
                    "--from", "0", "--to", "2"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:")

    def test_bad_vertex_id(self, overlap_decomp, capsys):
        code = run(["reach", "--decomp", overlap_decomp, "--from", "99", "--to", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_min_switches_alias(self, overlap_decomp, capsys):
        code = run(["min-switches", "--decomp", overlap_decomp, "--from", "5", "--to", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"
        code = run(["min-switches", "--decomp", overlap_decomp, "--from", "8", "--to", "1"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "UNREACHABLE"

    def test_chain_answers(self, tmp_path, capsys):
        chain = _gen_file(tmp_path, ["chain", "--n", "12", "--k", "3"], capsys)
        assert run(["reach", "--decomp", chain, "--from", "11", "--to", "0"]) == 0
        assert capsys.readouterr().out == "REACHABLE switches=1 iterations=1 peak_words=14\n"

    def test_gen_chain_pipe(self):
        # README's pipe: gen chain output read by reach from stdin.
        python = f"{sys.executable} -m pathreach"
        pipe = (f"{python} gen chain --n 12 --k 3 | "
                f"{python} reach --decomp - --from 0 --to 11")
        proc = subprocess.run(pipe, shell=True, env=_cli_env(), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "REACHABLE switches=10 iterations=10 peak_words=14\n"

    def test_file_and_stdin_agree(self, tmp_path, monkeypatch, capsys):
        # The same gen walks output from a file and from stdin, every pair.
        walks = _gen_file(tmp_path, ["walks", "--n", "10", "--k", "3", "--max-len", "8",
                                     "--seed", "2"], capsys)
        text = Path(walks).read_text()
        n = parse_decomposition(text).implied_vertex_count
        lines = {}
        for source in (walks, "-"):
            lines[source] = []
            for s in range(n):
                for t in range(n):
                    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                    run(["reach", "--decomp", source, "--from", str(s), "--to", str(t)])
                    lines[source].append(capsys.readouterr().out)
        assert lines[walks] == lines["-"]
        assert {line.split()[0] for line in lines["-"]} == {"REACHABLE", "UNREACHABLE"}


def _gen_file(tmp_path, kind_args, capsys):
    """Path of a file holding the stdout of `gen KIND_ARGS`."""
    assert run(["gen", *kind_args]) == 0
    path = tmp_path / f"{kind_args[0]}.walks"
    path.write_text(capsys.readouterr().out)
    return str(path)


def _cli_env():
    """The environment with this checkout's package importable, and with
    Python's default buffered output: a test that wants unbuffered output
    passes -u."""
    src = str(Path(pathreach.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _cli_subprocess(args, **kwargs):
    """Run `python -m pathreach ARGS` with this checkout's package importable."""
    return subprocess.run([sys.executable, "-m", "pathreach", *args], env=_cli_env(),
                          capture_output=True, timeout=60, **kwargs)


def _run_capped(args):
    """Run the CLI with its address space capped at 1 GB, so a table sized
    by the largest vertex id fails fast with MemoryError instead of pushing
    the machine into swap.  Returns the process and its wall time."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = _cli_subprocess(args, preexec_fn=cap, text=True)
    return proc, time.perf_counter() - start


class TestHugeVertexIds:
    # Memory follows the input, not the largest id: a one-line walk with
    # an id near 3e9 must answer at once in both directions.
    @pytest.fixture
    def huge_decomp(self, tmp_path):
        path = tmp_path / "huge.walks"
        path.write_text("0 3000000000\n")
        return str(path)

    def test_reach_forward(self, huge_decomp):
        proc, elapsed = _run_capped(
            ["reach", "--decomp", huge_decomp, "--from", "0", "--to", "3000000000"])
        assert proc.returncode == 0, proc.stderr
        assert REACHABLE_RE.match(proc.stdout.strip()).group(1) == "0"
        assert elapsed < 2.0

    def test_min_switches_backward(self, huge_decomp):
        proc, elapsed = _run_capped(
            ["min-switches", "--decomp", huge_decomp, "--from", "3000000000", "--to", "0"])
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.strip() == "UNREACHABLE"
        assert elapsed < 2.0

    def test_oracle_agrees(self, huge_decomp):
        proc, elapsed = _run_capped(
            ["oracle", "--decomp", huge_decomp, "--from", "0", "--to", "3000000000"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "REACHABLE switches=0"
        assert elapsed < 2.0


class TestHugeGraphHeader:
    # Memory and time follow the edges, not the header's N: any header
    # loads, and every graph command answers at once in 1 GB.
    CAP = 1 << 22  # the generators' cap
    TOP = 10**18 - 1
    TOP_FILES = {
        "top.g": f"n {10**18}\ne 0 {TOP - 1}\ne {TOP - 2} {TOP - 1}\ne {TOP - 1} {TOP}\n",
        "top.walks": f"0 {TOP - 1} {TOP}\n{TOP - 2} {TOP - 1}\n",  # its decompose output
    }

    @pytest.mark.parametrize("count", [CAP + 1, 2000000000])
    def test_header_above_cap_loads(self, tmp_path, count):
        path = tmp_path / "huge.g"
        path.write_text(f"# many vertices\nn {count}\ne 0 1\n")
        proc, elapsed = _run_capped(["pathnum-lb", "--graph", str(path)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
        assert elapsed < 2.0

    @pytest.mark.parametrize("command, stdout", [
        ("pathnum-lb --graph top.g", "2\n"),
        ("decompose --graph top.g", TOP_FILES["top.walks"]),
        ("validate --graph top.g --decomp top.walks --paths", "ok\n"),
        (f"reach --graph top.g --decomp top.walks --from {TOP - 2} --to {TOP}",
         "REACHABLE switches=1 iterations=1 peak_words=12\n"),
        (f"oracle --graph top.g --from {TOP - 2} --to {TOP}", "REACHABLE\n"),
    ], ids=["pathnum-lb", "decompose", "validate", "reach", "oracle"])
    def test_top_of_a_huge_header_answers(self, tmp_path, command, stdout):
        for name, text in self.TOP_FILES.items():
            (tmp_path / name).write_text(text)
        proc, elapsed = _run_capped(
            [str(tmp_path / a) if a in self.TOP_FILES else a for a in command.split()])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")
        assert elapsed < 2.0

    def test_edgeless_graph_at_cap_loads(self, tmp_path):
        graph = tmp_path / "cap.g"
        graph.write_text(f"n {self.CAP}\n")
        empty = tmp_path / "empty.walks"
        empty.write_text("")
        proc, elapsed = _run_capped(
            ["validate", "--graph", str(graph), "--decomp", str(empty), "--paths"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"
        assert elapsed < 2.0

    @pytest.mark.parametrize("command, stdout", [("pathnum-lb", "0\n"), ("decompose", "")])
    def test_edgeless_graph_at_cap_answers(self, tmp_path, command, stdout):
        # Work follows the edges, not the header's N.
        graph = tmp_path / "cap.g"
        graph.write_text(f"n {self.CAP}\n")
        proc, elapsed = _run_capped([command, "--graph", str(graph)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == stdout
        assert elapsed < 2.0


class TestIntegerDigitLimit:
    # CPython's default limit on converting a string to an int
    # (sys.get_int_max_str_digits()) caps a header, an endpoint and a
    # vertex id at 4300 digits; one more is an input error.
    LONG, LIMIT = "9" * 4301, "9" * 4300

    @pytest.mark.parametrize("name, text, command, message", [
        ("header.g", f"n {LONG}\ne 0 1\n", ["pathnum-lb", "--graph"],
         f"line 1: expected integer, got '{LONG}'"),
        ("endpoint.g", f"n 5\ne 0 {LONG}\n", ["pathnum-lb", "--graph"],
         f"line 2: expected integer, got '{LONG}'"),
        ("id.walks", f"0 {LONG}\n", ["reach", "--from", "0", "--to", "1", "--decomp"],
         "line 1: walk lines must contain integers"),
    ], ids=["header", "endpoint", "id"])
    def test_one_digit_over_the_limit_is_an_input_error(
            self, tmp_path, capsys, name, text, command, message):
        path = tmp_path / name
        path.write_text(text)
        assert run([*command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("name, text, command, stdout", [
        ("header.g", f"n {LIMIT}\ne 0 1\n", ["pathnum-lb", "--graph"], "1\n"),
        ("endpoint.g", f"n {LIMIT}\ne 0 {'8' * 4300}\n", ["pathnum-lb", "--graph"], "1\n"),
        ("id.walks", f"0 {LIMIT}\n", ["reach", "--from", "0", "--to", LIMIT, "--decomp"],
         "REACHABLE switches=0 iterations=0 peak_words=10\n"),
    ], ids=["header", "endpoint", "id"])
    def test_limit_digits_parse(self, tmp_path, capsys, name, text, command, stdout):
        path = tmp_path / name
        path.write_text(text)
        assert run([*command, str(path)]) == 0
        assert capsys.readouterr() == (stdout, "")


class TestValidate:
    def test_walks_ok(self, tmp_path, overlap_decomp, capsys):
        g = tmp_path / "u.g"
        lines = ["n 11"]
        w = parse_decomposition(OVERLAP_FILE)
        edges = sorted({s for walk in w for s in walk.steps()})
        lines += [f"e {u} {v}" for u, v in edges]
        g.write_text("\n".join(lines) + "\n")
        code = run(["validate", "--graph", str(g), "--decomp", overlap_decomp, "--walks"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_paths_mode_rejects_overlap(self, tmp_path, overlap_decomp, capsys):
        g = tmp_path / "u.g"
        w = parse_decomposition(OVERLAP_FILE)
        edges = sorted({s for walk in w for s in walk.steps()})
        g.write_text("n 11\n" + "".join(f"e {u} {v}\n" for u, v in edges))
        code = run(["validate", "--graph", str(g), "--decomp", overlap_decomp, "--paths"])
        out = capsys.readouterr().out
        assert code == 1
        assert "EDGE_REPEATED" in out and "NOT_SIMPLE" in out

    def test_mode_flag_required(self, tmp_path, overlap_decomp):
        g = tmp_path / "u.g"
        g.write_text("n 11\n")
        assert run(["validate", "--graph", str(g), "--decomp", overlap_decomp]) == 2


class TestDecompose:
    def test_pipeline_validate(self, diamond_graph, tmp_path, capsys):
        code = run(["decompose", "--graph", diamond_graph])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "0 1 3\n0 2 3\n"
        decomp = tmp_path / "out.walks"
        decomp.write_text(out)
        assert run(["validate", "--graph", diamond_graph, "--decomp", str(decomp),
                    "--paths"]) == 0
        capsys.readouterr()

    def test_cyclic_diagnostic(self, cycle_graph, capsys):
        code = run(["decompose", "--graph", cycle_graph])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.strip() == "error: graph is not acyclic"

    def test_line_count_equals_lower_bound(self, tmp_path, capsys):
        g = gen_random_dag(12, 0.4, 5)
        path = tmp_path / "dag.g"
        path.write_text(format_graph(g))
        run(["decompose", "--graph", str(path)])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        run(["pathnum-lb", "--graph", str(path)])
        bound = int(capsys.readouterr().out.strip())
        assert len(lines) == bound

    def test_empty_graph_empty_output(self, tmp_path, capsys):
        path = tmp_path / "empty.g"
        path.write_text("n 4\n")
        assert run(["decompose", "--graph", str(path)]) == 0
        assert capsys.readouterr().out == ""


class TestGen:
    def test_walks_deterministic(self, capsys):
        run(["gen", "walks", "--n", "9", "--k", "3", "--max-len", "6", "--seed", "4"])
        first = capsys.readouterr().out
        run(["gen", "walks", "--n", "9", "--k", "3", "--max-len", "6", "--seed", "4"])
        assert capsys.readouterr().out == first
        w = parse_decomposition(first)
        assert w.k == 3 and w.implied_vertex_count <= 9

    def test_chain_roundtrip(self, capsys):
        assert run(["gen", "chain", "--n", "12", "--k", "3"]) == 0
        assert parse_decomposition(capsys.readouterr().out) == switch_chain(12, 3)

    def test_dag_roundtrip(self, capsys):
        run(["gen", "dag", "--n", "7", "--p", "0.5", "--seed", "11"])
        out = capsys.readouterr().out
        g = parse_graph(out)
        assert g == gen_random_dag(7, 0.5, 11)

    def test_bad_params(self, capsys):
        assert run(["gen", "walks", "--n", "0", "--k", "1", "--max-len", "1",
                    "--seed", "0"]) == 2
        assert run(["gen", "dag", "--n", "3", "--p", "2.0", "--seed", "0"]) == 2
        capsys.readouterr()

    def test_dag_above_graph_cap_rejected_before_drawing(self, capsys):
        # gen_random_dag draws n(n-1)/2 numbers: ~8.8e12 here, so only a
        # check made before the first draw lets this return at all.
        assert run(["gen", "dag", "--n", "4194305", "--p", "0", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertex count 4194305 exceeds the limit 4194304\n"


class TestOracle:
    def test_decomp_mode_matches_reach(self, overlap_decomp, capsys):
        code = run(["oracle", "--decomp", overlap_decomp, "--from", "5", "--to", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "REACHABLE switches=1"
        code = run(["oracle", "--decomp", overlap_decomp, "--from", "8", "--to", "1"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "UNREACHABLE"

    def test_graph_mode(self, diamond_graph, capsys):
        assert run(["oracle", "--graph", diamond_graph, "--from", "0", "--to", "3"]) == 0
        assert capsys.readouterr().out.strip() == "REACHABLE"
        assert run(["oracle", "--graph", diamond_graph, "--from", "3", "--to", "0"]) == 1
        capsys.readouterr()

    def test_needs_an_input(self, capsys):
        assert run(["oracle", "--from", "0", "--to", "1"]) == 2
        capsys.readouterr()


class _ClosedPipe(io.StringIO):
    """A stdout whose reader is gone, as after `| head` stops reading."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestPlumbing:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["oracle", "--graph", "g.g", "--from", "-2,3", "--to", "1"],
        ["reach", "--decomp", "d.walks", "--from", "x", "--to", "1"],
        ["validate", "--graph", "g.g"],
        ["gen", "dag", "--n", "3"],
        ["frobnicate"],
        [],
    ])
    def test_usage_error_is_one_line(self, argv, capsys):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_help_prints_usage(self, capsys):
        assert run(["validate", "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: pathreach validate") and "--paths" in out and err == ""

    def test_console_script_runs_main(self, capsys, monkeypatch):
        # The `pathreach` command an install puts on PATH calls this entry.
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as f:
            entry = tomllib.load(f)["project"]["scripts"]["pathreach"]
        module, _, name = entry.partition(":")
        main = getattr(import_module(module), name)
        assert main is cli.main
        monkeypatch.setattr(sys, "argv", ["pathreach", "gen", "chain", "--n", "4", "--k", "1"])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 0
        assert capsys.readouterr() == (format_decomposition(switch_chain(4, 1)), "")

    def test_closed_stdout_pipe_is_no_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert run(["gen", "chain", "--n", "10", "--k", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_closed_stdout_pipe_keeps_a_negative_status(self, overlap_decomp, diamond_graph,
                                                        capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert run(["reach", "--decomp", overlap_decomp, "--from", "8", "--to", "1"]) == 1
        assert run(["validate", "--graph", diamond_graph, "--decomp", overlap_decomp,
                    "--paths"]) == 1
        assert capsys.readouterr().err == ""

    def test_missing_file(self, capsys):
        assert run(["pathnum-lb", "--graph", "/nonexistent/x.g"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("args", [
        ["pathnum-lb", "--graph", "a\x00b"],
        ["validate", "--graph", "a\x00b", "--decomp", "d.walks", "--paths"],
        ["reach", "--decomp", "a\x00b", "--from", "0", "--to", "1"],
    ])
    def test_path_with_nul_byte(self, args, capsys):
        # open() refuses such a path with ValueError, not OSError.
        assert run(args) == 2
        assert capsys.readouterr() == ("", "error: cannot read a\x00b: embedded null byte\n")

    def test_parse_failure_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.g"
        bad.write_text("e 0 1\n")
        assert run(["pathnum-lb", "--graph", str(bad)]) == 2
        assert "before header" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["reach", "--from", "0", "--to", "1", "--decomp"],
        ["pathnum-lb", "--graph"],
    ])
    def test_undecodable_file(self, tmp_path, capsys, args):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 1\n\xff 2\n")
        assert run([*args, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {bad}: not valid UTF-8 (invalid start byte)"]

    def test_undecodable_stdin(self):
        proc = _cli_subprocess(["reach", "--decomp", "-", "--from", "0", "--to", "1"],
                               input=b"0 1\n\xff 2\n")
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            "error: -: not valid UTF-8 (invalid start byte)"]

    @pytest.mark.parametrize("args", [
        ["reach", "--decomp", "-", "--from", "0", "--to", "1"],
        ["validate", "--graph", "-", "--decomp", "d.walks", "--paths"],
    ])
    def test_closed_stdin(self, args, capsys, monkeypatch):
        # Python sets sys.stdin to None when the process starts without fd 0.
        monkeypatch.setattr(sys, "stdin", None)
        assert run(args) == 2
        assert capsys.readouterr() == ("", "error: cannot read -: stdin is closed\n")

    def test_stdin_dash(self, tmp_path, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO("n 3\ne 0 1\ne 1 2\n"))
        assert run(["pathnum-lb", "--graph", "-"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_shell_pipe_subprocess(self, tmp_path):
        graph = tmp_path / "dag.g"
        graph.write_text(format_graph(gen_random_dag(8, 0.5, 3)))
        pipe = (f"{sys.executable} -m pathreach decompose --graph {graph} | "
                f"{sys.executable} -m pathreach validate --graph {graph} --decomp - --paths")
        proc = subprocess.run(pipe, shell=True, env=_cli_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


# The inputs of the stream tests, written to a temporary working directory.
STREAM_FILES = {
    "d.walks": OVERLAP_FILE,
    "empty.walks": "",
    "big.g": format_graph(gen_random_dag(40, 0.5, 1)),  # 378 edges
}


@pytest.fixture
def in_files_dir(tmp_path, monkeypatch):
    for name, text in STREAM_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


class TestClosedStdout:
    # A reader that stops early, or a stdout closed at start (`>&-`): the
    # process exits with the answer's status and writes nothing to stderr,
    # with Python's buffered stdout and with `-u`.
    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command, code", [
        ("reach --decomp d.walks --from 8 --to 1", 1),
        ("gen chain --n 10 --k 2", 0),
        ("validate --graph big.g --decomp empty.walks --paths", 1),
    ], ids=["reach", "gen", "validate"])
    def test_reader_gone(self, in_files_dir, flags, command, code):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "pathreach", *command.split()],
                env=_cli_env(), stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, b"")

    def test_validate_text_outgrows_the_stdout_buffer(self, in_files_dir, capsys):
        # So the write itself meets the closed pipe, not only the flush.
        assert run(["validate", "--graph", "big.g", "--decomp", "empty.walks", "--paths"]) == 1
        assert len(capsys.readouterr().out) > io.DEFAULT_BUFFER_SIZE

    @pytest.mark.parametrize("command", ["decompose --graph big.g", "gen chain --n 10 --k 2"])
    def test_stdout_closed_at_start(self, in_files_dir, command):
        proc = subprocess.run(f"{shlex.quote(sys.executable)} -m pathreach {command} >&-",
                              shell=True, env=_cli_env(), stderr=subprocess.PIPE, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")


class TestClosedStderr:
    # A stderr closed at start (`2>&-`) or open read-only (`2</dev/null`)
    # loses the diagnostic, but the process still exits 2 and writes
    # nothing to stdout.
    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
    @pytest.mark.parametrize("command", ["pathnum-lb --graph missing.g", "reach --bogus"],
                             ids=["missing-file", "usage"])
    def test_error_keeps_its_status(self, tmp_path, command, redirect):
        proc = subprocess.run(f"{shlex.quote(sys.executable)} -m pathreach {command} {redirect}",
                              shell=True, cwd=tmp_path, env=_cli_env(),
                              stdout=subprocess.PIPE, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, b"")

    def test_unwritable_stderr_in_process(self, tmp_path, monkeypatch, capsys):
        class Unwritable(io.StringIO):
            def write(self, text):
                raise OSError("stderr is not writable")

        monkeypatch.setattr(sys, "stderr", Unwritable())
        assert run(["pathnum-lb", "--graph", str(tmp_path / "missing.g")]) == 2
        assert capsys.readouterr().out == ""


# Each command with its documented exit status; validate writes 16,816
# bytes, more than io.DEFAULT_BUFFER_SIZE, so a buffered write meets the
# stream itself, not only the flush at exit.
STREAM_COMMANDS = {
    "reach": ("reach --decomp d.walks --from 5 --to 3", 0),
    "validate": ("validate --graph big.g --decomp empty.walks --paths", 1),
    "error": ("pathnum-lb --graph missing.g", 2),
}
# The shell redirection of each stream state.  A reader that is gone needs
# none: the process gets the write end of a pipe whose read end is closed.
STDOUT_STATES = {"open": "", "reader-gone": "", "closed": ">&-", "read-only": "1</dev/null"}
STDERR_STATES = {"open": "", "closed": "2>&-", "read-only": "2</dev/null"}


def _stream_cells():
    """Every command in every pair of stream states with buffered output,
    and with -u where a write fails at once instead of at the flush."""
    for name in STREAM_COMMANDS:
        for out in STDOUT_STATES:
            for err in STDERR_STATES:
                yield pytest.param(name, out, err, "", id=f"{name}-{out}-{err}-buffered")
        for out in ("reader-gone", "read-only"):
            yield pytest.param(name, out, "open", "-u", id=f"{name}-{out}-open-unbuffered")


@pytest.mark.parametrize("name, out, err, flags", _stream_cells())
def test_stream_table(in_files_dir, name, out, err, flags):
    # The exit status is the command's in every state; exit 2 writes nothing
    # to stdout, and an open stderr holds exactly one `error: ` line on exit
    # 2 and nothing otherwise.
    command, code = STREAM_COMMANDS[name]
    line = (f"{shlex.quote(sys.executable)} {flags} -m pathreach {command} "
            f"{STDOUT_STATES[out]} {STDERR_STATES[err]}")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(line, shell=True, env=_cli_env(), stderr=subprocess.PIPE,
                              stdout=write_end if out == "reader-gone" else subprocess.PIPE,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == code, proc.stderr
    if out == "open":
        assert bool(proc.stdout) == (code != 2)
    lines = proc.stderr.decode().splitlines()
    if code == 2 and err == "open":
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert lines == []


# A ValueError a library call raises for an out-of-range argument: the
# command exits 2 with exactly this stderr line.  Paths are relative to a
# directory holding DIAGNOSTIC_FILES.
DIAGNOSTIC_FILES = {
    "d.walks": OVERLAP_FILE,      # implied vertex count 11
    "g.g": "n 4\ne 0 1\ne 0 2\ne 1 3\ne 2 3\n",
    "cyc.g": "n 2\ne 0 1\ne 1 0\n",
    "small.g": "n 2\ne 0 1\n",
    "wide.walks": "0 1\n5\n",    # covers small.g, implied vertex count 6
    # Cyclic, though its numbering traces form a valid cover (test_dagcover).
    "split.g": "n 10\ne 5 0\ne 0 1\ne 1 2\ne 2 6\ne 7 2\ne 2 9\ne 9 0\ne 0 8\n",
}
DIAGNOSTICS = [
    ("reach --decomp d.walks --from 99 --to 0", "source 99 outside [0, 11)"),
    ("reach --decomp d.walks --from 11 --to 0", "source 11 outside [0, 11)"),
    ("reach --decomp d.walks --from 0 --to 11", "target 11 outside [0, 11)"),
    ("reach --decomp wide.walks --graph small.g --from 0 --to 1",
     "universe 2 smaller than implied vertex count 6"),
    ("min-switches --decomp d.walks --from -1 --to 0", "source -1 outside [0, 11)"),
    ("min-switches --decomp d.walks --from 0 --to 99", "target 99 outside [0, 11)"),
    ("min-switches --decomp wide.walks --graph small.g --from 0 --to 1",
     "universe 2 smaller than implied vertex count 6"),
    ("gen walks --n 0 --k 1 --max-len 1 --seed 0", "n must be at least 1"),
    ("gen walks --n 3 --k -1 --max-len 1 --seed 0", "k must be nonnegative"),
    ("gen walks --n 3 --k 1 --max-len 0 --seed 0", "max_len must be at least 1"),
    ("gen dag --n 3 --p 2.0 --seed 0", "edge probability 2.0 outside [0, 1]"),
    ("gen dag --n 4194305 --p 0 --seed 1", "vertex count 4194305 exceeds the limit 4194304"),
    ("gen walks --n 3 --k 4097 --max-len 1024 --seed 0",
     "k * max_len = 4195328 exceeds the limit 4194304"),
    ("gen chain --n 4194305 --k 4", "vertex count 4194305 exceeds the limit 4194304"),
    ("gen chain --n 1 --k 1", "need at least 2 vertices"),
    ("gen chain --n 5 --k 5", "k must be in [1, 4]"),
    ("oracle --graph g.g --from 4 --to 0", "vertex 4 outside [0, 4)"),
    ("oracle --graph g.g --from 0 --to 4", "vertex 4 outside [0, 4)"),
    ("oracle --decomp d.walks --from 99 --to 0", "source 99 outside [0, 11)"),
    ("oracle --decomp d.walks --from 0 --to 11", "target 11 outside [0, 11)"),
    ("oracle --decomp wide.walks --graph small.g --from 0 --to 1",
     "universe 2 smaller than implied vertex count 6"),
    ("oracle --from 0 --to 1", "oracle needs --decomp or --graph"),
    ("decompose --graph cyc.g", "graph is not acyclic"),
    ("decompose --graph split.g", "graph is not acyclic"),
    ("validate --graph - --decomp - --paths", "stdin ('-') given for both --graph and --decomp"),
    ("reach --decomp - --graph - --from 0 --to 1",
     "stdin ('-') given for both --graph and --decomp"),
    ("oracle --decomp - --graph - --from 0 --to 1",
     "stdin ('-') given for both --graph and --decomp"),
]


@pytest.mark.parametrize("command, message", DIAGNOSTICS)
def test_input_error_diagnostic(command, message, tmp_path, monkeypatch, capsys):
    for name, text in DIAGNOSTIC_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(command.split()) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _readme_cli_commands():
    """The `pathreach ...` commands of README's CLI synopsis block, as argv
    lists: bracketed options count as given, `a|b` takes `a`, and a shell
    pipe ` | ` separates commands."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        for command in line.split(" | "):
            words = shlex.split(command.replace("[", "").replace("]", ""), comments=True)
            if words[:1] == ["pathreach"]:
                commands.append([word.split("|")[0] for word in words[1:]])
    return commands


def _subcommand_choices(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_synopsis_parses():
    parser = cli._build_parser()
    commands = _readme_cli_commands()
    for argv in commands:
        parser.parse_args(argv)  # a usage error raises ValueError and fails the test
    choices = _subcommand_choices(parser)
    assert {argv[0] for argv in commands} == set(choices)
    gen_kinds = set(_subcommand_choices(choices["gen"]))
    assert {argv[1] for argv in commands if argv[0] == "gen"} == gen_kinds


def _interpreters_on_path():
    """Each `python3.N` on PATH, N >= 11, that starts and reports 3.11 or later."""
    found = []
    for minor in range(11, 30):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        try:
            probe = subprocess.run(
                [exe, "-c", "import sys; sys.exit(sys.version_info < (3, 11))"],
                capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0:
            found.append(exe)
    return found


def _readme_pipeline(python, tmp):
    """Exit code and stdout of each step of README's pipeline under `python`."""
    tmp.mkdir()
    graph, cover = tmp / "dag.g", tmp / "cover.walks"
    steps = [
        (["gen", "dag", "--n", "30", "--p", "0.3", "--seed", "7"], graph),
        (["decompose", "--graph", str(graph)], cover),
        (["validate", "--graph", str(graph), "--decomp", str(cover), "--paths"], None),
        (["reach", "--decomp", str(cover), "--graph", str(graph),
          "--from", "0", "--to", "29"], None),
        (["pathnum-lb", "--graph", str(graph)], None),
    ]
    results = []
    for args, output in steps:
        proc = subprocess.run([python, "-m", "pathreach", *args], env=_cli_env(),
                              capture_output=True, timeout=60)
        results.append((args[0], proc.returncode, proc.stdout))
        if output is not None:
            output.write_bytes(proc.stdout)
    return results


def test_readme_pipeline_is_byte_identical_across_interpreters(tmp_path):
    # The code is stdlib-only and requires Python 3.11 (possessive regex
    # quantifiers); every 3.11+ interpreter found must give the same bytes.
    interpreters = _interpreters_on_path()
    if not interpreters:
        pytest.skip("no python3.N (N >= 11) on PATH starts here")
    expected = _readme_pipeline(sys.executable, tmp_path / "self")
    assert [code for _, code, _ in expected] == [0, 0, 0, 0, 0]
    for python in interpreters:
        assert _readme_pipeline(python, tmp_path / Path(python).name) == expected, python


# Documented stdout line formats, per command.
WALK_LINE = r"\d+( \d+)*"
STDOUT_LINE = {
    "validate": r"ok|(NOT_SIMPLE|EDGE_NOT_IN_GRAPH|EDGE_REPEATED|EDGE_UNCOVERED) .+",
    "reach": f"{REACHABLE_RE.pattern[1:-1]}|{UNREACHABLE_RE.pattern[1:-1]}",
    "min-switches": r"\d+|UNREACHABLE",
    "decompose": WALK_LINE,
    "pathnum-lb": r"\d+",
    "oracle": r"REACHABLE( switches=\d+)?|UNREACHABLE",
    "gen walks": WALK_LINE,
    "gen chain": WALK_LINE,
    "gen dag": r"n \d+|e \d+ \d+",
}

# Pieces of text that lead into every parser branch.
_PIECES = ["n", "e", "#", "-", "+", " ", " ", "\t", "\n", "\n", "\r\n", "x", "1.0",
           "0", "1", "2", "3", "7", "00", "3000000000", "4194304", "4194305", "\u0661"]


def _graph_text(n, edges):
    return f"n {n}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def _walks_text(walks):
    return "".join(" ".join(map(str, w)) + "\n" for w in walks)


def _file_bytes():
    small = st.integers(0, 8)
    graph_text = st.builds(_graph_text, small, st.lists(st.tuples(small, small), max_size=8))
    walks_text = st.lists(st.lists(small, min_size=1, max_size=6), max_size=5).map(_walks_text)
    soup = st.lists(st.sampled_from(_PIECES), max_size=30).map("".join)
    return st.one_of(st.binary(max_size=40),
                     st.one_of(graph_text, walks_text, soup).map(str.encode))


@st.composite
def _input_files(draw):
    """(graph bytes, decomposition bytes): unrelated, or a DAG and a cover of it."""
    if draw(st.booleans()):
        return draw(_file_bytes()), draw(_file_bytes())
    edges = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
        lambda e: e[0] < e[1]), unique=True, max_size=12))
    return _graph_text(8, edges).encode(), _walks_text(edges).encode()


@st.composite
def _command_lines(draw, graph, decomp):
    vertex = st.one_of(st.integers(-2, 8), st.just(3000000000))
    ends = ["--from", str(draw(vertex)), "--to", str(draw(vertex))]
    small = st.integers(-1, 8).map(str)
    shapes = [
        ["validate", "--graph", graph, "--decomp", decomp,
         draw(st.sampled_from(["--paths", "--walks"]))],
        [draw(st.sampled_from(["reach", "min-switches"])), "--decomp", decomp,
         *draw(st.sampled_from([[], ["--graph", graph]])), *ends],
        ["decompose", "--graph", graph],
        ["pathnum-lb", "--graph", graph],
        ["oracle", *draw(st.sampled_from(
            [[], ["--decomp", decomp], ["--graph", graph], ["--decomp", decomp, "--graph", graph]])),
         *ends],
        [*draw(st.sampled_from([["validate", "--walks"], ["reach", *ends], ["oracle", *ends]])),
         "--graph", "-", "--decomp", "-"],
        ["gen", "walks", "--n", draw(small), "--k", draw(small), "--max-len", draw(small),
         "--seed", draw(small)],
        ["gen", "chain", "--n", draw(small), "--k", draw(small)],
        ["gen", "dag", "--n", draw(small), "--p", str(draw(st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.0]))),
         "--seed", draw(small)],
        # Shapes argparse itself may reject: --from needs an int.
        [draw(st.sampled_from(["reach", "min-switches", "oracle"])), "--decomp", decomp,
         "--from", draw(st.sampled_from(["x", "1.5", "", "-", "--to"])), "--to", ends[3]],
    ]
    argv = draw(st.sampled_from(shapes))
    if draw(st.booleans()):
        # A missing option, option value or mode flag.
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


class TestFuzz:
    @given(files=_input_files(), data=st.data())
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_run_gives_a_documented_outcome(self, files, data):
        graph_bytes, decomp_bytes = files
        with tempfile.TemporaryDirectory() as tmp:
            graph, decomp = Path(tmp, "in.g"), Path(tmp, "in.walks")
            graph.write_bytes(graph_bytes)
            decomp.write_bytes(decomp_bytes)
            argv = data.draw(_command_lines(str(graph), str(decomp)))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        assert code in (0, 1, 2)
        # Exit 2 comes with exactly one diagnostic line, other codes with none.
        err_lines = err.getvalue().splitlines()
        assert len(err_lines) == (code == 2)
        assert all(line.startswith("error: ") for line in err_lines)
        command = " ".join(argv[:2]) if argv[0] == "gen" else argv[0]
        for line in out.getvalue().splitlines():
            assert re.fullmatch(STDOUT_LINE[command], line), (argv, line)
