"""Runs one workload in a process of its own and writes what it measured.

Usage: python3 bench/worker.py JOB_DIR

JOB_DIR holds job.json and the input files that run.py staged.  The worker
imports pathreach from the checkout's src/, sets the workload up several
times (reading and parsing the input, then one warm-up operation), and
then runs operations one after another, one client in a closed loop,
until the time window closes.  With tracing on it then installs the span
recorder, sets up again and replays exactly the same operations.  Answers
are not checked here: result.json carries them back to run.py, which
holds the oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pathreach  # noqa: E402
from pathreach import cli, dagcover, decomposition, graph, reach  # noqa: E402
from pathreach.cli import run as cli_run  # noqa: E402
from pathreach.decomposition import parse_decomposition  # noqa: E402
from pathreach.reach import decide_reachability  # noqa: E402

from spans import SpanRecorder  # noqa: E402


def _walk_workload(job_dir: Path):
    path = job_dir / "walks.txt"

    def load():
        return parse_decomposition(path.read_text(encoding="utf-8"))

    def op(w, pair):
        r = decide_reachability(w, pair[0], pair[1])
        return [r.reachable, r.min_switches, r.iterations, r.peak_words]

    return load, op, lambda answer: answer


def _cover_workload(job_dir: Path):
    out_path = job_dir / "cover.walks"

    def op(_, name):
        # The README pipe, in-process: decompose into a file, validate it.
        graph_path = str(job_dir / name)
        err = io.StringIO()
        with open(out_path, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh), contextlib.redirect_stderr(err):
            c1 = cli_run(["decompose", "--graph", graph_path])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c2 = cli_run(["validate", "--graph", graph_path, "--decomp", str(out_path), "--paths"])
        return [int(c1), int(c2), out.getvalue().strip(), err.getvalue().strip()]

    def finish(answer):
        # Runs after the clock stops: the size of the cover just written.
        text = out_path.read_text(encoding="utf-8")
        return answer + [sum(1 for line in text.splitlines() if line.strip())]

    return lambda: None, op, finish


def _attempt(fn, *args):
    """Run fn; an exception becomes the recorded outcome instead."""
    try:
        return fn(*args), None
    except Exception:  # one failed operation must not end the run
        return None, traceback.format_exc(limit=3)


class Runner:
    def __init__(self, job: dict, job_dir: Path, recorder: SpanRecorder | None = None):
        make = _cover_workload if job["workload"] == "dag_cover" else _walk_workload
        self.load, self.op, self.finish = make(job_dir)
        self.warm, self.timed = job["ops"][0], job["ops"][1:]
        self.recorder = recorder
        self.state = None

    def _record(self, op_id: int, fn, *args):
        if self.recorder is not None:
            self.recorder.op = op_id
        start = time.perf_counter()
        value, error = _attempt(fn, *args)
        seconds = time.perf_counter() - start
        return seconds, value, error

    def setups(self, reps: int) -> tuple[list[float], list[dict]]:
        """Load the input and run the warm-up operation, reps times; the
        last instance serves the timed operations."""
        times, warmups = [], []
        for rep in range(reps):
            self.state = value = None  # drop the previous instance first
            seconds, value, error = self._record(-1 - rep, self._setup_once)
            times.append(seconds)
            if value is not None:
                self.state, answer = value
                warmups.append({"answer": self.finish(answer), "error": None})
            else:
                warmups.append({"answer": None, "error": error})
        return times, warmups

    def _setup_once(self):
        state = self.load()
        return state, self.op(state, self.warm)

    def run_op(self, i: int) -> dict:
        seconds, answer, error = self._record(i, self.op, self.state, self.timed[i % len(self.timed)])
        if answer is not None:
            answer = self.finish(answer)
        return {"ms": seconds * 1e3, "answer": answer, "error": error}


def main(job_dir: Path) -> None:
    if not Path(pathreach.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"pathreach imported from {pathreach.__file__}, not from {ROOT / 'src'}")
    job = json.loads((job_dir / "job.json").read_text(encoding="utf-8"))
    result: dict = {}

    runner = Runner(job, job_dir)
    result["setup_s"], result["warmups"] = runner.setups(job["setup_reps"])
    ops = []
    start = time.perf_counter()
    deadline = start + job["seconds"]
    while time.perf_counter() < deadline:
        ops.append(runner.run_op(len(ops)))
    result["window_s"] = time.perf_counter() - start
    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if job["trace"]:
        runner.state = None
        recorder = SpanRecorder()
        recorder.install([cli, dagcover, decomposition, graph, reach, sys.modules[__name__]])
        try:
            traced = Runner(job, job_dir, recorder)
            _, result["traced_warmups"] = traced.setups(job["setup_reps"])
            result["traced_ops"] = [traced.run_op(i) for i in range(len(ops))]
        finally:
            recorder.uninstall()
        result["spans"] = recorder.spans

    (job_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
