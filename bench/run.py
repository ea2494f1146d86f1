"""pathreach benchmark: one workload per invocation, every answer checked.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (bench/README.md says why each exists):
    walks_random  64 random walks, ids at the top of [0, 100000); queries
                  from every occurring source to random targets
    chain_deep    switch_chain(800, 4); sources early, targets late
    dag_cover     decompose | validate --paths on random DAGs, via cli.run

The inputs are generated here from --seed with pathreach.testkit and
staged as files in a temporary directory; bench/worker.py, a process of
its own, receives only those files and runs the timed window.  Every
answer is then checked here against the testkit oracles, outside all
timing.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 the end-to-end
metrics of the untraced run, with --trace 1 the per-layer metrics of the
traced replay.  The exit code is 0 only when every answer is right.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("walks_random", "chain_deep", "dag_cover")
WORKER_TIMEOUT_S = 150

# Input sizes.  max_ops is how many distinct operations are staged; the
# worker cycles through them if the window outlasts them.
PARAMS = {
    # The walk instance is fixed (instance_seed); --seed draws the queries.
    # The n generated vertex ids are shifted to the top of [0, id_range),
    # so the dense per-walk tables span id_range entries.
    "walks_random": {"n": 1000, "k": 64, "max_len": 100, "instance_seed": 3,
                     "id_range": 100_000, "max_ops": 30_000},
    "chain_deep": {"n": 800, "k": 4, "pass_size": 25, "max_ops": 3000},
    "dag_cover": {"n": 1000, "p": 0.02, "max_ops": 64},
    "setup_reps": 5,
}

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-call medians of these spans are reported as "<span>_ms".
CALL_METRICS = (
    "decomposition.parse_decomposition",
    "decomposition.format_decomposition",
    "decomposition.validate_path_decomposition",
    "graph.parse_graph",
    "dagcover.minimal_path_decomposition",
)

PER_LAYER = {
    "reach.warmup_ms": "ms",
    "reach.decide_reachability_p50_ms": "ms",
    "reach.decide_reachability_p90_ms": "ms",
    "reach.iterations_sum": "count",
    "reach.iterations_p50": "count",
    "reach.peak_words_max": "count",
    "reach.reachable_share": "ratio",
    **{f"{name}_ms": "ms" for name in CALL_METRICS},
    "dagcover.paths_per_op": "count",
    "dagcover.paths_to_lower_bound": "ratio",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _p90(xs) -> float:
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=10)[8]


# --- inputs ----------------------------------------------------------------

def _walk_inputs(name: str, seed: int, job_dir: Path):
    """Stage the decomposition file.  Returns the operations (query pairs,
    the first one being the warm-up), a checker and instance statistics."""
    from pathreach.decomposition import WalkDecomposition, format_decomposition
    from pathreach.testkit import InstanceSeed, gen_decomposed_instance, switch_chain

    p = PARAMS[name]
    rng = random.Random(f"{name}:{seed}")
    if name == "walks_random":
        w = gen_decomposed_instance(InstanceSeed(
            n=p["n"], k=p["k"], max_len=p["max_len"], seed=p["instance_seed"]))
        shift = p["id_range"] - p["n"]
        w = WalkDecomposition([[v + shift for v in walk] for walk in w])
        occurring = sorted({v for walk in w for v in walk})
        # Each pass pairs every occurring vertex once as a source and once
        # as a target, in seeded order.  Query cost depends mostly on the
        # pair, so covering them all keeps runs of different seeds alike.
        queries = [(occurring[0], occurring[-1])]  # warm-up, same for every seed
        while len(queries) <= p["max_ops"]:
            sources, targets = occurring[:], occurring[:]
            rng.shuffle(sources)
            rng.shuffle(targets)
            queries += zip(sources, targets)
        queries = queries[:1 + p["max_ops"]]
    else:
        # Sources from the first quarter of the chain, targets from the
        # last: every query runs hundreds of rounds.  Uniform pairs would
        # mix sub-millisecond and half-second queries.  A query's cost
        # grows with both its distance and its distance from the chain's
        # end, so each pass takes one source and one target from each of
        # `pass_size` equal strata of those quarters, paired at random:
        # a run of a few passes then sees the same mix whatever the seed.
        n, size = p["n"], p["pass_size"]
        width = n // 4 // size
        w = switch_chain(n, p["k"])
        queries = [(n // 8, n - 1 - n // 8)]  # warm-up, same for every seed
        while len(queries) <= p["max_ops"]:
            sources = [i * width + rng.randrange(width) for i in range(size)]
            targets = [n - (i + 1) * width + rng.randrange(width) for i in range(size)]
            rng.shuffle(sources)
            rng.shuffle(targets)
            queries += zip(sources, targets)
        queries = queries[:1 + p["max_ops"]]
    (job_dir / "walks.txt").write_text(format_decomposition(w), encoding="utf-8")
    stats = {
        "n": w.implied_vertex_count,
        "vertices": len({v for walk in w for v in walk}),
        "k": w.k,
        "L": sum(len(walk) for walk in w),
        "m": len({step for walk in w for step in walk.steps()}),
    }
    return queries, _walk_checker(w), stats


def _walk_checker(w):
    """Checks (reachable, min_switches) against the switch-cost oracle.

    testkit.switch_costs is the table oracle_min_switches reads one entry
    of; it is computed once per distinct source.
    """
    from pathreach.testkit import switch_costs

    tables: dict[int, list[int | None]] = {}

    def check(pair, answer) -> tuple[str | None, bool]:
        s, t = pair
        if s not in tables:
            tables[s] = switch_costs(w, s)
        want = tables[s][t]
        reachable, switches = answer[0], answer[1]
        if reachable != (want is not None) or switches != want:
            return (f"query {s}->{t}: got reachable={reachable} switches={switches}, "
                    f"oracle says {want}"), reachable
        return None, reachable

    return check


def _cover_inputs(seed: int, job_dir: Path):
    """Stage one graph file per operation (the first one is the warm-up).
    Returns the file names, a checker and instance statistics."""
    from pathreach.decomposition import path_number_lower_bound
    from pathreach.graph import format_graph
    from pathreach.testkit import gen_random_dag

    p = PARAMS["dag_cover"]
    bounds, edges = {}, []
    for i in range(1 + p["max_ops"]):
        # Graph 0 is the warm-up and is the same for every seed.
        g = gen_random_dag(p["n"], p["p"], seed * 1_000_003 + i if i else 0)
        name = f"dag_{i:04d}.g"
        (job_dir / name).write_text(format_graph(g), encoding="utf-8")
        bounds[name] = path_number_lower_bound(g)
        edges.append(len(g.edges))

    def check(name, answer) -> tuple[str | None, int]:
        c1, c2, out, err, paths = answer
        if c1 != 0 or c2 != 0 or out != "ok":
            return f"{name}: decompose exit {c1}, validate exit {c2}: {out!r} {err!r}", 0
        if paths != bounds[name]:
            return f"{name}: cover has {paths} paths, lower bound is {bounds[name]}", 0
        return None, bounds[name]

    stats = {"n": p["n"], "k": _median(list(bounds.values())), "m": _median(edges)}
    stats["L"] = stats["m"] + stats["k"]  # a path with e edges has e + 1 positions
    return list(bounds), check, stats


# --- correctness gate ------------------------------------------------------

def _gate(job_ops, result, check):
    """Check every execution of every operation.

    An operation counts once in `attempted` and fails when any of its
    executions (untraced, and traced in a traced run) raised or disagreed.
    Returns (attempted, failures, notes); notes[i] is the checker's second
    value for timed operation i.
    """
    warm, timed = job_ops[0], job_ops[1:]
    slots = [(warm, recs) for recs in _pairs(result["warmups"], result.get("traced_warmups"))]
    slots += [(timed[i % len(timed)], recs)
              for i, recs in enumerate(_pairs(result["ops"], result.get("traced_ops")))]
    failures, notes = [], []
    for n, (arg, recs) in enumerate(slots):
        note = None
        for rec in recs:
            if rec["error"] is not None:
                msg = rec["error"].strip().splitlines()[-1]
            else:
                msg, note = check(arg, rec["answer"])
            if msg:
                failures.append(msg)
                break
        if n >= len(result["warmups"]):
            notes.append(note)
    return len(slots), failures, notes


def _pairs(first, second):
    return [[rec] + ([second[i]] if second is not None and i < len(second) else [])
            for i, rec in enumerate(first)]


# --- metrics ---------------------------------------------------------------

def _end_to_end(result) -> dict:
    lat = [op["ms"] for op in result["ops"]]
    return {
        "setup_s": _median(result["setup_s"]),
        "op_p50_ms": _median(lat),
        "op_p90_ms": _p90(lat),
        "ops_per_s": len(lat) / result["window_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _per_layer(workload: str, result, notes, reachable_share: float) -> dict:
    """Per-layer metrics from the spans and answers of the traced replay.

    Metrics of a layer the workload does not use read 0.
    """
    spans = result["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    calls: dict[str, list[float]] = {}
    decide_warm, decide_timed = [], []
    self_ms = {layer: [0.0] * len(result["traced_ops"]) for layer in LAYERS}
    for i, (name, start, end, _, op) in enumerate(spans):
        ms = (end - start) / 1e6
        calls.setdefault(name, []).append(ms)
        if name == "reach.decide_reachability":
            (decide_timed if op >= 0 else decide_warm).append(ms)
        if op >= 0:
            self_ms[name.partition(".")[0]][op] += (end - start - child_ns[i]) / 1e6

    out = {
        "reach.warmup_ms": _median(decide_warm),
        "reach.decide_reachability_p50_ms": _median(decide_timed),
        "reach.decide_reachability_p90_ms": _p90(decide_timed),
    }
    answers = [op["answer"] for op in result["traced_ops"] if op["answer"] is not None]
    if workload == "dag_cover":
        out.update({"reach.iterations_sum": 0, "reach.iterations_p50": 0,
                    "reach.peak_words_max": 0, "reach.reachable_share": 0.0})
        paths = [a[4] for a in answers]
        out["dagcover.paths_per_op"] = _median(paths)
        bound_sum = sum(bound for bound in notes if bound)
        out["dagcover.paths_to_lower_bound"] = sum(paths) / bound_sum if bound_sum else 0.0
    else:
        iterations = [a[2] for a in answers]
        out["reach.iterations_sum"] = sum(iterations)
        out["reach.iterations_p50"] = _median(iterations)
        out["reach.peak_words_max"] = max((a[3] for a in answers), default=0)
        out["reach.reachable_share"] = reachable_share
        out["dagcover.paths_per_op"] = 0
        out["dagcover.paths_to_lower_bound"] = 0.0
    for name in CALL_METRICS:
        out[f"{name}_ms"] = _median(calls.get(name, []))
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = _median(self_ms[layer])
    untraced = _median([op["ms"] for op in result["ops"]])
    traced = _median([op["ms"] for op in result["traced_ops"]])
    out["trace.overhead_pct"] = (traced - untraced) / untraced * 100 if untraced else 0.0
    return {name: out[name] for name in PER_LAYER}


# --- command ---------------------------------------------------------------

def _run_worker(job_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads((job_dir / "result.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one pathreach benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pathreach" / "__init__.py").is_file():
        print(f"error: no pathreach sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))

    name = args.workload
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        job_dir = Path(tmp)
        if name == "dag_cover":
            ops, check, stats = _cover_inputs(args.seed, job_dir)
        else:
            ops, check, stats = _walk_inputs(name, args.seed, job_dir)
        job = {"workload": name, "ops": ops, "trace": bool(args.trace),
               "setup_reps": PARAMS["setup_reps"],
               # A traced run splits its window: untraced pass, then the replay.
               "seconds": args.seconds / 2 if args.trace else args.seconds}
        (job_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        try:
            result = _run_worker(job_dir)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    attempted, failures, notes = _gate(ops, result, check)
    stats["ops"] = len(result["ops"])
    share = sum(map(bool, notes)) / len(notes) if notes else 0.0
    if name != "dag_cover":
        stats["reachable_share"] = share
    if args.trace:
        metrics, units = _per_layer(name, result, notes, share), PER_LAYER
    else:
        metrics, units = _end_to_end(result), END_TO_END

    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {name} seed {args.seed} trace {args.trace}")
    print("instance " + json.dumps(stats))
    for key, value in metrics.items():
        count = f" (n={len(result['ops'])})" if key in ("op_p50_ms", "op_p90_ms") else ""
        print(f"{key:46s} {value:16.6f} {units[key]}{count}")
    print(f"{'failed_ops':46s} {len(failures):16d} of {attempted} attempted")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
