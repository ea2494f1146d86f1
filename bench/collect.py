"""Run bench/run.py over several seeds and summarise the runs.

Usage:
    python3 bench/collect.py --label LABEL [--workloads a,b] [--seeds 1-10]
                             [--seconds 10] [--trace 0|1] [--out FILE]

Runs are sequential, one workload after another.  For every metric the
summary gives the median, the first and third quartiles as
statistics.quantiles(values, n=4) computes them, and the spread: the
distance between those quartiles as a share of the median.  The result
is written as JSON (default bench/results/BENCH_<label>[_traced].json)
with every run's metrics kept beside the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    ap = argparse.ArgumentParser(description="Run the benchmark over seeds and summarise.")
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    suffix = "_traced" if args.trace else ""
    out = Path(args.out) if args.out else HERE / "results" / f"BENCH_{args.label}{suffix}.json"

    report = {
        "label": args.label,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    failed = False
    for name in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failed = True
                continue
            res = json.loads(lines[-1])
            instance = next((json.loads(line[len("instance "):]) for line in lines
                             if line.startswith("instance ")), None)
            runs.append({"seed": seed, "wall_s": time.perf_counter() - start,
                         "attempted": res["attempted"], "failed": res["failed"],
                         "instance": instance,
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), file=sys.stderr)
        units = {k: v["unit"] for k, v in res["metrics"].items()} if runs else {}
        report["workloads"][name] = {
            "summary": {k: {**summarise([r["metrics"][k] for r in runs]), "unit": units[k]}
                        for k in units},
            "runs": runs,
        }
        for k, s in report["workloads"][name]["summary"].items():
            spread = s.get("spread")
            print(f"{name:12s} {k:46s} median {s['median']:12.6g}"
                  + (f"  spread {spread:.3f}" if spread is not None else ""))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
