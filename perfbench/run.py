"""The repository benchmark: events in, matches out.

    python3 perfbench/run.py --workload stock-q1q7 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --report

A run generates its stream from ``--seed``, measures for ``--seconds``,
checks every output and prints each metric with its unit, then, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` gives the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones from a separate traced run. Each run is
also appended, with its context, to ``.bench_build/perfbench/runs.jsonl``;
``--report`` prints the latest run of each workload and mode from there.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports the program: fails without src/)

def context(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        sha = r.stdout.strip() or None
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "pyspark": version("pyspark"), "pyarrow": version("pyarrow"),
            "machine": platform.machine()}


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (metric values, run facts, attempted, failed)."""
    wl = workloads.WORKLOADS[workload]
    events = wl.stream(seed)
    if not trace:
        values, info, checked = workloads.run_driver(wl, events, seconds)
        return values, info, checked.attempted, checked.failed
    values, info, checked = workloads.trace_driver(
        wl, events, seconds, WORK / f"spans-{workload}-{seed}.json")
    attempted, failed = checked.attempted, checked.failed
    if workload == "stock-q1q7":  # the Spark layer, over the same stream
        import spark_path
        spark_values, spark_attempted, spark_failed = spark_path.layers(ROOT, WORK, events)
        values.update(spark_values)
        attempted += spark_attempted
        failed += spark_failed
    else:
        values.update({k: 0.0 for k in spark_layer_names()})
    return values, info, attempted, failed


def spark_layer_names():
    return [m["name"] for m in spec()["per_layer"] if m["name"].startswith("spark.")]


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_table(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")


def report() -> None:
    latest = {}
    with open(WORK / "runs.jsonl") as f:
        for line in f:
            rec = json.loads(line)
            latest[(rec["workload"], rec["trace"])] = rec
    for (wl, trace), rec in sorted(latest.items()):
        print(f"{wl} trace={trace} seed={rec['context']['seed']} "
              f"sha={rec['context']['git_sha']} correct={rec['correct']} "
              f"attempted={rec['attempted']} failed={rec['failed']}")
        print_table(rec["metrics"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="print every metric of the latest recorded runs")
    args = ap.parse_args()
    if args.report:
        report()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    WORK.mkdir(parents=True, exist_ok=True)
    values, info, attempted, failed = run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, context=context(args.seed), info=info)
    with open(WORK / "runs.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(f"{args.workload} trace={args.trace} seed={args.seed}: "
          f"attempted={attempted} failed={failed} {json.dumps(info)}")
    print_table(metrics)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
