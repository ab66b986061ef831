"""Run every workload over several seeds and summarise each metric.

    python3 benchmarks/collect.py --seeds 1-10 --seconds 25 [--trace 1] [--out FILE]

Each (workload, seed), over every workload of `run.py`, runs `run.py` in a
fresh process, one after another. For every metric the table gives its unit, median and the spread between
the first and third quartiles as a share of the median; a failed
correctness gate is reported per workload and makes the exit code 1.
`--out` writes all values and summaries as JSON, the format of the files
under `benchmarks/baseline/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the results as JSON to this file")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    report: dict = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
                    "workloads": {}}
    all_correct = True
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in seeds:
            result, details = run_one(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "details": details})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        correct = all(run["correct"] for run in runs)
        all_correct &= correct
        summary = {name: {"unit": units[name], **summarise(vals), "values": vals}
                   for name, vals in values.items()}
        report["workloads"][workload] = {"correct": correct, "runs": runs,
                                         "metrics": summary}
        print(f"== {workload}  seeds={args.seeds}  correct={correct}")
        for name, stats in summary.items():
            print(f"  {name:44s} {stats['median']:12.6g} {stats['unit']:7s}"
                  f" spread {stats['spread']:.3f}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
