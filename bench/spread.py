"""Run the benchmark over several seeds and print each metric's spread.

    python3 bench/spread.py --workload loop_msd --seeds 1-10 --seconds 30

The runs go one after another, so only one process loads the machine. For
every metric of the result and of the report line, the summary gives the
median over the runs and the distance between the first and third quartiles
(``statistics.quantiles(n=4)``) as a share of the median, which is how a
bound in ``BENCHMARK.json`` is judged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        *_, report_line, result_line = proc.stdout.strip().splitlines()
        report, result = json.loads(report_line)["report"], json.loads(result_line)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
        row = {k: v[0] for k, v in report["metrics"].items()}
        row.update({k: m["value"] for k, m in result["metrics"].items()})
        print(json.dumps({"seed": seed, **row}), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    summary = {k: spread(v) for k, v in values.items() if len(v) >= 2 and statistics.median(v)}
    print(json.dumps({"workload": args.workload, "spread": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
