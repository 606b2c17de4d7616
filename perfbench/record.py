"""Run the benchmark over several seeds and summarise the results.

Run from the root of a checkout::

    python3 perfbench/record.py --seeds 1-10 --out results.json

For each workload and seed it runs ``run.py`` for BENCHMARK.json's
``run_seconds``, once untraced, and once traced
on the first seed, then reports for every
end-to-end metric the median over seeds and the spread: the distance
between the first and third quartile as a share of the median.  The output
file records the machine, ``nproc``, Python and numpy versions next to the
figures and the output digests of each seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import gen
from run import machine


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()

    seconds = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    record: dict = {"machine": machine(), "seconds": seconds, "workloads": {}}
    seeds = _seeds(args.seeds)
    for workload in gen.WORKLOADS:
        runs, digests = [], {}
        for seed in seeds:
            result, text = run_once(workload, seed, seconds, 0)
            runs.append(result)
            digests[seed] = [line.strip() for line in text if "sha256" in line]
            print(workload, seed, result["correct"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "unit": runs[0]["metrics"][name]["unit"], "values": values}
            print(f"  {workload} {name}: median {summary[name]['median']:.6g}"
                  f"  spread {summary[name]['spread']:.3%}", flush=True)
        result, _ = run_once(workload, seeds[0], seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": summary, "all_correct": all(r["correct"] for r in runs),
            "digests": digests, "per_layer": {"seed": seeds[0], "metrics": result["metrics"]}}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
