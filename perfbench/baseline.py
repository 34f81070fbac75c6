"""Record a baseline: ten seeded runs per workload plus one traced run.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For each workload it runs ``run.py`` once per seed 1..10 (untraced, for
BENCHMARK.json's ``run_seconds``), keeps every result, and stores the
median and quartiles of each end-to-end metric with the spread
``(q3 - q1) / median``; then one traced run at seed 1 for the per-layer
metrics.  Compare two baselines metric by metric, never
by a combined score.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[0].split(" ", 1)[1]), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    seconds = SPEC["run_seconds"]
    out: dict = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = []
        for seed in SEEDS:
            env, result = run(workload, seed, seconds, 0)
            out.setdefault("environment", env)
            results.append(result)
            print(workload, seed, result["correct"], {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        _, traced = run(workload, SEEDS[0], seconds, 1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results]) for m in SPEC["end_to_end"]
            },
            "per_layer_seed": SEEDS[0],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
