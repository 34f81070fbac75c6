"""Smoke test for the benchmark: tiny inputs, every metric, no failures.

    python3 perfbench/smoke.py

Runs each workload with ``--tiny`` for one second, untraced and traced, and
checks that the result line carries every metric named in BENCHMARK.json
with its unit and that no request failed.  It also checks the clique
counter, determinant and rank used by the answer checks against
``bredim.oracles``.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, f"{workload}: exit {done.returncode}\n{done.stderr}"
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_checkers() -> None:
    """The checks' own clique counter, determinant and rank agree with the oracles."""
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import checks
    from bredim import oracles
    from bredim.matrix import IntMatrix

    rng = random.Random(11)
    for _ in range(40):
        vertices = rng.randint(0, 11)
        edges = [(u, v) for u in range(vertices) for v in range(u + 1, vertices) if rng.random() < 0.6]
        assert checks.clique_counts(vertices, edges) == checks.clique_counts_oracle(vertices, edges)
    for _ in range(300):
        n, bound = rng.randint(1, 8), rng.choice((1, 3, 9))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(rng.randint(1, n))]
        if len(rows) > 2:
            rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[1])]
        assert checks.pivot_columns(rows) == oracles.rational_row_space(rows).pivots
        square = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        assert checks.int_det(square) == oracles.fraction_det(IntMatrix.from_rows(square))


def main() -> int:
    check_checkers()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            got = result["metrics"]
            for metric in wanted:
                assert metric["name"] in got, f"{workload}: {metric['name']} missing"
                assert got[metric["name"]]["unit"] == metric["unit"], f"{workload}: {metric['name']} unit"
            assert set(got) == {m["name"] for m in wanted}, f"{workload}: unexpected metrics"
            assert result["failed"] == 0 and result["correct"], f"{workload}: failed_ops_share is not 0"
            print(f"ok {workload} trace={trace} attempted={result['attempted']} metrics={len(got)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
