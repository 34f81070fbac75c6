"""Benchmark for bredim: seeded workloads, checked answers, optional spans.

Run one workload (the last line of stdout is the JSON result)::

    python3 perfbench/run.py --workload normal-forms --seed 1 --seconds 10 --trace 0

or all four in turn, one row per workload::

    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
request untraced and traced, in alternating order, reports the per-layer
metrics and writes the spans to ``perfbench/out/``.  ``--tiny`` shrinks every input
for the smoke test.  Load shape: one process, one thread, one client in a
closed loop; a request is sent only after the previous one returned and
was checked.  The timed region is the request call alone; input
generation and answer checks run between requests, untimed.  End-to-end
times are scaled by a speed gauge read between requests (see
GAUGE_NOMINAL_S).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
NAMES = ("lattice-stream", "normal-forms", "raag-complex", "cli-session")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15
# An untraced run is PARTS fresh processes, one after another, each for an
# equal share of --seconds on its own part of the seeded stream, and every
# end-to-end metric is the median over the parts.  A rare heavy request
# (an `intersect` in Z^16 can take seconds and 9 MB) then moves one part's
# figures, not the run's.
PARTS = 3
# Set-ups per part, spread evenly over its timed work; setup_s is the
# median over the part's set-ups.
SETUP_REPEATS = 5
# Run in a fresh interpreter: the time to import bredim with nothing of it,
# or of its standard-library dependencies, loaded yet, then a speed-gauge
# reading taken in that interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import bredim.cli; elapsed = time.perf_counter() - start; "
    "sys.path.insert(0, sys.argv[2]); from run import gauge; print(elapsed, gauge(10))"
)
# Per-request state the benchmark keeps would grow with throughput and show
# up in peak_rss_mb, so repeats are counted over a fixed-size sample.
REPEAT_SAMPLE = 1000
# Speed gauge.  The reference machine is a shared VM whose CPU speed changes
# by up to 1.7x in phases from under a second to over a minute, and a slow
# phase slows every request alike.  So between requests, untimed, the
# run times a fixed pure-Python loop every GAUGE_EVERY_S of request time,
# and the end-to-end times are scaled by GAUGE_NOMINAL_S over the median
# gauge of GAUGE_GROUP consecutive readings (about a second): they read as
# on the reference machine in its fast phase.  A set-up is scaled by
# readings taken around it.  The raw figures are printed on the `workload`
# line.
GAUGE_NOMINAL_S = 320e-6
GAUGE_EVERY_S = 0.05
GAUGE_GROUP = 20
GAUGE_BASE = 7**300
# Stop a part that has not reached its time budget after this much wall
# time (answer checks are untimed but not free), and give up on a part
# process after PART_TIMEOUT_S, so that a run of three parts ends within
# three minutes.
WALL_LIMIT_S = 45.0
PART_TIMEOUT_S = 55.0


def environment(args) -> dict:
    def git(*cmd: str) -> str:
        try:
            done = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return done.stdout.strip() if done.returncode == 0 else ""

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "bredim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit or "unknown",
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if commit else None,
        "source_sha256": source.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "part": args.part,
        "tiny": args.tiny,
    }


def gauge_loop() -> int:
    """The fixed work of one speed-gauge reading: interpreted arithmetic on
    ~840-bit integers plus small allocations, which slowed in step with the
    workloads in a slow phase more closely than small-integer loops did."""
    acc, table = 1, {}
    for i in range(120):
        acc = (acc * GAUGE_BASE + i) % (GAUGE_BASE + 12345)
        table[i & 63] = [i, acc]
    return acc + len(table)


def gauge(reads: int = 1) -> float:
    """Median seconds of ``reads`` runs of the gauge loop."""
    times = []
    for _ in range(reads):
        start = time.perf_counter()
        gauge_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cold_import_s() -> tuple[float, float]:
    """Seconds to import bredim in a fresh interpreter, its start-up
    excluded: unscaled, and scaled by the gauge read in that interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=60, check=True)
    elapsed, reading = map(float, done.stdout.split())
    return elapsed, elapsed * GAUGE_NOMINAL_S / reading


class Run:
    """One closed-loop pass over a request stream, with its tallies."""

    def __init__(self, module) -> None:
        self.module = module
        self.latencies = array("d")
        self.gauges = array("d")
        self.gauge_index = array("l")  # per request: the gauge reading before it
        self.next_gauge = 0.0
        self.timed_s = 0.0
        self.check_s = 0.0
        self.failed = 0
        self.failures: list[str] = []
        self.golden = hashlib.sha256()
        self.keys: set[bytes] = set()
        self.kinds: Counter = Counter()

    def one(self, request, tracer=None) -> None:
        if self.timed_s >= self.next_gauge:
            self.gauges.append(gauge())
            self.next_gauge = self.timed_s + GAUGE_EVERY_S
        self.gauge_index.append(len(self.gauges) - 1)
        if tracer is not None:
            tracer.attach()
            tracer.active = True
        start = time.perf_counter()
        try:
            output = request.run()
            error = None
        except Exception as exc:  # a crash counts as a failed request
            output, error = None, f"{request.kind}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.detach()
        checked = time.perf_counter()
        if error is None:
            try:
                request.check(output)
            except self.module.CheckError as exc:
                error = f"{request.kind}: {exc}"
            except Exception as exc:
                error = f"{request.kind}: check raised {type(exc).__name__}: {exc}"
        self.check_s += time.perf_counter() - checked
        self.latencies.append(elapsed)
        self.timed_s += elapsed
        if error is not None:
            self.failed += 1
            self.failures.append(error)
        if len(self.latencies) <= self.module.MIN_REQUESTS:
            self.golden.update(self.module.output_text(output).encode() + b"\n\x1e\n")
        if len(self.latencies) <= REPEAT_SAMPLE:
            self.keys.add(hashlib.sha256(request.key.encode()).digest())
        self.kinds[request.kind] += 1

    def loop(self, requests, seconds: float, minimum: int, cycle: int, step=None) -> None:
        """Send requests until ``seconds`` of timed work and ``minimum``
        requests are done, stopping only at the end of a cycle.  ``step``
        replaces ``self.one`` and must call it once per request."""
        wall_start = time.perf_counter()
        for request in requests:
            done = len(self.latencies)
            if self.timed_s >= seconds and done >= minimum and done % cycle == 0:
                break
            if time.perf_counter() - wall_start > WALL_LIMIT_S:
                self.failures.append(f"wall limit {WALL_LIMIT_S:.0f} s reached after {len(self.latencies)} requests")
                break
            (step or self.one)(request)

    def scaled_latencies(self) -> list[float]:
        """Latencies scaled to the gauge's nominal speed (see GAUGE_NOMINAL_S)."""
        groups = [statistics.median(self.gauges[i:i + GAUGE_GROUP]) for i in range(0, len(self.gauges), GAUGE_GROUP)]
        return [t * GAUGE_NOMINAL_S / groups[g // GAUGE_GROUP] for t, g in zip(self.latencies, self.gauge_index)]

    def repeated_share(self) -> float:
        """Share of the first REPEAT_SAMPLE requests whose input came earlier."""
        return 1 - len(self.keys) / min(len(self.latencies), REPEAT_SAMPLE)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def run_workload(args) -> int:
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(module, args, workdir: Path):
    """One set-up: import bredim cold, generate the first requests (writing
    their input files) and run one warm-up request.  Returns its seconds
    scaled and unscaled, the workload, its request stream, the generated
    requests and the warm-up's failures."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    import_s, scaled_import_s = cold_import_s()
    before = gauge(10)
    start = time.perf_counter()
    workload = module.WORKLOADS[args.workload](args.seed, workdir, args.tiny, args.part or 0)
    stream = workload.requests()
    prefetched = [next(stream) for _ in range(module.TINY_MIN_REQUESTS if args.tiny else module.MIN_REQUESTS)]
    warm = Run(module)
    warm.one(workload.warmup())
    # The warm-up run took one gauge reading of its own; it is not set-up work.
    work_s = time.perf_counter() - start - warm.check_s - sum(warm.gauges)
    scaled_s = scaled_import_s + work_s * 2 * GAUGE_NOMINAL_S / (before + gauge(10))
    return scaled_s, import_s + work_s, workload, stream, prefetched, warm.failures


def measure(args, workdir: Path) -> int:
    module = importlib.import_module("workloads")
    setup_s, raw_setup_s, workload, stream, prefetched, failures = set_up(module, args, workdir / "run")
    setup_times, raw_setup_times = [setup_s], [raw_setup_s]
    minimum = len(prefetched)
    cycle = len(workload.cycle())
    gc.collect()

    def requests():
        yield from prefetched
        yield from stream

    def extra_setup() -> None:
        seconds, raw_seconds, *_, warm_failures = set_up(module, args, workdir / "setup")
        setup_times.append(seconds)
        raw_setup_times.append(raw_seconds)
        failures.extend(warm_failures)
        gc.collect()

    run = Run(module)
    metrics: dict[str, tuple[float, str]]
    if args.trace:
        import spans

        traced = Run(module)
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.detach()

        def paired(request) -> None:
            # The same built request untraced and traced; the order
            # alternates so that neither pass always runs second.
            if len(run.latencies) % 2:
                run.one(request)
                traced.one(request, tracer)
            else:
                traced.one(request, tracer)
                run.one(request)

        run.loop(requests(), args.seconds / 2, minimum, cycle, paired)
        metrics = spans.per_layer_metrics(tracer, traced.timed_s, run.timed_s)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        failures += run.failures + traced.failures
        attempted = len(setup_times) + len(run.latencies) + len(traced.latencies)
    else:
        marks = [args.seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]

        def with_setups(request) -> None:
            run.one(request)
            if marks and run.timed_s >= marks[0]:
                marks.pop(0)
                extra_setup()

        run.loop(requests(), args.seconds, minimum, cycle, with_setups)
        for _ in marks:
            extra_setup()
        scaled = run.scaled_latencies()
        metrics = {
            "ops_per_s": ((len(run.latencies) - run.failed) / sum(scaled), "1/s"),
            "latency_p50_ms": (percentile(scaled, 0.5) * 1000, "ms"),
            "latency_p90_ms": (percentile(scaled, 0.9) * 1000, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        failures += run.failures
        attempted = len(setup_times) + len(run.latencies)
    failed = len(failures)

    golden_state = "n/a"
    if args.seed == DEFAULT_SEED and not args.tiny and not args.part:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        if args.write_golden:
            golden[args.workload] = run.golden.hexdigest()
            GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
            golden_state = "written"
        elif golden.get(args.workload) == run.golden.hexdigest():
            golden_state = "match"
        else:
            golden_state = "MISMATCH"
            failures.append(f"golden digest of the first {module.MIN_REQUESTS} outputs differs")

    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    info = {
        "requests": len(run.latencies),
        "timed_s": round(run.timed_s, 4),
        "cycle": cycle,
        "repeated_share": round(run.repeated_share(), 4),
        "kinds": dict(sorted(run.kinds.items())),
        "failed_ops_share": failed / attempted,
        "setup_times_s": [round(t, 4) for t in setup_times],
        "unscaled": {
            "ops_per_s": (len(run.latencies) - run.failed) / run.timed_s,
            "latency_p50_ms": percentile(run.latencies, 0.5) * 1000,
            "latency_p90_ms": percentile(run.latencies, 0.9) * 1000,
            "setup_s": statistics.median(raw_setup_times),
        },
        "speed": GAUGE_NOMINAL_S / statistics.median(run.gauges),
        "golden": golden_state,
    }
    print("env " + json.dumps(environment(args), sort_keys=True))
    print("workload " + json.dumps(info, sort_keys=True))
    print(row(args.workload, metrics, failed, attempted))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_parts(args) -> int:
    """An untraced run as PARTS processes; prints the medians of their metrics."""
    infos, results = [], []
    for part in range(PARTS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds / PARTS), "--trace", "0", "--part", str(part)]
        argv += ["--tiny"] if args.tiny else []
        argv += ["--write-golden"] if args.write_golden and part == 0 else []
        done = subprocess.run(argv, capture_output=True, text=True, timeout=PART_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 4:
            print(f"{args.workload} part {part}: exit {done.returncode}", file=sys.stderr)
            return 1
        if part == 0:
            env_line = lines[0]
        infos.append(json.loads(lines[1].split(" ", 1)[1]))
        results.append(json.loads(lines[-1]))
    metrics = {
        name: (statistics.median(r["metrics"][name]["value"] for r in results), metric["unit"])
        for name, metric in results[0]["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(env_line)
    print("workload " + json.dumps({"requests": sum(i["requests"] for i in infos),
                                    "failed_ops_share": failed / attempted, "parts": infos}, sort_keys=True))
    print(row(args.workload, metrics, failed, attempted))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def row(name: str, metrics: dict, failed: int, attempted: int) -> str:
    cells = [f"{key}={value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    cells.append(f"failed_ops_share={failed / attempted:.6g} ({failed}/{attempted})")
    return f"{name:15s} " + "  ".join(cells)


def run_all(args) -> int:
    results = {}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return 1
        if not results:
            print(lines[0])
        results[name] = json.loads(lines[-1])
        print(lines[-2])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--write-golden", action="store_true", help="record the default-seed output digest")
    parser.add_argument("--part", type=int, help="run only this part of an untraced run (used by the run itself)")
    args = parser.parse_args(argv)
    if not (SRC / "bredim" / "__init__.py").is_file():
        print(f"error: no bredim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.trace == 0 and args.part is None:
        return run_parts(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
