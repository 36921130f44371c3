"""permkernel benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload scan --seed 1 --seconds 18 --trace 0

Run from any directory of a source checkout; the program is imported from
the checkout's `src/`. The workload's request cycle runs closed loop (one
client; the next request is sent when the previous one returns) for the
number of whole cycles that comes nearest to --seconds at the reference
speed (below), then every output is checked. The last stdout line is one JSON object {correct,
attempted, failed, metrics}; the line before it holds the context: machine,
settings, input shares, latency sample count and tail percentile.

--trace 0 reports the end-to-end metrics. Their times are normalized to a
reference core speed by the speed probes of speed.py, timed between
requests and around each set-up, because a shared host's core speed can
drift by more than the metrics' bounds; the raw wall-time values are in the
context line. --trace 1 runs the workload's fixed trace window (a set number
of cycles) untraced, then again with every public function of the package
wrapped, and reports per-layer metrics; the spans go to
.bench_out/spans-<workload>.csv.

Until set-up starts this file imports only the standard library, so that
set-up time includes importing numpy and permkernel.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("scan", "permanent", "structure", "montecarlo")
SETUP_RUNS = 5  # this process plus four set-up probe processes
TAIL_ABOVE = 10  # samples required above the reported tail percentile
BLAS_THREADS = "1"  # one BLAS thread per Monte Carlo worker thread
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 60


def configure_environment() -> None:
    """Settings every measured process runs with; must precede numpy import."""
    os.environ.pop("PERMKERNEL_THREADS", None)  # measure the program's default
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, directory: Path):
    """Import the program, generate and write the inputs, make one warm-up
    call. Returns (cycles, warm-up record, seconds taken at the reference
    speed of the python probe)."""
    import speed

    before = speed.probe("python")
    start = time.perf_counter()
    import permkernel
    import workloads

    if not Path(permkernel.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"permkernel imported from {permkernel.__file__}, not from {SRC}")
    shutil.rmtree(directory, ignore_errors=True)
    cycles = workloads.build_cycles(workload, seed, directory)
    warmup = workloads.warmup_request(workload, seed, directory / "warmup.json")
    record = issue(warmup)
    seconds = time.perf_counter() - start
    return cycles, record, seconds * speed.factor("python", before, speed.probe("python"))


def issue(request, tracer=None, request_id: int = -1) -> list:
    """Make one call; returns [request, latency s, result, exception]."""
    if tracer is not None:
        tracer.request = request_id
        tracer.active = True
    start = time.perf_counter()
    try:
        result, error = request.call(), None
    except Exception as exc:  # a failed request is counted, not fatal
        result, error = None, exc
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    return [request, latency, result, error]


def run_cycles(cycles, count: int, tracer=None, probe=None):
    """Issue `count` whole cycles back to back. With a probe kind, a speed
    probe runs before the first request and after each one. Returns
    (records, probe times)."""
    import speed

    records = []
    probes = [speed.probe(probe)] if probe else []
    for c in range(count):
        for request in cycles[c % len(cycles)]:
            records.append(issue(request, tracer, len(records)))
            if probe:
                probes.append(speed.probe(probe))
    return records, probes


def check(records) -> list[str]:
    """Correctness of every record; returns one reason per failed request."""
    failures = []
    for request, _, result, error in records:
        if error is None:
            try:
                error = request.check(result)
            except Exception as exc:  # malformed output is a failed request
                error = exc
        if error is not None:
            failures.append(f"{request.kind}: {error!r}"[:300])
    return failures


def input_shares(records) -> dict:
    """Share of each boolean input property and histogram of each integer
    one, over the measured requests."""
    flags: dict = {}
    counts: dict = {}
    for request, *_ in records:
        for key, value in request.props.items():
            if isinstance(value, bool):
                flags.setdefault(key, []).append(value)
            else:
                counts.setdefault(key, Counter())[value] += 1
    out = {"kinds": dict(sorted(Counter(r[0].kind for r in records).items()))}
    out.update({f"{key}_share": sum(v) / len(v) for key, v in sorted(flags.items())})
    out.update({f"{key}_hist": dict(sorted(c.items())) for key, c in sorted(counts.items())})
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_ABOVE samples above it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 1 - TAIL_ABOVE], 100.0 * (n - TAIL_ABOVE) / n


def probe_setups(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes that stop after set-up."""
    times = []
    for k in range(SETUP_RUNS - 1):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe", str(k)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            env=os.environ,
            check=True,
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def context(args, records, wall, extra) -> dict:
    import numpy as np
    from permkernel import mcverify

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "settings": {
            **{var: os.environ[var] for var in BLAS_ENV},
            "PERMKERNEL_THREADS": os.environ.get("PERMKERNEL_THREADS", "unset"),
            "worker_count": mcverify.worker_count(),
        },
        "requests": len(records),
        "wall_s": wall,
        "inputs": input_shares(records),
        **extra,
    }


def at_reference_speed(records, probes: list[float], kind: str) -> list[float]:
    """Each record's latency in seconds at the reference speed of probe
    `kind`, scaled by the probes taken just before and after its request."""
    import speed

    return [r[1] * speed.factor(kind, before, after) for r, before, after in zip(records, probes, probes[1:])]


def measure(workload: str, cycles, seconds: float, setup_times: list[float]) -> tuple[dict, dict, list]:
    """End-to-end metrics at the reference speed of the workload's probe:
    each latency is scaled by the probes taken just before and after its
    request. The run is the number of whole cycles that comes nearest to
    `seconds` at the reference speed, so every run holds the same requests
    in the same mix however fast the host runs, and the tail percentile
    stays put."""
    import speed
    import workloads

    w = workloads.WORKLOADS[workload]
    count = max(round(seconds / w.cycle_s), math.ceil((TAIL_ABOVE + 1) / len(w.slots)))
    records, probes = run_cycles(cycles, count, probe=w.probe)
    probe = w.probe
    raw = [1000.0 * r[1] for r in records]
    latencies = [1000.0 * s for s in at_reference_speed(records, probes, probe)]
    tail_ms, percentile = tail(latencies)
    metrics = {
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "throughput_rps": (1000.0 * len(records) / sum(latencies), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    by_kind: dict = {}
    for (request, *_), latency in zip(records, latencies):
        by_kind.setdefault(request.kind, []).append(latency)
    extra = {
        "cycles": count,
        "kind_p50_ms": {kind: statistics.median(v) for kind, v in sorted(by_kind.items())},
        "latency_tail": {"percentile": percentile, "samples": len(records), "samples_above": TAIL_ABOVE},
        "setup_runs_s": setup_times,
        "probe": {
            "kind": probe,
            "reference_s": speed.REFERENCE_S[probe],
            "median_s": statistics.median(probes),
            "q1_s": statistics.quantiles(probes, n=4)[0],
            "q3_s": statistics.quantiles(probes, n=4)[2],
        },
        "raw": {
            "latency_p50_ms": statistics.median(raw),
            "latency_tail_ms": tail(raw)[0],
            "throughput_rps": 1000.0 * len(records) / sum(raw),
        },
    }
    return metrics, extra, records


def measure_traced(workload: str, cycles) -> tuple[dict, dict, list]:
    import workloads
    from permkernel import mcverify
    from tracer import Tracer

    w = workloads.WORKLOADS[workload]
    count = w.trace_cycles
    untraced, untraced_probes = run_cycles(cycles, count, probe=w.probe)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_probes = run_cycles(cycles, count, tracer=tracer, probe=w.probe)
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"spans-{workload}.csv")
    # both replays at the reference speed, so a drift of the host's speed
    # between them is not counted as tracing overhead
    overhead = (
        sum(at_reference_speed(traced, traced_probes, w.probe))
        / sum(at_reference_speed(untraced, untraced_probes, w.probe))
        - 1.0
    )
    layer = tracer.metrics(
        {i: r[1] for i, r in enumerate(traced)},
        overhead,
        mcverify.SHARD_SIZE,
        mcverify.worker_count(),
    )
    metrics = {name: (m["value"], m["unit"]) for name, m in layer.items()}
    return metrics, {"trace_cycles": count, "spans": len(tracer.spans)}, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "permkernel" / "__init__.py").is_file():
        print(f"error: no permkernel sources under {SRC}", file=sys.stderr)
        return 2
    configure_environment()
    OUT_DIR.mkdir(exist_ok=True)

    if args.setup_probe is not None:
        directory = OUT_DIR / args.workload / f"probe-{args.setup_probe}"
        # the warm-up's output is checked in the measuring process only
        _, _, seconds = setup(args.workload, args.seed, directory)
        shutil.rmtree(directory, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    probe_times = [] if args.trace else probe_setups(args.workload, args.seed)
    cycles, warmup, seconds = setup(args.workload, args.seed, OUT_DIR / args.workload / "inputs")
    if args.trace:
        metrics, extra, records = measure_traced(args.workload, cycles)
    else:
        metrics, extra, records = measure(args.workload, cycles, args.seconds, probe_times + [seconds])

    failures = check([warmup] + records)
    attempted = len(records) + 1
    info = context(args, records, sum(r[1] for r in records), extra)
    info["error_rate"] = len(failures) / attempted
    info["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"context": info, "result": result}, indent=1)
    )
    print(json.dumps({"context": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
