"""biclique-lab benchmark: one command prints every metric and checks outputs.

    python3 perfbench/run.py --workload {catalogue,corpus,recognize} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it drives the library in ``src`` from
outside. It writes the seeded inputs, times set-up in fresh interpreters,
runs one closed-loop client (``client.py``) for about S seconds, checks
every output with ``checks.py`` and prints a report whose last line is one
JSON object: ``correct``, ``attempted`` and ``failed`` (CLI calls) and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` a traced client repeats the untraced run's passes on the same
inputs and the metrics are the per-layer ones, plus the tracing overhead.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("catalogue", "corpus", "recognize")
#: Set-up is timed in this many extra fresh clients; the timed client's own
#: set-up is one more sample, and the median is reported.
SETUP_PROBES = 2
#: Every client is killed once the run has used this many seconds.
RUN_BUDGET_S = 170
CLASSES_PER_JOB = sum(checks.CLASS_COUNTS.values())
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


class BenchError(RuntimeError):
    pass


def env_stamp() -> dict:
    """Facts about the machine, read without changing anything."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def run_client(work: Path, workload: str, mode: str, trace: int, limit: float, deadline: float) -> dict:
    """Start a client, time it from start to its ``ready`` line, wait for it.

    Set-up time is scaled to reference seconds by the median of calibrations
    taken here before the start and while waiting (on the other vCPU), and
    one the client takes just after ``ready``.
    """
    command = [sys.executable, str(HERE / "client.py"), str(work), workload, mode, str(trace), str(limit)]
    samples = [speed.calibrate()]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    kill = lambda: os.killpg(proc.pid, signal.SIGKILL)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        while not select.select([proc.stdout], [], [], speed.SAMPLE_INTERVAL_S)[0]:
            samples.append(speed.calibrate())
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        calibration = proc.stdout.readline().split()
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or calibration[:1] != ["calibration"] or code != 0:
        raise BenchError(f"{mode} client for {workload} failed with exit code {code}")
    result = {} if mode == "probe" else json.loads((work / f"client-{mode}.json").read_text())
    result["raw_setup_s"] = setup_s
    samples.append(float(calibration[1]))
    result["setup_s"] = setup_s * speed.REFERENCE_S / statistics.median(samples)
    return result


def tail(samples: list[float]) -> tuple[float, float]:
    """(p, value): the highest percentile in TAIL_PERCENTILES (nearest rank)
    with at least ten samples beyond it; the median when there is none."""
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def items_done(result: dict, workload: str) -> int:
    """Timed items; a catalogue job counts as the classes it catalogues."""
    return len(result["latencies"]) * (CLASSES_PER_JOB if workload == "catalogue" else 1)


def end_to_end(base: dict, setups: list[dict], workload: str) -> tuple[dict, list[str]]:
    passes, latencies = base["passes"], base["latencies"]
    p, tail_s = tail(latencies)
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "items_per_s": (items_done(base, workload) / sum(passes), "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "item_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (base["peak_rss_kb"] / 1024, "MB"),
    }
    unit = "catalogue jobs" if workload == "catalogue" else "items"
    raw = lambda values: ", ".join(f"{v:.3f}" for v in values)
    notes = [
        "times are reference seconds (speed.py); measured seconds are given as raw",
        f"wall_s is the median of {len(passes)} passes of {base['items_per_pass']} {unit}; "
        f"raw pass seconds {raw(base['raw_passes'])}",
        f"item_tail_ms is p{p:g} of {len(latencies)} {unit}"
        + (" (too few samples for a tail: the median)" if p == 50 else ""),
        f"raw item p50 {statistics.median(base['raw_latencies']) * 1000:.3f} ms",
        f"setup_s is the median of {len(setups)} fresh starts; raw seconds "
        + raw(s["raw_setup_s"] for s in setups),
    ]
    return metrics, notes


def per_layer(base: dict, traced: dict, work: Path, workload: str) -> tuple[dict, list[str]]:
    trace = json.loads((work / "trace.json").read_text())
    items = items_done(traced, workload) + traced["warmup_items"]
    # Seconds come from spans, so they are scaled to reference seconds by the
    # traced passes' mean factor.
    factor = sum(traced["passes"]) / sum(traced["raw_latencies"])
    metrics = {name: (value * factor if unit == "s" else value, unit) for name, (value, unit)
               in tracer.layer_metrics(trace["totals"], items, trace["absent"]).items()}
    metrics["trace.overhead_ratio"] = (sum(traced["passes"]) / sum(base["passes"]) - 1, "ratio")
    traced_s = sum(traced["passes"]) + traced["setup_s"]
    shares = sorted(((value * factor / traced_s, name[5:]) for name, value in trace["totals"].items()
                     if name.startswith("self:")), reverse=True)
    notes = [f"absent from the library, metrics left out: {name}" for name in trace["absent"]]
    notes += [
        "per-layer numbers cover set-up and timed passes of the traced client; "
        f"seconds are reference seconds (raw x {factor:.4f})",
        "largest self times, share of traced set-up and passes: "
        + ", ".join(f"{name} {share:.0%}" for share, name in shares[:4]),
    ]
    return metrics, notes


def prepare_inputs(workload: str, seed: int, work: Path) -> dict[str, str]:
    if workload != "catalogue":
        return inputs.write(workload, seed, work)
    # The catalogue compares itself with this list of the positives, so its
    # result does not depend on fixtures shipped with the library.
    positives = [g6 for g6, _, category, _ in inputs.load_classes() if category == "biclique-graph"]
    data = "".join(g6 + "\n" for g6 in positives).encode()
    (work / "catalogue-fixture.g6").write_bytes(data)
    return {"catalogue-fixture.g6": hashlib.sha256(data).hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (ROOT / "src" / "biclique_lab" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a biclique-lab checkout",
                  file=sys.stderr)
            return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    stamp = env_stamp()
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    input_digests = prepare_inputs(args.workload, args.seed, work)

    try:
        setups = [run_client(work, args.workload, "probe", 0, 0, deadline)
                  for _ in range(SETUP_PROBES * (1 - args.trace))]
        base = run_client(work, args.workload, "seconds", 0, args.seconds, deadline)
        traced = run_client(work, args.workload, "passes", 1, len(base["passes"]), deadline) \
            if args.trace else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outputs = [json.loads(line) for line in (work / "outputs-seconds.jsonl").read_text().splitlines()]
    failed, problems = checks.check_run(args.workload, args.seed, input_digests, outputs, base["digests"])
    runs = [base] if traced is None else [base, traced]
    attempted = sum(len(run["latencies"]) for run in runs) * base["ops_per_item"]
    mismatched = sum(run["repeat_mismatches"] for run in runs)
    if traced is not None:
        mismatched += sum(a != b for a, b in zip(traced["digests"], base["digests"]))
    if mismatched:
        problems.append(f"{mismatched} items gave other outputs than in the first untraced pass")
    failed += mismatched * base["ops_per_item"]
    if traced is None:
        metrics, notes = end_to_end(base, setups + [base], args.workload)
    else:
        metrics, notes = per_layer(base, traced, work, args.workload)

    stamp["loadavg_end"] = os.getloadavg()
    report = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({**report, "env": stamp, "inputs": input_digests,
                                                  "problems": problems, "notes": notes}, indent=1))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env: " + " ".join(f"{key}={value}" for key, value in stamp.items()))
    for name, digest in input_digests.items():
        print(f"# input sha256 {digest}  {name}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print(f"# checks: {attempted} CLI calls, {failed} failed, {len(problems)} problems")
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
