"""The benchmark's one closed-loop client: set up, then run timed passes.

Started by ``run.py`` as a fresh interpreter:

    python3 perfbench/client.py WORKDIR WORKLOAD MODE TRACE LIMIT

It imports the library from ``src`` of the checkout, loads the inputs that
``run.py`` wrote to WORKDIR, runs the untimed warm-up items (none for
``catalogue``) and prints ``ready`` on stdout, then ``calibration SECONDS``;
the parent times set-up up to the first line. MODE
``probe`` stops there. MODE ``seconds`` runs whole passes over the input
stream while the next pass is expected to end within LIMIT seconds (at least
one pass); MODE ``passes`` runs exactly LIMIT passes. Each pass sends the
items one at a time and waits for each to finish.

``corpus`` and ``recognize`` call ``biclique_lab.cli.main`` in-process with
stdin and stdout redirected. ``catalogue`` starts every CLI call in a fresh
interpreter (``cli_child.py``), because generation is cached for the life of
a process and a user pays it on every run.

Outputs of the first pass go to ``outputs-MODE.jsonl``; later passes only record
a digest of each item, which must equal the first pass's. With TRACE 1 the
library is traced and its totals go to ``trace.json``. Timings and counters
go to ``client-MODE.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CATALOGUE_ARGS = ["catalogue", "--max-g-order", "6", "--max-h-order", "7", "--workers", "1",
                  "--out", "catalogue", "--fixture"]
CONJECTURES_ARGS = ["conjectures", "--catalogue", "catalogue"]
CHILD_TIMEOUT_S = 120
JSONL_OP = "<catalogue jsonl>"


def item_digest(ops: list[dict]) -> str:
    """SHA-256 over each operation's exit code and stdout bytes, in order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op['exit']}\n{len(op['stdout'])}\n".encode())
        h.update(op["stdout"].encode())
    return h.hexdigest()


class InProcessCli:
    """Calls ``biclique_lab.cli.main`` with redirected stdin and stdout."""

    def __init__(self, tracer) -> None:
        import biclique_lab.cli

        self.cli = biclique_lab.cli
        self.tracer = tracer

    def __call__(self, argv: list[str], stdin: str) -> dict:
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)  # looked up per call, so a tracer wrapper is used
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # one failing call must not end the run
            code = f"exception: {type(exc).__name__}: {exc}"
        finally:
            sys.stdin = sys.__stdin__
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.counts["cli.stdout_bytes"] += len(text.encode())
        return {"argv": argv, "exit": code, "stdout": text, "stderr": err.getvalue()}


def corpus_item(cli, host: str) -> list[dict]:
    line = host + "\n"
    kb = cli(["kb"], line)
    return [
        cli(["bicliques", "--format", "json"], line),
        cli(["distance", "--format", "json"], line),
        kb,
        cli(["check"], kb["stdout"]),
    ]


def recognize_item(cli, query: str) -> list[dict]:
    return [cli(["recognize", "--max-h-order", "7"], query + "\n")]


class CatalogueJob:
    """One catalogue build and one conjecture scan, each in a fresh interpreter."""

    def __init__(self, workdir: Path, tracer) -> None:
        self.dir = workdir / "job"
        self.dir.mkdir(exist_ok=True)
        self.fixture = str(workdir / "catalogue-fixture.g6")
        self.tracer = tracer
        self.traces: list[Path] = []
        self.calibrations: list[float] = []

    def _call(self, argv: list[str]) -> dict:
        command = [sys.executable, str(HERE / "cli_child.py")]
        if self.tracer is not None:
            self.traces.append(self.dir.parent / f"trace-child-{len(self.traces)}.json")
            command += ["--trace-out", str(self.traces[-1])]
        with open(self.dir.parent / "child.stdout", "w+") as out, \
                open(self.dir.parent / "child.stderr", "w+") as err:
            proc = subprocess.Popen(command + ["--"] + argv, cwd=self.dir, stdout=out, stderr=err, text=True)
            # The call runs for seconds in another process, so the machine's
            # speed is sampled while it runs (about 2% of the other vCPU).
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            while proc.poll() is None and time.monotonic() < deadline:
                self.calibrations.append(speed.calibrate())
                time.sleep(speed.SAMPLE_INTERVAL_S)
            if proc.poll() is None:
                proc.kill()
            code = proc.wait()
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        if self.tracer is not None:
            self.tracer.counts["cli.stdout_bytes"] += len(stdout.encode())
        return {"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr}

    def __call__(self, _item: str) -> list[dict]:
        shutil.rmtree(self.dir / "catalogue", ignore_errors=True)  # no stale files from the last job
        ops = [self._call(CATALOGUE_ARGS + [self.fixture]), self._call(CONJECTURES_ARGS)]
        jsonl = b"".join(p.read_bytes() for p in sorted((self.dir / "catalogue").glob("*.jsonl")))
        # The JSONL files are an output too; they ride along as a pseudo-op
        # that is not counted as a CLI call.
        ops.append({"argv": [JSONL_OP], "exit": 0, "stdout": jsonl.decode(), "stderr": ""})
        return ops


def main() -> int:
    workdir, workload, mode, trace, limit = sys.argv[1:6]
    workdir, trace, limit = Path(workdir), trace == "1", float(limit)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import biclique_lab

    if Path(biclique_lab.__file__).resolve().parent != ROOT / "src" / "biclique_lab":
        print(f"imported biclique_lab from {biclique_lab.__file__}, not from src", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()

    if workload == "catalogue":
        run_item = CatalogueJob(workdir, tracer)
        warmup, stream = [], ["job"]
    else:
        cli = InProcessCli(tracer)
        step = corpus_item if workload == "corpus" else recognize_item
        run_item = lambda text: step(cli, text)
        warmup = (workdir / f"{workload}-warmup.g6").read_text().split()
        stream = (workdir / f"{workload}.g6").read_text().split()
    for text in warmup:
        run_item(text)
    print("ready", flush=True)
    before = speed.calibrate()
    print(f"calibration {before!r}", flush=True)
    if mode == "probe":
        return 0

    # Item times are scaled to reference seconds by calibrations taken right
    # before and after the item (see speed.py); passes are sums of them.
    latencies, raw_latencies, passes, raw_passes = [], [], [], []
    digests, repeat_mismatches = [], 0
    with open(workdir / f"outputs-{mode}.jsonl", "w") as outputs:
        while True:
            pass_start, pass_s = time.perf_counter(), 0.0
            for index, text in enumerate(stream):
                if tracer is not None:
                    tracer.item = len(latencies)
                start = time.perf_counter()
                ops = run_item(text)
                raw_latencies.append(time.perf_counter() - start)
                after = speed.calibrate()
                during = getattr(run_item, "calibrations", None)
                if during:
                    factor = speed.REFERENCE_S / statistics.median(during)
                    during.clear()
                else:
                    factor = speed.scale(before, after)
                latencies.append(raw_latencies[-1] * factor)
                before = after
                pass_s += latencies[-1]
                digest = item_digest(ops)
                if not passes:
                    digests.append(digest)
                    outputs.write(json.dumps({"input": text, "ops": ops}) + "\n")
                elif digest != digests[index]:
                    repeat_mismatches += 1
            passes.append(pass_s)
            raw_passes.append(time.perf_counter() - pass_start)
            if mode == "passes" and len(passes) >= limit:
                break
            if mode == "seconds" and sum(raw_passes) + raw_passes[-1] > limit:
                break

    result = {
        "passes": passes,
        "raw_passes": raw_passes,
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "items_per_pass": len(stream),
        "warmup_items": len(warmup),
        "ops_per_item": sum(op["argv"][0] != JSONL_OP for op in ops),
        "digests": digests,
        "repeat_mismatches": repeat_mismatches,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.time_checks()
        tracer.write_spans(workdir / "spans-client.jsonl")
        totals = tracer.totals()
        for path in getattr(run_item, "traces", ()):
            child = json.loads(path.read_text())
            tracer.absent.extend(a for a in child["absent"] if a not in tracer.absent)
            for key, value in child["totals"].items():
                totals[key] = totals.get(key, 0) + value
        (workdir / "trace.json").write_text(json.dumps({"totals": totals, "absent": tracer.absent}))
    usage = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result["peak_rss_kb"] = usage[1] if workload == "catalogue" else usage[0]
    (workdir / f"client-{mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
