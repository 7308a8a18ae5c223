"""Record the benchmark's golden data from the code of the current checkout.

    python3 perfbench/record_golden.py

Writes ``data/classes.tsv``: every connected class of order 2..6 with its
classification for hosts of at most 7 vertices, and for each positive the
preimage found, re-verified here with the oracles. Then writes
``data/golden.json``: input digests and per-item output digests at the
default seed. Every later run is compared with what this records, so run it
only at a commit whose outputs are known to be right, and only after every
output has passed the independent checks, which it insists on.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import checks
import run
from client import CATALOGUE_ARGS

DATA = run.HERE / "data"


def record_classes(work) -> None:
    argv = CATALOGUE_ARGS[: CATALOGUE_ARGS.index("--fixture")]
    subprocess.run([sys.executable, str(run.HERE / "cli_child.py"), "--", *argv],
                   cwd=work, check=True, capture_output=True)
    jsonl = "".join(p.read_text() for p in sorted((work / "catalogue").glob("*.jsonl")))
    entries = [json.loads(line) for line in jsonl.splitlines()]
    problems = checks.check_catalogue_entries(jsonl)
    if problems:
        raise SystemExit(f"catalogue fails its checks: {problems}")
    lines = ["# graph6\torder\tclassification at max_h_order 7\tpreimage"]
    lines += [f"{e['graph6']}\t{e['order']}\t{e['classification']}\t{e.get('preimage_graph6', '-')}"
              for e in entries]
    (DATA / "classes.tsv").write_text("\n".join(lines) + "\n")


def main() -> None:
    work = run.ROOT / ".bench_build" / "perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record_classes(work)
    golden = {"default_seed": checks.DEFAULT_SEED, "inputs": {}}
    for workload in run.WORKLOADS:
        shutil.rmtree(work)
        work.mkdir()
        digests = run.prepare_inputs(workload, checks.DEFAULT_SEED, work)
        result = run.run_client(work, workload, "passes", 0, 1, time.monotonic() + 600)
        for line in (work / "outputs-passes.jsonl").read_text().splitlines():
            record = json.loads(line)
            problems = checks.check_item(workload, record["input"], record["ops"])
            if problems:
                raise SystemExit(f"{workload} output fails its checks: {problems}")
        golden["inputs"][workload] = digests
        golden[workload] = result["digests"]
    (DATA / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
