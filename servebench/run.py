"""Serving benchmark: one workload, one seed, one measuring window.

Usage, from the root of a checkout::

    python3 servebench/run.py --workload warm-identify --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; lines before it are the same numbers for people.  Every
answer the program gives is checked (see ``workloads.py``); a wrong one
counts as failed and makes the exit code 1.  A result file with the
run's provenance is written under ``.servebench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import zlib
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(message: str) -> NoReturn:
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        _fail(f"cannot read {path.name}: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {ROOT / 'src' / 'repro'}; run from a full checkout")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    spec = _spec()
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import workloads
    from common import WORK_DIR, provenance

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    probe_ms = workloads.HOST.probe_ms()
    rng = np.random.default_rng([args.seed, zlib.crc32(args.workload.encode())])
    work = WORK_DIR / f"work-{args.workload}-{os.getpid()}"
    workloads.clean(work)
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[args.workload](rng, args.seconds, bool(args.trace), work)
    finally:
        workloads.clean(work)

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: float(outcome.layers.get(m["name"], 0.0)) for m in wanted}
        unknown = set(outcome.layers) - set(values)
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: float(outcome.e2e[m["name"]]) for m in wanted}
        unknown = set(outcome.e2e) - set(values)
    if unknown:
        _fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = outcome.failed == 0

    stamp = provenance(args.seed, probe_ms)
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": stamp,
        "wall_s": time.perf_counter() - started,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / max(1, outcome.attempted),
        "failures": outcome.failures,
        "metrics": metrics,
        "unscaled": outcome.unscaled,
    }
    (results / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if outcome.trace is not None:
        outcome.trace.tracer.export_jsonl(results / f"{name}.trace.jsonl")

    for key, value in stamp.items():
        print(f"# {key}: {value}")
    print(f"# workload {args.workload}: attempted {outcome.attempted}, failed {outcome.failed}")
    for failure in outcome.failures:
        print(f"# FAILED {failure}")
    for figure, value in outcome.unscaled.items():
        print(f"# {figure}: {value:.6g}")
    for metric, entry in metrics.items():
        print(f"{metric:48s} {entry['value']:14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
