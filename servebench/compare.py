"""Compare two checkouts (parent and change) on the serving benchmark.

Usage::

    python3 servebench/compare.py --base ../parent --change . [--pairs 10]

Each checkout runs its own ``servebench/run.py`` untraced, for
``run_seconds`` of ``BENCHMARK.json`` (the length its bounds were set
at).  For every workload it runs ``--pairs`` pairs (at least ten) with
seeds ``SEED_BASE``, ``SEED_BASE + 1``, ..., alternating which side goes
first, and reports for each end-to-end metric:

* each side's median and quartiles;
* the share of pairs the change won (ties count for neither side);
* the change/base ratio of medians, with the base value;
* a verdict.  ``unresolved`` when the base's own spread (quartile
  distance over median) is wider than the metric's bound, unless every
  change run beats every base run; ``gain`` when the change won at
  least nine tenths of the pairs and the medians differ by
  more than the base's quartile distance; ``regression`` when the
  change's median is worse than the base's by more than the bound;
  otherwise ``same``.

The host-speed probe and host factor (see ``common.HostSpeed``) of
every run are reported per side, so drift in host speed between the
two sides is visible beside the verdicts.
Exit code: 0 when no metric regressed, 1 when one did, 2 on a failed run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HOST_READINGS = ("host_probe_ms", "host_factor")  # '# name: value' lines of a run
SEED_BASE = 1000
MIN_PAIRS = 10


def _benchmark_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "servebench").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def run_once(root: Path, workload: str, seed: int, seconds: int) -> Dict[str, object]:
    """One untraced run in ``root``; returns its metrics and host readings."""
    completed = subprocess.run(
        [
            sys.executable, "servebench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{root} {workload} seed {seed} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-500:] or lines[-5:]}"
        )
    result = json.loads(lines[-1])
    host = {
        name: next((float(line.split(":", 1)[1]) for line in lines if line.startswith(f"# {name}:")), float("nan"))
        for name in HOST_READINGS
    }
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "host": host,
    }


def summarize(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, n=4)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(metric: Dict[str, object], base: List[float], change: List[float]) -> Dict[str, object]:
    """Verdict for one metric from its base and change runs (rules in the module docstring)."""
    higher = metric["better"] == "higher"
    bound = float(metric["bound"])
    b, c = summarize(base), summarize(change)

    def better(x: float, y: float) -> bool:
        return x > y if higher else x < y

    won = sum(better(x, y) for x, y in zip(change, base))
    lost = sum(better(y, x) for x, y in zip(change, base))
    spread = (b["q3"] - b["q1"]) / b["median"] if b["median"] else float("inf")
    worse_by = (b["median"] - c["median"]) / b["median"] if higher else (c["median"] - b["median"]) / b["median"]
    dominates = all(better(x, y) for x in change for y in base)
    if spread > bound and not dominates:
        status = "unresolved"
    elif won >= 0.9 * len(base) and abs(c["median"] - b["median"]) > b["q3"] - b["q1"]:
        status = "gain"
    elif worse_by > bound:
        status = "regression"
    else:
        status = "same"
    return {
        "base": b,
        "change": c,
        "pairs": len(base),
        "won_share": won / len(base),
        "lost_share": lost / len(base),
        "ratio": c["median"] / b["median"] if b["median"] else float("inf"),
        "base_median": b["median"],
        "base_spread": spread,
        "bound": bound,
        "status": status,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="changed checkout")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, help=f"at least {MIN_PAIRS}")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be >= {MIN_PAIRS}: fewer pairs can never show a gain")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    digests = {side: _benchmark_digest(root) for side, root in (("base", args.base), ("change", args.change))}
    if digests["base"] != digests["change"]:
        print(f"# warning: benchmark code differs between sides {digests}")

    regressed = False
    for workload in names:
        runs: Dict[str, List[Dict[str, object]]] = {"base": [], "change": []}
        for index in range(args.pairs):
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            for side in order:
                root = args.base if side == "base" else args.change
                try:
                    runs[side].append(run_once(root, workload, SEED_BASE + index, seconds))
                except RuntimeError as error:
                    print(f"compare: {error}", file=sys.stderr)
                    return 2
        print(f"\n== {workload} ({args.pairs} pairs, {seconds}s runs)")
        for side in ("base", "change"):
            readings = ", ".join(
                f"{name} {statistics.median(run['host'][name] for run in runs[side]):.4g}" for name in HOST_READINGS
            )
            print(f"# {side} medians: {readings}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                metric,
                [run["metrics"][name] for run in runs["base"]],
                [run["metrics"][name] for run in runs["change"]],
            )
            regressed = regressed or row["status"] == "regression"
            b, c = row["base"], row["change"]
            print(
                f"{name:16s} base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]  "
                f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
                f"won {row['won_share']:.0%}  ratio {row['ratio']:.3f} of {row['base_median']:.4g} "
                f"{metric['unit']}  spread {row['base_spread']:.3f}/{row['bound']}  {row['status']}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
