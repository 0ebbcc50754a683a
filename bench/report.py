"""Declarations from ``BENCHMARK.json``, the environment, printing, ``compare``."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

from bench import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END: Dict[str, dict] = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER: Dict[str, dict] = {m["name"]: m for m in BENCHMARK["per_layer"]}


def environment(seed: int, seconds: float, scale: float) -> dict:
    """Everything a history row needs to be read without this checkout."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        # the benchmark never installs uvloop, whether or not it is importable
        "event_loop": "asyncio (stdlib)",
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "argv": sys.argv[1:],
    }


def annotate(metrics: Dict[str, dict]) -> None:
    """Give every metric its declared direction (and bound), so that a result
    file needs nothing else to be compared later."""
    for name, value in metrics.items():
        declared = END_TO_END.get(name) or PER_LAYER[name]
        value["better"] = declared["better"]
        if "bound" in declared:
            value["bound"] = declared["bound"]


def print_run(workload: str, traced: bool, run: dict) -> None:
    kind = "per-layer (traced run)" if traced else "end-to-end"
    print(f"\n== {workload}: {kind} ==")
    for name, value in run["metrics"].items():
        samples = f"  n={value['samples']}" if "samples" in value else ""
        print(f"  {name:<44} {value['value']:>16.4f} {value['unit']:<9}"
              f" ({value['better']} is better){samples}")
    for name, passed in run["gate"].items():
        print(f"  gate {name}: {'ok' if passed else 'FAILED'}")
    share = run["failed"] / max(run["attempted"], 1)
    print(f"  failed_ops_share {share:.6f} ({run['failed']} of {run['attempted']})")


# -- compare -----------------------------------------------------------------------


def quartiles(value: dict) -> List[float]:
    """(q1, median, q3) of a metric: over its segments when it has them."""
    segments = value.get("segments")
    if not segments or len(segments) < 2:
        return [value["value"]] * 3
    q1, _, q3 = statistics.quantiles(segments, n=4)
    return [q1, value["value"], q3]


def verdict(base: dict, other: dict, declared: dict) -> dict:
    """One row of ``compare``: is ``other`` worse than ``base`` by more than the
    metric's bound, better by more than it, or within it?  ``unresolved`` when
    either side's own spread is wider than the bound."""
    (b1, b2, b3), (o1, o2, o3) = quartiles(base), quartiles(other)
    bound = declared["bound"]
    ratio = o2 / b2 if b2 else float("inf")
    worse_by = (ratio - 1.0) if declared["better"] == "lower" else (1.0 - ratio)
    spread = max((b3 - b1) / b2 if b2 else 0.0, (o3 - o1) / o2 if o2 else 0.0)
    if spread > bound:
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    elif worse_by < -bound:
        result = "better"
    else:
        result = "within"
    return {"base": [b1, b2, b3], "other": [o1, o2, o3], "ratio": ratio,
            "bound": bound, "spread": spread, "verdict": result}


def compare(base: dict, other: dict) -> List[dict]:
    """One row per (workload, end-to-end metric) present in both results."""
    rows = []
    for workload, base_run in base["workloads"].items():
        other_run = other["workloads"].get(workload)
        if not other_run or "end_to_end" not in base_run or "end_to_end" not in other_run:
            continue
        for name, declared in END_TO_END.items():
            row = verdict(base_run["end_to_end"]["metrics"][name],
                          other_run["end_to_end"]["metrics"][name], declared)
            rows.append({"workload": workload, "metric": name,
                         "unit": declared["unit"], "better": declared["better"], **row})
    return rows


def print_compare(rows: List[dict], base_name: str, other_name: str) -> None:
    print(f"base = {base_name}   other = {other_name}   ratio = other / base")
    print(f"{'workload':<16} {'metric':<29} {'base q1/median/q3':<34} "
          f"{'other q1/median/q3':<34} {'ratio':>7} {'bound':>6}  verdict")
    for row in rows:
        def triple(values):
            return "/".join(f"{v:.4g}" for v in values)
        print(f"{row['workload']:<16} {row['metric']:<29} {triple(row['base']):<34} "
              f"{triple(row['other']):<34} {row['ratio']:>7.3f} {row['bound']:>6.3f}  "
              f"{row['verdict']}")


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)
