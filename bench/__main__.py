"""``python3 -m bench``: run the benchmark, ``compare`` two results, or ``repeat``.

    python3 -m bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--scale X] [--out FILE]
    python3 -m bench compare A.json B.json
    python3 -m bench repeat [--sets 2] [run options]

With no ``--workload`` every workload runs; with no ``--trace`` each runs
twice, end-to-end (tracing off) and traced (per-layer metrics).  Every metric
is printed by name with its unit, the result is written to ``--out``, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when a
correctness gate failed.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import subprocess
import sys
from pathlib import Path

from bench import ROOT, ensure_repro_importable

OUT_DIR = ROOT / "bench" / "out"


def run_parser() -> argparse.ArgumentParser:
    from bench.report import BENCHMARK
    from bench.spec import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
                        help="0: end-to-end only, 1: traced run only (default: both)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink run time and operation counts (smoke tests)")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "result.json")
    return parser


@functools.lru_cache(maxsize=1)
def layer_metrics(seed: int, scale: float) -> dict:
    """The workload-independent microbenchmarks, measured once per process."""
    from bench import layers

    return layers.measure_layers(seed, scale, OUT_DIR)


def run_one(workload: str, traced: bool, seed: int, seconds: float, scale: float) -> dict:
    """One run of one workload; checks the metric names against BENCHMARK.json."""
    from bench import e2e, report, traced as traced_runs
    from bench.spec import NET_SPECS

    if traced:
        trace_path = OUT_DIR / f"trace_{workload}.jsonl"
        if workload == "sim_paper":
            run = traced_runs.trace_sim(seed, seconds, scale, trace_path)
        else:
            run = traced_runs.trace_net(NET_SPECS[workload], seed, seconds, scale, trace_path)
        run["metrics"].update(copy.deepcopy(layer_metrics(seed, scale)))
        run["counts"]["trace_file"] = str(trace_path.relative_to(ROOT))
        declared = report.PER_LAYER
    else:
        if workload == "sim_paper":
            run = e2e.run_sim(seed, seconds, scale)
        else:
            run = e2e.run_net(NET_SPECS[workload], seed, seconds, scale)
        declared = report.END_TO_END
    if set(run["metrics"]) != set(declared):
        raise SystemExit(
            f"bench: metrics of {workload} differ from BENCHMARK.json: "
            f"{sorted(set(run['metrics']) ^ set(declared))}")
    run["metrics"] = {name: run["metrics"][name] for name in declared}
    report.annotate(run["metrics"])
    run["correct"] = all(run["gate"].values())
    run["failed_ops_share"] = run["failed"] / max(run["attempted"], 1)
    return run


def run_benchmark(args) -> dict:
    from bench import report
    from bench.spec import WORKLOAD_NAMES

    seconds = args.seconds * args.scale
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    result = {
        "environment": report.environment(args.seed, seconds, args.scale),
        "workloads": {},
    }
    for workload in workloads:
        runs = result["workloads"][workload] = {}
        for traced in modes:
            run = run_one(workload, traced, args.seed, seconds, args.scale)
            report.print_run(workload, traced, run)
            runs["per_layer" if traced else "end_to_end"] = run
    return result


def last_line(result: dict) -> dict:
    """The one JSON object the driver reads."""
    runs = [
        (workload, run)
        for workload, by_mode in result["workloads"].items()
        for run in by_mode.values()
    ]
    prefix = len(result["workloads"]) > 1
    return {
        "correct": all(run["correct"] for _, run in runs),
        "attempted": sum(run["attempted"] for _, run in runs),
        "failed": sum(run["failed"] for _, run in runs),
        "metrics": {
            (f"{workload}/{name}" if prefix else name):
                {"value": value["value"], "unit": value["unit"]}
            for workload, run in runs
            for name, value in run["metrics"].items()
        },
    }


def write_result(result: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")


def main_run(argv) -> int:
    args = run_parser().parse_args(argv)
    result = run_benchmark(args)
    write_result(result, args.out)
    print(f"\nresult written to {args.out}")
    summary = last_line(result)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main_compare(argv) -> int:
    from bench import report

    parser = argparse.ArgumentParser(prog="python3 -m bench compare")
    parser.add_argument("base")
    parser.add_argument("other")
    args = parser.parse_args(argv)
    rows = report.compare(report.load(args.base), report.load(args.other))
    report.print_compare(rows, args.base, args.other)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main_repeat(argv) -> int:
    """The whole end-to-end benchmark ``--sets`` times on the same code, each
    set in a fresh process; every later set is compared with the first."""
    from bench import report

    parser = run_parser()
    parser.prog = "python3 -m bench repeat"
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    forwarded = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--scale", str(args.scale), "--trace", "0"]
    if args.workload:
        forwarded += ["--workload", args.workload]
    paths = []
    for number in range(1, args.sets + 1):
        print(f"\n#### set {number} of {args.sets}", flush=True)
        path = args.out.with_name(f"{args.out.stem}_set{number}.json")
        subprocess.run([sys.executable, "-m", "bench", *forwarded, "--out", str(path)],
                       cwd=ROOT, check=True)
        paths.append(path)
    worse = False
    for path in paths[1:]:
        rows = report.compare(report.load(paths[0]), report.load(path))
        print()
        report.print_compare(rows, str(paths[0]), str(path))
        worse = worse or any(row["verdict"] == "worse" for row in rows)
    return 1 if worse else 0


def main(argv) -> int:
    ensure_repro_importable()
    if argv and argv[0] == "compare":
        return main_compare(argv[1:])
    if argv and argv[0] == "repeat":
        return main_repeat(argv[1:])
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
