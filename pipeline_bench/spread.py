#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 pipeline_bench/spread.py --workloads planted-ablation --seeds 1-10 --out spread.json

Each (workload, seed) is one run of the command in ``BENCHMARK.json`` with
``--seconds`` set to ``run_seconds``.  For every metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the metric's bound; an end-to-end spread
above a third of its bound is flagged.  ``--trace 1`` summarises the per-layer
metrics instead.  The runs go one after another, never in parallel, so they
do not disturb each other's timings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result, info


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="", help="comma list; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summary: dict = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        digests: dict[int, str] = {}
        for seed in seed_list(args.seeds):
            result, info = run_once(spec, workload, seed, args.trace)
            digests[seed] = info["report_sha256"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items() if n in bounds), flush=True)
        rows = {name: {**summarise(v), "unit": units[name]} for name, v in values.items()}
        summary[workload] = {"metrics": rows, "report_sha256": digests}
        for name, row in rows.items():
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None and name != "setup_s" and row["spread"] > bound / 3:
                flag = "  <-- spread above bound/3"
            print(f"{workload:<18} {name:<36} median={row['median']:<12.6g} q1={row['q1']:<12.6g} "
                  f"q3={row['q3']:<12.6g} spread={row['spread']:.4f}"
                  + (f" bound={bound}" if bound is not None else "") + flag)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
