#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (about two minutes).

    python3 pipeline_bench/smoke.py

For every workload of ``run.py`` (those in ``BENCHMARK.json`` and
``population-scale``, which is run by hand) and both ``--trace`` values it runs
the command with ``--tiny`` and checks that the last line is the result
object, that outputs were judged correct, and that the metrics are exactly
the ones ``BENCHMARK.json`` names, each with its unit.  It also checks that
two runs on one seed give one ``report_sha256``, that the traced and the
untraced run agree on it, and that the command fails without printing a
result in a directory holding only ``BENCHMARK.json`` and the benchmark's
own files.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
STRIPPED = ROOT / ".bench_work" / "stripped"
INFO_KEYS = {"report_sha256", "input_sha256", "failed_frac", "env"}
ENV_KEYS = {"nproc", "python", "numpy", "git_commit", "blas_threads", "llm_max_in_flight"}


def run(spec: dict, cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def check_run(spec: dict, workload: str, trace: int, errors: list[str]) -> str | None:
    """Run one tiny case; return its report digest, appending any problem to ``errors``."""
    where = f"{workload} --trace {trace}"
    proc = run(spec, ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
        return None
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1 or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')} "
                      f"failed={result.get('failed')}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    printed = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(expected) & set(printed) if expected[n] != printed[n])
        errors.append(f"{where}: missing {missing}, unlisted {extra}, wrong unit {wrong}")
    for name, metric in result.get("metrics", {}).items():
        if not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    if not INFO_KEYS <= set(info) or not ENV_KEYS <= set(info.get("env", {})):
        errors.append(f"{where}: info line lacks {sorted(INFO_KEYS - set(info))} / env keys")
    return info.get("report_sha256")


def check_stripped(spec: dict, workload: str, errors: list[str]) -> None:
    """The command must fail, printing no result, without the program's sources."""
    if STRIPPED.exists():
        shutil.rmtree(STRIPPED)
    STRIPPED.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", STRIPPED / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, STRIPPED / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(spec, STRIPPED, workload, 0)
    finally:
        shutil.rmtree(STRIPPED)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append(f"stripped directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    workloads = [w["name"] for w in spec["workloads"]]
    workloads += sorted(set(WORKLOADS) - set(workloads))
    for workload in workloads:
        digests = {check_run(spec, workload, trace, errors) for trace in (0, 1)}
        if workload == workloads[0]:
            digests.add(check_run(spec, workload, 0, errors))
        if len(digests) != 1:
            errors.append(f"{workload}: repeated and traced runs gave different report digests {digests}")
        print(f"{workload}: checked", flush=True)
    check_stripped(spec, workloads[0], errors)
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
