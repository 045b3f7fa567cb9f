#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the hisekt pipeline.

Run from anywhere; the script works in the checkout that holds it:

    python3 pipeline_bench/run.py --workload planted-ablation --seed 1 --seconds 30 --trace 0

``--seed`` picks the synthetic input (seed 1 is the acceptance fixture).  The
input CSV is generated with ``hisekt.synth.planted_csv`` and written to a
file under ``.bench_work/<workload>/``; the program only receives that file.
Everything runs in this one process, with the mock LLM backend and
``llm_max_in_flight`` = min(2, nproc).

``--trace 0`` times the untraced pipeline and prints the end-to-end metrics.
``--trace 1`` runs it once untraced, then again with every layer's public
functions wrapped (see ``tracer.py``) and prints the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it (``info``) holds the report
and input digests, ``failed_frac`` and the environment.  Workloads, metrics
and their expected links are described in ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")  # relative to ROOT, so report paths and digests do not depend on the checkout
BLAS_THREADS = 1
EXTRA_SETUPS = 1  # setup-only passes before the timed iterations; each iteration adds one more
MIN_ITERATIONS = 2  # cold passes per run, so that one stretch of host contention does not set run_s
MIN_RERUNS = 3  # warm passes per run, for the same reason
CFG_SEED = 7  # split/run seed of the acceptance configs; the workload seed only changes the input

VARIANTS = ("msr", "msl", "simu", "rsimu")
WORKLOADS = {
    "planted-ablation": {
        "kind": "library",
        "csv": {},
        "cfg": dict(n_walks=100, walk_len=20, top_k=5, top_s=3, pair_source="paths", variants=VARIANTS),
        "tiny": dict(n_walks=5, walk_len=8),
    },
    "population-scale": {
        "kind": "library",
        "csv": {"students_per_band": 300},
        "cfg": dict(n_walks=10, top_k=5, top_s=3, pair_source="random"),
        "tiny": dict(n_walks=3, students_per_band=20),
    },
    "cli-pipeline": {
        "kind": "cli",
        "csv": {},
        "cfg": dict(n_walks=20, walk_len=12, top_k=3, top_s=2, pair_source="paths", pair_sample=2000),
        "tiny": dict(n_walks=4, walk_len=8, pair_sample=200),
    },
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "rerun_s": "s",
    "predictions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "auc": "ratio",
    "acc": "ratio",
}

CLI_STAGES = ("ingest", "fit_irt", "build_hin", "sample_paths", "score_paths", "retrieve", "predict", "evaluate")
PER_LAYER = {
    "pathscore.score_s": "s",
    "pathscore.walks_scored": "count",
    "mrhin.graph_distance_calls": "count",
    "mrhin.graph_distance_s": "s",
    "pathscore.select_top_k_s": "s",
    "pathscore.select_top_k_calls": "count",
    "pathscore.retained_ratio": "ratio",
    "mrhin.sample_s": "s",
    "mrhin.walks_sampled": "count",
    "mrhin.build_s": "s",
    "mrhin.edges": "count",
    "irt.fit_s": "s",
    "irt.rounds": "count",
    "irt.converged": "count",
    "dataset.ingest_s": "s",
    "dataset.iter_split_calls": "count",
    "retrieval.top_s_s": "s",
    "retrieval.top_s_calls": "count",
    "retrieval.encode_calls": "count",
    "retrieval.candidates_mean": "count",
    "retrieval.empty_candidate_frac": "ratio",
    "retrieval.fit_similarity_s": "s",
    "retrieval.fit_similarity_peak_mb": "MB",
    "predict.build_prompt_s": "s",
    "predict.prompt_chars_mean": "count",
    "predict.predict_ms_p50": "ms",
    "predict.predict_ms_p99": "ms",
    "llm.complete_calls": "count",
    "llm.complete_s": "s",
    "llm.retry_frac": "ratio",
    "llm.wait_s": "s",
    "pathscore.render_prompt_s": "s",
    **{f"cli.{stage}_s": "s" for stage in CLI_STAGES},
    "cli.artifact_bytes": "count",
    "cli.cache_hits": "count",
    "evaluation.run_variant_s": "s",
    "evaluation.run_variant_calls": "count",
    "evaluation.pair_pool_size": "count",
    "trace.overhead_s": "s",
}


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports ``correct: false``."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring budget; at least one iteration runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (used by smoke.py)")
    return parser.parse_args(argv)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hisekt").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Workload:
    """One workload's input, config and timed passes; subclasses drive the library or the CLI."""

    def __init__(self, hisekt, name: str, seed: int, tiny: bool, in_flight: int):
        spec = WORKLOADS[name]
        overrides = dict(spec["tiny"]) if tiny else {}
        csv_kwargs = {k: overrides.pop(k, v) for k, v in spec["csv"].items()}
        self.hisekt = hisekt
        self.name = name
        self.dir = WORK / name
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        csv_text, _ = hisekt.synth.planted_csv(seed=seed, **csv_kwargs)
        self.data = self.dir / "input.csv"
        self.data.write_text(csv_text, encoding="utf-8")
        self.input_sha256 = sha256_bytes(self.data.read_bytes())
        self.settings = dict(
            data=self.data.as_posix(),
            cache_dir=(self.dir / "cache").as_posix(),
            out_dir=(self.dir / "out").as_posix(),
            seed=CFG_SEED,
            runs=1,
            llm_backend="mock",
            llm_max_in_flight=in_flight,
            **{**spec["cfg"], **overrides},
        )
        self.cfg = hisekt.config.RunConfig(**self.settings)
        d = hisekt.dataset.split(hisekt.dataset.ingest(self.data), CFG_SEED)
        self.test_size = len(d.iter_split("test"))
        self.predictions_per_report = self.test_size * self.cfg.runs * (1 + len(self.cfg.variants))

    def check_report(self, text: str) -> dict:
        """Validate one report JSON; raise CheckFailed on any wrong output."""
        report = json.loads(text)
        expected_variants = set(self.cfg.variants)
        if report["n"] != self.test_size:
            raise CheckFailed(f"report n={report['n']} but the test split has {self.test_size} rows")
        if set(report["per_variant"]) != expected_variants:
            raise CheckFailed(f"report variants {sorted(report['per_variant'])} != {sorted(expected_variants)}")
        if len(report["runs"]) != self.cfg.runs * (1 + len(expected_variants)):
            raise CheckFailed(f"report has {len(report['runs'])} run rows")
        for row in [report, *report["per_variant"].values(), *report["runs"]]:
            if row["n"] != self.test_size:
                raise CheckFailed(f"a report row covers {row['n']} predictions, not {self.test_size}")
            for key in ("acc", "auc"):
                if not 0.0 <= row[key] <= 1.0:
                    raise CheckFailed(f"{key}={row[key]} outside [0, 1]")
        return report

    def timed_cold(self) -> tuple[str, float, float]:
        """Cold pass with its set-up time: (report json, run_s, setup_s)."""
        return self.cold()

    def delivered_predictions(self, report: dict) -> int:
        return sum(row["n"] for row in report["runs"])


class LibraryWorkload(Workload):
    """Drives ``PipelineContext`` / ``run_experiment`` directly."""

    def setup(self):
        ctx = self.hisekt.evaluation.PipelineContext(self.cfg)
        started = time.perf_counter()
        ctx.dataset, ctx.irt, ctx.graph
        return ctx, time.perf_counter() - started

    def cold(self) -> tuple[str, float, float]:
        """Fresh context to report; returns (report json, run_s, setup_s)."""
        started = time.perf_counter()
        self.ctx, setup_s = self.setup()
        text = self.hisekt.evaluation.run_experiment(self.cfg, self.ctx).to_json()
        return text, time.perf_counter() - started, setup_s

    def warm(self) -> tuple[str, float]:
        """The same call again on the context the cold pass filled."""
        started = time.perf_counter()
        text = self.hisekt.evaluation.run_experiment(self.cfg, self.ctx).to_json()
        return text, time.perf_counter() - started

    def operations(self, report: dict) -> tuple[int, int]:
        """(attempted, failed) over walk scoring and the report's predictions."""
        walks = scored = 0
        for r in range(self.cfg.runs):
            run_seed = self.hisekt.seeding.derive_seed(self.cfg.seed, "run", r)
            for per_template in self.ctx.instances(run_seed).values():
                walks += sum(len(group) for group in per_template.values())
            for per_template in self.ctx.scored(run_seed).values():
                scored += sum(len(group) for group in per_template.values())
        attempted = walks + self.predictions_per_report
        return attempted, attempted - scored - self.delivered_predictions(report)


class CliWorkload(Workload):
    """Drives ``hisekt.cli.main`` in this process, one command per stage."""

    def __init__(self, *args):
        super().__init__(*args)
        lines = [f"{key} = {','.join(value) if key == 'variants' else value}" for key, value in self.settings.items()]
        self.config_path = self.dir / "run.cfg"
        self.config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.cache = Path(self.settings["cache_dir"])
        self.report_path = self.dir / "report.json"

    def command(self, *words: str) -> None:
        argv = [*words, "--config", self.config_path.as_posix(), "--score-backend", "llm", "--llm-backend", "mock"]
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints progress lines
            code = self.hisekt.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"hisekt {' '.join(argv)} exited with {code}")

    def wipe(self) -> None:
        if self.cache.exists():
            shutil.rmtree(self.cache)

    def setup(self):
        self.wipe()
        started = time.perf_counter()
        for stage in ("ingest", "fit-irt", "build-hin"):
            self.command(stage)
        return None, time.perf_counter() - started

    def _pipeline(self) -> tuple[str, float]:
        started = time.perf_counter()
        self.command("pipeline", "--out", self.report_path.as_posix())
        elapsed = time.perf_counter() - started
        return self.report_path.read_text(encoding="utf-8"), elapsed

    def cold(self) -> tuple[str, float, None]:
        """Cold ``pipeline`` on an empty cache; set-up is timed by separate commands."""
        self.wipe()
        text, run_s = self._pipeline()
        return text, run_s, None

    def timed_cold(self) -> tuple[str, float, float]:
        _, setup_s = self.setup()
        text, run_s, _ = self.cold()
        return text, run_s, setup_s

    def warm(self) -> tuple[str, float]:
        return self._pipeline()

    def artifact(self, name: str) -> Path:
        found = sorted(self.cache.glob(f"*/{name}"))
        if len(found) != 1:
            raise CheckFailed(f"expected one {name} in the cache, found {len(found)}")
        return found[0]

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.cache.rglob("*") if p.is_file())

    def check_report(self, text: str) -> dict:
        report = super().check_report(text)
        cached = self.artifact("report.json").read_text(encoding="utf-8")
        if cached != text:
            raise CheckFailed("report.json in the cache differs from the --out copy")
        lines = self.artifact("predictions.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != self.test_size:
            raise CheckFailed(f"predictions.jsonl has {len(lines)} lines, expected {self.test_size}")
        return report

    def operations(self, report: dict) -> tuple[int, int]:
        """(attempted, failed) over walk scoring, the predict stage and the report."""
        def count(name: str) -> int:
            return len(self.artifact(name).read_text(encoding="utf-8").splitlines())

        walks = count("paths.jsonl")
        attempted = walks + self.test_size + self.predictions_per_report
        delivered = count("scored.jsonl") + count("predictions.jsonl") + self.delivered_predictions(report)
        return attempted, attempted - delivered


def measure(w: Workload, seconds: float) -> tuple[dict, list[str], dict]:
    """Untraced timing within the ``seconds`` budget.

    One set-up-only pass, then at least ``MIN_ITERATIONS`` (cold, warm)
    iterations, more while another one fits in the budget, then extra warm
    reruns up to ``MIN_RERUNS`` and beyond while another one fits.  ``run_s``
    and ``rerun_s`` are the fastest pass of the run and ``predictions_per_s``
    comes from the fastest cold pass: on a shared host, other tenants only
    ever add time, in stretches of seconds to minutes, so the minimum is the
    steadiest estimate of the program's own time.  ``setup_s`` is the median
    of the run's set-ups.
    """
    started = time.perf_counter()
    extra_setups = [w.setup()[1] for _ in range(EXTRA_SETUPS)]
    setups, runs, reruns, texts = [], [], [], []

    def fits(estimate: float) -> bool:
        return time.perf_counter() - started + estimate <= seconds

    while True:
        begun = time.perf_counter()
        cold_text, run_s, setup_s = w.timed_cold()
        report = w.check_report(cold_text)
        warm_text, rerun_s = w.warm()
        w.check_report(warm_text)
        setups.append(setup_s)
        runs.append(run_s)
        reruns.append(rerun_s)
        texts += [cold_text, warm_text]
        if len(runs) >= MIN_ITERATIONS and not fits(time.perf_counter() - begun):
            break
    while len(reruns) < MIN_RERUNS or fits(reruns[-1]):
        warm_text, rerun_s = w.warm()
        w.check_report(warm_text)
        reruns.append(rerun_s)
        texts.append(warm_text)
    fastest = runs.index(min(runs))
    metrics = {
        "run_s": runs[fastest],
        "setup_s": statistics.median(extra_setups + setups),
        "rerun_s": min(reruns),
        "predictions_per_s": w.predictions_per_report / (runs[fastest] - setups[fastest]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "auc": report["auc"],
        "acc": report["acc"],
    }
    samples = {"setup_s": extra_setups + setups, "run_s": runs, "rerun_s": reruns}
    return metrics, texts, {"report": report, "samples": samples}


def install_tracer(hisekt, tracer) -> None:
    """Wrap each layer's public functions at the names their callers look up."""
    ev, cli, ps, rt, pr, llm = (hisekt.evaluation, hisekt.cli, hisekt.pathscore,
                                hisekt.retrieval, hisekt.predict, hisekt.llm)

    def count_len(key):
        return lambda args, kwargs, result, seconds: tracer.add(key, len(result))

    def on_fit(args, kwargs, model, seconds):
        tracer.last["irt.rounds"] = model.rounds
        tracer.last["irt.converged"] = int(model.converged)

    def on_build(args, kwargs, graph, seconds):
        tracer.last["mrhin.edges"] = graph.edge_count()

    def on_select(args, kwargs, kept, seconds):
        tracer.add("select.offered", len(args[0]))
        tracer.add("select.kept", len(kept))

    def on_top_s(args, kwargs, peers, seconds):
        n = len(args[0].candidates)
        tracer.add("top_s.candidates", n)
        tracer.add("top_s.empty", n == 0)

    def on_fit_similarity(args, kwargs, model, seconds):
        pool = kwargs.get("pair_pool")
        if pool is None:
            n = len(args[0].students())
            tracer.add("pair_pool.size", n * (n - 1) // 2)
        else:
            tracer.add("pair_pool.size", len(set(pool)))

    def on_predict(args, kwargs, prediction, seconds):
        tracer.sample("predict.ms", seconds * 1000.0)

    def on_complete(args, kwargs, reply, seconds):
        prompt = args[1]
        if pr.is_prediction_prompt(prompt):
            tracer.sample("predict.prompt_chars", len(prompt))

    def on_cache_hit(args, kwargs, hit, seconds):
        tracer.add("cli.cache_hits", bool(hit))

    tracer.patch(hisekt.dataset, "ingest", "dataset.ingest", span=True)
    tracer.patch(hisekt.dataset.Dataset, "iter_split", "dataset.iter_split")
    tracer.patch(hisekt.irt, "fit", "irt.fit", span=True, on_call=on_fit)
    tracer.patch(hisekt.mrhin.Mrhin, "build", "mrhin.build", span=True, on_call=on_build)
    for module in (ev, cli):
        tracer.patch(module, "sample_instances", "mrhin.sample_instances", span=True,
                     on_call=count_len("mrhin.walks_sampled"))
        tracer.patch_map_bounded(module)
    tracer.patch(ps, "graph_distance", "mrhin.graph_distance")
    tracer.patch(ps, "score_all", "pathscore.score_all", span=True, on_call=count_len("pathscore.walks_scored"))
    tracer.patch(ps, "score_llm", "pathscore.score_llm",
                 on_call=lambda *a: tracer.add("pathscore.walks_scored", 1))
    tracer.patch(ps, "render_scoring_prompt", "pathscore.render_scoring_prompt")
    tracer.patch(ps, "select_top_k", "pathscore.select_top_k", span=True, on_call=on_select)
    tracer.patch_peak_memory(rt, "fit_similarity", "retrieval.fit_similarity_peak_mb")
    tracer.patch(rt, "fit_similarity", "retrieval.fit_similarity", span=True, on_call=on_fit_similarity)
    tracer.patch(rt, "top_s", "retrieval.top_s", on_call=on_top_s)
    tracer.patch(rt, "encode", "retrieval.encode")
    tracer.patch(pr, "build_prompt", "predict.build_prompt")
    tracer.patch(pr, "predict", "predict.predict", on_call=on_predict)
    tracer.patch(llm.LlmClient, "complete", "llm.complete", on_call=on_complete)
    tracer.patch(ev, "run_variant", "evaluation.run_variant", span=True)
    tracer.patch(ev, "run_experiment", "evaluation.run_experiment", span=True)
    tracer.patch(cli, "run_experiment", "evaluation.run_experiment", span=True)
    tracer.patch(cli, "_cache_hit", "cli.cache_hit", on_call=on_cache_hit)
    for command in list(cli.STAGE_FUNCS):
        tracer.patch(cli.STAGE_FUNCS, command, f"cli.{command.replace('-', '_')}", span=True)
    tracer.patch(cli, "stage_evaluate", "cli.evaluate", span=True)


def layer_metrics(tracer, overhead_s: float, artifact_bytes: int) -> dict:
    t, calls, counts, last = tracer.total_s, tracer.calls, tracer.counts, tracer.last

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def pct(key: str, q: int) -> float:
        values = tracer.samples[key]
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=100)[q - 1]

    requests = calls["pathscore.score_llm"] + calls["predict.predict"]
    chars = tracer.samples["predict.prompt_chars"]
    metrics = {
        "pathscore.score_s": t["pathscore.score_all"] + t["pathscore.score_llm"],
        "pathscore.walks_scored": counts["pathscore.walks_scored"],
        "mrhin.graph_distance_calls": calls["mrhin.graph_distance"],
        "mrhin.graph_distance_s": t["mrhin.graph_distance"],
        "pathscore.select_top_k_s": t["pathscore.select_top_k"],
        "pathscore.select_top_k_calls": calls["pathscore.select_top_k"],
        "pathscore.retained_ratio": ratio(counts["select.kept"], counts["select.offered"]),
        "mrhin.sample_s": t["mrhin.sample_instances"],
        "mrhin.walks_sampled": counts["mrhin.walks_sampled"],
        "mrhin.build_s": t["mrhin.build"],
        "mrhin.edges": last.get("mrhin.edges", 0),
        "irt.fit_s": t["irt.fit"],
        "irt.rounds": last.get("irt.rounds", 0),
        "irt.converged": last.get("irt.converged", 0),
        "dataset.ingest_s": t["dataset.ingest"],
        "dataset.iter_split_calls": calls["dataset.iter_split"],
        "retrieval.top_s_s": t["retrieval.top_s"],
        "retrieval.top_s_calls": calls["retrieval.top_s"],
        "retrieval.encode_calls": calls["retrieval.encode"],
        "retrieval.candidates_mean": ratio(counts["top_s.candidates"], calls["retrieval.top_s"]),
        "retrieval.empty_candidate_frac": ratio(counts["top_s.empty"], calls["retrieval.top_s"]),
        "retrieval.fit_similarity_s": t["retrieval.fit_similarity"],
        "retrieval.fit_similarity_peak_mb": last.get("retrieval.fit_similarity_peak_mb", 0.0),
        "predict.build_prompt_s": t["predict.build_prompt"],
        "predict.prompt_chars_mean": statistics.fmean(chars) if chars else 0.0,
        "predict.predict_ms_p50": pct("predict.ms", 50),
        "predict.predict_ms_p99": pct("predict.ms", 99),
        "llm.complete_calls": calls["llm.complete"],
        "llm.complete_s": t["llm.complete"],
        "llm.retry_frac": ratio(calls["llm.complete"] - requests, requests),
        "llm.wait_s": ratio(counts["llm.wait_s"], counts["llm.queued"]),
        "pathscore.render_prompt_s": t["pathscore.render_scoring_prompt"],
        **{f"cli.{stage}_s": t[f"cli.{stage}"] for stage in CLI_STAGES},
        "cli.artifact_bytes": artifact_bytes,
        "cli.cache_hits": counts["cli.cache_hits"],
        "evaluation.run_variant_s": t["evaluation.run_variant"],
        "evaluation.run_variant_calls": calls["evaluation.run_variant"],
        "evaluation.pair_pool_size": ratio(counts["pair_pool.size"], calls["retrieval.fit_similarity"]),
        "trace.overhead_s": overhead_s,
    }
    return metrics


def measure_traced(hisekt, w: Workload, seed: int) -> tuple[dict, list[str], dict]:
    """One untraced cold pass, then a traced cold and warm pass; per-layer totals cover both traced passes."""
    plain_text, plain_run_s, _ = w.cold()
    report = w.check_report(plain_text)
    tracer = Tracer()
    install_tracer(hisekt, tracer)
    try:
        traced_text, traced_run_s, _ = w.cold()
        artifact_bytes = w.artifact_bytes() if isinstance(w, CliWorkload) else 0
        w.check_report(traced_text)
        warm_text, _ = w.warm()
        w.check_report(warm_text)
    finally:
        tracer.restore()
    tracer.write(WORK / f"trace-{w.name}-seed{seed}.json")
    metrics = layer_metrics(tracer, traced_run_s - plain_run_s, artifact_bytes)
    return metrics, [plain_text, traced_text, warm_text], {"report": report}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "hisekt" / "__init__.py").is_file():
        print(f"benchmark: no hisekt sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    import hisekt
    import hisekt.cli
    import hisekt.synth

    if Path(hisekt.__file__).resolve().parent != (src / "hisekt").resolve():
        print(f"benchmark: imported hisekt from {hisekt.__file__}, not {src}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    in_flight = min(2, nproc)
    spec = WORKLOADS[args.workload]
    cls = CliWorkload if spec["kind"] == "cli" else LibraryWorkload
    w = cls(hisekt, args.workload, args.seed, args.tiny, in_flight)

    try:
        if args.trace:
            metrics, texts, extra = measure_traced(hisekt, w, args.seed)
            units = PER_LAYER
        else:
            metrics, texts, extra = measure(w, args.seconds)
            units = END_TO_END
        digests = sorted({sha256_bytes(t.encode("utf-8")) for t in texts})
        if len(digests) != 1:
            raise CheckFailed(f"cold, warm and repeated reports differ: {digests}")
        attempted, failed = w.operations(extra["report"])
    except CheckFailed as exc:
        print(f"benchmark: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "report_sha256": digests[0],
        "input_sha256": w.input_sha256,
        "test_size": w.test_size,
        "failed_frac": failed / attempted,
        "samples": extra.get("samples", {}),
        "env": {
            "nproc": nproc,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": git_commit(),
            "source_sha256": source_sha256(),
            "blas_threads": BLAS_THREADS,
            "llm_max_in_flight": in_flight,
        },
    }
    for name, value in metrics.items():
        print(f"{args.workload:<18} {name:<36} {value:>14.6g} {units[name]}")
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
