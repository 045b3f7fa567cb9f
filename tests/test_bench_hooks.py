"""The benchmark's traced run (``pipeline_bench/run.py --trace 1``) wraps functions at the
names their callers look up on the package.  This installs that tracer, runs a tiny cold and
warm CLI pipeline under it and restores the package, so a refactor that drops or stops calling
a patched name fails here, not only in the benchmark's own smoke test.  A path-pair run checks
that the pool size the tracer reads off ``fit_similarity``'s ``pair_pool`` argument is the number
of distinct path triples."""

import importlib.util
from pathlib import Path

import pytest

import hisekt
import hisekt.cli
from hisekt.evaluation import PipelineContext
from hisekt.synth import planted_csv

from support import reference_path_pair_pool, retained_ids

BENCH = Path(__file__).resolve().parent.parent / "pipeline_bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its tracer module by name
    spec = importlib.util.spec_from_file_location("pipeline_bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_hook(bench, tmp_path, capsys):
    data = tmp_path / "interactions.csv"
    data.write_text(planted_csv(n_bands=3, students_per_band=12, questions_per_band=10, seed=3)[0], encoding="utf-8")
    argv = ["pipeline", "--data", str(data), "--cache-dir", str(tmp_path / "cache"), "--n-walks", "4",
            "--walk-len", "8", "--score-backend", "llm", "--llm-backend", "mock", "--variants", "msr"]
    stage_funcs = dict(hisekt.cli.STAGE_FUNCS)
    cache_hit, map_bounded = hisekt.cli._cache_hit, hisekt.cli.map_bounded

    tracer = bench.Tracer()
    bench.install_tracer(hisekt, tracer)
    try:
        assert hisekt.cli._cache_hit is not cache_hit
        for _ in ("cold", "warm"):
            assert hisekt.cli.main(argv) == 0
        metrics = bench.layer_metrics(tracer, 0.0, 0)
    finally:
        tracer.restore()
    capsys.readouterr()

    assert hisekt.cli.STAGE_FUNCS == stage_funcs
    assert hisekt.cli._cache_hit is cache_hit and hisekt.cli.map_bounded is map_bounded
    for stage in bench.CLI_STAGES:
        assert tracer.calls[f"cli.{stage}"] == 2, stage
    assert tracer.counts["cli.cache_hits"] == len(stage_funcs)  # every stage of the warm pass
    assert tracer.calls["evaluation.run_experiment"] == 2
    assert tracer.calls["llm.map_bounded"] > 0 and tracer.calls["pathscore.score_llm"] > 0
    assert set(metrics) == set(bench.PER_LAYER)


def test_pair_pool_size_counts_the_distinct_path_triples(bench, tmp_path, capsys):
    data = tmp_path / "interactions.csv"
    data.write_text(planted_csv(n_bands=3, students_per_band=12, questions_per_band=10, seed=3)[0], encoding="utf-8")
    argv = ["pipeline", "--data", str(data), "--cache-dir", str(tmp_path / "cache"), "--n-walks", "6",
            "--walk-len", "10", "--top-k", "3", "--pair-source", "paths"]
    tracer = bench.Tracer()
    bench.install_tracer(hisekt, tracer)
    try:
        assert hisekt.cli.main(argv) == 0
    finally:
        tracer.restore()
    capsys.readouterr()

    ctx = PipelineContext(hisekt.cli._config_from_args(hisekt.cli.build_parser().parse_args(argv)))
    reference = reference_path_pair_pool(retained_ids(ctx.get("retained"), ctx.dataset), ctx.dataset)
    assert tracer.calls["retrieval.fit_similarity"] == 1
    assert tracer.counts["pair_pool.size"] == len(reference) > 0
