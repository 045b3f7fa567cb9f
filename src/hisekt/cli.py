"""Stage-oriented command line over one ``PipelineContext``, with cache artifacts
keyed by config fingerprint.

Each command seeds a :class:`~hisekt.evaluation.PipelineContext` with the
artifacts already in ``<cache_dir>/<fingerprint>/`` (dataset, IRT model,
graph, and run 0's sampled and scored walks); a stage whose artifact is
missing computes it on that context and writes it.  ``pipeline`` passes one
context through every stage, and ``evaluate`` runs the experiment on the
cached stages, so no walk is sampled or scored twice.  A single-stage command
refuses to run if an upstream artifact is missing, so artifacts produced under
different hyperparameters can never mix.  Exit codes: 0 success, 1 stage
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import dataset as dataset_mod
from . import irt as irt_mod
from . import pathscore
from .config import CHOICES, FIELD_NAMES, RunConfig, fingerprint, load_config_file, resolve_config
from .errors import HisektError, StageDependencyError
from .evaluation import PipelineContext, predict_targets, retrieve_peers, run_experiment, run_seed_of, target_key
from .mrhin import read_graph, read_instances, write_graph, write_instances

# Not called here: the benchmark's tracer patches these names on this module.
from .llm import map_bounded  # noqa: F401
from .mrhin import sample_instances  # noqa: F401

logger = logging.getLogger(__name__)

ARTIFACTS = {
    "ingest": "dataset.csv",
    "fit-irt": "irt.tsv",
    "build-hin": "graph.json",
    "sample-paths": "paths.jsonl",
    "score-paths": "scored.jsonl",
    "retrieve": "retrieval.json",
    "predict": "predictions.jsonl",
    "evaluate": "report.json",
}
STAGE_ORDER = tuple(ARTIFACTS)


def _cache_dir(cfg: RunConfig) -> Path:
    root = Path(cfg.cache_dir) / fingerprint(cfg)
    root.mkdir(parents=True, exist_ok=True)
    return root


def _artifact(cfg: RunConfig, stage: str) -> Path:
    return _cache_dir(cfg) / ARTIFACTS[stage]


def _require(cfg: RunConfig, stage: str, upstream: str) -> Path:
    path = _artifact(cfg, upstream)
    if not path.exists():
        raise StageDependencyError(stage, upstream)
    return path


def _cache_hit(stage: str, path: Path) -> bool:
    if path.exists():
        print(f"{stage}: cache hit ({path})")
        return True
    return False


def _pending(ctx: PipelineContext, stage: str, *upstream: str) -> Path | None:
    """The stage's artifact path if it still has to be written, once its upstream artifacts exist."""
    out = _artifact(ctx.cfg, stage)
    if _cache_hit(stage, out):
        return None
    for name in upstream:
        _require(ctx.cfg, stage, name)
    return out


def _context(cfg: RunConfig, stage: str) -> PipelineContext:
    """A context seeded with the cached artifacts of the stages before ``stage``."""
    upstream = STAGE_ORDER[: STAGE_ORDER.index(stage)]

    def cached(name, reader):
        path = _artifact(cfg, name)
        return reader(path) if name in upstream and path.exists() else None

    scored = cached("score-paths", pathscore.read_scored)
    return PipelineContext(
        cfg,
        data=cached("ingest", dataset_mod.load),
        model=cached("fit-irt", irt_mod.load),
        graph=cached("build-hin", read_graph),
        walks=cached("sample-paths", read_instances) if scored is None else None,
        scored=scored,
    )


def _flatten(grouped: dict[str, dict[str, list]]) -> list:
    return [item for per_template in grouped.values() for group in per_template.values() for item in group]


def stage_ingest(ctx: PipelineContext) -> None:
    out = _pending(ctx, "ingest")
    if out:
        out.write_text(dataset_mod.serialize(ctx.dataset), encoding="utf-8")
        print(f"ingest: {len(ctx.dataset)} interactions -> {out}")


def stage_fit_irt(ctx: PipelineContext) -> None:
    out = _pending(ctx, "fit-irt", "ingest")
    if out:
        m = ctx.irt
        out.write_text(irt_mod.serialize(m), encoding="utf-8")
        print(f"fit-irt: {len(m.theta)} students, {len(m.diff)} questions -> {out}")


def stage_build_hin(ctx: PipelineContext) -> None:
    out = _pending(ctx, "build-hin", "ingest", "fit-irt")
    if out:
        g = ctx.graph
        write_graph(g, out)
        print(f"build-hin: {len(g.nodes())} nodes, {g.edge_count()} edges -> {out}")


def stage_sample_paths(ctx: PipelineContext) -> None:
    out = _pending(ctx, "sample-paths", "ingest", "build-hin")
    if out:
        instances = _flatten(ctx.instances(run_seed_of(ctx.cfg, 0)))
        write_instances(instances, out)
        print(f"sample-paths: {len(instances)} instances -> {out}")


def stage_score_paths(ctx: PipelineContext) -> None:
    out = _pending(ctx, "score-paths", "sample-paths", "build-hin")
    if out:
        scored = _flatten(ctx.scored(run_seed_of(ctx.cfg, 0)))
        pathscore.write_scored(scored, out)
        print(f"score-paths: {len(scored)} scored ({ctx.cfg.score_backend}) -> {out}")


def _peer_key(key: tuple[str, str, int]) -> str:
    return "|".join(map(str, key))


def stage_retrieve(ctx: PipelineContext) -> None:
    out = _pending(ctx, "retrieve", "ingest", "fit-irt", "score-paths")
    if out:
        sim, peers = retrieve_peers(ctx, None, run_seed_of(ctx.cfg, 0))
        payload = {
            "similarity": {
                "mu": list(sim.mu),
                "sigma": [list(row) for row in sim.sigma],
                "shrinkage_lambda": sim.shrinkage_lambda,
                "pair_sample_size": sim.pair_sample_size,
            },
            "peers": {_peer_key(key): p for key, p in peers.items()},
        }
        out.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        print(f"retrieve: peers for {len(peers)} targets -> {out}")


def stage_predict(ctx: PipelineContext) -> None:
    out = _pending(ctx, "predict", "ingest", "fit-irt", "retrieve")
    if out:
        stored = json.loads(_artifact(ctx.cfg, "retrieve").read_text(encoding="utf-8"))["peers"]
        tests = ctx.test_targets()
        peers = {target_key(i): stored.get(_peer_key(target_key(i)), []) for i in tests}
        predictions = predict_targets(ctx, None, peers)
        lines = []
        for i in tests:
            pred = predictions[target_key(i)]
            lines.append(
                json.dumps(
                    {
                        "student": i.student_id,
                        "question": i.question_id,
                        "timestamp": i.timestamp,
                        "label": 1 if i.correct else 0,
                        "outcome": pred.outcome,
                        "confidence": pred.confidence,
                        "p_correct": pred.p_correct,
                        "report": pred.report,
                    },
                    sort_keys=True,
                )
            )
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"predict: {len(lines)} predictions -> {out}")


def stage_evaluate(ctx: PipelineContext, out_path: str | None = None) -> None:
    cfg = ctx.cfg
    _require(cfg, "evaluate", "predict")
    report = run_experiment(cfg, ctx)
    report_json = _artifact(cfg, "evaluate")
    report_json.write_text(report.to_json(), encoding="utf-8")
    table_path = report_json.with_suffix(".txt")
    table_path.write_text(report.to_table(), encoding="utf-8")
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(report.to_json(), encoding="utf-8")
    print(report.to_table(), end="")
    print(f"evaluate: report -> {report_json}")


STAGE_FUNCS = {
    "ingest": stage_ingest,
    "fit-irt": stage_fit_irt,
    "build-hin": stage_build_hin,
    "sample-paths": stage_sample_paths,
    "score-paths": stage_score_paths,
    "retrieve": stage_retrieve,
    "predict": stage_predict,
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key = value config file")
    shared.add_argument("--data", help="input interaction log (csv)")
    shared.add_argument("--cache-dir", dest="cache_dir")
    shared.add_argument("--out-dir", dest="out_dir")
    shared.add_argument("--seed", type=int)
    shared.add_argument("--runs", type=int)
    shared.add_argument("--n-walks", dest="n_walks", type=int)
    shared.add_argument("--walk-len", dest="walk_len", type=int)
    shared.add_argument("--top-k", dest="top_k", type=int)
    shared.add_argument("--top-s", dest="top_s", type=int)
    shared.add_argument("--scaling-c", dest="c", type=float)
    shared.add_argument("--window", type=int)
    shared.add_argument("--pair-sample", dest="pair_sample", type=int)
    shared.add_argument("--pair-source", dest="pair_source", choices=CHOICES["pair_source"])
    shared.add_argument("--score-backend", dest="score_backend", choices=CHOICES["score_backend"])
    shared.add_argument("--llm-backend", dest="llm_backend", choices=CHOICES["llm_backend"])
    shared.add_argument("--llm-endpoint", dest="llm_endpoint")
    shared.add_argument("--llm-model", dest="llm_model")
    shared.add_argument("--variants", help=f"comma list from {','.join(CHOICES['variants'])}")

    parser = argparse.ArgumentParser(prog="hisekt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGE_ORDER[:-1]:
        sub.add_parser(name, parents=[shared], help=f"run the {name} stage")
    evaluate = sub.add_parser("evaluate", parents=[shared], help="compute metrics and variants")
    evaluate.add_argument("--out", help="also write the report JSON here")
    pipeline = sub.add_parser("pipeline", parents=[shared], help="run every stage in order")
    pipeline.add_argument("--out", help="also write the report JSON here")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {key: value for key, value in vars(args).items() if key in FIELD_NAMES}
    return resolve_config(file_values, overrides)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        if args.command in STAGE_FUNCS:
            # a stage whose artifact is cached only reports the hit: loading its inputs is wasted
            hit = _artifact(cfg, args.command).exists()
            STAGE_FUNCS[args.command](PipelineContext(cfg) if hit else _context(cfg, args.command))
        else:
            ctx = _context(cfg, "evaluate")
            if args.command == "pipeline":
                for name in STAGE_ORDER[:-1]:
                    STAGE_FUNCS[name](ctx)
            stage_evaluate(ctx, out_path=args.out)
        return 0
    except HisektError as exc:
        stage = getattr(exc, "stage", args.command)
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
