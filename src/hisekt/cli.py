"""Stage-oriented command line over one ``PipelineContext``, with cache artifacts
keyed by the config fingerprint and the input's bytes.

Each command works in ``<cache_dir>/<fingerprint>-<input sha256>/`` on a
:class:`~hisekt.evaluation.PipelineContext` that reads each artifact there
(dataset, IRT model, graph, run 0's sampled and scored walks, retrieval and
predictions) only when a stage first needs it; a stage whose artifact is
missing computes it on that context and writes it.  So ``pipeline`` samples,
scores and predicts each target once, ``evaluate`` reuses the ``predict``
stage's run-0 predictions, and a warm ``pipeline`` parses only the artifacts
its report needs.  A single-stage command refuses to run if an upstream
artifact is missing, so artifacts produced under different hyperparameters or
inputs can never mix.  Exit codes: 0 success, 1 stage failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import sys
from pathlib import Path

from . import dataset as dataset_mod
from . import irt as irt_mod
from . import pathscore
from .config import CHOICES, FIELD_NAMES, RunConfig, fingerprint, load_config_file, resolve_config
from .errors import HisektError, IngestError, StageDependencyError
from .evaluation import (PipelineContext, group_by_target, predict_targets, retrieve_peers, run_experiment,
                         run_seed_of, target_key)
from .mrhin import WalkGroup, read_graph, read_instances, write_graph, write_instances
from .pathscore import ScoredGroup
from .predict import Prediction

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
    """``<cache_dir>/<config fingerprint>-<input sha256>/``, created if missing; reads the input once."""
    try:
        digest = hashlib.sha256(Path(cfg.data).read_bytes()).hexdigest()[:16]
    except OSError as exc:
        raise IngestError(f"cannot open {Path(cfg.data)}: {exc}") from exc
    root = Path(cfg.cache_dir) / f"{fingerprint(cfg)}-{digest}"
    root.mkdir(parents=True, exist_ok=True)
    return root


def _require(root: Path, stage: str, upstream: str) -> None:
    if not (root / ARTIFACTS[upstream]).exists():
        raise StageDependencyError(stage, upstream)


def _cache_hit(stage: str, path: Path) -> bool:
    if path.exists():
        print(f"{stage}: cache hit ({path})")
        return True
    return False


def _pending(root: Path, stage: str, *upstream: str) -> Path | None:
    """The stage's artifact path if it still has to be written, once its upstream artifacts exist."""
    out = root / ARTIFACTS[stage]
    if _cache_hit(stage, out):
        return None
    for name in upstream:
        _require(root, stage, name)
    return out


def _peer_key(key: tuple[str, str, int]) -> str:
    return "|".join(map(str, key))


def _read_peers(path: Path, ctx: PipelineContext) -> dict[tuple[str, str, int], list[str]]:
    stored = json.loads(path.read_text(encoding="utf-8"))["peers"]
    return {target_key(i): stored.get(_peer_key(target_key(i)), []) for i in ctx.test_targets()}


def _read_predictions(path: Path, ctx: PipelineContext) -> dict[tuple[str, str, int], Prediction]:
    rows = map(json.loads, path.read_text(encoding="utf-8").splitlines())
    return {(r["student"], r["question"], r["timestamp"]): Prediction(r["outcome"], r["confidence"], r["report"],
                                                                       r["p_correct"]) for r in rows}


# context stage -> (command that writes its artifact, reader of the artifact)
READERS = {
    "dataset": ("ingest", lambda path, ctx: dataset_mod.load(path)),
    "irt": ("fit-irt", lambda path, ctx: irt_mod.load(path)),
    "graph": ("build-hin", lambda path, ctx: read_graph(path)),
    "walks": ("sample-paths", lambda path, ctx: group_by_target(read_instances(path), WalkGroup.of, ctx.graph)),
    "scored": ("score-paths",
               lambda path, ctx: group_by_target(pathscore.read_scored(path), ScoredGroup.of, ctx.graph)),
    "peers": ("retrieve", _read_peers),
    "predictions": ("predict", _read_predictions),
}


def _context(cfg: RunConfig, root: Path) -> PipelineContext:
    """A context that reads each artifact cached under ``root`` when a stage first needs it."""
    readers = {stage: functools.partial(read, root / ARTIFACTS[command])
               for stage, (command, read) in READERS.items() if (root / ARTIFACTS[command]).exists()}
    return PipelineContext(cfg, readers)


def _flatten(grouped: dict[str, dict[str, list]]) -> list:
    return [item for per_template in grouped.values() for group in per_template.values() for item in group]


def stage_ingest(ctx: PipelineContext, root: Path) -> None:
    out = _pending(root, "ingest")
    if out:
        out.write_text(dataset_mod.serialize(ctx.dataset), encoding="utf-8")
        print(f"ingest: {len(ctx.dataset)} interactions -> {out}")


def stage_fit_irt(ctx: PipelineContext, root: Path) -> None:
    out = _pending(root, "fit-irt", "ingest")
    if out:
        m = ctx.irt
        out.write_text(irt_mod.serialize(m), encoding="utf-8")
        print(f"fit-irt: {len(m.theta)} students, {len(m.diff)} questions -> {out}")


def stage_build_hin(ctx: PipelineContext, root: Path) -> None:
    out = _pending(root, "build-hin", "ingest", "fit-irt")
    if out:
        g = ctx.graph
        write_graph(g, out)
        print(f"build-hin: {len(g.nodes())} nodes, {g.edge_count()} edges -> {out}")


def stage_sample_paths(ctx: PipelineContext, root: Path) -> None:
    out = _pending(root, "sample-paths", "ingest", "build-hin")
    if out:
        instances = _flatten(ctx.instances(run_seed_of(ctx.cfg, 0)))
        write_instances(instances, out)
        print(f"sample-paths: {len(instances)} instances -> {out}")


def stage_score_paths(ctx: PipelineContext, root: Path) -> None:
    out = _pending(root, "score-paths", "sample-paths", "build-hin")
    if out:
        scored = _flatten(ctx.scored(run_seed_of(ctx.cfg, 0)))
        pathscore.write_scored(scored, out)
        print(f"score-paths: {len(scored)} scored ({ctx.cfg.score_backend}) -> {out}")


def stage_retrieve(ctx: PipelineContext, root: Path) -> None:
    out = _pending(root, "retrieve", "ingest", "fit-irt", "score-paths")
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


def stage_predict(ctx: PipelineContext, root: Path) -> None:
    out = _pending(root, "predict", "ingest", "fit-irt", "retrieve")
    if out:
        predictions = predict_targets(ctx, None, run_seed_of(ctx.cfg, 0))
        lines = [
            json.dumps({"student": i.student_id, "question": i.question_id, "timestamp": i.timestamp,
                        "label": int(i.correct), **dataclasses.asdict(predictions[target_key(i)])}, sort_keys=True)
            for i in ctx.test_targets()
        ]
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"predict: {len(lines)} predictions -> {out}")


def stage_evaluate(ctx: PipelineContext, root: Path, out_path: str | None = None) -> None:
    _require(root, "evaluate", "predict")
    report = run_experiment(ctx.cfg, ctx)
    report_json = root / ARTIFACTS["evaluate"]
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
        root = _cache_dir(cfg)
        ctx = _context(cfg, root)
        if args.command in STAGE_FUNCS:
            STAGE_FUNCS[args.command](ctx, root)
        else:
            if args.command == "pipeline":
                for name in STAGE_ORDER[:-1]:
                    STAGE_FUNCS[name](ctx, root)
            stage_evaluate(ctx, root, out_path=args.out)
        return 0
    except HisektError as exc:
        stage = getattr(exc, "stage", args.command)
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
