"""Stage-oriented command line over one ``PipelineContext``, with cache artifacts
keyed by the config fingerprint and the input's bytes.

Each command works in
``<cache_dir>/<fingerprint>-<input sha256>-<fit scheme>-<walk scheme>/`` (see
:func:`_cache_dir`), so artifacts produced under different hyperparameters,
inputs or fitting and walk rules never share a directory.  :data:`STAGES`
gives each stage command its artifact there, the context stage that artifact
holds, the commands whose artifacts it needs, and the artifact's writer and
reader.  A command runs on a
:class:`~hisekt.evaluation.PipelineContext` that reads each artifact (dataset,
IRT model, graph, run 0's sampled and scored walks, retrieval and
predictions) only when a stage first needs it; a stage whose artifact is
missing computes it on that context and writes it to a temporary file, renamed
into place once complete, so a run stopped mid-write leaves no partial
artifact.  So ``pipeline`` samples, scores and predicts each target once,
``evaluate`` reuses the ``predict`` stage's run-0 predictions, and a warm
``pipeline`` parses only the artifacts its report needs.  A single-stage
command refuses to run if an upstream artifact is missing.  Exit codes: 0
success, 1 stage failure (a corrupt artifact, one that lacks a test target, and
a model that lacks a student or question of the dataset included), 2 usage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from . import dataset as dataset_mod
from . import irt as irt_mod
from . import pathscore
from .config import CHOICES, FIELD_NAMES, RunConfig, fingerprint, load_config_file, resolve_config
from .errors import HisektError, IngestError, StageDependencyError
from .evaluation import PipelineContext, run_experiment, run_seed_of
from .mrhin import WALK_SCHEME, Mrhin, read_graph, read_json_lines, read_walks, write_graph, write_walks
from .predict import Prediction

# Not called here: the benchmark's tracer patches these names on this module.
from .llm import map_bounded  # noqa: F401
from .mrhin import sample_instances  # noqa: F401

logger = logging.getLogger(__name__)


def _cache_dir(cfg: RunConfig) -> Path:
    """``<cache_dir>/<config fingerprint>-<input sha256>-<fit scheme>-<walk scheme>/``, created if
    missing; reads the input once.  The fit scheme names the IRT fitting rule, and the walk scheme
    the draw rule, the Top-K tie-key rule and the walk and score file layout, so artifacts cached
    under other rules are not read as these rules'."""
    try:
        digest = hashlib.sha256(Path(cfg.data).read_bytes()).hexdigest()[:16]
    except OSError as exc:
        raise IngestError(f"cannot open {Path(cfg.data)}: {exc}") from exc
    root = Path(cfg.cache_dir) / f"{fingerprint(cfg)}-{digest}-{irt_mod.FIT_SCHEME}-{WALK_SCHEME}"
    root.mkdir(parents=True, exist_ok=True)
    return root


def _cache_hit(stage: str, path: Path) -> bool:
    if path.exists():
        print(f"{stage}: cache hit ({path})")
        return True
    return False


def _replace(path: Path, write: Callable[[Path], object]):
    """``write`` a temporary file next to ``path``, then rename it to ``path``: a run stopped
    mid-write leaves no partial file for the next run to take as a cache hit."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        result = write(tmp)
        os.replace(tmp, path)
        return result
    finally:
        tmp.unlink(missing_ok=True)


def _write_text(path: Path, text: str) -> None:
    _replace(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _target_token(key: tuple[str, str, int]) -> str:
    """``student|question|timestamp``: how artifacts name a test target."""
    return "|".join(map(str, key))


# -- each stage's artifact writer (returns its progress line) and reader -------


def _write_dataset(ctx: PipelineContext, path: Path) -> str:
    path.write_text(dataset_mod.serialize(ctx.dataset), encoding="utf-8")
    return f"{len(ctx.dataset)} interactions"


def _write_irt(ctx: PipelineContext, path: Path) -> str:
    m = ctx.irt
    path.write_text(irt_mod.serialize(m), encoding="utf-8")
    return f"{len(m.theta)} students, {len(m.diff)} questions"


def _read_irt(path: Path, ctx: PipelineContext) -> irt_mod.IrtModel:
    """The stored model; raises IngestError naming the file and the first student or question of the
    dataset it lacks."""
    m = irt_mod.load(path)
    d = ctx.dataset
    for ids, tables in ((d.students(), (m.theta, m.ability_level)),
                        (d.questions(), (m.disc, m.diff, m.difficulty_level))):
        for table in tables:
            missing = next((i for i in ids if i not in table), None)
            if missing is not None:
                raise IngestError(f"{path}: no entry for {missing}")
    return m


def _read_graph(path: Path, ctx: PipelineContext) -> Mrhin:
    """The stored graph; raises IngestError naming the file and its first student not in the dataset."""
    g = read_graph(path)
    foreign = sorted({node_id for kind, node_id in g.node_ids if kind == "U"} - set(ctx.dataset.students()))
    if foreign:
        raise IngestError(f"{path}: {foreign[0]} is not a student of the dataset")
    return g


def _write_graph(ctx: PipelineContext, path: Path) -> str:
    g = ctx.graph
    write_graph(g, path)
    return f"{len(g.nodes())} nodes, {g.edge_count()} edges"


def _write_walks(ctx: PipelineContext, path: Path) -> str:
    return f"{write_walks(ctx.instances(run_seed_of(ctx.cfg, 0)), path)} instances"


def _write_scored(ctx: PipelineContext, path: Path) -> str:
    return f"{pathscore.write_scored(ctx.scored(run_seed_of(ctx.cfg, 0)), path)} scored ({ctx.cfg.score_backend})"


def _write_peers(ctx: PipelineContext, path: Path) -> str:
    sim, peers = ctx.get("similarity"), ctx.get("peers")
    payload = {
        "similarity": {
            "mu": list(sim.mu),
            "sigma": [list(row) for row in sim.sigma],
            "shrinkage_lambda": sim.shrinkage_lambda,
            "pair_sample_size": sim.pair_sample_size,
        },
        "peers": {_target_token(key): p for key, p in peers.items()},
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return f"peers for {len(peers)} targets"


def _per_target(path: Path, ctx: PipelineContext, stored: Mapping[str, object]) -> dict:
    """{target key: its entry in ``stored``, keyed by :func:`_target_token`} for every test target, in
    test order; raises IngestError naming the file and the first target it lacks."""
    out = {}
    for key in ctx.test_targets():
        token = _target_token(key)
        if token not in stored:
            raise IngestError(f"{path}: no entry for test target {token}")
        out[key] = stored[token]
    return out


def _read_peers(path: Path, ctx: PipelineContext) -> dict[tuple[str, str, int], list[str]]:
    """The stored peers; raises IngestError naming the file and the first target with a foreign peer."""
    peers = _per_target(path, ctx, json.loads(path.read_text(encoding="utf-8"))["peers"])
    students = set(ctx.dataset.students())
    for key, entry in peers.items():
        if not (type(entry) is list and all(type(sid) is str and sid in students for sid in entry)):
            raise IngestError(f"{path}: the peers of test target {_target_token(key)} are not students of the dataset")
    return peers


def _write_predictions(ctx: PipelineContext, path: Path) -> str:
    predictions = ctx.get("predictions")
    d = ctx.dataset
    lines = [
        json.dumps({"student": u, "question": q, "timestamp": t, "label": label,
                    **dataclasses.asdict(predictions[u, q, t])}, sort_keys=True)
        for (u, q, t), label in zip(ctx.test_targets(), d.correct[d.iter_split("test")].tolist())
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"{len(lines)} predictions"


def _read_predictions(path: Path, ctx: PipelineContext) -> dict[tuple[str, str, int], Prediction]:
    stored = dict(read_json_lines(path, lambda r: (_target_token((r["student"], r["question"], r["timestamp"])),
                                                   Prediction(r["outcome"], r["confidence"], r["report"], r["p_correct"]))))
    return _per_target(path, ctx, stored)


class Stage(NamedTuple):
    artifact: str  # file name in the cache directory
    holds: str  # the context stage the artifact holds
    upstream: tuple[str, ...]  # commands whose artifacts this one needs
    write: Callable[[PipelineContext, Path], str]
    read: Callable[[Path, PipelineContext], object]


STAGES = {
    "ingest": Stage("dataset.csv", "dataset", (), _write_dataset, lambda path, ctx: dataset_mod.load(path)),
    "fit-irt": Stage("irt.json", "irt", ("ingest",), _write_irt, _read_irt),
    "build-hin": Stage("graph.json", "graph", ("ingest", "fit-irt"), _write_graph, _read_graph),
    "sample-paths": Stage("paths.jsonl", "walks", ("ingest", "build-hin"), _write_walks,
                          lambda path, ctx: read_walks(path, ctx.graph)),
    "score-paths": Stage("scored.jsonl", "scored", ("sample-paths", "build-hin"), _write_scored,
                         lambda path, ctx: pathscore.read_scored(path, ctx.instances(run_seed_of(ctx.cfg, 0)))),
    "retrieve": Stage("retrieval.json", "peers", ("ingest", "fit-irt", "score-paths"), _write_peers, _read_peers),
    "predict": Stage("predictions.jsonl", "predictions", ("ingest", "fit-irt", "retrieve"), _write_predictions,
                     _read_predictions),
}


def _require(root: Path, command: str, upstream: tuple[str, ...]) -> None:
    for name in upstream:
        if not (root / STAGES[name].artifact).exists():
            raise StageDependencyError(command, name)


def run_stage(command: str, ctx: PipelineContext, root: Path) -> None:
    """Write the command's artifact from ``ctx`` unless it is cached; refuse if an upstream one is missing."""
    stage = STAGES[command]
    out = root / stage.artifact
    if _cache_hit(command, out):
        return
    _require(root, command, stage.upstream)
    try:
        summary = _replace(out, lambda tmp: stage.write(ctx, tmp))
    except HisektError as exc:
        exc.stage = getattr(exc, "stage", command)  # so `pipeline` names the stage that failed
        raise
    print(f"{command}: {summary} -> {out}")


STAGE_FUNCS = {command: functools.partial(run_stage, command) for command in STAGES}


def _read(stage: Stage, path: Path, ctx: PipelineContext):
    """``stage.read`` of its artifact, a malformed one raising IngestError that names the file."""
    try:
        return stage.read(path, ctx)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        raise IngestError(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def _context(cfg: RunConfig, root: Path) -> PipelineContext:
    """A context that reads each artifact cached under ``root`` when a stage first needs it."""
    readers = {stage.holds: functools.partial(_read, stage, root / stage.artifact)
               for stage in STAGES.values() if (root / stage.artifact).exists()}
    return PipelineContext(cfg, readers)


def stage_evaluate(ctx: PipelineContext, root: Path, out_path: str | None = None) -> None:
    _require(root, "evaluate", ("predict",))
    report = run_experiment(ctx.cfg, ctx)
    report_json = root / "report.json"
    _write_text(report_json, report.to_json())
    _write_text(report_json.with_suffix(".txt"), report.to_table())
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        _write_text(Path(out_path), report.to_json())
    print(report.to_table(), end="")
    print(f"evaluate: report -> {report_json}")


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
    for name in STAGES:
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
                for name in STAGE_FUNCS:
                    STAGE_FUNCS[name](ctx, root)
            stage_evaluate(ctx, root, out_path=args.out)
        return 0
    except HisektError as exc:
        stage = getattr(exc, "stage", args.command)
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
