"""Metrics, ablation variants, and the end-to-end experiment runner.

A variant runs the main path with the Top-K selection mode, peer retrieval
mode and prompt mask that :data:`~hisekt.config.ABLATIONS` gives it:
``msr`` and ``msl`` select random / lowest walks, ``rsimu`` draws peers at
random, ``simu`` and ``irt`` mask prompt blocks.

``run_variant`` is two steps plus the metrics: ``retrieve_peers`` and
``predict_targets``.  The CLI's ``retrieve`` and ``predict`` stages write
their artifacts from the same two steps on a seeded ``PipelineContext``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from . import dataset as dataset_mod
from . import irt as irt_mod
from . import pathscore, predict, retrieval
from .config import ABLATIONS, RunConfig, check_choices, fingerprint
from .dataset import Interaction
from .errors import UndefinedMetricError
from .llm import LlmClient, map_bounded
from .mrhin import TEMPLATES, Mrhin, PathInstance, WalkGroup, sample_instances
from .seeding import derive_seed

logger = logging.getLogger(__name__)


def auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Rank-based AUC with tied scores contributing one half.

    Equivalent to counting, over all positive/negative pairs, wins plus half
    ties, but computed from midranks in O(n log n).
    """
    if len(labels) != len(scores):
        raise ValueError("labels and scores must have equal length")
    n = len(labels)
    n_pos = sum(1 for y in labels if y == 1)
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    order = sorted(range(n), key=lambda i: scores[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        i = j + 1
    rank_sum_pos = sum(r for r, y in zip(ranks, labels) if y == 1)
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(labels: Sequence[int], outcomes: Sequence[int]) -> float:
    if len(labels) != len(outcomes):
        raise ValueError("labels and outcomes must have equal length")
    if not labels:
        raise UndefinedMetricError("accuracy of an empty prediction set is undefined")
    return sum(1 for y, o in zip(labels, outcomes) if y == o) / len(labels)


def unimodal_or_plateau(values: Sequence[float], tol: float = 0.01) -> bool:
    """True if the series rises (within tol) to some peak and never rises after it."""
    n = len(values)
    for peak in range(n):
        rising = all(values[i + 1] >= values[i] - tol for i in range(peak))
        falling = all(values[i + 1] <= values[i] + tol for i in range(peak, n - 1))
        if rising and falling:
            return True
    return False


@dataclass(frozen=True)
class VariantMetrics:
    acc: float
    auc: float
    n: int


@dataclass
class EvalReport:
    acc: float
    auc: float
    n: int
    config_fingerprint: str
    per_variant: dict[str, VariantMetrics]
    run_rows: list[dict] = field(default_factory=list)
    resolved_config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "acc": self.acc,
            "auc": self.auc,
            "n": self.n,
            "config_fingerprint": self.config_fingerprint,
            "config": self.resolved_config,
            "per_variant": {
                name: {"acc": v.acc, "auc": v.auc, "n": v.n}
                for name, v in self.per_variant.items()
            },
            "runs": self.run_rows,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        lines = [
            f"config {self.config_fingerprint}  n={self.n}",
            f"{'variant':<10} {'ACC':>8} {'AUC':>8}",
            f"{'full':<10} {self.acc:>8.4f} {self.auc:>8.4f}",
        ]
        for name in sorted(self.per_variant):
            v = self.per_variant[name]
            lines.append(f"{'w/o ' + name:<10} {v.acc:>8.4f} {v.auc:>8.4f}")
        return "\n".join(lines) + "\n"


def run_seed_of(cfg: RunConfig, r: int) -> int:
    return derive_seed(cfg.seed, "run", r)


def target_key(i: Interaction) -> tuple[str, str, int]:
    return (i.student_id, i.question_id, i.timestamp)


def _by_target(items: Iterable, instance_of: Callable[[object], PathInstance],
               group: Callable[[list], object]) -> dict[str, dict[str, object]]:
    """Group run-0 walks or scored walks as {target question: {template name: group(items)}}."""
    buckets: dict[str, dict[str, list]] = {}
    for item in items:
        p = instance_of(item)
        buckets.setdefault(p.target_question, {}).setdefault(p.template.name, []).append(item)
    return {qid: {name: group(rows) for name, rows in per_template.items()} for qid, per_template in buckets.items()}


class PipelineContext:
    """Lazily built, memoized stage artifacts shared across variants and runs.

    Sampled walks are held per (target question, template) as
    :class:`~hisekt.mrhin.WalkGroup` and scored walks as
    :class:`~hisekt.pathscore.ScoredGroup`.  Any stage computed elsewhere (for
    example a cached CLI artifact) can be passed in: ``data``, ``model`` and
    ``graph`` directly, ``walks`` and ``scored`` as run 0's sampled and scored
    instances in any order, which are grouped on the graph.  ``cfg`` is
    checked against ``config.CHOICES`` before anything is built.
    """

    def __init__(self, cfg: RunConfig, data: dataset_mod.Dataset | None = None,
                 model: irt_mod.IrtModel | None = None, graph: Mrhin | None = None,
                 walks: Iterable[PathInstance] | None = None,
                 scored: Iterable[pathscore.ScoredInstance] | None = None):
        check_choices(cfg)
        self.cfg = cfg
        self._dataset = data
        self._irt = model
        self._graph = graph
        self._instances: dict[int, dict[str, dict[str, WalkGroup]]] = {}
        self._scored: dict[int, dict[str, dict[str, pathscore.ScoredGroup]]] = {}
        self._client: LlmClient | None = None
        if walks is not None:
            self._instances[run_seed_of(cfg, 0)] = _by_target(
                walks, lambda p: p, lambda rows: WalkGroup.of(self.graph, rows))
        if scored is not None:
            self._scored[run_seed_of(cfg, 0)] = _by_target(
                scored, lambda s: s.instance, lambda rows: pathscore.ScoredGroup.of(self.graph, rows))

    @property
    def dataset(self) -> dataset_mod.Dataset:
        if self._dataset is None:
            d = dataset_mod.ingest(self.cfg.data)
            self._dataset = dataset_mod.split(d, self.cfg.seed)
        return self._dataset

    @property
    def irt(self) -> irt_mod.IrtModel:
        if self._irt is None:
            self._irt = irt_mod.fit(self.dataset)
        return self._irt

    @property
    def graph(self) -> Mrhin:
        if self._graph is None:
            self._graph = Mrhin.build(self.dataset, self.irt)
        return self._graph

    @property
    def client(self) -> LlmClient:
        if self._client is None:
            self._client = LlmClient(
                endpoint=self.cfg.llm_endpoint,
                model_name=self.cfg.llm_model,
                timeout=self.cfg.llm_timeout,
                max_retries=self.cfg.llm_max_retries,
                max_in_flight=self.cfg.llm_max_in_flight,
                backend=self.cfg.llm_backend,
            )
        return self._client

    def target_questions(self) -> list[str]:
        return sorted({i.question_id for i in self.dataset.iter_split("test")})

    def test_targets(self) -> list[Interaction]:
        """The test split in prediction order: by student, then time, then question."""
        return sorted(self.dataset.iter_split("test"), key=lambda i: (i.student_id, i.timestamp, i.question_id))

    def share_stage_caches(self, other: "PipelineContext") -> None:
        """Adopt another context's sampled/scored instances (valid when only
        selection-stage settings such as top_k differ between the configs)."""
        self._dataset = other._dataset
        self._irt = other._irt
        self._graph = other._graph
        self._instances = other._instances
        self._scored = other._scored

    def instances(self, run_seed: int) -> dict[str, dict[str, WalkGroup]]:
        if run_seed not in self._instances:
            walk_seed = derive_seed(run_seed, "walks")
            out: dict[str, dict[str, WalkGroup]] = {}
            for qid in self.target_questions():
                out[qid] = {}
                for name in TEMPLATES:
                    out[qid][name] = sample_instances(
                        self.graph,
                        TEMPLATES[name],
                        qid,
                        n=self.cfg.n_walks,
                        walk_len=self.cfg.walk_len,
                        seed=walk_seed,
                    )
            self._instances[run_seed] = out
        return self._instances[run_seed]

    def scored(self, run_seed: int) -> dict[str, dict[str, pathscore.ScoredGroup]]:
        if run_seed not in self._scored:
            instances = self.instances(run_seed)
            out: dict[str, dict[str, pathscore.ScoredGroup]] = {}
            for qid, per_template in instances.items():
                out[qid] = {}
                for name, group in per_template.items():
                    if self.cfg.score_backend == "llm":
                        # keyed by walk index: pool completion order cannot reorder results
                        scores = map_bounded(
                            lambda p: pathscore.score_llm(p, self.client, self.graph),
                            dict(enumerate(group)),
                            self.client.max_in_flight,
                        )
                        out[qid][name] = pathscore.ScoredGroup.from_scores(
                            group, [scores[k] for k in range(len(group))], "llm")
                    else:
                        out[qid][name] = pathscore.score_all(group, self.graph)
            self._scored[run_seed] = out
        return self._scored[run_seed]


def _retain_top_k(
    scored: Mapping[str, Mapping[str, pathscore.ScoredGroup]],
    k: int,
    mode: str,
    run_seed: int,
) -> dict[str, list[pathscore.ScoredInstance]]:
    retained: dict[str, list[pathscore.ScoredInstance]] = {}
    for qid in sorted(scored):
        rows: list[pathscore.ScoredInstance] = []
        for name in TEMPLATES:
            group = scored[qid].get(name, [])
            rows.extend(
                pathscore.select_top_k(group, k, mode, seed=derive_seed(run_seed, "topk", qid, name))
            )
        retained[qid] = rows
    return retained


def _path_pair_pool(
    retained: Mapping[str, list[pathscore.ScoredInstance]],
    d: dataset_mod.Dataset,
) -> list[tuple[str, str, int]]:
    """(answerer, candidate, f) triples mirroring the deployment pair distribution."""
    by_question = d.by_question("train")
    pool: set[tuple[str, str, int]] = set()
    for qid, rows in retained.items():
        if not rows:
            continue
        counts: dict[str, int] = {}
        for scored in rows:
            for kind, nid in scored.instance.nodes:
                if kind == "U":
                    counts[nid] = counts.get(nid, 0) + 1
        answerers = sorted({i.student_id for i in by_question.get(qid, ())})
        for u in answerers:
            for sid, f in counts.items():
                if sid != u:
                    pool.add((u, sid, f))
    return sorted(pool)


def retrieve_peers(
    ctx: PipelineContext, variant: str | None, run_seed: int
) -> tuple[retrieval.SimilarityModel, dict[tuple[str, str, int], list[str]]]:
    """Top-K walks, similarity fit and Top-S peers of every test target for one variant.

    Peers are keyed by :func:`target_key` in test order; they are empty when
    the variant masks the similar-student block.
    """
    cfg = ctx.cfg
    select_mode, peer_mode, mask = ABLATIONS[variant]
    d = ctx.dataset
    m = ctx.irt
    retained = _retain_top_k(ctx.scored(run_seed), cfg.top_k, select_mode, run_seed)

    pair_pool = None
    if cfg.pair_source == "paths":
        pair_pool = _path_pair_pool(retained, d)
        if not pair_pool:
            logger.warning("empty path pair pool; falling back to random pairs")
            pair_pool = None
    sim = retrieval.fit_similarity(
        d, m, cfg.pair_sample, seed=derive_seed(run_seed, "pairs"), c=cfg.c, pair_pool=pair_pool
    )

    masked = predict.MASK_SIMU in mask
    peers: dict[tuple[str, str, int], list[str]] = {}
    for i in ctx.test_targets():
        peers[target_key(i)] = [] if masked else retrieval.top_s(
            retrieval.build_candidates(retained.get(i.question_id, []), i.student_id),
            sim,
            m,
            d,
            cfg.top_s,
            mode=peer_mode,
            c=cfg.c,
            seed=derive_seed(run_seed, "tops", i.student_id, i.question_id, i.timestamp),
        )
    return sim, peers


def predict_targets(
    ctx: PipelineContext, variant: str | None, peers: Mapping[tuple[str, str, int], Sequence[str]]
) -> dict[tuple[str, str, int], predict.Prediction]:
    """Build each target's prompt with its peers and ask the LLM; keyed like ``peers``."""
    _, _, mask = ABLATIONS[variant]
    d = ctx.dataset
    m = ctx.irt
    bundles = {
        key: predict.build_prompt(key[0], key[1], p, m, d, mask, ctx.cfg.window) for key, p in peers.items()
    }
    client = ctx.client
    # predictions are keyed by interaction, so pool completion order is irrelevant
    return map_bounded(lambda b: predict.predict(b, client), bundles, client.max_in_flight)


def run_variant(ctx: PipelineContext, variant: str | None, run_seed: int) -> VariantMetrics:
    """Execute retrieval + prediction over the test split for one variant."""
    _, peers = retrieve_peers(ctx, variant, run_seed)
    predictions = predict_targets(ctx, variant, peers)
    tests = ctx.test_targets()
    preds = [predictions[target_key(i)] for i in tests]
    labels = [1 if i.correct else 0 for i in tests]
    outcomes = [1 if p.outcome == "correct" else 0 for p in preds]
    return VariantMetrics(
        acc=accuracy(labels, outcomes), auc=auc(labels, [p.p_correct for p in preds]), n=len(labels)
    )


def run_experiment(cfg: RunConfig, ctx: PipelineContext | None = None) -> EvalReport:
    """Base configuration plus requested variants, averaged over ``cfg.runs`` seeds."""
    ctx = ctx or PipelineContext(cfg)
    variant_list = [None, *cfg.variants]

    rows: list[dict] = []
    sums: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for r in range(cfg.runs):
        run_seed = run_seed_of(cfg, r)
        for variant in variant_list:
            name = variant or "full"
            metrics = run_variant(ctx, variant, run_seed)
            rows.append(
                {"run": r, "variant": name, "acc": metrics.acc, "auc": metrics.auc, "n": metrics.n}
            )
            acc_auc = sums.setdefault(name, [0.0, 0.0])
            acc_auc[0] += metrics.acc
            acc_auc[1] += metrics.auc
            counts[name] = metrics.n
            logger.info("run %d %s: acc=%.4f auc=%.4f", r, name, metrics.acc, metrics.auc)

    def mean_of(name: str) -> VariantMetrics:
        return VariantMetrics(
            acc=sums[name][0] / cfg.runs, auc=sums[name][1] / cfg.runs, n=counts[name]
        )

    full = mean_of("full")
    per_variant = {v: mean_of(v) for v in sums if v != "full"}
    resolved = dataclasses.asdict(cfg)
    resolved["variants"] = list(resolved["variants"])
    return EvalReport(
        acc=full.acc,
        auc=full.auc,
        n=full.n,
        config_fingerprint=fingerprint(cfg),
        per_variant=per_variant,
        run_rows=rows,
        resolved_config=resolved,
    )
