"""Metrics, ablation variants, and the end-to-end experiment runner.

A variant runs the main path with the Top-K selection mode, peer retrieval
mode and prompt mask that :data:`~hisekt.config.ABLATIONS` gives it:
``msr`` and ``msl`` select random / lowest walks, ``rsimu`` draws peers at
random, ``simu`` and ``irt`` mask prompt blocks.

:class:`PipelineContext` holds one dict of stage results, each keyed by
:func:`stage_keys` on what its stage reads.  So every variant, config and CLI
command on one context runs only the stages whose inputs changed: ``full``,
``simu``, ``rsimu`` and ``irt`` share one Top-K pass, ``irt`` reuses the
peers of ``full``, and a repeated ``run_experiment`` is lookups only.
``run_variant`` reads that dict through ``PipelineContext.get``, and the
CLI's ``retrieve`` and ``predict`` stages write their artifacts from it.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import dataset as dataset_mod
from . import irt as irt_mod
from . import pathscore, predict, retrieval
from .config import ABLATIONS, RunConfig, check_choices, computed_fields, fingerprint
from .errors import UndefinedMetricError
from .llm import LlmClient, map_bounded
from .mrhin import TEMPLATES, Mrhin, WalkGroup, sample_walks, table_span
from .seeding import derive_seed

# Not called here: the benchmark's tracer patches this name on this module.
from .mrhin import sample_instances  # noqa: F401

logger = logging.getLogger(__name__)


def auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Rank-based AUC with tied scores contributing one half.

    Equivalent to counting, over all positive/negative pairs, wins plus half
    ties, but computed from midranks in O(n log n): the scores tied at one
    distinct value, ``count`` of them ending at sorted position ``end``, share
    the rank ``end - (count - 1) / 2``.  Midranks are half-integers, so their
    sum is exact in any order.
    """
    if len(labels) != len(scores):
        raise ValueError("labels and scores must have equal length")
    positive = np.asarray(labels) == 1
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    _, inverse, counts = np.unique(np.asarray(scores, dtype=np.float64), return_inverse=True, return_counts=True)
    ranks = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum_pos = float(ranks[inverse[positive]].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(labels: Sequence[int], outcomes: Sequence[int]) -> float:
    if len(labels) != len(outcomes):
        raise ValueError("labels and outcomes must have equal length")
    if not labels:
        raise UndefinedMetricError("accuracy of an empty prediction set is undefined")
    return sum(1 for y, o in zip(labels, outcomes) if y == o) / len(labels)


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


def stage_keys(cfg: RunConfig, run_seed: int, variant: str | None = None) -> dict[str, tuple]:
    """The memo key of every stage (and of the LLM client) for one config, run and variant: the
    stage's name, the ``RunConfig`` fields and ``ABLATIONS`` columns it reads, and the keys of the
    stages it reads."""
    select_mode, peer_mode, mask = ABLATIONS[variant]
    replies = (cfg.llm_backend, cfg.llm_endpoint, cfg.llm_model)
    data = (cfg.data,)  # the split is the same for every seed
    run = (*data, run_seed)
    walks = ("walks", run, cfg.n_walks, cfg.walk_len)
    scored = ("scored", walks, cfg.score_backend, replies if cfg.score_backend == "llm" else None)
    retained = ("retained", scored, select_mode, cfg.top_k)
    similarity = ("similarity", run, cfg.pair_source, cfg.pair_sample, cfg.c,
                  retained if cfg.pair_source == "paths" else None)
    peers = ("peers", run) if predict.MASK_SIMU in mask else (
        "peers", retained, peer_mode, cfg.top_s, similarity if peer_mode == "similar" else None)
    return {
        "dataset": ("dataset", data), "targets": ("targets", data), "irt": ("irt", data), "graph": ("graph", data),
        "walks": walks, "scored": scored, "retained": retained, "similarity": similarity,
        "peers": peers, "predictions": ("predictions", peers, mask, cfg.window, replies),
        "client": ("client", *replies, cfg.llm_timeout, cfg.llm_max_retries, cfg.llm_max_in_flight),
    }


class PipelineContext:
    """One memo of stage results, shared by every config, variant and run over one input.

    ``get(stage, cfg, run_seed, variant)`` returns the entry under ``stage_keys``;
    ``cfg`` defaults to the context's own (checked by ``config.check_choices``)
    and ``run_seed`` to its run 0.  A missing entry is computed, or read by
    ``readers[stage](ctx)`` if the key is that of the context's own config,
    run 0 and the full model: that is how the CLI reuses its cached artifacts.
    """

    def __init__(self, cfg: RunConfig, readers: Mapping[str, Callable[["PipelineContext"], object]] | None = None):
        check_choices(cfg)
        self.cfg = cfg
        self._memo: dict[tuple, object] = {}
        own = stage_keys(cfg, run_seed_of(cfg, 0))
        self._readers = {own[stage]: read for stage, read in (readers or {}).items()}

    def get(self, stage: str, cfg: RunConfig | None = None, run_seed: int | None = None, variant: str | None = None):
        cfg = cfg or self.cfg
        run_seed = run_seed_of(cfg, 0) if run_seed is None else run_seed
        key = stage_keys(cfg, run_seed, variant)[stage]
        if key not in self._memo:
            read = self._readers.pop(key, None)
            self._memo[key] = read(self) if read else _COMPUTE[stage](self, cfg, run_seed, variant)
        return self._memo[key]

    @property
    def dataset(self) -> dataset_mod.Dataset:
        return self.get("dataset")

    @property
    def irt(self) -> irt_mod.IrtModel:
        return self.get("irt")

    @property
    def graph(self) -> Mrhin:
        return self.get("graph")

    def test_targets(self, cfg: RunConfig | None = None) -> tuple[tuple[str, str, int], ...]:
        """The (student, question, timestamp) key of each test row, in prediction order, which is row
        order: by student, then time, then question.  Peers and predictions are keyed by them."""
        return self.get("targets", cfg)

    def instances(self, run_seed: int, cfg: RunConfig | None = None) -> dict[str, dict[str, WalkGroup]]:
        return self.get("walks", cfg, run_seed)

    def scored(self, run_seed: int, cfg: RunConfig | None = None) -> dict[str, dict[str, pathscore.ScoredGroup]]:
        return self.get("scored", cfg, run_seed)


def _walks(ctx: PipelineContext, cfg: RunConfig, run_seed: int, variant: str | None):
    g, d = ctx.get("graph", cfg), ctx.get("dataset", cfg)
    walk_seed = derive_seed(run_seed, "walks")
    questions = [d.questions()[q] for q in np.unique(d.question[d.iter_split("test")]).tolist()]
    # one lockstep pass per template over every target question
    by_template = {name: sample_walks(g, template, questions, n=cfg.n_walks, walk_len=cfg.walk_len, seed=walk_seed)
                   for name, template in TEMPLATES.items()}
    return {qid: {name: by_template[name][qid] for name in TEMPLATES} for qid in questions}


def _scored(ctx: PipelineContext, cfg: RunConfig, run_seed: int, variant: str | None):
    g, walks = ctx.get("graph", cfg), ctx.instances(run_seed, cfg)
    if cfg.score_backend == "formula":
        # one pass per template over the groups of every target question
        by_template: dict[str, dict[str, WalkGroup]] = {}
        for qid, per_template in walks.items():
            for name, group in per_template.items():
                by_template.setdefault(name, {})[qid] = group
        scored = {name: dict(zip(groups, pathscore.score_groups(list(groups.values()), g)))
                  for name, groups in by_template.items()}
        return {qid: {name: scored[name][qid] for name in per_template} for qid, per_template in walks.items()}
    # one call for the whole stage, which renders and sends its prompts in blocks
    scored = iter(pathscore.score_llm([group for per in walks.values() for group in per.values()],
                                      ctx.get("client", cfg)))
    return {qid: {name: next(scored) for name in per_template} for qid, per_template in walks.items()}


def _retained(ctx: PipelineContext, cfg: RunConfig, run_seed: int, variant: str | None):
    """{target question: ``(rows, counts)``}: the ascending ``retrieval.student_tables`` rows of
    the students on the question's kept walks, and how often each stands on them.  The groups of
    each template, the consecutive groups of its walk table, are ranked in one
    ``pathscore.select_top_k_positions`` pass, and their kept rows are one gather from their slice
    of the table (``mrhin.table_span``).  The students of all kept rows are counted
    at once, through a node-int -> student-row table (-1 off students, and at ``PAD``), as
    (question, row) keys; raises ValueError if a student of the graph is not one of the dataset."""
    g, scored, mode = ctx.get("graph", cfg), ctx.scored(run_seed, cfg), ABLATIONS[variant][0]
    t = retrieval.student_tables(ctx.get("dataset", cfg))
    students = [x for x, kind in enumerate(g.kinds) if kind == "U"]
    row_of = np.full(len(g.node_ids) + 1, -1, dtype=np.intp)
    row_of[students] = t.positions(g.node_ids[x][1] for x in students)
    questions = sorted(scored)
    question, rows = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]  # per node of a kept row
    for name in TEMPLATES:
        owners = [i for i, qid in enumerate(questions) if name in scored[qid]]
        if not owners:
            continue
        groups = [scored[questions[i]][name] for i in owners]
        # only a random draw reads the seeds
        seeds = [derive_seed(run_seed, "topk", questions[i], name) for i in owners] if mode == "random" else ()
        table, lo, hi = table_span([group.walks for group in groups])
        nodes = table.rows[lo:hi][pathscore.select_top_k_positions(groups, cfg.top_k, mode, seeds)]
        kept = np.minimum([len(group) for group in groups], cfg.top_k)
        question.append(np.repeat(owners, kept * nodes.shape[1]))
        rows.append(row_of[nodes.ravel()])
    question, rows = np.concatenate(question), np.concatenate(rows)
    on = rows >= 0
    keys, counts = np.unique(question[on] * len(t.students) + rows[on], return_counts=True)
    owner, rows = np.divmod(keys, len(t.students))
    bounds = np.searchsorted(owner, np.arange(len(questions) + 1)).tolist()
    return {qid: (rows[lo:hi], counts[lo:hi]) for qid, lo, hi in zip(questions, bounds, bounds[1:])}


def _path_pair_pool(
    retained: Mapping[str, tuple[np.ndarray, np.ndarray]],
    d: dataset_mod.Dataset,
) -> tuple[np.ndarray, int] | None:
    """The distinct (answerer, candidate, f) triples of the retained walks, mirroring the deployment
    pair distribution, as ascending ``retrieval.pair_keys`` with their base; None if there are none.

    For each target question, each of its train answerers is paired with each student retained for
    it but itself (``retained`` as :func:`_retained` gives it), with that student's count f.  The
    base is one more than the largest count.
    """
    t = retrieval.student_tables(d)
    base = 1 + max((int(f.max()) for _, f in retained.values() if f.size), default=0)
    per_question = [(t.answerers(qid)[:, None], rows, f) for qid, (rows, f) in retained.items()]
    # every question's keys go into one buffer, sorted in place and thinned to distinct keys: a
    # list of blocks, their concatenation and np.unique's copy would each hold all of them at
    # once, and np.unique's hash table (numpy >= 2.3) is far slower than a sort on millions of keys
    keys = np.empty(sum(u.size * s.size for u, s, _ in per_question), dtype=np.int64)
    end = 0
    for u, s, f in per_question:
        block = retrieval.pair_keys(u, s, f, len(t.students), base)[u != s]
        keys[end:end + block.size] = block
        end += block.size
    keys = keys[:end]
    keys.sort()
    pool = keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if end else keys
    if not pool.size:
        logger.warning("empty path pair pool; falling back to random pairs")
        return None
    return pool, base


def _similarity(ctx: PipelineContext, cfg: RunConfig, run_seed: int, variant: str | None):
    d = ctx.get("dataset", cfg)
    pool = _path_pair_pool(ctx.get("retained", cfg, run_seed, variant), d) if cfg.pair_source == "paths" else None
    keys, base = pool or (None, None)
    return retrieval.fit_similarity(
        d, ctx.get("irt", cfg), cfg.pair_sample, seed=derive_seed(run_seed, "pairs"), c=cfg.c,
        pair_pool=keys, pair_base=base,
    )


def _targets(ctx: PipelineContext, cfg: RunConfig, run_seed: int, variant: str | None):
    d = ctx.get("dataset", cfg)
    test = d.iter_split("test")
    return tuple(zip(map(d.students().__getitem__, d.student[test].tolist()),
                     map(d.questions().__getitem__, d.question[test].tolist()), d.timestamp[test].tolist()))


def _peers(ctx: PipelineContext, cfg: RunConfig, run_seed: int, variant: str | None):
    """Each test target's Top-S peers, in test order.  Nearest peers are ranked for every question
    in one ``retrieval.top_s_packed`` call; random peers are drawn question by question
    (``retrieval.random_peers``)."""
    _, peer_mode, mask = ABLATIONS[variant]
    tests = ctx.test_targets(cfg)
    if predict.MASK_SIMU in mask:
        return {key: [] for key in tests}
    d, m = ctx.get("dataset", cfg), ctx.get("irt", cfg)
    retained = ctx.get("retained", cfg, run_seed, variant)
    none = (np.zeros(0, dtype=np.intp),) * 2  # a question with no sampled walk
    by_question: dict[str, list[tuple[str, str, int]]] = {}
    for key in tests:
        by_question.setdefault(key[1], []).append(key)
    if peer_mode == "similar":
        ranked = retrieval.top_s_packed(
            [(retained.get(qid, none), [u for u, _, _ in targets]) for qid, targets in by_question.items()],
            ctx.get("similarity", cfg, run_seed, variant), m, d, cfg.top_s, cfg.c)
    else:
        ranked = [retrieval.random_peers(
                      qid, retained.get(qid, none)[0], [u for u, _, _ in targets],
                      [derive_seed(run_seed, "tops", u, qid, timestamp) for u, _, timestamp in targets], d, cfg.top_s)
                  for qid, targets in by_question.items()]
    peers = {key: p for targets, per_question in zip(by_question.values(), ranked)
             for key, p in zip(targets, per_question)}
    return {key: peers[key] for key in tests}


def _predictions(ctx: PipelineContext, cfg: RunConfig, run_seed: int, variant: str | None):
    mask = ABLATIONS[variant][2]
    d, m = ctx.get("dataset", cfg), ctx.get("irt", cfg)
    peers = ctx.get("peers", cfg, run_seed, variant)
    bundles = {key: predict.build_prompt(key[0], key[1], p, m, d, mask, cfg.window) for key, p in peers.items()}
    client = ctx.get("client", cfg)
    # predictions are keyed by interaction, so pool completion order is irrelevant
    return map_bounded(lambda b: predict.predict(b, client), bundles, client.in_flight)


_COMPUTE: dict[str, Callable[[PipelineContext, RunConfig, int, str | None], object]] = {
    "dataset": lambda ctx, cfg, *_: dataset_mod.split(dataset_mod.ingest(cfg.data), cfg.seed),
    "targets": _targets,
    "irt": lambda ctx, cfg, *_: irt_mod.fit(ctx.get("dataset", cfg)),
    "graph": lambda ctx, cfg, *_: Mrhin.build(ctx.get("dataset", cfg), ctx.get("irt", cfg)),
    "walks": _walks,
    "scored": _scored,
    "retained": _retained,
    "similarity": _similarity,
    "peers": _peers,
    "predictions": _predictions,
    "client": lambda ctx, cfg, *_: LlmClient(cfg.llm_endpoint, cfg.llm_model, cfg.llm_timeout, cfg.llm_max_retries,
                                             cfg.llm_max_in_flight, cfg.llm_backend),
}


def run_variant(ctx: PipelineContext, variant: str | None, run_seed: int,
                cfg: RunConfig | None = None) -> VariantMetrics:
    """ACC and AUC of one variant's predictions over the test split."""
    predictions = ctx.get("predictions", cfg, run_seed, variant)
    d = ctx.get("dataset", cfg)
    preds = [predictions[key] for key in ctx.test_targets(cfg)]
    labels = d.correct[d.iter_split("test")].tolist()
    outcomes = [1 if p.outcome == "correct" else 0 for p in preds]
    return VariantMetrics(
        acc=accuracy(labels, outcomes), auc=auc(labels, [p.p_correct for p in preds]), n=len(labels)
    )


def run_experiment(cfg: RunConfig, ctx: PipelineContext | None = None) -> EvalReport:
    """Base configuration plus requested variants, averaged over ``cfg.runs`` seeds.

    Every setting comes from ``cfg``.  ``ctx`` may have been built for another
    config over the same input: each stage whose key matches is reused.
    """
    check_choices(cfg)
    ctx = ctx or PipelineContext(cfg)
    variant_list = [None, *cfg.variants]

    rows: list[dict] = []
    sums: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for r in range(cfg.runs):
        run_seed = run_seed_of(cfg, r)
        for variant in variant_list:
            name = variant or "full"
            metrics = run_variant(ctx, variant, run_seed, cfg)
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
    return EvalReport(
        acc=full.acc,
        auc=full.auc,
        n=full.n,
        config_fingerprint=fingerprint(cfg),
        per_variant=per_variant,
        run_rows=rows,
        resolved_config=computed_fields(cfg),
    )
