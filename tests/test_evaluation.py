import dataclasses
import gc
import io
import json
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hisekt import evaluation, irt, mrhin, pathscore, predict, retrieval
from hisekt.config import ABLATIONS, RunConfig, fingerprint
from hisekt.errors import HisektError, UndefinedMetricError
from hisekt.evaluation import (
    PipelineContext,
    accuracy,
    auc,
    run_experiment,
    run_seed_of,
)
from hisekt.llm import MockTransport
from hisekt.mrhin import TEMPLATES, Mrhin, sample_instances
from hisekt.pathscore import select_top_k
from hisekt.seeding import derive_seed
from hisekt.synth import planted_csv

from conftest import rows_to_csv
from graph_fixture import build_fixture_graph, make_dataset, make_model, walk_nodes
from support import (decode_rows, reference_auc, reference_select_top_k, retained_ids, retained_rows, scored_group,
                     unimodal_or_plateau)


def pairwise_auc(labels, scores):
    """O(n^2) oracle: wins plus half-ties over all positive/negative pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([1, 0], [0.9, 0.1]) == 1.0

    def test_all_tied_scores(self):
        assert auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            n = int(rng.integers(2, 100))
            labels = rng.integers(0, 2, n).tolist()
            if sum(labels) in (0, n):
                labels[0] = 1 - labels[0]
            if rng.random() < 0.5:
                scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=n).tolist()  # tie-heavy
            else:
                scores = rng.random(n).tolist()
            assert auc(labels, scores) == pairwise_auc(labels, scores)

    def test_single_class_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc([1, 1], [0.2, 0.3])
        with pytest.raises(UndefinedMetricError):
            auc([0, 0], [0.2, 0.3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            auc([1, 0], [0.5])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_midranks_give_the_bits_of_the_tie_walking_loop(self, data):
        n = data.draw(st.integers(0, 80), label="n")
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="labels")
        grid = data.draw(st.sampled_from([3, 10, 1000, None]), label="grid")  # None: continuous scores
        values = (st.floats(0.0, 1.0) if grid is None else
                  st.integers(0, grid - 1).map(lambda i, grid=grid: i / (grid - 1)))
        scores = data.draw(st.lists(values, min_size=n, max_size=n), label="scores")
        if 0 < sum(labels) < n:
            assert auc(labels, scores).hex() == reference_auc(labels, scores).hex()
        else:
            for metric in (auc, reference_auc):
                with pytest.raises(UndefinedMetricError):
                    metric(labels, scores)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            # scores on a 1e-6 grid so the transforms below cannot merge
            # distinct values through float rounding
            st.tuples(st.integers(0, 1), st.floats(0, 1).map(lambda s: round(s, 6))),
            min_size=2,
            max_size=60,
        )
    )
    def test_invariant_under_increasing_transform(self, pairs):
        labels = [y for y, _ in pairs]
        scores = [s for _, s in pairs]
        if sum(labels) in (0, len(labels)):
            labels[0] = 1 - labels[0]
        base = auc(labels, scores)
        squashed = auc(labels, [3.0 * s + 1.0 for s in scores])
        exp = auc(labels, [float(np.exp(s)) for s in scores])
        assert base == pytest.approx(squashed, abs=1e-12)
        assert base == pytest.approx(exp, abs=1e-12)


class TestAccuracy:
    def test_acc_plus_error_is_one(self):
        labels = [1, 0, 1, 1, 0]
        outcomes = [1, 1, 1, 0, 0]
        err = sum(1 for y, o in zip(labels, outcomes) if y != o) / len(labels)
        assert accuracy(labels, outcomes) + err == pytest.approx(1.0)

    def test_empty_undefined(self):
        with pytest.raises(UndefinedMetricError):
            accuracy([], [])


class TestUnimodal:
    def test_rising_then_falling(self):
        assert unimodal_or_plateau([0.5, 0.7, 0.8, 0.78, 0.7])

    def test_plateau(self):
        assert unimodal_or_plateau([0.5, 0.7, 0.7, 0.7, 0.7])

    def test_monotone_decline_is_edge_case(self):
        assert unimodal_or_plateau([0.8, 0.7, 0.6])

    def test_valley_rejected(self):
        assert not unimodal_or_plateau([0.8, 0.5, 0.8], tol=0.01)


class TestPlantedSelection:
    def test_top_k_picks_planted_high_and_lowest_picks_planted_low(self):
        # plant two quality tiers on distinct fixture walks, interleaved, and check the selected sets exactly
        walks = sample_instances(build_fixture_graph(), TEMPLATES["Q-U-Q-K-Q"], "Q1", n=12, walk_len=20, seed=1)
        tiers = [1.0] * 3 + [4.0] * 3 + [1.0] * 3 + [4.0] * 3
        mixed = scored_group(walks, [[tier] * 4 for tier in tiers])
        high = {nodes for nodes, tier in zip(walk_nodes(walks), tiers) if tier == 4.0}
        low = {nodes for nodes, tier in zip(walk_nodes(walks), tiers) if tier == 1.0}
        assert len(high) == len(low) == 6
        assert set(walk_nodes(select_top_k(mixed, 6, "top").walks)) == high
        assert set(walk_nodes(select_top_k(mixed, 6, "lowest").walks)) == low


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    csv, _ = planted_csv(
        n_bands=3, students_per_band=12, questions_per_band=10, band_gap=2.0,
        cross_rate=0.05, affinity=2.0, seed=3,
    )
    path = tmp_path_factory.mktemp("data") / "planted.csv"
    path.write_text(csv, encoding="utf-8")
    return str(path)


def small_cfg(planted_file, **overrides):
    base = dict(
        data=planted_file, seed=7, runs=1, n_walks=12, walk_len=12,
        top_k=3, top_s=2, pair_sample=2000, pair_source="paths",
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunExperiment:
    def test_report_structure_and_run_rows(self, planted_file):
        cfg = small_cfg(planted_file, runs=2, variants=("simu",))
        report = run_experiment(cfg)
        assert report.n > 0
        assert 0.0 <= report.acc <= 1.0 and 0.0 <= report.auc <= 1.0
        assert set(report.per_variant) == {"simu"}
        assert len(report.run_rows) == 2 * 2  # (full + simu) x 2 runs
        assert {row["run"] for row in report.run_rows} == {0, 1}
        mean_full = np.mean([r["auc"] for r in report.run_rows if r["variant"] == "full"])
        assert report.auc == pytest.approx(mean_full)

    def test_identical_config_reproduces_identical_report(self, planted_file):
        cfg = small_cfg(planted_file, variants=("rsimu",))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.to_json() == b.to_json()
        assert a.config_fingerprint == fingerprint(cfg)

    def test_every_variant_hides_exactly_its_prompt_blocks(self, planted_file):
        ctx = PipelineContext(small_cfg(planted_file))
        prompts = []
        mock = MockTransport()

        def recording(prompt):
            prompts.append(prompt)
            return mock(prompt)

        client = ctx.get("client")
        client.transport, client.max_in_flight = recording, 1
        run_seed = run_seed_of(ctx.cfg, 0)
        for variant in (None, "msr", "msl", "simu", "rsimu", "irt"):
            prompts.clear()
            predictions = ctx.get("predictions", run_seed=run_seed, variant=variant)
            assert len(prompts) == len(predictions) == len(ctx.test_targets()) > 0
            has_peers = variant != "simu"
            assert any("\npeer: " in text for text in prompts) == has_peers
            for text in prompts:
                assert ("=== SIMILAR STUDENTS ===" in text) == has_peers
                for irt_field in ("ability: ", "difficulty: ", "discrimination: "):
                    assert (irt_field in text) == (variant != "irt"), (variant, irt_field)

    def test_unknown_variant_rejected(self, planted_file):
        cfg = small_cfg(planted_file, variants=("bogus",))
        with pytest.raises(ValueError):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("pair_source", "pathz"),
            ("score_backend", "llm2"),
            ("llm_backend", "grpc"),
            ("variants", ("msr", "bogus")),
        ],
        ids=["pair_source", "score_backend", "llm_backend", "variants"],
    )
    def test_bad_enumerated_value_rejected_on_library_path(self, planted_file, key, bad):
        # a RunConfig built directly never passes through resolve_config
        cfg = small_cfg(planted_file, **{key: bad})
        with pytest.raises(HisektError, match=key) as err:
            PipelineContext(cfg)
        assert isinstance(err.value, ValueError)
        with pytest.raises(HisektError, match=key):
            run_experiment(cfg)

    def test_json_report_is_parseable(self, planted_file):
        cfg = small_cfg(planted_file)
        report = run_experiment(cfg)
        payload = json.loads(report.to_json())
        assert payload["config_fingerprint"] == report.config_fingerprint
        table = report.to_table()
        assert "full" in table and "AUC" in table


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls of each stage's work function, counted by name."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in [
        (irt, "fit"), (Mrhin, "build"), (evaluation, "sample_walks"), (pathscore, "score_all"), (pathscore, "score_groups"),
        (pathscore, "select_top_k"), (retrieval, "fit_similarity"), (retrieval, "top_s_packed"), (predict, "predict"),
    ]:
        count(owner, name)
    # one Top-K pass is one computation of the "retained" stage
    retained = evaluation._COMPUTE["retained"]

    def counted_retained(*args):
        calls["retained"] += 1
        return retained(*args)

    monkeypatch.setitem(evaluation._COMPUTE, "retained", counted_retained)
    return calls


class TestStageMemo:
    @pytest.mark.parametrize(
        "change",
        [dict(top_k=1, variants=()), dict(top_s=1), dict(n_walks=6), dict(variants=("msr", "irt"))],
        ids=["top_k", "top_s", "n_walks", "variants"],
    )
    def test_other_config_on_a_used_context_equals_a_fresh_run(self, planted_file, change):
        cfg = small_cfg(planted_file, variants=("msl", "rsimu"))
        ctx = PipelineContext(cfg)
        run_experiment(cfg, ctx)
        other = dataclasses.replace(cfg, **change)
        assert run_experiment(other, ctx).to_json() == run_experiment(other).to_json()

    def test_a_seed_sweep_fits_the_model_and_builds_the_graph_once(self, planted_file, stage_calls):
        cfg = small_cfg(planted_file, seed=7)
        ctx = PipelineContext(cfg)
        run_experiment(cfg, ctx)
        seed8 = dataclasses.replace(cfg, seed=8)
        report = run_experiment(seed8, ctx).to_json()
        assert (stage_calls["fit"], stage_calls["build"]) == (1, 1)
        assert report == run_experiment(seed8).to_json()

    def test_each_stage_runs_once_per_distinct_input(self, planted_file, stage_calls):
        variants = ("msr", "msl", "simu", "rsimu")
        cfg = small_cfg(planted_file, variants=variants)
        ctx = PipelineContext(cfg)
        run_experiment(cfg, ctx)
        # one scoring pass per template; full, simu and rsimu select the same Top-K walks, and
        # simu needs no peers at all
        assert stage_calls["score_groups"] == len(TEMPLATES)
        assert stage_calls["retained"] == stage_calls["fit_similarity"] == 3

        stage_calls.clear()
        run_experiment(dataclasses.replace(cfg, variants=(*variants, "irt")), ctx)
        assert stage_calls == Counter({"predict": len(ctx.test_targets())})  # irt only masks full's prompts

        stage_calls.clear()
        run_experiment(cfg, ctx)
        assert stage_calls == Counter()

        run_experiment(dataclasses.replace(cfg, top_s=1), ctx)
        assert stage_calls["top_s_packed"] > 0 and stage_calls["predict"] > 0
        for name in ("sample_walks", "score_all", "score_groups", "retained", "select_top_k", "fit_similarity"):
            assert stage_calls[name] == 0, name


def test_an_empty_path_pair_pool_falls_back_to_random_pairs(tmp_path, caplog):
    # Pn is the first answer of Sn and the last of everyone else, so Sn is its only train answerer
    rows = [(f"S{n:02d}", f"P{p}", "K0", 1, 0 if p == n else 100 + p) for n in range(12) for p in range(3)]
    rows += [(f"S{n:02d}", f"C{j}", f"K{j % 2}", int((n + j) % 3 > 0), 1 + j) for n in range(12) for j in range(10)]
    path = tmp_path / "own_questions.csv"
    path.write_text(rows_to_csv(rows), encoding="utf-8")
    counts = {"P0": {"S00": 2}, "P1": {"S01": 1}, "P2": {"S02": 3}, "C9": {}}
    cfg = RunConfig(data=str(path), seed=7, pair_sample=5, pair_source="paths")
    ctx = PipelineContext(cfg, readers={"retained": lambda ctx: retained_rows(counts, ctx.dataset)})
    train = decode_rows(ctx.dataset, ctx.dataset.iter_split("train"))
    assert [[i.student_id for i in train if i.question_id == f"P{p}"] for p in range(3)] == [["S00"], ["S01"], ["S02"]]

    with caplog.at_level("WARNING", logger="hisekt.evaluation"):
        assert evaluation._path_pair_pool(retained_rows(counts, ctx.dataset), ctx.dataset) is None
        assert "empty path pair pool; falling back to random pairs" in caplog.text
        caplog.clear()
        sm = ctx.get("similarity")
        assert "empty path pair pool" in caplog.text
    expected = retrieval.fit_similarity(ctx.dataset, ctx.irt, cfg.pair_sample,
                                        seed=derive_seed(run_seed_of(cfg, 0), "pairs"), c=cfg.c, pair_pool=None)
    assert sm.pair_sample_size == expected.pair_sample_size == 5
    assert sm.mu.tobytes() == expected.mu.tobytes() and sm.sigma.tobytes() == expected.sigma.tobytes()
    assert sm.shrinkage_lambda == expected.shrinkage_lambda


def reference_pool(scored, k, mode, run_seed):
    """``{question: {student id: count}}`` of the students on the walks each group keeps alone, by
    ``reference_select_top_k`` under the stage's seed for the group."""
    pool = {}
    for qid in sorted(scored):
        counts = Counter()
        for name, group in scored[qid].items():
            kept = reference_select_top_k(group, k, mode, derive_seed(run_seed, "topk", qid, name))
            for nodes in walk_nodes(group.walks.take(kept)):
                counts.update(node_id for kind, node_id in nodes if kind == "U")
        pool[qid] = dict(counts)
    return pool


def dead_end_context():
    """A context on the dead-end graph whose test targets are Q1, Q3 and QDEAD: QDEAD has no train
    answerer, so its Q-U-Q group is empty and walks through it are truncated."""
    pairs = [(s, q) for s in ("S1", "S2", "S3") for q in ("Q1", "Q2", "Q3")]
    d = make_dataset(pairs, {"Q1": "K1", "Q2": "K1;K2", "Q3": "K2", "QDEAD": "K1"},
                     extra=[("S1", "QDEAD", "test"), ("S2", "Q1", "test"), ("S3", "Q3", "test")])
    m = make_model({"S1": irt.Level.LOW, "S2": irt.Level.MEDIUM, "S3": irt.Level.MEDIUM},
                   {"Q1": irt.Level.LOW, "Q2": irt.Level.MEDIUM, "Q3": irt.Level.HIGH, "QDEAD": irt.Level.MEDIUM})
    g = Mrhin.build(d, m)
    return PipelineContext(RunConfig(data="unused.csv", n_walks=12, walk_len=13, top_k=3),
                           readers={"dataset": lambda _: d, "irt": lambda _: m, "graph": lambda _: g})


class TestWalkTables:
    @pytest.fixture(scope="class", params=[1, 2, 3, "dead-end"])
    def context(self, request, tmp_path_factory):
        if request.param == "dead-end":
            return dead_end_context()
        path = tmp_path_factory.mktemp("data") / "planted.csv"
        path.write_text(planted_csv(seed=request.param)[0], encoding="utf-8")
        return PipelineContext(RunConfig(data=str(path), seed=7))

    def test_a_stage_keys_each_template_table_once(self, tmp_path, monkeypatch):
        path = tmp_path / "planted.csv"
        path.write_text(planted_csv(seed=1)[0], encoding="utf-8")
        ctx = PipelineContext(RunConfig(data=str(path), seed=7, n_walks=20, walk_len=12))
        ctx.graph
        calls = Counter()
        walk_tie_keys = mrhin.walk_tie_keys

        def counted(g, rows):
            calls[rows.shape] += 1
            return walk_tie_keys(g, rows)

        monkeypatch.setattr(mrhin, "walk_tie_keys", counted)
        walks = ctx.instances(run_seed_of(ctx.cfg, 0))
        assert sum(calls.values()) == len(TEMPLATES)
        for name in TEMPLATES:
            groups = [walks[qid][name] for qid in sorted(walks)]
            # the groups of one template are views of one table, their rows and their tie keys
            assert len({id(group.table) for group in groups}) == 1
            table = groups[0].table
            assert all(group.rows.base is table.rows for group in groups)
            assert all(np.shares_memory(group.tie_keys, table.tie_keys) for group in groups)
            assert np.array_equal(np.concatenate([group.rows for group in groups]), table.rows)
        for variant in (None, "msr", "msl"):
            ctx.get("retained", variant=variant)
        assert sum(calls.values()) == len(TEMPLATES)  # scoring and Top-K read the tables' keys

    @pytest.mark.parametrize("variant", [None, "msr", "msl"], ids=["top", "random", "lowest"])
    def test_top_k_over_table_slices_equals_each_group_alone(self, context, variant):
        ctx, mode = context, ABLATIONS[variant][0]
        cfg, run_seed = ctx.cfg, run_seed_of(ctx.cfg, 0)
        scored = ctx.scored(run_seed)
        for name in TEMPLATES:
            qids = [qid for qid in sorted(scored) if name in scored[qid]]
            groups = [scored[qid][name] for qid in qids]
            assert mrhin.table_span([group.walks for group in groups]) is not None
            seeds = [derive_seed(run_seed, "topk", qid, name) for qid in qids]
            got = pathscore.select_top_k_many(groups, cfg.top_k, mode, seeds)
            want = [reference_select_top_k(group, cfg.top_k, mode, seed) for group, seed in zip(groups, seeds)]
            assert [index.tolist() for index in got] == [index.tolist() for index in want]
        retained = evaluation._retained(ctx, cfg, run_seed, variant)
        assert retained_ids(retained, ctx.dataset) == reference_pool(scored, cfg.top_k, mode, run_seed)

    def test_a_dropped_context_frees_its_tables_without_the_cycle_collector(self, tmp_path):
        # a group refers to its table and the table does not hold its groups: with no reference
        # cycle, a context's tables and scores go with it, as each group's own rows did
        path = tmp_path / "planted.csv"
        path.write_text(planted_csv(seed=1)[0], encoding="utf-8")
        gc.disable()
        try:
            ctx = PipelineContext(RunConfig(data=str(path), seed=7, n_walks=20, walk_len=12))
            scored = ctx.scored(run_seed_of(ctx.cfg, 0))
            ctx.get("retained")
            arrays = [weakref.ref(array) for per_template in scored.values() for group in per_template.values()
                      for array in (group.walks.table.rows, group.walks.table.tie_keys, group.table_scores)]
            del ctx, scored
            assert [ref for ref in arrays if ref() is not None] == []
        finally:
            gc.enable()

    def test_the_dead_end_stage_has_an_empty_group_and_truncated_rows(self):
        walks = dead_end_context().instances(run_seed_of(dead_end_context().cfg, 0))
        assert len(walks["QDEAD"]["Q-U-Q"]) == 0
        assert any((group.rows == mrhin.PAD).any() for per_template in walks.values()
                   for group in per_template.values())
