import hashlib
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hisekt.config import RunConfig
from hisekt.errors import IngestError, ScoringError
from hisekt.evaluation import PipelineContext, run_seed_of
from hisekt.llm import LlmClient, map_bounded, scripted_client
from hisekt.mrhin import (PAD, TEMPLATES, PathInstance, WalkGroup, graph_distance, read_walks, sample_instances,
                          write_walks)
from hisekt.pathscore import (
    LEVEL_CATEGORIES,
    PathScore,
    ScoredInstance,
    _score_path,
    _score_walk,
    read_scored,
    render_scoring_prompt,
    score,
    score_all,
    score_llm,
    select_top_k,
    write_scored,
)

from graph_fixture import (ABILITY, DIFFICULTY, KC_OF, TRAIN_PAIRS, build_fixture_graph, make_dataset,
                           make_model)
from hisekt.irt import Level
from hisekt.mrhin import Mrhin
from hisekt.seeding import derive_rng, stable_hash
from hisekt.synth import planted_csv


@pytest.fixture(scope="module")
def g():
    return build_fixture_graph()


def path(template_name, nodes, target_kc):
    return PathInstance(TEMPLATES[template_name], tuple(nodes), target_kc)


def line_graph():
    """Q0 - U1 - Q1 chain plus levels, giving dist(Q0, Q1) = 2."""
    d = make_dataset([("S1", "Q0"), ("S1", "Q1")], {"Q0": "K1", "Q1": "K1"})
    m = make_model({"S1": Level.MEDIUM}, {"Q0": Level.MEDIUM, "Q1": Level.MEDIUM})
    return Mrhin.build(d, m)


def centrality(p, g):
    """Closeness of the path's distinct questions to the target question."""
    return score(p, g).centrality


def kc_relevance(p, kc_of):
    """Fraction of distinct path questions that cover the target KC."""
    return _score_path(p.nodes, p.target_kc, {}, kc_of)[1]


def informativeness(p):
    """Distinct fraction of U/Q/K occurrences, with repeats of q0 and the target KC ignored."""
    return _score_path(p.nodes, p.target_kc, {}, {})[2]


def diversity(p):
    """Normalized entropy of A/D level occurrences over the six level categories."""
    return _score_path(p.nodes, p.target_kc, {}, {})[3]


class TestCentrality:
    def test_all_questions_are_target(self, g):
        p = path("Q-K-Q", [("Q", "Q1"), ("K", "K1"), ("Q", "Q1"), ("K", "K1"), ("Q", "Q1")], "K1")
        assert centrality(p, g) == pytest.approx(5.0, abs=1e-12)

    def test_two_questions_at_distance_two(self):
        lg = line_graph()
        p = path("Q-U-Q", [("Q", "Q0"), ("U", "S1"), ("Q", "Q1"), ("U", "S1"), ("Q", "Q0")], "K1")
        # raw = 1 - (1/2) * (0/4 + 2/4) = 0.75
        assert centrality(p, lg) == pytest.approx(3.75, abs=1e-9)

    def test_distance_capped_at_length(self):
        lg = line_graph()
        # QFAR is not in the graph's component: distance saturates at L = 2,
        # keeping the raw value at 0 instead of negative.
        d = make_dataset(
            [("S1", "Q0"), ("S1", "Q1")],
            {"Q0": "K1", "Q1": "K1", "QFAR": "K9"},
            extra=[("S1", "QFAR", "val")],
        )
        m = make_model(
            {"S1": Level.MEDIUM},
            {"Q0": Level.MEDIUM, "Q1": Level.MEDIUM, "QFAR": Level.HIGH},
        )
        lg = Mrhin.build(d, m)
        p = path("Q-K-Q", [("Q", "Q0"), ("K", "K1"), ("Q", "QFAR")], "K1")
        # raw = 1 - (1/2) * (0/2 + 2/2) = 0.5
        assert centrality(p, lg) == pytest.approx(2.5, abs=1e-9)

    def test_star_shaped_path_scores_high(self):
        # target revisited three times with every other question one student away
        lg = line_graph()
        star = path(
            "Q-U-Q",
            [("Q", "Q0"), ("U", "S1"), ("Q", "Q1"), ("U", "S1"), ("Q", "Q0"),
             ("U", "S1"), ("Q", "Q1"), ("U", "S1"), ("Q", "Q0")],
            "K1",
        )
        assert centrality(star, lg) > 2.5

    def test_repeated_questions_count_once(self, g):
        short = path("Q-K-Q", [("Q", "Q1"), ("K", "K1"), ("Q", "Q2")], "K1")
        long = path(
            "Q-K-Q",
            [("Q", "Q1"), ("K", "K1"), ("Q", "Q2"), ("K", "K1"), ("Q", "Q2")],
            "K1",
        )
        # same question set {Q1, Q2}; the longer path has L = 4 instead of 2
        assert centrality(short, g) == pytest.approx(5.0 * (1 - 0.5 * (2 / 2)), abs=1e-9)
        assert centrality(long, g) == pytest.approx(5.0 * (1 - 0.5 * (2 / 4)), abs=1e-9)


class TestKcRelevance:
    def test_all_questions_cover_target(self):
        p = path("Q-K-Q", [("Q", "Q1"), ("K", "K1"), ("Q", "Q2")], "K1")
        kc_of = {"Q1": frozenset({"K1"}), "Q2": frozenset({"K1", "K2"})}
        assert kc_relevance(p, kc_of) == pytest.approx(5.0, abs=1e-12)

    def test_four_of_seven(self):
        nodes = [("Q", "Q0")]
        for i in range(1, 7):
            nodes += [("U", f"U{i}"), ("Q", f"Q{i}")]
        p = path("Q-U-Q", nodes, "K1")
        kc_of = {f"Q{i}": frozenset({"K1"} if i < 4 else {"K2"}) for i in range(7)}
        assert kc_relevance(p, kc_of) == pytest.approx(5.0 * 4.0 / 7.0, abs=1e-9)
        assert kc_relevance(p, kc_of) == pytest.approx(2.857142857142857, abs=1e-9)

    def test_lower_bound_from_target_question(self, g):
        for inst in sample_instances(g, TEMPLATES["Q-U-Q-K-Q"], "Q5", n=50, walk_len=20, seed=5):
            kc_of = {q: g.question_kcs(q) for q in {n[1] for n in inst.nodes if n[0] == "Q"}}
            q_count = len({n for n in inst.nodes if n[0] == "Q"})
            assert kc_relevance(inst, kc_of) >= 5.0 / q_count - 1e-12

    def test_appending_off_concept_question_decreases_ratio(self):
        base = path("Q-U-Q", [("Q", "Q0"), ("U", "U1"), ("Q", "Q1")], "K1")
        extended = path(
            "Q-U-Q", [("Q", "Q0"), ("U", "U1"), ("Q", "Q1"), ("U", "U2"), ("Q", "Q9")], "K1"
        )
        kc_of = {
            "Q0": frozenset({"K1"}),
            "Q1": frozenset({"K1"}),
            "Q9": frozenset({"K2"}),
        }
        assert kc_relevance(extended, kc_of) < kc_relevance(base, kc_of)


class TestInformativeness:
    def test_no_repeats_scores_five(self):
        p = path("Q-U-Q", [("Q", "Q0"), ("U", "U1"), ("Q", "Q1"), ("U", "U2"), ("Q", "Q2")], "K1")
        assert informativeness(p) == pytest.approx(5.0, abs=1e-12)

    def test_one_student_repeat_among_four(self):
        # counted occurrences after target-question dedup: Q0, U1, Q1, U1
        p = path("Q-U-Q", [("Q", "Q0"), ("U", "U1"), ("Q", "Q1"), ("U", "U1"), ("Q", "Q0")], "K1")
        assert informativeness(p) == pytest.approx(3.75, abs=1e-9)

    def test_target_repeats_are_ignored(self):
        # revisiting q0 and k* costs nothing
        p = path(
            "Q-K-Q",
            [("Q", "Q0"), ("K", "K1"), ("Q", "Q0"), ("K", "K1"), ("Q", "Q0")],
            "K1",
        )
        assert informativeness(p) == pytest.approx(5.0, abs=1e-12)

    def test_level_nodes_not_counted(self):
        p = path(
            "Q-U-A-U-Q",
            [("Q", "Q0"), ("U", "U1"), ("A", "Medium"), ("U", "U1"), ("Q", "Q0")],
            "K1",
        )
        # counted: Q0, U1, U1 -> 2 distinct of 3 occurrences
        assert informativeness(p) == pytest.approx(5.0 * 2 / 3, abs=1e-9)

    def test_adding_repeat_question_does_not_increase(self):
        base = path("Q-U-Q", [("Q", "Q0"), ("U", "U1"), ("Q", "Q1")], "K1")
        repeat = path(
            "Q-U-Q", [("Q", "Q0"), ("U", "U1"), ("Q", "Q1"), ("U", "U2"), ("Q", "Q1")], "K1"
        )
        assert informativeness(repeat) <= informativeness(base)


class TestDiversity:
    def test_uniform_over_six_categories(self):
        nodes = [("Q", "Q0")]
        for lvl in ("Low", "Medium", "High"):
            nodes += [("A", lvl), ("D", lvl)]
        p = path("Q-K-Q", nodes, "K1")
        assert diversity(p) == pytest.approx(5.0, abs=1e-12)

    def test_single_category_scores_zero(self):
        p = path("Q-D-Q", [("Q", "Q0"), ("D", "Low"), ("Q", "Q1"), ("D", "Low"), ("Q", "Q0")], "K1")
        assert diversity(p) == pytest.approx(0.0, abs=1e-12)

    def test_no_level_nodes_scores_zero(self):
        p = path("Q-K-Q", [("Q", "Q0"), ("K", "K1"), ("Q", "Q1")], "K1")
        assert diversity(p) == 0.0

    def test_three_equal_difficulty_levels(self):
        nodes = [("Q", "Q0"), ("D", "Low"), ("Q", "Q1"), ("D", "Medium"), ("Q", "Q2"), ("D", "High"), ("Q", "Q0")]
        p = path("Q-D-Q", nodes, "K1")
        expected = 5.0 * math.log(3) / math.log(6)
        assert diversity(p) == pytest.approx(expected, abs=1e-9)
        assert diversity(p) == pytest.approx(3.065735963827292, abs=1e-9)

    def test_five_only_when_balanced_and_complete(self):
        nodes = [("Q", "Q0"), ("A", "Low"), ("A", "Low"), ("A", "Medium"), ("A", "High"),
                 ("D", "Low"), ("D", "Medium"), ("D", "High")]
        p = path("Q-K-Q", nodes, "K1")
        assert diversity(p) < 5.0


class TestScore:
    def test_total_is_sum_of_dimensions(self, g):
        insts = sample_instances(g, TEMPLATES["Q-K-Q-U-Q-D-Q"], "Q1", n=25, walk_len=20, seed=6)
        for inst in insts:
            s = score(inst, g)
            kc_of = {q: g.question_kcs(q) for q in {n[1] for n in inst.nodes if n[0] == "Q"}}
            assert s.total == pytest.approx(
                centrality(inst, g) + kc_relevance(inst, kc_of) + informativeness(inst) + diversity(inst),
                abs=1e-9,
            )
            assert 0.0 <= s.total <= 20.0
            assert s.backend == "formula"

    def test_perfect_dimensions_sum_to_twenty(self):
        s = PathScore.build(5.0, 5.0, 5.0, 5.0)
        assert s.total == 20.0

    def test_example_sum(self):
        s = PathScore.build(3.75, 2.857142857142857, 5.0, 3.065735963827292)
        assert s.total == pytest.approx(14.672878821, abs=1e-6)

    def test_scorer_is_pure(self, g):
        inst = sample_instances(g, TEMPLATES["Q-U-A-U-Q"], "Q2", n=1, walk_len=20, seed=3)[0]
        assert score(inst, g) == score(inst, g)


class TestLlmScoring:
    def test_mock_backend_matches_formula_exactly(self, g):
        client = LlmClient(backend="mock")
        for name in ("Q-K-Q", "Q-U-A-U-Q", "Q-K-Q-U-Q-D-Q", "Q-K-Q-U-Q-D-Q-U-A-U-Q"):
            for inst in sample_instances(g, TEMPLATES[name], "Q5", n=10, walk_len=20, seed=2):
                reference = score(inst, g)
                llm = score_llm(inst, client, g)
                assert llm.backend == "llm"
                assert llm.centrality == reference.centrality
                assert llm.kc_relevance == reference.kc_relevance
                assert llm.informativeness == reference.informativeness
                assert llm.diversity == reference.diversity

    def test_braced_reply_parses(self, g):
        inst = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0)[0]
        client = scripted_client(["{5, 5, 5, 5}"])
        s = score_llm(inst, client, g)
        assert s.total == 20.0

    def test_out_of_range_clamped_with_warning(self, g, caplog):
        inst = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0)[0]
        client = scripted_client(["{7, 2, 2, 2}"])
        with caplog.at_level("WARNING"):
            s = score_llm(inst, client, g)
        assert s.centrality == 5.0
        assert "clamped" in caplog.text

    def test_prose_reply_fails_after_retries(self, g):
        inst = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0)[0]
        client = scripted_client(["no numbers here"] * 3, max_retries=3)
        with pytest.raises(ScoringError) as err:
            score_llm(inst, client, g)
        assert err.value.raw_response == "no numbers here"


def scored_with_totals(totals):
    out = []
    for i, total in enumerate(totals):
        inst = PathInstance(
            TEMPLATES["Q-K-Q"], (("Q", f"Q{i}"), ("K", "K1"), ("Q", f"Q{i+1}")), "K1"
        )
        quarter = total / 4.0
        out.append(ScoredInstance(inst, PathScore.build(quarter, quarter, quarter, quarter)))
    return out


class TestSelectTopK:
    def test_top_two(self):
        scored = scored_with_totals([10.0, 20.0, 15.0])
        picked = select_top_k(scored, 2, "top")
        assert [s.score.total for s in picked] == [20.0, 15.0]

    def test_lowest_two(self):
        scored = scored_with_totals([10.0, 20.0, 15.0])
        picked = select_top_k(scored, 2, "lowest")
        assert [s.score.total for s in picked] == [10.0, 15.0]

    def test_k_larger_than_list(self):
        scored = scored_with_totals([10.0, 20.0])
        assert len(select_top_k(scored, 99, "top")) == 2

    def test_empty_input(self):
        assert select_top_k([], 5, "top") == []

    def test_equal_totals_break_ties_stably(self):
        scored = scored_with_totals([10.0, 10.0, 10.0, 10.0])
        once = select_top_k(scored, 2, "top")
        again = select_top_k(list(reversed(scored)), 2, "top")
        assert [s.instance.nodes for s in once] == [s.instance.nodes for s in again]

    def test_random_mode_is_seeded(self):
        scored = scored_with_totals([float(i) for i in range(12)])
        a = select_top_k(scored, 4, "random", seed=5)
        b = select_top_k(scored, 4, "random", seed=5)
        c = select_top_k(scored, 4, "random", seed=6)
        assert [s.instance.nodes for s in a] == [s.instance.nodes for s in b]
        assert [s.instance.nodes for s in a] != [s.instance.nodes for s in c]

    def test_top_and_lowest_disjoint_when_possible(self):
        scored = scored_with_totals([float(i) for i in range(10)])
        top = {s.instance.nodes for s in select_top_k(scored, 3, "top")}
        low = {s.instance.nodes for s in select_top_k(scored, 3, "lowest")}
        assert not top & low

    def test_monotone_ordering(self):
        scored = scored_with_totals([3.0, 9.0, 1.0, 7.0, 5.0])
        tops = [s.score.total for s in select_top_k(scored, 5, "top")]
        lows = [s.score.total for s in select_top_k(scored, 5, "lowest")]
        assert tops == sorted(tops, reverse=True)
        assert lows == sorted(lows)

    def test_invalid_k_and_mode(self):
        scored = scored_with_totals([1.0])
        with pytest.raises(ValueError):
            select_top_k(scored, 0, "top")
        with pytest.raises(ValueError):
            select_top_k(scored, 1, "best")


def reference_top_k(scored, k, mode, seed=0):
    """Top-K with the tie key recomputed from the node sequence on every comparison."""

    def tie(s):
        return stable_hash(*(f"{kind}:{i}" for kind, i in s.instance.nodes))

    if mode == "random":
        pool = sorted(scored, key=tie)
        return pool if k >= len(pool) else derive_rng(seed, "select_top_k").sample(pool, k)
    sign = -1 if mode == "top" else 1
    return sorted(scored, key=lambda s: (sign * s.score.total, tie(s)))[:k]


class TestSelectTopKTieOrder:
    @pytest.fixture(scope="class")
    def groups(self, g):
        # walks of one template from one question, with totals drawn from
        # three values so most of each group ties with its neighbours
        out = []
        for name in ("Q-K-Q", "Q-U-Q-D-Q", "Q-K-Q-U-A-U-Q"):
            walks = sample_instances(g, TEMPLATES[name], "Q2", n=40, walk_len=9, seed=5)
            out.append([
                ScoredInstance(p, PathScore.build(*([(i % 3) * 1.25] * 4))) for i, p in enumerate(walks)
            ])
        return out

    @pytest.mark.parametrize("mode", ["top", "lowest", "random"])
    @pytest.mark.parametrize("k", [1, 5, 39, 100])
    def test_matches_recomputed_hash_order(self, groups, mode, k):
        for group in groups:
            for seed in (0, 3):
                expected = reference_top_k(group, k, mode, seed)
                # twice: once computing each instance's key, once reading it back
                for _ in range(2):
                    got = select_top_k(list(reversed(group)), k, mode, seed=seed)
                    assert [s.instance.nodes for s in got] == [s.instance.nodes for s in expected]

    def test_tie_key_is_the_node_sequence_hash(self, groups):
        for s in groups[0]:
            assert s.instance.tie_key == stable_hash(*(f"{kind}:{i}" for kind, i in s.instance.nodes))
            copy = PathInstance(s.instance.template, s.instance.nodes, s.instance.target_kc)
            assert copy == s.instance and hash(copy) == hash(s.instance)
            assert "tie_key" not in repr(s.instance)


def reference_walk_file(items):
    """The per-instance writer of ``paths.jsonl`` / ``scored.jsonl`` that the group writers
    replaced: one record per walk or scored walk, plus its five score fields and backend if
    scored, sorted by target question, template name and node sequence."""
    def instance(item):
        return getattr(item, "instance", item)

    def record(item):
        p = instance(item)
        rec = {"target_q": p.target_question, "template": p.template.name, "target_kc": p.target_kc,
               "nodes": [[k, i] for k, i in p.nodes]}
        if isinstance(item, ScoredInstance):
            s = item.score
            rec.update(centrality=s.centrality, kc_relevance=s.kc_relevance, informativeness=s.informativeness,
                       diversity=s.diversity, total=s.total, backend=s.backend)
        return json.dumps(rec, sort_keys=True)

    ordered = sorted(items, key=lambda item: (instance(item).target_question, instance(item).template.name,
                                               instance(item).nodes))
    lines = [record(item) for item in ordered]
    return "\n".join(lines) + ("\n" if lines else "")


class TestScoredStore:
    @pytest.fixture
    def grouped(self, g):
        return {"Q1": {name: score_all(sample_instances(g, TEMPLATES[name], "Q1", n=20, walk_len=20, seed=7), g)
                       for name in ("Q-K-Q-U-Q", "Q-U-Q")}}

    def test_round_trip(self, g, grouped, tmp_path):
        target = tmp_path / "scored.jsonl"
        write_scored(grouped, target)
        loaded = read_scored(target, g)
        assert list(loaded) == ["Q1"] and sorted(loaded["Q1"]) == sorted(grouped["Q1"])
        for name, group in grouped["Q1"].items():
            got = loaded["Q1"][name]
            assert got.backend == "formula"
            assert list(got) == sorted(group, key=lambda s: s.instance.nodes)

    def test_one_backend_per_group(self, g, grouped, tmp_path):
        target = tmp_path / "scored.jsonl"
        write_scored(grouped, target)
        lines = target.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace('"backend": "formula"', '"backend": "llm"')
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match="backends"):
            read_scored(target, g)

    def test_walk_files_equal_the_per_instance_writer(self, tmp_path):
        data = tmp_path / "planted.csv"
        data.write_text(planted_csv(seed=1)[0], encoding="utf-8")
        cfg = RunConfig(data=str(data), seed=7, n_walks=10, walk_len=12, llm_backend="mock")
        ctx = PipelineContext(cfg)
        run_seed = run_seed_of(cfg, 0)
        cases = [(ctx.instances(run_seed), write_walks, read_walks)]
        for backend in ("formula", "llm"):
            cases.append((ctx.scored(run_seed, replace(cfg, score_backend=backend)), write_scored, read_scored))
        for grouped, write, read in cases:
            path, again = tmp_path / "walks.jsonl", tmp_path / "again.jsonl"
            write(grouped, path)
            flat = [item for per_template in grouped.values() for group in per_template.values() for item in group]
            assert path.read_text(encoding="utf-8") == reference_walk_file(flat)
            # read back into groups and written again: the same bytes
            write(read(path, ctx.graph), again)
            assert again.read_bytes() == path.read_bytes()


def reference_score(p, g):
    """The four formulas applied to one instance's node tuples, one dimension at a time."""
    length = p.edge_count
    questions = [node_id for kind, node_id in p.nodes if kind == "Q"]
    q_set = sorted(set(questions))
    if length == 0:
        c = 5.0
    else:
        q0 = ("Q", p.target_question)
        # added left to right: built-in sum() compensates its rounding from Python 3.12 on
        spread = 0.0
        for q in q_set:
            spread += min(graph_distance(g, q0, ("Q", q), cap=length), length) / length
        raw = 1.0 - spread / len(q_set)
        c = 5.0 * min(max(raw, 0.0), 1.0)

    r = 5.0 * sum(1 for q in set(questions) if p.target_kc in g.question_kcs(q)) / len(set(questions))

    kept, seen_q0, seen_kstar = [], False, False
    for node in p.nodes:
        if node[0] not in ("U", "Q", "K"):
            continue
        if node == ("Q", p.target_question):
            if seen_q0:
                continue
            seen_q0 = True
        elif node == ("K", p.target_kc):
            if seen_kstar:
                continue
            seen_kstar = True
        kept.append(node)
    i = 5.0 * len(set(kept)) / len(kept)

    counts = {cat: 0 for cat in LEVEL_CATEGORIES}
    total = 0
    for kind, node_id in p.nodes:
        if kind in ("A", "D"):
            counts[f"{kind}_{node_id}"] += 1
            total += 1
    entropy = 0.0
    for n in counts.values():
        if n:
            freq = n / total
            entropy -= freq * math.log(freq)
    dv = 5.0 * entropy / math.log(len(LEVEL_CATEGORIES)) if total else 0.0
    return PathScore.build(c, r, i, dv)


def edge_case_graph():
    """Q0 and Q1 share student S1 and level D:Low (2 hops); Q2 is 4 hops from
    Q0, through S1, Q1 and S2; QFAR, with its own KC and level, no path."""
    d = make_dataset(
        [("S1", "Q0"), ("S1", "Q1"), ("S2", "Q1"), ("S2", "Q2")],
        {"Q0": "K1", "Q1": "K2;K1", "Q2": "K3", "QFAR": "K9"},
        extra=[("S1", "QFAR", "val")],
    )
    m = make_model(
        {"S1": Level.LOW, "S2": Level.HIGH},
        {"Q0": Level.LOW, "Q1": Level.LOW, "Q2": Level.MEDIUM, "QFAR": Level.HIGH},
    )
    return Mrhin.build(d, m)


def dead_end_graph():
    """The fixture graph plus Q7, which covers K1 and has a difficulty level but no student:
    a walk that reaches Q7 and must step to a student next stops there."""
    d = make_dataset(TRAIN_PAIRS, {**KC_OF, "Q7": "K1"}, extra=[("S1", "Q7", "val")])
    m = make_model(ABILITY, {**DIFFICULTY, "Q7": Level.LOW})
    return Mrhin.build(d, m)


DEAD_END_GRAPH = dead_end_graph()


def walk_scores(walks, g):
    """Each row of a walk group scored alone by ``_score_walk``."""
    hops = g.hops_from(("Q", walks.target_question))
    kstar = g.index(("K", walks.target_kc))
    covers = [False] * len(g.node_ids)
    for q in g.int_adj["Q"][kstar]:
        covers[q] = True
    return [_score_walk(walk, g.node_ids, g.kinds, hops, covers, kstar) for walk in walks.walks()]


class TestGroupScorer:
    def test_scores_are_pinned(self, g):
        # Digest of the formula scores of every template's walks from every
        # fixture question, recorded before walks were scored as groups.
        digest = hashlib.sha256()
        for name, template in TEMPLATES.items():
            for _, q in g.nodes("Q"):
                for s in score_all(sample_instances(g, template, q, n=20, walk_len=20, seed=11), g):
                    fields = [s.score.centrality, s.score.kc_relevance, s.score.informativeness,
                              s.score.diversity, s.score.total]
                    digest.update(json.dumps([name, q, *fields]).encode() + b"\n")
        assert digest.hexdigest() == "1422981d6260cba88b3b0d03d3b54028bc2d739dda2cb4847073c1037e712f04"

    def test_edge_cases_match_reference(self):
        g = edge_case_graph()
        walks = [
            "Q:Q0 U:S1 Q:Q1 U:S2 Q:Q2 U:S2 Q:Q1",  # full width
            "Q:Q0 U:S1 Q:Q1",  # truncated: padded in the group
            "Q:Q0 U:S1 Q:Q2",  # 4 hops, beyond the cap L = 2
            "Q:Q0 K:K9 Q:QFAR K:K9 Q:QFAR",  # unreachable question
            "Q:Q0 U:S1 Q:Q1 U:S1 Q:Q0",  # no A/D node
            "Q:Q0 K:K1 Q:Q0 K:K1 Q:Q0 K:K1 Q:Q1",  # repeats of q0 and K*
            "Q:Q0 D:Low Q:Q1 U:S1 A:Low U:S2 Q:Q2 D:Medium Q:Q2",
            "Q:Q0",  # no edge at all
        ]
        instances = [
            PathInstance(TEMPLATES["Q-U-Q"], tuple(tuple(token.split(":")) for token in w.split()), "K1") for w in walks
        ]
        group = WalkGroup.of(g, instances)
        assert group.rows.shape == (len(walks), 9)
        scored = score_all(group, g)
        for p, got in zip(instances, scored):
            assert got.instance == p
            assert got.score == reference_score(p, g), p.nodes
            assert score(p, g) == got.score

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(TEMPLATES)), q0=st.sampled_from(["Q1", "Q3", "Q5", "Q6", "Q7"]),
           walk_len=st.integers(2, 20), n=st.integers(0, 12), seed=st.integers(0, 2**16), edgeless=st.booleans())
    @example(name="Q-U-Q", q0="Q1", walk_len=20, n=0, seed=0, edgeless=False)  # an empty group
    @example(name="Q-U-Q", q0="Q1", walk_len=2, n=0, seed=0, edgeless=True)  # only a zero-edge row
    def test_equals_the_walk_scorer_bit_for_bit(self, name, q0, walk_len, n, seed, edgeless):
        # walks that reach Q7 on a step to a student are truncated and padded; those of fewer
        # nodes than one template cycle are dropped, so a group can be empty
        g = DEAD_END_GRAPH
        sampled = sample_instances(g, TEMPLATES[name], q0, n=n, walk_len=walk_len, seed=seed)
        rows = sampled.rows
        if edgeless:
            rows = np.vstack([rows, [[g.index(("Q", q0))] + [PAD] * (walk_len - 1)]]).astype(np.int32)
        walks = WalkGroup(g, sampled.template, q0, sampled.target_kc, rows)
        got = score_all(walks, g)
        assert got.scores.shape == (len(rows), 5)
        assert [[x.hex() for x in row] for row in got.scores.tolist()] == \
            [[x.hex() for x in row] for row in walk_scores(walks, g)]

    def test_every_planted_walk_matches_reference(self, tmp_path):
        # criterion-6 configuration on the acceptance fixture, first run
        path = tmp_path / "planted.csv"
        path.write_text(planted_csv(seed=1)[0], encoding="utf-8")
        cfg = RunConfig(data=str(path), seed=7, n_walks=100, walk_len=20, top_k=5, top_s=3, pair_source="paths")
        ctx = PipelineContext(cfg)
        checked = 0
        for per_template in ctx.scored(run_seed_of(cfg, 0)).values():
            for group in per_template.values():
                for s in group:
                    assert s.score == reference_score(s.instance, ctx.graph), s.instance.nodes
                    checked += 1
        assert checked == 65_800


def reference_scoring_prompt(p, g):
    """The scoring prompt rendered line by line, one ``graph_distance`` per question node."""
    lines = [
        "### PATH QUALITY SCORING TASK ###",
        f"target_question: {p.target_question}",
        f"target_kc: {p.target_kc}",
        "path:",
    ]
    length = p.edge_count
    for idx, (kind, node_id) in enumerate(p.nodes, start=1):
        entry = f"  {idx}. {kind}:{node_id}"
        if kind == "Q":
            kcs = ";".join(sorted(g.question_kcs(node_id)))
            level = g.neighbors(("Q", node_id), "D")
            level_label = level[0][1] if level else "Medium"
            hops = graph_distance(g, ("Q", p.target_question), ("Q", node_id), cap=max(length, 1))
            entry += f" | kcs: {kcs} | difficulty_level: {level_label} | hops_from_target: {hops}"
        elif kind == "U":
            level = g.neighbors(("U", node_id), "A")
            entry += f" | ability_level: {level[0][1] if level else 'Medium'}"
        lines.append(entry)
    lines += [
        "",
        "Score this path on four dimensions, each from 0 to 5:",
        "1. centrality: question nodes remain close to the target question, forming a star around it.",
        "2. kc_relevance: the questions on the path cover the target knowledge concept.",
        "3. informativeness: steps keep introducing new students, questions, and concepts"
        " (repeat visits to the target question or target concept are not penalized).",
        "4. diversity: ability and difficulty level nodes cover the six level categories evenly.",
        "Reply with exactly four numbers in braces: {centrality, kc_relevance, informativeness, diversity}",
    ]
    return "\n".join(lines)


class TestScoringPrompt:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_planted_prompt_equals_the_reference(self, tmp_path, seed):
        # the staged CLI's walk configuration on the acceptance fixture
        path = tmp_path / "planted.csv"
        path.write_text(planted_csv(seed=seed)[0], encoding="utf-8")
        cfg = RunConfig(data=str(path), seed=7, n_walks=20, walk_len=12)
        ctx = PipelineContext(cfg)
        checked = 0
        for per_template in ctx.instances(run_seed_of(cfg, 0)).values():
            for group in per_template.values():
                for p in group:
                    assert render_scoring_prompt(p, ctx.graph) == reference_scoring_prompt(p, ctx.graph), p.nodes
                    checked += 1
        assert checked == 13_160

    def test_edge_case_prompts_equal_the_reference(self, g):
        # capped and unreachable hop counts, no A/D node, a walk with no edge
        eg = edge_case_graph()
        walks = ["Q:Q0 U:S1 Q:Q2", "Q:Q0 K:K9 Q:QFAR K:K9 Q:QFAR", "Q:Q0 U:S1 Q:Q1 U:S1 Q:Q0",
                 "Q:Q0 D:Low Q:Q1 U:S1 A:Low U:S2 Q:Q2 D:Medium Q:Q2", "Q:Q0"]
        for w in walks:
            p = PathInstance(TEMPLATES["Q-U-Q"], tuple(tuple(token.split(":")) for token in w.split()), "K1")
            assert render_scoring_prompt(p, eg) == reference_scoring_prompt(p, eg)
        for inst in sample_instances(g, TEMPLATES["Q-K-Q-U-Q-D-Q-U-A-U-Q"], "Q5", n=20, walk_len=20, seed=4):
            assert render_scoring_prompt(inst, g) == reference_scoring_prompt(inst, g)

    def test_concurrent_first_renders_equal_the_reference(self):
        # eight workers render on a fresh graph at once, so most prompts are rendered while
        # another thread is still building the graph's node annotations
        walks = [p for name in ("Q-U-A-U-Q", "Q-K-Q-D-Q") for p in
                 sample_instances(build_fixture_graph(), TEMPLATES[name], "Q2", n=30, walk_len=12, seed=6)]
        reference = build_fixture_graph()
        expected = {i: reference_scoring_prompt(p, reference) for i, p in enumerate(walks)}
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                fresh = build_fixture_graph()
                got = map_bounded(lambda p: render_scoring_prompt(p, fresh), dict(enumerate(walks)), 8)
                assert got == expected
        finally:
            sys.setswitchinterval(old_interval)

    def test_node_annotations_are_built_once_per_graph(self, monkeypatch):
        g = build_fixture_graph()
        walks = sample_instances(g, TEMPLATES["Q-U-A-U-Q"], "Q1", n=20, walk_len=20, seed=5)
        first = render_scoring_prompt(walks[0], g)
        lookups = []
        for name in ("neighbors", "question_kcs"):
            monkeypatch.setattr(g, name, lambda *args, name=name: lookups.append(name))
        assert render_scoring_prompt(walks[0], g) == first
        assert [render_scoring_prompt(p, g) for p in walks] == [reference_scoring_prompt(p, build_fixture_graph())
                                                                 for p in walks]
        assert lookups == []
