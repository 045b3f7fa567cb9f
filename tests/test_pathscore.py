import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hisekt
from hisekt.config import RunConfig
from hisekt.errors import IngestError, ScoringError, TransportError
from hisekt.evaluation import PipelineContext, run_seed_of
from hisekt.llm import LlmClient, MockTransport, map_bounded
from hisekt.mrhin import PAD, TEMPLATES, WalkGroup, WalkTable, read_walks, sample_instances, write_walks
from hisekt import mrhin, pathscore
from hisekt.pathscore import (
    LEVEL_CATEGORIES,
    SCORE_FIELDS,
    ScoredGroup,
    graph_distance,
    read_scored,
    render_scoring_prompt,
    score_all,
    score_llm,
    select_top_k,
    select_top_k_positions,
    write_scored,
)

from graph_fixture import (ABILITY, DIFFICULTY, KC_OF, TRAIN_PAIRS, build_fixture_graph, group_of, make_dataset,
                           make_model, reference_tie_key, reference_top_k, renamed_graph, walk_nodes)
from hisekt.irt import Level
from hisekt.mrhin import Mrhin
from hisekt.synth import planted_csv
from prompt_reference import reference_parse_scoring_prompt
from support import (hops_from, mock_path_score, read_scoring_prompt, reference_score_llm, reference_score_walk,
                     reference_select_top_k, reference_write_scored, score_one, scored_group, scripted_client)


@pytest.fixture(scope="module")
def g():
    return build_fixture_graph()


def path(template_name, nodes, target_kc):
    """A walk to score: its template's name, its ``(kind, id)`` nodes and its target KC."""
    return template_name, tuple(nodes), target_kc


def line_graph():
    """Q0 - U1 - Q1 chain plus levels, giving dist(Q0, Q1) = 2."""
    d = make_dataset([("S1", "Q0"), ("S1", "Q1")], {"Q0": "K1", "Q1": "K1"})
    m = make_model({"S1": Level.MEDIUM}, {"Q0": Level.MEDIUM, "Q1": Level.MEDIUM})
    return Mrhin.build(d, m)


def renamed_fixture_graph(new_ids):
    """The fixture graph with its 14 students, questions and KCs renamed, in node order, to the
    first 14 of the distinct ``new_ids``."""
    g = build_fixture_graph()
    named = [node for node in g.node_ids if node[0] in ("U", "Q", "K")]
    return renamed_graph(g, dict(zip(named, new_ids)))


def centrality(p, g):
    """Closeness of the path's distinct questions to the target question."""
    name, nodes, target_kc = p
    return score_all(group_of(g, name, [nodes], target_kc), g).scores[0, 0]


def kc_relevance(p, kc_of):
    """Fraction of distinct path questions that cover the target KC."""
    _, nodes, target_kc = p
    return mock_path_score(nodes, target_kc, {}, kc_of)[1]


def informativeness(p):
    """Distinct fraction of U/Q/K occurrences, with repeats of q0 and the target KC ignored."""
    _, nodes, target_kc = p
    return mock_path_score(nodes, target_kc, {}, {})[2]


def diversity(p):
    """Normalized entropy of A/D level occurrences over the six level categories."""
    _, nodes, target_kc = p
    return mock_path_score(nodes, target_kc, {}, {})[3]


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
        walks = sample_instances(g, TEMPLATES["Q-U-Q-K-Q"], "Q5", n=50, walk_len=20, seed=5)
        for nodes in walk_nodes(walks):
            kc_of = {q: g.question_kcs(q) for q in {n[1] for n in nodes if n[0] == "Q"}}
            q_count = len({n for n in nodes if n[0] == "Q"})
            assert kc_relevance(path("Q-U-Q-K-Q", nodes, walks.target_kc), kc_of) >= 5.0 / q_count - 1e-12

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
        walks = sample_instances(g, TEMPLATES["Q-K-Q-U-Q-D-Q"], "Q1", n=25, walk_len=20, seed=6)
        scored = score_all(walks, g)
        assert scored.backend == "formula"
        for nodes, row in zip(walk_nodes(walks), scored.scores.tolist()):
            p = path("Q-K-Q-U-Q-D-Q", nodes, walks.target_kc)
            kc_of = {q: g.question_kcs(q) for q in {n[1] for n in nodes if n[0] == "Q"}}
            assert row[4] == pytest.approx(
                centrality(p, g) + kc_relevance(p, kc_of) + informativeness(p) + diversity(p),
                abs=1e-9,
            )
            assert 0.0 <= row[4] <= 20.0

    def test_perfect_dimensions_sum_to_twenty(self):
        # one question, the target, and each level category once
        nodes = [("Q", "Q0"), *LEVEL_NODES]
        assert mock_path_score(nodes, "K1", {"Q0": 0}, {"Q0": frozenset({"K1"})}) == \
            pytest.approx((5.0, 5.0, 5.0, 5.0, 20.0), abs=1e-12)

    def test_example_sum(self, g):
        walks = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0)
        row = score_one(walks, 0, scripted_client(["{3.75, 2.857142857142857, 5.0, 3.065735963827292}"]))
        assert row[4] == pytest.approx(14.672878821, abs=1e-6)

    def test_scorer_is_pure(self, g):
        walks = sample_instances(g, TEMPLATES["Q-U-A-U-Q"], "Q2", n=1, walk_len=20, seed=3)
        assert score_all(walks, g).scores.tobytes() == score_all(walks, g).scores.tobytes()


LEVEL_NODES = [tuple(category.split("_")) for category in LEVEL_CATEGORIES]


class TestLlmScoring:
    def test_mock_backend_matches_formula_exactly(self, g):
        client = LlmClient(backend="mock")
        for name in ("Q-K-Q", "Q-U-A-U-Q", "Q-K-Q-U-Q-D-Q", "Q-K-Q-U-Q-D-Q-U-A-U-Q"):
            walks = sample_instances(g, TEMPLATES[name], "Q5", n=10, walk_len=20, seed=2)
            for k, row in enumerate(score_all(walks, g).scores.tolist()):
                assert score_one(walks, k, client) == tuple(row)

    def test_braced_reply_parses(self, g):
        walks = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0)
        client = scripted_client(["{5, 5, 5, 5}"])
        s = score_one(walks, 0, client)
        assert s == (5.0, 5.0, 5.0, 5.0, 20.0)

    def test_out_of_range_clamped_with_warning(self, g, caplog):
        walks = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0)
        client = scripted_client(["{7, 2, 2, 2}"])
        with caplog.at_level("WARNING"):
            s = score_one(walks, 0, client)
        assert s[0] == 5.0
        assert "clamped" in caplog.text

    def test_prose_reply_fails_after_retries(self, g):
        walks = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0)
        client = scripted_client(["no numbers here"] * 3, max_retries=3)
        with pytest.raises(ScoringError) as err:
            score_one(walks, 0, client)
        assert err.value.raw_response == "no numbers here"

    def test_numbers_outside_the_braces_are_not_read(self, g):
        # the old reader took the first four numbers anywhere: (4.0, 4.5, 3.0, 2.0) here
        walks = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0)
        client = scripted_client(["Here are the 4 scores: {4.5, 3.0, 2.0, 1.0}"])
        assert score_one(walks, 0, client) == (4.5, 3.0, 2.0, 1.0, 10.5)

    def test_an_unbraced_numbered_reply_is_retried(self, g):
        # the old reader took (1.0, 4.5, 2.0, 3.0) from the list's numbers and scores
        walks = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0)
        numbered = "1. centrality: 4.5\n2. kc_relevance: 3\n3. informativeness: 2\n4. diversity: 1"
        client = scripted_client([numbered, "{4.5, 3, 2, 1}"], max_retries=2)
        assert score_one(walks, 0, client) == (4.5, 3.0, 2.0, 1.0, 10.5)
        with pytest.raises(ScoringError) as err:
            score_one(walks, 0, scripted_client([numbered] * 3, max_retries=3))
        assert err.value.raw_response == numbered

    def test_an_unreadable_reply_is_logged_once(self, g, caplog):
        walks = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0)
        client = scripted_client(["scores: 4.5, 3, 2, 1", "{4.5, 3, 2, 1}"], max_retries=2)
        with caplog.at_level("WARNING"):
            assert score_one(walks, 0, client) == (4.5, 3.0, 2.0, 1.0, 10.5)
        assert [r.getMessage() for r in caplog.records] == [
            "llm score reply holds no braced group of four numbers: 'scores: 4.5, 3, 2, 1'"]

    def test_each_distinct_reply_is_read_once_per_stage(self, g, caplog, monkeypatch):
        # one walk per block: the second block's unreadable reply is the first block's, read and logged once
        monkeypatch.setattr(pathscore, "SCORE_BLOCK", 1)
        walks = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=2, walk_len=5, seed=0)
        client = scripted_client(["no scores", "{4.5, 3, 2, 1}", "no scores", "{1, 2, 3, 4}"], max_retries=2)
        with caplog.at_level("WARNING"):
            [scored] = score_llm([walks], client)
        assert scored.scores.tolist() == [[4.5, 3.0, 2.0, 1.0, 10.5], [1.0, 2.0, 3.0, 4.0, 10.0]]
        assert len(caplog.records) == 1

    @pytest.mark.parametrize("reply", [
        "{centrality, kc_relevance, informativeness, diversity}\n{4.5, 3.0, 2.0, 1.0}",
        "Format: {} then {1, 2} then {4.5,3.0 ,2.0, 1.0}",
        "{0.5, 0.5, 0.5, 0.5} on a second look: { 4.5 , 3.0 , 2.0 , 1.0 }",
        "{4.5, 3.0, 2.0, 1.0} {6, 7} {1, 2, 3, 4, 5}",
    ])
    def test_the_last_group_of_four_numbers_is_read(self, reply, g):
        walks = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0)
        assert score_one(walks, 0, scripted_client([reply])) == (4.5, 3.0, 2.0, 1.0, 10.5)

    def test_rows_equal_path_scores_of_the_old_reader_bit_for_bit(self, tmp_path):
        # each group's table from the llm stage against the four scores of each walk, read from the
        # reply as before and stacked with their totals by scored_group, on the staged CLI's config
        for seed in (1, 2, 3):
            data = tmp_path / f"planted-{seed}.csv"
            data.write_text(planted_csv(seed=seed)[0], encoding="utf-8")
            cfg = RunConfig(data=str(data), seed=7, n_walks=4, walk_len=12, score_backend="llm", llm_backend="mock")
            ctx = PipelineContext(cfg)
            scored = ctx.scored(run_seed_of(cfg, 0))
            client = LlmClient(backend="mock")
            for per_template in scored.values():
                for group in per_template.values():
                    old = scored_group(group.walks, [reference_score_llm(group.walks, k, client)
                                                     for k in range(len(group))], "llm")
                    assert group.backend == "llm" and group.scores.dtype == np.float64
                    assert group.scores.shape == old.scores.shape == (len(group), 5)
                    assert group.scores.tobytes() == old.scores.tobytes()


def scored_with_totals(g, totals):
    """Distinct Q-U-Q-K-Q walks from Q1 on the fixture graph, row i scored with total ``totals[i]``."""
    walks = sample_instances(g, TEMPLATES["Q-U-Q-K-Q"], "Q1", n=len(totals), walk_len=20, seed=1)
    assert len(set(walk_nodes(walks))) == len(walks) == len(totals)
    return scored_group(walks, [[total / 4.0] * 4 for total in totals])


def reversed_rows(scored):
    """The group with its rows in reverse order, with their scores: the one group of a table of them."""
    return scored.take(np.arange(len(scored))[::-1])


def node_lists(scored):
    return walk_nodes(scored.walks)


def rows_and_scores(scored):
    """A scored group's walk rows and score rows, as lists."""
    return scored.walks.rows.tolist(), scored.scores.tolist()


class TestSelectTopK:
    def test_top_two(self, g):
        scored = scored_with_totals(g, [10.0, 20.0, 15.0])
        picked = select_top_k(scored, 2, "top")
        assert picked.scores[:, 4].tolist() == [20.0, 15.0]
        assert rows_and_scores(picked) == rows_and_scores(scored.take(reference_top_k(scored, 2, "top")))

    def test_lowest_two(self, g):
        scored = scored_with_totals(g, [10.0, 20.0, 15.0])
        picked = select_top_k(scored, 2, "lowest")
        assert picked.scores[:, 4].tolist() == [10.0, 15.0]
        assert rows_and_scores(picked) == rows_and_scores(scored.take(reference_top_k(scored, 2, "lowest")))

    def test_k_larger_than_group(self, g):
        scored = scored_with_totals(g, [10.0, 20.0])
        for mode in ("top", "lowest", "random"):
            picked = select_top_k(scored, 99, mode)
            assert len(picked) == 2
            assert rows_and_scores(picked) == rows_and_scores(scored.take(reference_top_k(scored, 99, mode)))

    def test_empty_input(self, g):
        for mode in ("top", "lowest", "random"):
            picked = select_top_k(scored_with_totals(g, []), 5, mode)
            assert isinstance(picked, ScoredGroup) and len(picked) == 0
            assert picked.scores.shape == (0, 5) and len(picked.walks) == 0

    def test_equal_totals_break_ties_stably(self, g):
        scored = scored_with_totals(g, [10.0, 10.0, 10.0, 10.0])
        once = select_top_k(scored, 2, "top")
        again = select_top_k(reversed_rows(scored), 2, "top")
        assert node_lists(once) == node_lists(again) == node_lists(scored.take(reference_top_k(scored, 2, "top")))

    def test_random_mode_is_seeded(self, g):
        scored = scored_with_totals(g, [float(i) for i in range(12)])
        a = select_top_k(scored, 4, "random", seed=5)
        b = select_top_k(scored, 4, "random", seed=5)
        c = select_top_k(scored, 4, "random", seed=6)
        assert node_lists(a) == node_lists(b) == node_lists(scored.take(reference_top_k(scored, 4, "random", seed=5)))
        assert node_lists(a) != node_lists(c)

    def test_top_and_lowest_disjoint_when_possible(self, g):
        scored = scored_with_totals(g, [float(i) for i in range(10)])
        top = set(node_lists(select_top_k(scored, 3, "top")))
        low = set(node_lists(select_top_k(scored, 3, "lowest")))
        assert not top & low

    def test_monotone_ordering(self, g):
        scored = scored_with_totals(g, [3.0, 9.0, 1.0, 7.0, 5.0])
        tops = select_top_k(scored, 5, "top").scores[:, 4].tolist()
        lows = select_top_k(scored, 5, "lowest").scores[:, 4].tolist()
        assert tops == sorted(tops, reverse=True)
        assert lows == sorted(lows)

    def test_invalid_k_and_mode(self, g):
        scored = scored_with_totals(g, [1.0])
        with pytest.raises(ValueError):
            select_top_k(scored, 0, "top")
        with pytest.raises(ValueError):
            select_top_k(scored, 1, "best")


class TestSelectTopKTieOrder:
    @pytest.fixture(scope="class")
    def groups(self, g):
        # walks of one template from one question, with totals drawn from
        # three values so most of each group ties with its neighbours
        out = []
        for name in ("Q-K-Q", "Q-U-Q-D-Q", "Q-K-Q-U-A-U-Q"):
            walks = sample_instances(g, TEMPLATES[name], "Q2", n=40, walk_len=9, seed=5)
            out.append(scored_group(walks, [[(i % 3) * 1.25] * 4 for i in range(len(walks))]))
        return out

    @pytest.mark.parametrize("mode", ["top", "lowest", "random"])
    @pytest.mark.parametrize("k", [1, 5, 39, 100])
    def test_matches_recomputed_hash_order(self, groups, mode, k):
        for group in groups:
            for seed in (0, 3):
                expected = group.take(reference_top_k(group, k, mode, seed))
                # the reversed group twice: once computing its keys, once reading them back
                backwards = reversed_rows(group)
                for _ in range(2):
                    got = select_top_k(backwards, k, mode, seed=seed)
                    assert node_lists(got) == node_lists(expected)

    def test_tie_key_is_the_node_sequence_hash(self, groups):
        for group in groups:
            assert group.walks.tie_keys.tolist() == [reference_tie_key(nodes) for nodes in node_lists(group)]


class TestSelectTopKOnGroups:
    @pytest.fixture(scope="class")
    def groups(self, g):
        # each group's formula scores, and its walks with totals drawn from three values
        out = []
        for name in ("Q-K-Q", "Q-U-Q-D-Q", "Q-K-Q-U-A-U-Q"):
            walks = sample_instances(g, TEMPLATES[name], "Q2", n=40, walk_len=9, seed=5)
            out.append(score_all(walks, g))
            out.append(scored_group(walks, [[(i % 3) * 1.25] * 4 for i in range(len(walks))]))
        out.append(score_all(sample_instances(g, TEMPLATES["Q-U-Q"], "Q2", n=0, walk_len=9, seed=5), g))
        return out

    @pytest.mark.parametrize("mode", ["top", "lowest", "random"])
    @pytest.mark.parametrize("k", [1, 5, 39, 100])
    def test_group_path_equals_the_reference_on_the_decoded_rows(self, groups, mode, k, monkeypatch):
        expected = {(i, seed): reference_top_k(group, k, mode, seed)
                    for i, group in enumerate(groups) for seed in (0, 3)}
        # each group's keys were computed with its table, and the kept rows' table gathers its keys
        # from the graph's memoized terms: no node key is mixed again
        def rehash(z):
            raise AssertionError("a tie-key term was mixed again")

        monkeypatch.setattr(mrhin, "mix", rehash)
        for (i, seed), want in expected.items():
            got = select_top_k(groups[i], k, mode, seed=seed)
            assert isinstance(got, ScoredGroup) and len(got) == min(k, len(groups[i]))
            assert got.backend == groups[i].backend
            assert rows_and_scores(got) == rows_and_scores(groups[i].take(want))
            assert got.walks.tie_keys.tolist() == [reference_tie_key(nodes) for nodes in node_lists(got)]


@st.composite
def top_k_stages(draw):
    """A Top-K ``k`` and a stage of groups for it: each group a width, its walks as node-int rows of
    up to that width (nodes from three ints, so walks, and so tie keys, repeat) and its totals from
    a small grid, so totals tie.  Group sizes are drawn from 0, k - 1, k, k + 1 and k + 3."""
    k = draw(st.integers(1, 5))
    specs = []
    for _ in range(draw(st.integers(0, 6))):
        width, size = draw(st.integers(1, 4)), draw(st.sampled_from([0, k - 1, k, k + 1, k + 3]))
        walks = draw(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=width), min_size=size, max_size=size))
        totals = draw(st.lists(st.sampled_from([0.0, -0.0, 1.25, 2.5, 20.0]), min_size=size, max_size=size))
        specs.append((walks, totals))
    return k, specs


def table_groups(g, template, target_kcs, walks_per_group):
    """The groups of one walk table on ``g``, one per entry of ``target_kcs`` {target question: its
    target KC}, in that order, group ``i`` holding the node-int walks ``walks_per_group[i]``, every
    row ``PAD``-padded to the longest walk."""
    walks = [walk for group in walks_per_group for walk in group]
    rows = np.full((len(walks), max(map(len, walks), default=1)), PAD, dtype=np.int32)
    for row, walk in zip(rows, walks):
        row[:len(walk)] = walk
    table = WalkTable(g, TEMPLATES[template], rows)
    return list(table.groups(target_kcs, list(map(len, walks_per_group))).values())


class TestSelectTopKStage:
    @settings(max_examples=300, deadline=None)
    @given(top_k_stages(), st.sampled_from(["top", "lowest", "random"]), st.integers(0, 3), st.integers(0, 6))
    def test_one_pass_equals_each_group_alone(self, g, stage, mode, seed, skip):
        # the consecutive groups of one table, of walks of mixed lengths, less its first ``skip``
        # groups, so their slice of the table need not start at row 0
        k, specs = stage
        walks = table_groups(g, "Q-K-Q", {f"Q{i}": "K1" for i in range(len(specs))}, [walks for walks, _ in specs])
        groups = []
        for group, (_, totals) in list(zip(walks, specs))[skip:]:
            scores = np.zeros((len(totals), 5))
            scores[:, 4] = totals
            groups.append(ScoredGroup(group, scores, "formula"))
        seeds = [seed + i for i in range(len(groups))]
        starts = np.cumsum([0] + [len(group) for group in groups])
        # the drawn k, and a k larger than every group
        for kk in (k, 1 + max((len(walks) for walks, _ in specs), default=0)):
            got = select_top_k_positions(groups, kk, mode, seeds)
            want = [reference_select_top_k(group, kk, mode, s) for group, s in zip(groups, seeds)]
            assert got.tolist() == [start + i for start, index in zip(starts.tolist(), want) for i in index.tolist()]
            assert [select_top_k(group, kk, mode, s).walks.rows.tolist() for group, s in zip(groups, seeds)] == \
                [group.walks.rows[index].tolist() for group, index in zip(groups, want)]

    def test_refuses_a_missing_seed_a_bad_k_an_unknown_mode_and_other_groups(self, g):
        group = scored_group(sample_instances(g, TEMPLATES["Q-K-Q"], "Q2", n=4, walk_len=5, seed=1), [[1.0] * 4] * 4)
        with pytest.raises(ValueError, match="one seed per group"):
            select_top_k_positions([group], 2, "random")
        with pytest.raises(ValueError, match="k must be"):
            select_top_k_positions([group], 0, "top")
        with pytest.raises(ValueError, match="unknown selection mode"):
            select_top_k_positions([group], 1, "best")
        assert select_top_k_positions([], 3, "top").tolist() == []
        # groups of two tables, and groups of one table out of order or with a gap
        three = [scored_group(walks, [[1.0] * 4] * len(walks))
                 for walks in table_groups(g, "Q-K-Q", {"Q1": "K1", "Q2": "K1", "Q3": "K1"}, [[[0, 1]], [[1, 2]], [[2, 0]]])]
        for groups in ([group, three[0]], three[::-1], three[::2]):
            with pytest.raises(ValueError, match="not consecutive groups of one walk table"):
                select_top_k_positions(groups, 1, "top")


def reference_walk_file(grouped):
    """The per-walk writer of ``paths.jsonl`` that the group writer replaced, on {target question:
    {template: walk group}}: one record per walk, sorted by target question and template name,
    each group's walks in row order."""
    records = []
    for per_template in grouped.values():
        for walks in per_template.values():
            for row, nodes in enumerate(walk_nodes(walks)):
                rec = {"target_q": walks.target_question, "template": walks.template.name,
                       "target_kc": walks.target_kc, "nodes": [[kind, i] for kind, i in nodes]}
                records.append(((walks.target_question, walks.template.name, row), json.dumps(rec, sort_keys=True)))
    lines = [line for _, line in sorted(records)]
    return "\n".join(lines) + ("\n" if lines else "")


def walks_of(scored):
    """The walk groups of {target question: {template: scored group}}."""
    return {q: {name: group.walks for name, group in per.items()} for q, per in scored.items()}


class TestScoredStore:
    @pytest.fixture
    def grouped(self, g):
        return {"Q1": {name: score_all(sample_instances(g, TEMPLATES[name], "Q1", n=20, walk_len=20, seed=7), g)
                       for name in ("Q-K-Q-U-Q", "Q-U-Q")}}

    def write_and_edit(self, grouped, path, edit):
        """The scored file of ``grouped`` at ``path``, its list of lines changed by ``edit``."""
        write_scored(grouped, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        edit(lines)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def test_round_trip_in_any_row_order(self, g, grouped, tmp_path):
        target, walk_file = tmp_path / "scored.jsonl", tmp_path / "paths.jsonl"
        write_scored(grouped, target)
        write_walks(walks_of(grouped), walk_file)
        # the walks in sampling order, and read back from the walk file, which keeps that order
        for walks in (walks_of(grouped), read_walks(walk_file, g)):
            loaded = read_scored(target, walks)
            assert list(loaded) == ["Q1"] and sorted(loaded["Q1"]) == sorted(grouped["Q1"])
            for name, group in grouped["Q1"].items():
                got = loaded["Q1"][name]
                assert got.backend == "formula" and got.walks is walks["Q1"][name]
                assert node_lists(got) == node_lists(group)
                assert got.scores.tolist() == group.scores.tolist()

    def test_lines_hold_only_the_scores_backend_and_tie_key(self, g, grouped, tmp_path):
        target = tmp_path / "scored.jsonl"
        assert write_scored(grouped, target) == 40
        records = [json.loads(line) for line in target.read_text(encoding="utf-8").splitlines()]
        assert {tuple(sorted(rec)) for rec in records} == {tuple(sorted((*SCORE_FIELDS, "backend", "tie_key")))}
        walk_file = tmp_path / "paths.jsonl"
        write_walks(walks_of(grouped), walk_file)
        walks = [json.loads(line)["nodes"] for line in walk_file.read_text(encoding="utf-8").splitlines()]
        assert [rec["tie_key"] for rec in records] == [reference_tie_key(map(tuple, nodes)) for nodes in walks]

    def test_one_backend_per_group(self, g, grouped, tmp_path):
        target = tmp_path / "scored.jsonl"
        self.write_and_edit(grouped, target, lambda lines: lines.__setitem__(
            1, lines[1].replace('"backend": "formula"', '"backend": "llm"')))
        with pytest.raises(IngestError, match="backends"):
            read_scored(target, walks_of(grouped))

    @pytest.mark.parametrize("field, text, complaint", [
        ("centrality", "null", "centrality is null, not a number"),
        ("kc_relevance", "true", "kc_relevance is true, not a number"),
        ("informativeness", '"2.5"', 'informativeness is "2.5", not a number'),
        ("diversity", "NaN", "diversity is NaN, not a finite number"),
        ("centrality", "-Infinity", "centrality is -Infinity, not a finite number"),
        ("total", "1" + "0" * 400, "total is 1" + "0" * 400 + ", not a finite number"),
    ])
    def test_a_score_that_is_not_a_finite_number_fails_naming_its_line(self, g, grouped, tmp_path, field, text,
                                                                       complaint):
        target = tmp_path / "scored.jsonl"
        self.write_and_edit(grouped, target, lambda lines: lines.__setitem__(
            2, re.sub(rf'"{field}": [^,}}]+', lambda _: f'"{field}": {text}', lines[2])))
        with pytest.raises(IngestError) as err:
            read_scored(target, walks_of(grouped))
        assert str(err.value) == f"{target} line 3: ValueError: {complaint}"

    def test_a_total_that_is_not_the_sum_fails_naming_its_line(self, g, grouped, tmp_path):
        target = tmp_path / "scored.jsonl"
        write_scored(grouped, target)
        lines = target.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[4])
        total = record["total"]
        # one ulp off, and the same dimensions summed in another order: equal in value, not in bits
        reordered = record["diversity"] + record["informativeness"] + record["kc_relevance"] + record["centrality"]
        for changed in (math.nextafter(total, math.inf), reordered):
            if changed == total:
                continue
            lines[4] = re.sub(r'"total": [^,}]+', lambda _: f'"total": {changed!r}', lines[4])
            target.write_text("\n".join(lines) + "\n", encoding="utf-8")
            with pytest.raises(IngestError) as err:
                read_scored(target, walks_of(grouped))
            assert str(err.value).startswith(f"{target} line 5: ValueError: total is {changed!r}, not the sum")

    @pytest.mark.parametrize("edit, line_no, complaint", [
        (lambda lines: lines.pop(), 40, "the file ends, but there are 40 walks"),
        (lambda lines: lines.append(lines[0]), 41, "ValueError: more lines than the 40 walks"),
    ], ids=["one-line-short", "one-line-over"])
    def test_a_line_count_other_than_the_walks_fails_naming_the_line(self, g, grouped, tmp_path, edit, line_no,
                                                                     complaint):
        target = tmp_path / "scored.jsonl"
        self.write_and_edit(grouped, target, edit)
        with pytest.raises(IngestError) as err:
            read_scored(target, walks_of(grouped))
        assert str(err.value) == f"{target} line {line_no}: {complaint}"

    @pytest.mark.parametrize("change", ["swapped", "off by one", "a string"])
    def test_a_tie_key_that_is_not_its_walks_fails_naming_its_line(self, g, grouped, tmp_path, change):
        target = tmp_path / "scored.jsonl"
        write_scored(grouped, target)
        lines = target.read_text(encoding="utf-8").splitlines()
        key = json.loads(lines[3])["tie_key"]
        if change == "swapped":  # the scores of two walks, each on the other's line
            lines[3], lines[4] = lines[4], lines[3]
            found = json.loads(lines[3])["tie_key"]
        else:
            found = key + 1 if change == "off by one" else str(key)
            lines[3] = lines[3].replace(f'"tie_key": {key}', f'"tie_key": {json.dumps(found)}')
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IngestError) as err:
            read_scored(target, walks_of(grouped))
        assert str(err.value) == (f"{target} line 4: ValueError: tie key {json.dumps(found)}, "
                                  f"but the walk of this line has tie key {key}")

    # with the second, every score of the group is written as a JSON int
    @pytest.mark.parametrize("dimensions", [(5.0, 0.0, 2.5, 0.0), (5.0, 0.0, 2.0, 0.0)])
    def test_json_ints_read_as_their_floats(self, g, tmp_path, dimensions):
        walks = sample_instances(g, TEMPLATES["Q-U-Q"], "Q1", n=2, walk_len=4, seed=1)
        target = tmp_path / "scored.jsonl"
        write_scored({"Q1": {"Q-U-Q": scored_group(walks, [dimensions] * len(walks))}}, target)
        text = re.sub(r": (\d+)\.0([,}])", r": \1\2", target.read_text(encoding="utf-8"))
        assert ("." in text) == (2.5 in dimensions)
        target.write_text(text, encoding="utf-8")
        [[got]] = [per.values() for per in read_scored(target, {"Q1": {"Q-U-Q": walks}}).values()]
        assert got.scores.dtype == np.float64
        assert got.scores.tolist() == [[*dimensions, sum(dimensions)]] * len(walks)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_every_planted_scored_file_reads_back(self, tmp_path, seed):
        data = tmp_path / "planted.csv"
        data.write_text(planted_csv(seed=seed)[0], encoding="utf-8")
        cfg = RunConfig(data=str(data), seed=7, n_walks=4, walk_len=12, llm_backend="mock")
        ctx = PipelineContext(cfg)
        for backend in ("formula", "llm"):
            scored = ctx.scored(run_seed_of(cfg, 0), replace(cfg, score_backend=backend))
            target = tmp_path / f"{backend}.jsonl"
            write_scored(scored, target)
            loaded = read_scored(target, ctx.instances(run_seed_of(cfg, 0)))
            for qid, per_template in scored.items():
                for name, group in per_template.items():
                    if len(group):
                        assert loaded[qid][name].backend == backend
                        assert loaded[qid][name].scores.tolist() == group.scores.tolist()
            write_scored(loaded, tmp_path / "again.jsonl")
            assert (tmp_path / "again.jsonl").read_bytes() == target.read_bytes()

    def test_store_files_equal_the_per_walk_writers(self, tmp_path):
        data = tmp_path / "planted.csv"
        data.write_text(planted_csv(seed=1)[0], encoding="utf-8")
        cfg = RunConfig(data=str(data), seed=7, n_walks=10, walk_len=12, llm_backend="mock")
        ctx = PipelineContext(cfg)
        run_seed = run_seed_of(cfg, 0)
        scored = [ctx.scored(run_seed, replace(cfg, score_backend=backend)) for backend in ("formula", "llm")]
        assert_store_files_equal_the_references(ctx.instances(run_seed), scored, ctx.graph, tmp_path)

    def test_store_files_of_ids_that_need_escaping(self, tmp_path):
        # each student, question and KC id holds a quote, a backslash, a tab, a non-ASCII letter
        # or a character outside the Basic Multilingual Plane, which JSON writes as two escapes
        pieces = ['"', "\\", "\t", "\u00e9", "\U0001F600", ' "\\\t\u00e9\U0001F600 ']
        g = renamed_fixture_graph([f"{i}{piece}" for i, piece in enumerate(pieces * 3)])
        client = LlmClient(backend="mock")
        walks = {q: {name: sample_instances(g, TEMPLATES[name], q, n=8, walk_len=11, seed=5)
                     for name in ("Q-U-Q", "Q-K-Q-U-A-U-Q", "Q-U-Q-K-Q-D-Q")}
                 for q in sorted(node_id for kind, node_id in g.node_ids if kind == "Q")}
        by_formula = {q: {name: score_all(group, g) for name, group in per.items()} for q, per in walks.items()}
        by_llm = {q: dict(zip(per, score_llm(list(per.values()), client))) for q, per in walks.items()}
        assert_store_files_equal_the_references(walks, [by_formula, by_llm], g, tmp_path)
        assert all(ord(c) < 128 for c in (tmp_path / "paths.jsonl").read_text(encoding="utf-8"))


_TINY = 2.2250738585072014e-308  # the smallest normal float
EDGE_SCORES = [0.0, -0.0, 5e-324, -5e-324, math.nextafter(_TINY, 0.0), _TINY, 0.1, 1 / 3, 1.0,
               math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 5.0, math.nextafter(5.0, 6.0), 20.0,
               math.nextafter(20.0, 0.0), 1e16, 1e-7, math.inf, -math.inf, math.nan, -math.nan]


class TestScoredWriter:
    @pytest.fixture(scope="class")
    def walk_groups(self, g):
        return {q: {name: sample_instances(g, TEMPLATES[name], q, n=9, walk_len=9, seed=4)
                    for name in ("Q-U-Q", "Q-K-Q-U-A-U-Q", "Q-U-Q-K-Q-D-Q")} for q in ("Q1", "Q4")}

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_bytes_equal_the_per_column_writer(self, walk_groups, tmp_path_factory, data):
        # values shared across the file, so the same bits recur across groups and columns
        shared = data.draw(st.lists(st.floats(), max_size=6))
        values = st.one_of(st.sampled_from(EDGE_SCORES + shared), st.floats())
        grouped = {}
        for q, per_template in walk_groups.items():
            for name, walks in per_template.items():
                size = data.draw(st.integers(0, len(walks)))  # 0: an empty group
                table = data.draw(st.lists(values, min_size=5 * size, max_size=5 * size))
                backend = data.draw(st.sampled_from(["formula", "llm"]))
                scores = np.array(table, dtype=np.float64).reshape(size, 5)
                grouped.setdefault(q, {})[name] = ScoredGroup(walks.take(np.arange(size)), scores, backend)
        folder = tmp_path_factory.mktemp("scored")
        got, want = folder / "got.jsonl", folder / "want.jsonl"
        assert write_scored(grouped, got) == reference_write_scored(grouped, want)
        assert got.read_bytes() == want.read_bytes()

    def test_signed_zeros_and_nans_keep_their_text(self, g, tmp_path):
        walks = sample_instances(g, TEMPLATES["Q-U-Q"], "Q1", n=2, walk_len=4, seed=1)
        scores = np.array([[0.0, -0.0, math.nan, 5e-324, math.inf], [-0.0, 0.0, -math.nan, -5e-324, 1.0]])
        grouped = {"Q1": {"Q-U-Q": ScoredGroup(walks, scores, "llm")}}
        write_scored(grouped, tmp_path / "got.jsonl")
        reference_write_scored(grouped, tmp_path / "want.jsonl")
        text = (tmp_path / "got.jsonl").read_text(encoding="utf-8")
        assert text == (tmp_path / "want.jsonl").read_text(encoding="utf-8")
        fields = [dict(re.findall(r'"(\w+)": ([^,{}\[\]]+)', line)) for line in text.splitlines()]
        assert sorted((f["centrality"], f["kc_relevance"], f["informativeness"], f["diversity"], f["total"])
                      for f in fields) == sorted([("0.0", "-0.0", "NaN", "5e-324", "Infinity"),
                                                  ("-0.0", "0.0", "NaN", "-5e-324", "1.0")])


def assert_store_files_equal_the_references(walks, scorings, g, tmp_path):
    """The walk file of ``walks`` on graph ``g`` is the one ``reference_walk_file`` writes, and the
    score file of each scoring of them the one ``reference_write_scored`` writes; reading each file
    back (the score files on the walks in sampling order and as read back) and writing it again
    gives the same bytes."""
    paths, again = tmp_path / "paths.jsonl", tmp_path / "again.jsonl"
    write_walks(walks, paths)
    text = paths.read_text(encoding="utf-8")
    assert text and text == reference_walk_file(walks)
    read = read_walks(paths, g)
    write_walks(read, again)
    assert again.read_bytes() == paths.read_bytes()
    for scored in scorings:
        got, want = tmp_path / "scored.jsonl", tmp_path / "want.jsonl"
        assert write_scored(scored, got) == reference_write_scored(scored, want) == text.count("\n")
        assert got.read_bytes() == want.read_bytes()
        for source in (walks, read):
            write_scored(read_scored(got, source), again)
            assert again.read_bytes() == got.read_bytes()


def reference_score(nodes, target_kc, g):
    """The four formulas applied to one walk's ``(kind, id)`` nodes, one dimension at a time, and
    their total."""
    length = len(nodes) - 1
    questions = [node_id for kind, node_id in nodes if kind == "Q"]
    q_set = sorted(set(questions))
    if length == 0:
        c = 5.0
    else:
        q0 = nodes[0]
        # added left to right: built-in sum() compensates its rounding from Python 3.12 on
        spread = 0.0
        for q in q_set:
            spread += min(graph_distance(g, q0, ("Q", q), cap=length), length) / length
        raw = 1.0 - spread / len(q_set)
        c = 5.0 * min(max(raw, 0.0), 1.0)

    r = 5.0 * sum(1 for q in set(questions) if target_kc in g.question_kcs(q)) / len(set(questions))

    kept, seen_q0, seen_kstar = [], False, False
    for node in nodes:
        if node[0] not in ("U", "Q", "K"):
            continue
        if node == nodes[0]:
            if seen_q0:
                continue
            seen_q0 = True
        elif node == ("K", target_kc):
            if seen_kstar:
                continue
            seen_kstar = True
        kept.append(node)
    i = 5.0 * len(set(kept)) / len(kept)

    counts = {cat: 0 for cat in LEVEL_CATEGORIES}
    total = 0
    for kind, node_id in nodes:
        if kind in ("A", "D"):
            counts[f"{kind}_{node_id}"] += 1
            total += 1
    entropy = 0.0
    for n in counts.values():
        if n:
            freq = n / total
            entropy -= freq * math.log(freq)
    dv = 5.0 * entropy / math.log(len(LEVEL_CATEGORIES)) if total else 0.0
    return c, r, i, dv, c + r + i + dv


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
    """Each row of a walk group scored alone by ``reference_score_walk``."""
    hops = hops_from(g, ("Q", walks.target_question))
    kstar = g.index(("K", walks.target_kc))
    covers = [False] * len(g.node_ids)
    for q in g.neighbors(("K", walks.target_kc), "Q"):
        covers[g.index(q)] = True
    return [reference_score_walk(walk, g.node_ids, g.kinds, hops, covers, kstar) for walk in walks.walks()]


class TestGroupScorer:
    def test_scores_are_pinned(self, g):
        # Digest of the formula scores of every template's walks from every
        # fixture question.  The per-walk ``walk_scores`` of the same walks
        # give the same digest.
        digest = hashlib.sha256()
        for name, template in TEMPLATES.items():
            for _, q in g.nodes("Q"):
                for fields in score_all(sample_instances(g, template, q, n=20, walk_len=20, seed=11), g).scores.tolist():
                    digest.update(json.dumps([name, q, *fields]).encode() + b"\n")
        assert digest.hexdigest() == "a790fc593f3db1f23fe7d74f5801018ea403c4cefca5412f82234ecaa23790a3"

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
        walks = [tuple(tuple(token.split(":")) for token in w.split()) for w in walks]
        group = group_of(g, "Q-U-Q", walks, "K1")
        assert group.rows.shape == (len(walks), 9) and walk_nodes(group) == walks
        scored = score_all(group, g)
        for nodes, got in zip(walks, scored.scores.tolist()):
            assert tuple(got) == reference_score(nodes, "K1", g), nodes
            assert score_all(group_of(g, "Q-U-Q", [nodes], "K1"), g).scores.tolist() == [got]
        assert score_llm([group], LlmClient(backend="mock"))[0].scores.tobytes() == scored.scores.tobytes()

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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_groups_scored_together_equal_the_walk_scorer_bit_for_bit(self, data):
        # the groups of one drawn table in one call: target questions and KCs, walks of mixed
        # lengths and templates, empty groups, edgeless rows, and rows with nodes of kinds their
        # template does not have there, which put questions, KCs or levels in columns of other kinds
        g = DEAD_END_GRAPH
        questions = data.draw(st.lists(st.sampled_from([q for _, q in g.nodes("Q")]), max_size=6, unique=True),
                              label="target questions")
        walks, kcs = [], []
        for q0 in questions:
            name = data.draw(st.sampled_from(sorted(TEMPLATES)), label="template")
            walk_len = data.draw(st.integers(1, 20), label="walk_len")
            rows = sample_instances(g, TEMPLATES[name], q0, n=data.draw(st.integers(0, 8), label="n"),
                                    walk_len=walk_len, seed=data.draw(st.integers(0, 2**16), label="seed")).walks()
            if data.draw(st.booleans(), label="edgeless"):
                rows.append([g.index(("Q", q0))])
            for i in data.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=4 if rows else 0),
                               label="broken rows"):
                if len(rows[i]) > 1:
                    position = data.draw(st.integers(1, len(rows[i]) - 1), label="position")
                    rows[i][position] = data.draw(st.integers(0, len(g.node_ids) - 1), label="node")
            walks.append(rows)
            kcs.append(data.draw(st.sampled_from([k for _, k in g.nodes("K")]), label="target KC"))
        groups = table_groups(g, "Q-U-Q", dict(zip(questions, kcs)), walks)
        got = pathscore.score_groups(groups, g)
        assert len(got) == len(groups)
        for group, scored in zip(groups, got):
            assert scored.walks is group and scored.backend == "formula"
            assert scored.scores.shape == (len(group), 5)
            assert [[x.hex() for x in row] for row in scored.scores.tolist()] == \
                [[x.hex() for x in row] for row in walk_scores(group, g)]
            assert score_all(group, g).scores.tobytes() == scored.scores.tobytes()

    def test_groups_of_two_tables_are_refused(self):
        g = DEAD_END_GRAPH
        one, other = (sample_instances(g, TEMPLATES["Q-U-Q"], q0, n=2, walk_len=5, seed=1) for q0 in ("Q1", "Q3"))
        with pytest.raises(ValueError, match="not consecutive groups of one walk table"):
            pathscore.score_groups([one, other], g)

    def test_every_planted_walk_matches_reference(self, tmp_path):
        # criterion-6 configuration on the acceptance fixture, first run
        path = tmp_path / "planted.csv"
        path.write_text(planted_csv(seed=1)[0], encoding="utf-8")
        cfg = RunConfig(data=str(path), seed=7, n_walks=100, walk_len=20, top_k=5, top_s=3, pair_source="paths")
        ctx = PipelineContext(cfg)
        checked = 0
        for per_template in ctx.scored(run_seed_of(cfg, 0)).values():
            for group in per_template.values():
                for nodes, row in zip(node_lists(group), group.scores.tolist()):
                    assert tuple(row) == reference_score(nodes, group.walks.target_kc, ctx.graph), nodes
                    checked += 1
        assert checked == 65_800


def reference_path_score(path, target_kc, hop_of, kc_of):
    """``reference_score_walk`` on a path of nodes, each node indexed in sorted (kind, id) order,
    with ``path_prompt``'s reading of ``hop_of`` and ``kc_of`` (0 hops and no KC if absent)."""
    nodes = sorted(set(path))
    index = {node: i for i, node in enumerate(nodes)}
    hops = [hop_of.get(node_id, 0) for _, node_id in nodes]
    covers = [kind == "Q" and target_kc in kc_of.get(node_id, ()) for kind, node_id in nodes]
    return reference_score_walk([index[node] for node in path], nodes, [kind for kind, _ in nodes], hops, covers,
                                index.get(("K", target_kc)))


# ids whose sorted order differs from the order they are drawn in
DRAWN_IDS = st.text(alphabet="Zb0a_", min_size=1, max_size=2)
LEVELS = [tuple(category.split("_")) for category in LEVEL_CATEGORIES]


@st.composite
def drawn_paths(draw):
    """A path from a target question, with no graph behind it: any kinds in any order, q0 and the
    target KC among the nodes it may revisit, and each question's hop count (above any cap, or
    ``UNREACHABLE``) and KC set drawn, or left out."""
    q0, target_kc = draw(DRAWN_IDS), draw(DRAWN_IDS)
    questions = [q0, *draw(st.lists(DRAWN_IDS, max_size=4))]
    kcs = [target_kc, *draw(st.lists(DRAWN_IDS, max_size=3))]
    students = draw(st.lists(DRAWN_IDS, max_size=3))
    pool = [("Q", q) for q in questions] + [("K", k) for k in kcs] + [("U", u) for u in students] + LEVELS
    path = [("Q", q0), *draw(st.lists(st.sampled_from(pool), max_size=19))]
    on_path = sorted({node_id for kind, node_id in path if kind == "Q"})
    hop_of = {q: draw(st.one_of(st.integers(0, 40), st.just(mrhin.UNREACHABLE)))
              for q in on_path if draw(st.booleans()) or q == q0}
    kc_of = {q: frozenset(draw(st.sets(st.sampled_from(kcs)))) for q in on_path if draw(st.booleans())}
    return path, target_kc, hop_of, kc_of


class TestPathFormula:
    @settings(max_examples=500, deadline=None)
    @given(drawn=drawn_paths())
    @example(drawn=([("Q", "a")], "K", {"a": 0}, {}))  # no edge
    @example(drawn=([("Q", "a"), ("K", "K"), ("Q", "a"), ("K", "K"), ("Q", "b"), ("K", "K"), ("Q", "a")], "K",
                    {"a": 0, "b": 9}, {"a": frozenset({"K"})}))  # repeats of q0 and K*, no level node
    @example(drawn=([("Q", "b"), ("U", "u"), ("Q", "Z"), ("D", "Low"), ("Q", "a"), ("A", "High")], "K",
                    {"b": 0, "Z": mrhin.UNREACHABLE, "a": 2}, {"Z": frozenset({"K"})}))  # unreachable
    def test_equals_the_walk_reference_bit_for_bit(self, drawn):
        assert [x.hex() for x in mock_path_score(*drawn)] == [x.hex() for x in reference_path_score(*drawn)]

    def test_mock_replies_do_not_depend_on_the_string_hash_seed(self, tmp_path):
        # sets of ids iterate in string-hash order, which changes with PYTHONHASHSEED; the
        # centrality sum over a path's questions must not follow it
        path = tmp_path / "planted.csv"
        path.write_text(planted_csv(seed=1)[0], encoding="utf-8")
        script = "\n".join([
            "import hashlib, sys",
            "from hisekt.config import RunConfig",
            "from hisekt.evaluation import PipelineContext, run_seed_of",
            "from hisekt.pathscore import mock_score_replies, render_scoring_prompt",
            "cfg = RunConfig(data=sys.argv[1], seed=7, n_walks=20, walk_len=12)",
            "digest, count = hashlib.sha256(), 0",
            "for per_template in PipelineContext(cfg).instances(run_seed_of(cfg, 0)).values():",
            "    for group in per_template.values():",
            "        for k in range(len(group)):",
            "            digest.update(mock_score_replies([render_scoring_prompt(group, k)])[0].encode() + b'\\n')",
            "            count += 1",
            "print(count, digest.hexdigest())",
        ])
        src = str(Path(hisekt.__file__).resolve().parent.parent)
        runs = [
            subprocess.Popen([sys.executable, "-c", script, str(path)],
                             env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                             stdout=subprocess.PIPE, text=True)
            for hash_seed in ("0", "1")
        ]
        outputs = [run.communicate(timeout=120)[0].split() for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert outputs[0][0] == "13160" and len(outputs[0][1]) == 64
        assert outputs[0] == outputs[1]


def reference_scoring_prompt(nodes, target_kc, g):
    """The scoring prompt of a walk's ``(kind, id)`` nodes rendered line by line, one
    ``graph_distance`` per question node."""
    lines = [
        "### PATH QUALITY SCORING TASK ###",
        f"target_question: {nodes[0][1]}",
        f"target_kc: {target_kc}",
        "path:",
    ]
    length = len(nodes) - 1
    for idx, (kind, node_id) in enumerate(nodes, start=1):
        entry = f"  {idx}. {kind}:{node_id}"
        if kind == "Q":
            kcs = ";".join(sorted(g.question_kcs(node_id)))
            level = g.neighbors(("Q", node_id), "D")
            level_label = level[0][1] if level else "Medium"
            hops = graph_distance(g, nodes[0], ("Q", node_id), cap=max(length, 1))
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


def prompts_of(walks):
    """Each walk of a group as its ``(kind, id)`` nodes, with its scoring prompt rendered from its
    node ints."""
    return [(nodes, render_scoring_prompt(walks, k)) for k, nodes in enumerate(walk_nodes(walks))]


def edge_case_group(g, walk):
    """The one-walk Q-U-Q group of a ``"kind:id ..."`` node string toward K1."""
    return group_of(g, "Q-U-Q", [tuple(tuple(token.split(":")) for token in walk.split())], "K1")


def first_walk_prompt(g):
    """The scoring prompt of a Q-U-Q-K-Q walk on ``g``, and its lines."""
    walks = sample_instances(g, TEMPLATES["Q-U-Q-K-Q"], "Q1", n=1, walk_len=7, seed=3)
    [(_, prompt)] = prompts_of(walks)
    return prompt, prompt.split("\n")


class TestScoringPrompt:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_planted_prompt_equals_the_reference(self, tmp_path, seed):
        # the staged CLI's walk configuration on the acceptance fixture: each prompt is rendered as
        # the reference renders it and read back as the reference reader reads it
        path = tmp_path / "planted.csv"
        path.write_text(planted_csv(seed=seed)[0], encoding="utf-8")
        cfg = RunConfig(data=str(path), seed=7, n_walks=20, walk_len=12)
        ctx = PipelineContext(cfg)
        checked = 0
        for per_template in ctx.instances(run_seed_of(cfg, 0)).values():
            for group in per_template.values():
                for nodes, prompt in prompts_of(group):
                    assert prompt == reference_scoring_prompt(nodes, group.target_kc, ctx.graph), nodes
                    assert read_scoring_prompt(prompt) == reference_parse_scoring_prompt(prompt), nodes
                    checked += 1
        assert checked == 13_160

    def test_edge_case_prompts_equal_the_reference(self, g):
        # capped and unreachable hop counts, no A/D node, a walk with no edge
        eg = edge_case_graph()
        walks = ["Q:Q0 U:S1 Q:Q2", "Q:Q0 K:K9 Q:QFAR K:K9 Q:QFAR", "Q:Q0 U:S1 Q:Q1 U:S1 Q:Q0",
                 "Q:Q0 D:Low Q:Q1 U:S1 A:Low U:S2 Q:Q2 D:Medium Q:Q2", "Q:Q0"]
        for w in walks:
            [(nodes, prompt)] = prompts_of(edge_case_group(eg, w))
            assert prompt == reference_scoring_prompt(nodes, "K1", eg)
        walks = sample_instances(g, TEMPLATES["Q-K-Q-U-Q-D-Q-U-A-U-Q"], "Q5", n=20, walk_len=20, seed=4)
        for nodes, prompt in prompts_of(walks):
            assert prompt == reference_scoring_prompt(nodes, walks.target_kc, g)

    def test_concurrent_first_renders_equal_the_reference(self):
        # eight workers render on a fresh graph at once, so most prompts are rendered while
        # another thread is still building the graph's node lines; the groups' truncated walks
        # have other hop caps, so two threads may also build one table at once
        reference = build_fixture_graph()
        groups = [sample_instances(reference, TEMPLATES[name], "Q2", n=30, walk_len=12, seed=6)
                  for name in ("Q-U-A-U-Q", "Q-K-Q-D-Q")]
        walks = [(group, k) for group in groups for k in range(len(group))]
        expected = {i: reference_scoring_prompt(walk_nodes(group)[k], group.target_kc, reference)
                    for i, (group, k) in enumerate(walks)}
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                fresh = build_fixture_graph()
                on_fresh = {id(group): WalkGroup(fresh, group.template, group.target_question, group.target_kc,
                                                 group.rows) for group in groups}
                got = map_bounded(lambda item: render_scoring_prompt(on_fresh[id(item[0])], item[1]),
                                  dict(enumerate(walks)), 8)
                assert got == expected
        finally:
            sys.setswitchinterval(old_interval)

    def test_question_lines_are_shared_across_targets_and_caps(self, tmp_path):
        # the path lines of every target question under eleven hop caps: each question's line with a
        # hop count is one string, built once and shared by every key that shows that count
        path = tmp_path / "planted.csv"
        path.write_text(planted_csv(seed=1)[0], encoding="utf-8")
        g = PipelineContext(RunConfig(data=str(path), seed=7)).graph
        tables, questions, caps = pathscore.graph_tables(g), [q for _, q in g.nodes("Q")], range(1, 12)
        for q in questions:
            for cap in caps:
                tables.lines(g, q, cap)
        assert len(tables._lines) == len(questions) * len(caps)
        strings = {id(line) for lines in tables._lines.values() for line in lines}
        assert len(strings) <= len(g.node_ids) + len(questions) * (max(caps) + 1)

    def test_node_annotations_are_built_once_per_graph(self, monkeypatch):
        g = build_fixture_graph()
        walks = sample_instances(g, TEMPLATES["Q-U-A-U-Q"], "Q1", n=20, walk_len=20, seed=5)
        first = render_scoring_prompt(walks, 0)
        lookups = []
        for name in ("neighbors", "question_kcs"):
            monkeypatch.setattr(g, name, lambda *args, name=name: lookups.append(name))
        assert render_scoring_prompt(walks, 0) == first
        assert [prompt for _, prompt in prompts_of(walks)] == [
            reference_scoring_prompt(nodes, walks.target_kc, build_fixture_graph()) for nodes in walk_nodes(walks)]
        assert lookups == []


# id pieces that the old reader's separators are made of, and non-ASCII; no ";" (the KC
# delimiter), no line break, and no letter of "kcs", so no KC id holds " | kcs: "
ID_PIECES = st.sampled_from([": ", " | ", ":", "|", ".", ". ", " ", "0", "7", "Q", "U", "é", "\u0663", "\U0001F600"])
SEPARATOR_IDS = st.lists(ID_PIECES, min_size=1, max_size=5).map("".join)


class TestScoringPromptReader:
    @settings(max_examples=60, deadline=None)
    @given(new_ids=st.lists(SEPARATOR_IDS, min_size=16, max_size=16, unique=True),
           name=st.sampled_from(["Q-U-A-U-Q", "Q-K-Q-U-Q-D-Q", "Q-U-Q-K-Q-D-Q"]), seed=st.integers(0, 2**16))
    @example(new_ids=["Q | 3", "S | S005", "a: b", "K | 1", "x.y", "é", "\U0001F600", " | ", ": ", "|", "0", "7",
                      " ", ".", "U", "Q"], name="Q-K-Q-U-Q-D-Q", seed=0)
    def test_ids_with_separators_read_back(self, new_ids, name, seed):
        g = renamed_fixture_graph(new_ids)
        client = LlmClient(backend="mock")
        for q0 in sorted(node_id for kind, node_id in g.node_ids if kind == "Q"):
            walks = sample_instances(g, TEMPLATES[name], q0, n=6, walk_len=9, seed=seed)
            hops = hops_from(g, ("Q", q0))
            formula = score_all(walks, g)
            for k, ((nodes, prompt), expected) in enumerate(zip(prompts_of(walks), formula.scores.tolist())):
                cap = max(len(nodes) - 1, 1)
                questions = {node_id for kind, node_id in nodes if kind == "Q"}
                assert read_scoring_prompt(prompt) == (
                    list(nodes), walks.target_kc, {q: min(hops[g.index(("Q", q))], cap) for q in questions},
                    {q: g.question_kcs(q) for q in questions})
                if not any("|" in node_id for node_id in new_ids):  # the old reader split at every " | "
                    assert read_scoring_prompt(prompt) == reference_parse_scoring_prompt(prompt)
                assert score_one(walks, k, client) == tuple(expected)

    def test_planted_ids_with_separators_score_as_the_formula(self, tmp_path):
        # a question and two students of the acceptance fixture renamed to hold " | ": the old
        # reader failed on the question line and read both students as U:S
        csv = planted_csv(seed=1)[0]
        csv = re.sub(r"^(S00[57]),", r"S | \1,", csv.replace(",Q003,", ",Q | 3,"), flags=re.M)
        path = tmp_path / "planted.csv"
        path.write_text(csv, encoding="utf-8")
        cfg = RunConfig(data=str(path), seed=7, n_walks=20, walk_len=12, llm_backend="mock")
        ctx = PipelineContext(cfg)
        assert {("Q", "Q | 3"), ("U", "S | S005"), ("U", "S | S007")} <= set(ctx.graph.node_ids)
        run_seed = run_seed_of(cfg, 0)
        by_llm = ctx.scored(run_seed, replace(cfg, score_backend="llm"))
        by_formula = ctx.scored(run_seed, replace(cfg, score_backend="formula"))
        walks = 0
        for qid, per_template in by_formula.items():
            for name, group in per_template.items():
                assert by_llm[qid][name].scores.tobytes() == group.scores.tobytes(), (qid, name)
                walks += len(group)
        assert walks == 13_160

    @settings(max_examples=300, deadline=None)
    @given(prefix=st.tuples(
        st.sampled_from(["", " ", "  ", "   ", "\t ", " \t"]),
        st.text(alphabet="0123456789\u0663\u00b2\u2167a ", max_size=4),
        st.sampled_from([". ", ".", " .", ".. ", ". . ", ".\t"]),
    ).map("".join))
    @example(prefix="  3. ")
    @example(prefix="  . ")
    @example(prefix="  1.. ")
    @example(prefix="  \u0663. ")
    @example(prefix="  03. ")
    @example(prefix="  12. ")
    def test_a_path_line_is_read_only_under_its_own_number(self, prefix, g):
        # the old reader took any "  <decimal digits>. " (re.match(r"^  \d+\. ", line)), Unicode
        # digits included; the reader takes path line n only after "  n. ", as rendered
        walks = sample_instances(g, TEMPLATES["Q-U-Q-K-Q"], "Q1", n=1, walk_len=7, seed=3)
        [(_, prompt)] = prompts_of(walks)
        line = prompt.splitlines()[6]
        assert line.startswith("  3. Q:")
        changed = prompt.replace(line, prefix + line[len("  3. "):])
        if prefix == "  3. ":
            assert read_scoring_prompt(changed) == reference_parse_scoring_prompt(changed)
        else:
            with pytest.raises(TransportError, match="path line"):
                read_scoring_prompt(changed)

    @pytest.mark.parametrize("cut", ["path block", "hops_from_target", "ability_level", "kind"])
    def test_a_prompt_not_laid_out_as_rendered_fails_naming_the_line(self, cut, g):
        walks = sample_instances(g, TEMPLATES["Q-U-Q-K-Q"], "Q1", n=1, walk_len=7, seed=3)
        [(_, prompt)] = prompts_of(walks)
        lines = prompt.splitlines()
        if cut == "path block":
            changed, named = prompt.replace("\npath:\n", "\n"), "no target_kc line followed by a path block"
        elif cut == "hops_from_target":
            named = lines[4]
            changed = prompt.replace(named, re.sub(r" \| hops_from_target: \d+$", "", named))
            named = named.rsplit(" | ", 1)[0]
        elif cut == "ability_level":
            named = next(line for line in lines if " U:" in line)
            changed = prompt.replace(named, named.rsplit(" | ", 1)[0])
            named = named.rsplit(" | ", 1)[0]
        else:
            named = next(line for line in lines if " K:" in line)
            changed = prompt.replace(named, named.replace(" K:", " X:"))
            named = named.replace(" K:", " X:")
        for read in (read_scoring_prompt, MockTransport(), LlmClient(backend="mock").complete):
            with pytest.raises(TransportError) as err:
                read(changed)
            assert str(err.value).startswith("mock transport cannot read this scoring prompt: ")
            assert named in str(err.value) or repr(named) in str(err.value)

    @pytest.mark.parametrize("body", [
        # a level id the six categories do not hold: the formulas would fail on it
        "A:Bogus", "D:", "A:low", "D:High ", "A:Medium:",
        "Q:Q1 | kcs: K1 | difficulty_level: Bogus | hops_from_target: 1", "U:S1 | ability_level: ",
        # a hop count int() takes but the renderer never writes
        *(f"Q:Q1 | kcs: K1 | difficulty_level: Low | hops_from_target: {hops}"
          for hops in ["\u0663", "1_0", "-1", " 0", "+0", "0 ", "\u00b2", ""]),
        # an empty id, or a student line without its separator
        "K:", "Q: | kcs: K1 | difficulty_level: Low | hops_from_target: 1", "U: | ability_level: High",
        "U:ability_level: High",
    ])
    def test_a_line_the_formulas_cannot_take_fails_naming_it(self, body, g):
        _, lines = first_walk_prompt(g)
        assert lines[6].startswith("  3. Q:")
        lines[6] = "  3. " + body
        changed = "\n".join(lines)
        for read in (read_scoring_prompt, MockTransport(), LlmClient(backend="mock").complete):
            with pytest.raises(TransportError) as err:
                read(changed)
            assert str(err.value) == f"mock transport cannot read this scoring prompt: path line {lines[6]!r}"

    @pytest.mark.parametrize("bodies", [
        ["K:K1"],  # no question on the path: the formulas would divide by zero
        ["A:Low", "D:High", "A:Medium"],
        ["U:S1 | ability_level: Low", "Q:Q1 | kcs: K1 | difficulty_level: Low | hops_from_target: 0"],
        ["Q:Q2 | kcs: K1 | difficulty_level: Low | hops_from_target: 1",
         "Q:Q1 | kcs: K1 | difficulty_level: Low | hops_from_target: 0"],
    ])
    def test_a_path_that_does_not_start_at_the_target_question_fails_naming_its_first_line(self, bodies, g):
        prompt, lines = first_walk_prompt(g)
        assert lines[1] == "target_question: Q1"
        rubric = lines.index("", 4)
        changed = "\n".join([*lines[:4], *(f"  {n}. {body}" for n, body in enumerate(bodies, 1)), *lines[rubric:]])
        for read in (read_scoring_prompt, MockTransport(), LlmClient(backend="mock").complete):
            with pytest.raises(TransportError) as err:
                read(changed)
            assert str(err.value) == ("mock transport cannot read this scoring prompt: "
                                      f"path line '  1. {bodies[0]}' is not the question of the target_question line")

    @pytest.mark.parametrize("question_line", ["", "target_question: Q2\n", "target_question: Q1 \n",
                                               "target_question:Q1\n", "x\ntarget_question: Q1\n"])
    def test_a_prompt_without_the_path_start_in_its_target_question_line_fails(self, question_line, g):
        prompt, lines = first_walk_prompt(g)
        changed = prompt.replace("target_question: Q1\n", question_line)
        for read in (read_scoring_prompt, MockTransport(), LlmClient(backend="mock").complete):
            with pytest.raises(TransportError) as err:
                read(changed)
            assert str(err.value).endswith(f"path line {lines[4]!r} is not the question of the target_question line")


# ids without " | ", which the old reader split at; none is empty
PLAIN_IDS = st.lists(st.sampled_from([": ", ":", ".", ". ", " ", "0", "7", "Q", "U", "é", "\u0663"]),
                     min_size=1, max_size=4).map("".join)


@pytest.fixture(scope="module")
def warm_transport():
    """One mock transport for every example of a test, so it reads most of them warm."""
    return MockTransport()


class TestPathLineMemo:
    def test_a_stored_line_is_read_only_under_its_own_number(self, g):
        prompt, lines = first_walk_prompt(g)
        mock = MockTransport()
        reply = mock(prompt)
        stored = lines[6]
        assert stored.startswith("  3. ") and mock._path_lines[stored][0] == 3
        # the stored line at position 5 (a memo hit under another number), and its text
        # renumbered "  5. " at position 3 (a miss): each is refused as a fresh read refuses it
        for position, changed in ((5, lines[:8] + [stored] + lines[9:]),
                                  (3, lines[:6] + ["  5. " + stored[5:]] + lines[7:])):
            for read in (mock, lambda text: read_scoring_prompt(text, mock._path_lines), read_scoring_prompt):
                with pytest.raises(TransportError) as err:
                    read("\n".join(changed))
                assert str(err.value).endswith(f"path line {changed[position + 3]!r}")
        assert mock._path_lines[stored][0] == 3
        assert mock(prompt) == reply

    def test_a_line_that_fails_is_never_stored(self, g):
        prompt, lines = first_walk_prompt(g)
        lines[6] = "  3. A:Bogus"
        changed = "\n".join(lines)
        memo = {}
        mock = MockTransport()
        for _ in range(3):
            for read in (mock, lambda text: read_scoring_prompt(text, memo)):
                with pytest.raises(TransportError, match="A:Bogus"):
                    read(changed)
        # the two lines before it read and are stored, by the whole numbered line; the bad one is not
        assert list(memo) == list(mock._path_lines) == lines[4:6]

    def test_each_transport_reads_its_own_lines_once(self, g, monkeypatch):
        read_line, parsed = pathscore._read_path_line, []
        monkeypatch.setattr(pathscore, "_read_path_line", lambda body: parsed.append(body) or read_line(body))
        walks = sample_instances(g, TEMPLATES["Q-U-A-U-Q"], "Q1", n=20, walk_len=12, seed=5)
        prompts = [prompt for _, prompt in prompts_of(walks)]
        numbered = [line for prompt in prompts for line in prompt.split("\n") if re.match(r"  \d+\. ", line)]
        distinct = set(numbered)
        # each distinct numbered line's text is parsed once, under each number it stands at
        bodies = sorted(line[line.index(". ") + 2:] for line in distinct)
        first, second = LlmClient(backend="mock"), LlmClient(backend="mock")
        replies = [first.complete(prompt) for prompt in prompts]
        assert sorted(parsed) == bodies and len(distinct) < len(numbered)
        assert set(first.transport._path_lines) == distinct
        assert all(first.transport._path_lines[line][0] == int(line.split(".")[0]) for line in distinct)
        parsed.clear()
        assert [first.complete(prompt) for prompt in prompts] == replies and parsed == []
        assert second.transport._path_lines == {}
        assert [second.complete(prompt) for prompt in prompts] == replies
        assert sorted(parsed) == bodies
        assert replies == [MockTransport()(prompt) for prompt in prompts]

    @settings(max_examples=60, deadline=None)
    @given(new_ids=st.lists(PLAIN_IDS, min_size=14, max_size=14, unique=True),
           name=st.sampled_from(["Q-U-A-U-Q", "Q-K-Q-U-Q-D-Q", "Q-U-Q-K-Q-D-Q", "Q-K-Q-D-Q"]),
           q0=st.integers(0, 3), seed=st.integers(0, 2**16))
    def test_warm_reads_equal_a_fresh_read(self, warm_transport, new_ids, name, q0, seed):
        g = renamed_fixture_graph(new_ids)
        target = sorted(node_id for kind, node_id in g.node_ids if kind == "Q")[q0]
        for _, prompt in prompts_of(sample_instances(g, TEMPLATES[name], target, n=6, walk_len=9, seed=seed)):
            assert (read_scoring_prompt(prompt, warm_transport._path_lines) == read_scoring_prompt(prompt)
                    == reference_parse_scoring_prompt(prompt))
            assert warm_transport(prompt) == MockTransport()(prompt)


@pytest.fixture(scope="module")
def stage_prompts(tmp_path_factory):
    """The scoring stage's walk groups and prompts on a small planted dataset, more walks than one
    block, with each prompt's mock reply alone."""
    path = tmp_path_factory.mktemp("data") / "planted.csv"
    path.write_text(planted_csv(n_bands=3, students_per_band=12, questions_per_band=10, seed=3)[0], encoding="utf-8")
    cfg = RunConfig(data=str(path), seed=5, n_walks=4, walk_len=8)
    groups = [group for per_template in PipelineContext(cfg).instances(run_seed_of(cfg, 0)).values()
              for group in per_template.values()]
    prompts = [render_scoring_prompt(group, k) for group in groups for k in range(len(group))]
    assert len(prompts) > pathscore.SCORE_BLOCK
    return groups, prompts, [MockTransport()(prompt) for prompt in prompts]


def formula_scores(groups):
    """The formula scores of walk groups of any tables, each group's rows one after another."""
    return np.concatenate([score_all(group, group.graph).scores for group in groups])


class RecordingMock(MockTransport):
    """The mock transport, recording the size of each block it is asked to answer."""

    def __init__(self):
        super().__init__()
        self.blocks = []

    def many(self, prompts):
        self.blocks.append(len(prompts))
        return super().many(prompts)


def conflicting(g, how):
    """The prompt of a walk on ``g`` that visits Q1 twice, its second Q1 line changed ``how``, and
    the node named in the refusal."""
    [(_, prompt)] = prompts_of(edge_case_group(g, "Q:Q1 U:S1 Q:Q2 U:S1 Q:Q1"))
    lines = prompt.split("\n")
    original = lines[8]
    assert original.startswith("  5. Q:Q1 | kcs: ")
    if how == "hops":
        lines[8] = re.sub(r"hops_from_target: \d+$", "hops_from_target: 3", lines[8])
    elif how == "kcs":
        lines[8] = lines[8].replace(" | kcs: ", " | kcs: K9;")
    else:
        lines[8] = re.sub(r"difficulty_level: \w+", "difficulty_level: High", lines[8])
    assert lines[8] != original
    return "\n".join(lines), "Q:Q1"


class TestMockBlocks:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_block_reply_equals_the_reply_alone(self, stage_prompts, data):
        _, prompts, alone = stage_prompts
        picked = data.draw(st.lists(st.integers(0, len(prompts) - 1), min_size=1, max_size=60))
        assert MockTransport().many([prompts[i] for i in picked]) == [alone[i] for i in picked]

    def test_the_stage_in_blocks_equals_the_replies_alone_and_the_formula(self, stage_prompts):
        groups, prompts, alone = stage_prompts
        mock = MockTransport()
        assert [reply for start in range(0, len(prompts), 1000) for reply in mock.many(prompts[start:start + 1000])] \
            == alone
        by_llm = score_llm(groups, LlmClient(backend="mock"))
        assert np.concatenate([s.scores for s in by_llm]).tobytes() == formula_scores(groups).tobytes()

    def test_the_stage_makes_one_hop_search(self, monkeypatch):
        """Every target question's hop row comes from one ``Mrhin.hops`` call, and the prompts are those
        rendered on a graph whose rows are searched one question at a time."""
        questions = sorted(node_id for kind, node_id in build_fixture_graph().node_ids if kind == "Q")
        groups, alone = ([sample_instances(g, TEMPLATES[name], q, n=4, walk_len=9, seed=3)
                          for q in questions for name in ("Q-U-Q", "Q-K-Q-U-Q-D-Q")]
                         for g in (build_fixture_graph(), build_fixture_graph()))
        expected = [render_scoring_prompt(group, k) for group in alone for k in range(len(group))]
        hops, calls, sent = Mrhin.hops, [], []
        monkeypatch.setattr(Mrhin, "hops", lambda g, sources: calls.append(len(sources)) or hops(g, sources))
        mock = MockTransport()
        score_llm(groups, LlmClient(backend="mock", transport=lambda prompt: sent.append(prompt) or mock(prompt)))
        assert calls == [len(questions)] and len(questions) > 1
        assert sent == expected

    @pytest.mark.parametrize("position", [0, 3, 9])
    def test_a_bad_prompt_fails_its_block_as_it_fails_alone(self, stage_prompts, position):
        _, prompts, _ = stage_prompts
        lines = prompts[0].split("\n")
        lines[6] = lines[6][:5] + "A:Bogus"
        bad = "\n".join(lines)
        with pytest.raises(TransportError) as alone:
            MockTransport()(bad)
        assert str(alone.value) == f"mock transport cannot read this scoring prompt: path line {lines[6]!r}"
        block = prompts[1:10]
        block.insert(position, bad)
        with pytest.raises(TransportError) as err:
            MockTransport().many(block)
        assert str(err.value) == str(alone.value)

    @pytest.mark.parametrize("how", ["hops", "kcs", "level"])
    def test_a_node_written_two_ways_is_refused(self, stage_prompts, how):
        prompt, node = conflicting(edge_case_graph(), how)
        _, prompts, _ = stage_prompts
        for read in (MockTransport(), read_scoring_prompt, lambda text: MockTransport().many([*prompts[:5], text])):
            with pytest.raises(TransportError) as err:
                read(prompt)
            assert str(err.value) == f"mock transport cannot read this scoring prompt: node {node} is written two ways"

    @pytest.mark.parametrize("block", [None, 100])
    def test_a_transport_with_many_never_sees_more_than_a_block(self, stage_prompts, monkeypatch, block):
        groups, prompts, _ = stage_prompts
        if block:
            monkeypatch.setattr(pathscore, "SCORE_BLOCK", block)
        mock = RecordingMock()
        by_llm = score_llm(groups, LlmClient(backend="mock", transport=mock))
        size = pathscore.SCORE_BLOCK
        assert mock.blocks == [size] * (len(prompts) // size) + [len(prompts) % size] * bool(len(prompts) % size)
        assert np.concatenate([s.scores for s in by_llm]).tobytes() == formula_scores(groups).tobytes()

    @pytest.mark.parametrize("with_many", [False, True])
    def test_an_unreadable_reply_is_sent_again_for_its_walk_only(self, stage_prompts, with_many):
        groups, prompts, alone = stage_prompts
        index = pathscore.SCORE_BLOCK + 3  # a walk of the second block
        garbled = prompts[index]
        reply = dict(zip(prompts, alone))
        asked = []

        def answer(prompt):
            asked.append(prompt)
            return "no scores here" if prompt == garbled and asked.count(prompt) == 1 else reply[prompt]

        class Scripted:
            def __call__(self, prompt):
                return answer(prompt)

        class ScriptedMany(Scripted):
            def many(self, block):
                return list(map(answer, block))

        by_llm = score_llm(groups, LlmClient(backend="mock", transport=(ScriptedMany if with_many else Scripted)()))
        end = min(len(prompts), 2 * pathscore.SCORE_BLOCK)  # sent again before the next block
        assert asked == prompts[:end] + [garbled] + prompts[end:]
        assert np.concatenate([s.scores for s in by_llm]).tobytes() == formula_scores(groups).tobytes()
