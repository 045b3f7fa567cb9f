import dataclasses
import gc
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hisekt import predict as predict_mod
from hisekt.config import RunConfig
from hisekt.errors import PredictionError, TransportError
from hisekt.evaluation import PipelineContext, run_experiment
from hisekt.irt import IrtModel, Level, probability
from hisekt.llm import LlmClient
from hisekt.predict import (
    MASK_IRT,
    MASK_SIMU,
    PREDICTION_PROMPT_HEADER,
    REPLY_CLOSE,
    REPLY_OPEN,
    build_prompt,
    count_sentences,
    mock_prediction_reply,
    mock_reply,
    predict,
)
from hisekt.retrieval import student_tables
from hisekt.synth import planted_csv

from prompt_reference import (HistoryRow, PeerInfo, ReferenceBundle, parse_prompt, reference_build_prompt,
                              reference_mock_reply)
from support import (CutPromptBundle, Interaction, dataset_of, interactions, reference_parse_reply, scripted_client,
                     split_labels)

GOLDEN = Path(__file__).parent / "golden"
MOCK = LlmClient(backend="mock")


def golden_inputs():
    """Fixed dataset/model for the frozen prompt: peer history fully overlaps the target's."""
    kcs = {"QT": frozenset({"K1"}), "QA": frozenset({"K1"}), "QB": frozenset({"K1", "K2"}),
           "QC": frozenset({"K2"})}
    rows = []
    splits = []

    def add(student, question, correct, ts, split="train"):
        rows.append(Interaction(student, question, kcs[question], correct, ts))
        splits.append(split)

    # target student SA: three train interactions, then the test target QT
    add("SA", "QA", True, 1)
    add("SA", "QB", False, 2)
    add("SA", "QC", True, 3)
    add("SA", "QT", False, 9, split="test")
    # peer SP answered exactly the same questions in the same order
    add("SP", "QA", True, 1)
    add("SP", "QB", False, 2)
    add("SP", "QC", True, 3)
    add("SP", "QT", False, 9, split="train")
    d = dataset_of(rows, splits)
    m = IrtModel(
        theta={"SA": 0.25, "SP": 0.25},
        disc={"QT": 1.5, "QA": 1.0, "QB": 0.75, "QC": 1.25},
        diff={"QT": 0.5, "QA": -0.5, "QB": 0.0, "QC": 1.0},
        ability_level={"SA": Level.MEDIUM, "SP": Level.MEDIUM},
        difficulty_level={"QT": Level.HIGH, "QA": Level.LOW, "QB": Level.MEDIUM, "QC": Level.HIGH},
        ability_mu=0.25,
        ability_sigma=0.1,
        difficulty_mu=0.25,
        difficulty_sigma=0.5,
    )
    return d, m


def edited(m, **tables):
    """A copy of ``m`` with the given ids of its tables set to new values: a model's tables are read-only."""
    return dataclasses.replace(m, **{name: {**getattr(m, name), **values} for name, values in tables.items()})


def golden_bundle(mask=frozenset()):
    d, m = golden_inputs()
    return build_prompt("SA", "QT", ["SP"], m, d, mask=mask, window=20)


class TestPromptStructure:
    def test_three_sections_in_fixed_order(self):
        text = golden_bundle().text
        i_student = text.index("=== TARGET STUDENT ===")
        i_question = text.index("=== TARGET QUESTION ===")
        i_peers = text.index("=== SIMILAR STUDENTS ===")
        i_task = text.index("=== TASK ===")
        assert i_student < i_question < i_peers < i_task

    def test_simu_mask_removes_only_peers(self):
        full = golden_bundle()
        masked = golden_bundle(mask=frozenset({MASK_SIMU}))
        assert masked.peers_block is None
        assert "=== SIMILAR STUDENTS ===" not in masked.text
        assert masked.target_block == full.target_block
        assert masked.question_block == full.question_block

    def test_irt_mask_removes_parameter_fields(self):
        masked = golden_bundle(mask=frozenset({MASK_IRT}))
        for token in ("ability:", "difficulty:", "discrimination:", "ability_level:", "difficulty_level:"):
            assert token not in masked.text
        assert "student_accuracy_on_target_kc:" in masked.text

    def test_masks_are_orthogonal(self):
        both = golden_bundle(mask=frozenset({MASK_SIMU, MASK_IRT}))
        irt_only = golden_bundle(mask=frozenset({MASK_IRT}))
        simu_only = golden_bundle(mask=frozenset({MASK_SIMU}))
        assert both.peers_block is None
        assert both.target_block == irt_only.target_block
        assert both.question_block == irt_only.question_block
        assert "ability:" not in both.text and "ability:" in simu_only.text

    def test_rendering_is_deterministic(self):
        assert golden_bundle().text == golden_bundle().text

    def test_matches_golden_file(self):
        expected = (GOLDEN / "prompt_full.txt").read_text(encoding="utf-8")
        assert golden_bundle().text + "\n" == expected

    def test_cold_start_flag_for_a_cold_question(self):
        d, m = golden_inputs()
        assert "cold_start" not in golden_bundle().text
        m = dataclasses.replace(m, cold_start_questions=frozenset({"QT"}))
        bundle = build_prompt("SA", "QT", [], m, d)
        fields = parse_prompt(bundle.text)
        assert fields["cold_start"] is True
        assert "\ndifficulty_level: High\ncold_start: true" in bundle.text
        assert (fields["difficulty"], fields["discrimination"]) == (0.5, 1.5)  # the model's values, as given
        assert "cold_start" not in build_prompt("SA", "QT", [], m, d, mask=frozenset({MASK_IRT})).text

    @pytest.mark.parametrize("table", ["theta", "ability_level", "diff", "disc", "difficulty_level"])
    def test_a_model_that_lacks_an_id_raises_key_error(self, table):
        d, m = golden_inputs()
        missing = "SA" if table in ("theta", "ability_level") else "QT"
        m = dataclasses.replace(m, **{table: {k: v for k, v in getattr(m, table).items() if k != missing}})
        with pytest.raises(KeyError):
            build_prompt("SA", "QT", [], m, d)

    def test_window_limits_history(self):
        d, m = golden_inputs()
        history = parse_prompt(build_prompt("SA", "QT", [], m, d, window=2).text)["history"]
        assert len(history) == 2
        assert history[-1]["question_id"] == "QC"

    def test_window_zero_renders_no_rows(self):
        d, m = golden_inputs()
        bundle = build_prompt("SA", "QT", ["SP"], m, d, window=0)
        assert parse_prompt(bundle.text)["history"] == []
        assert "recent_interactions: 0\n=== TARGET QUESTION ===" in bundle.text
        assert "\n  - question: " not in bundle.text

    def test_negative_window_is_rejected(self):
        d, m = golden_inputs()
        with pytest.raises(ValueError, match="window"):
            build_prompt("SA", "QT", [], m, d, window=-1)


class TestPromptRoundTrip:
    def test_parser_recovers_every_field(self):
        d, m = golden_inputs()
        bundle = reference_build_prompt("SA", "QT", ["SP"], m, d)
        fields = parse_prompt(golden_bundle().text)
        assert fields["target_student"] == "SA"
        assert fields["theta"] == bundle.theta
        assert fields["ability_level"] == "Medium"
        assert fields["question_id"] == "QT"
        assert fields["question_kcs"] == ("K1",)
        assert fields["target_kc"] == "K1"
        assert fields["student_kc_accuracy"] == bundle.student_kc_accuracy
        assert fields["difficulty"] == 0.5
        assert fields["discrimination"] == 1.5
        assert fields["difficulty_level"] == "High"
        assert len(fields["history"]) == 3
        assert fields["history"][0] == {
            "question_id": "QA",
            "kcs": ("K1",),
            "correct": True,
            "timestamp": 1,
            "difficulty": -0.5,
            "discrimination": 1.0,
            "difficulty_level": "Low",
        }
        peer = fields["peers"][0]
        assert peer["student_id"] == "SP"
        assert peer["theta"] == 0.25
        assert peer["target_kc_accuracy"] == bundle.peers[0].target_kc_accuracy
        assert peer["overall_accuracy"] == bundle.peers[0].overall_accuracy
        assert peer["history"] == [("QA", True, 1), ("QB", False, 2), ("QT", False, 9)]

    def test_masked_prompt_parses_without_irt(self):
        fields = parse_prompt(golden_bundle(mask=frozenset({MASK_IRT})).text)
        assert "theta" not in fields or fields.get("has_irt") is False
        assert fields["student_kc_accuracy"] is not None


class TestSentenceCounting:
    def test_decimals_do_not_split_sentences(self):
        assert count_sentences("The value is 0.35 now. Next one. Third!") == 3

    def test_terminal_punctuation_variants(self):
        assert count_sentences("One. Two? Three!") == 3
        assert count_sentences("Only one sentence.") == 1


class TestMockPredict:
    def test_midpoint_no_peers_is_correct_by_tie_rule(self):
        d, m = golden_inputs()
        m = edited(m, theta={"SA": 0.5})  # equal to QT difficulty
        bundle = build_prompt("SA", "QT", [], m, d)
        pred = predict(bundle, MOCK)
        assert pred.p_correct == pytest.approx(0.5)
        assert pred.outcome == "correct"
        assert pred.confidence == pytest.approx(0.5)

    def test_zero_accuracy_peers_pull_to_wrong(self):
        d, m = golden_inputs()
        m = edited(m, theta={"SA": 0.5})
        # make the peer's target-KC history all wrong
        rows = [
            Interaction(
                i.student_id,
                i.question_id,
                i.kc_ids,
                False if (i.student_id == "SP" and "K1" in i.kc_ids) else i.correct,
                i.timestamp,
            )
            for i in interactions(d)
        ]
        d2 = dataset_of(rows, split_labels(d))
        bundle = build_prompt("SA", "QT", ["SP"], m, d2)
        pred = predict(bundle, MOCK)
        assert pred.p_correct == pytest.approx(0.7 * 0.5 + 0.3 * 0.0)
        assert pred.outcome == "wrong"
        assert pred.confidence == pytest.approx(0.65)

    def test_neutral_peers_change_nothing(self):
        d, m = golden_inputs()
        m = edited(m, theta={"SA": 0.5})
        # peer accuracy on K1 exactly 0.5 equals the base probability
        rows = []
        for i in interactions(d):
            correct = i.correct
            if i.student_id == "SP":
                correct = i.question_id in ("QA",)  # one right, one wrong on K1... QT wrong
            rows.append(Interaction(i.student_id, i.question_id, i.kc_ids, correct, i.timestamp))
        d2 = dataset_of(rows, split_labels(d))
        bundle = build_prompt("SA", "QT", ["SP"], m, d2)
        masked = build_prompt("SA", "QT", ["SP"], m, d2, mask=frozenset({MASK_SIMU}))
        peer_acc = parse_prompt(bundle.text)["peers"][0]["target_kc_accuracy"]
        if peer_acc == pytest.approx(0.5):
            assert predict(bundle, MOCK).p_correct == pytest.approx(predict(masked, MOCK).p_correct)

    def test_monotone_in_theta(self):
        d, m = golden_inputs()
        previous = -1.0
        for theta in (-2.0, -0.5, 0.0, 0.5, 2.0):
            p = predict(build_prompt("SA", "QT", [], edited(m, theta={"SA": theta}), d), MOCK).p_correct
            assert p > previous
            previous = p

    def test_base_is_response_model_probability(self):
        d, m = golden_inputs()
        bundle = build_prompt("SA", "QT", [], m, d)
        assert predict(bundle, MOCK).p_correct == pytest.approx(probability(0.25, 1.5, 0.5))

    def test_irt_mask_falls_back_to_kc_accuracy(self):
        d, m = golden_inputs()
        bundle = build_prompt("SA", "QT", [], m, d, mask=frozenset({MASK_IRT}))
        assert predict(bundle, MOCK).p_correct == pytest.approx(parse_prompt(bundle.text)["student_kc_accuracy"])

    def test_report_has_three_sentences(self):
        pred = predict(golden_bundle(), MOCK)
        assert count_sentences(pred.report) == 3

    def test_consistency_relation(self):
        pred = predict(golden_bundle(), MOCK)
        expected = pred.confidence if pred.outcome == "correct" else 1 - pred.confidence
        assert pred.p_correct == pytest.approx(expected, abs=1e-12)


class TestPredictClient:
    def test_mock_transport_equals_direct_mock(self):
        bundle = golden_bundle()
        via_client = predict(bundle, LlmClient(backend="mock"))
        direct = predict(bundle, scripted_client([mock_prediction_reply(bundle.text)]))
        assert via_client.outcome == direct.outcome
        assert via_client.confidence == direct.confidence
        assert via_client.p_correct == direct.p_correct
        assert via_client.report == direct.report

    def test_wrong_outcome_inverts_p_correct(self):
        reply = "\n".join(
            [
                "<<<PREDICTION",
                "outcome: wrong",
                "confidence: 0.8",
                "report: One thing. Two things. Three things.",
                "PREDICTION>>>",
            ]
        )
        pred = predict(golden_bundle(), scripted_client([reply]))
        assert pred.p_correct == pytest.approx(0.2)

    def test_short_report_retries_then_errors(self):
        bad = "\n".join(
            ["<<<PREDICTION", "outcome: correct", "confidence: 0.9",
             "report: Only one. And two.", "PREDICTION>>>"]
        )
        good = bad.replace("Only one. And two.", "One. Two. Three.")
        pred = predict(golden_bundle(), scripted_client([bad, good]))
        assert pred.report == "One. Two. Three."
        with pytest.raises(PredictionError) as err:
            predict(golden_bundle(), scripted_client([bad, bad, bad], max_retries=3))
        assert "Only one" in err.value.transcript

    def test_prose_reply_errors_with_transcript(self):
        with pytest.raises(PredictionError) as err:
            predict(golden_bundle(), scripted_client(["no block"] * 3, max_retries=3))
        assert "no block" in err.value.transcript

    def test_retrying_is_logged_only_before_a_resend(self, caplog):
        with caplog.at_level("WARNING"), pytest.raises(PredictionError) as err:
            predict(golden_bundle(), scripted_client(["no block", "still no block"], max_retries=2))
        assert err.value.transcript == "no block\n---\nstill no block"
        assert [r.getMessage() for r in caplog.records] == [
            "malformed prediction reply (no prediction block in reply); retrying"]

    def test_out_of_range_confidence_clamped(self, caplog):
        reply = "\n".join(
            ["<<<PREDICTION", "outcome: correct", "confidence: 1.7",
             "report: A. B. C.", "PREDICTION>>>"]
        )
        with caplog.at_level("WARNING"):
            pred = predict(golden_bundle(), scripted_client([reply]))
        assert pred.confidence == 1.0
        assert "clamped" in caplog.text

    def test_mock_reply_is_parseable_block(self):
        reply = mock_prediction_reply(golden_bundle().text)
        assert reply.startswith("<<<PREDICTION")
        assert reply.rstrip().endswith("PREDICTION>>>")

    def test_mock_peer_mean_adds_left_to_right(self):
        # these accuracies add to 2.166666666666667 left to right, but to 2.1666666666666665 in the
        # compensated built-in sum() of Python 3.12 on, which would give confidence 0.6083333333333334
        peers = [{"target_kc_accuracy": acc, "overall_accuracy": 0.5}
                 for acc in (0.8333333333333334, 1.0, 0.3333333333333333)]
        fields = {"target_student": "S1", "question_id": "Q1", "target_kc": "K1", "student_kc_accuracy": 0.25,
                  "peers": peers}
        assert "confidence: 0.6083333333333333" in mock_reply(fields).splitlines()


# -- the reply reader against the regex it replaces ----------------------------

# pieces of a reply: markers whole, cut and run together; field lines valid and not; ASCII and Unicode whitespace
markers = st.sampled_from([REPLY_OPEN, REPLY_CLOSE, "<<<PREDICTION>>>", "<<<PREDICTIONPREDICTION>>>", "<<<PRED",
                           "ICTION>>>", "PREDICTION", "<<<", ">>>"])
field_lines = st.sampled_from([
    "outcome: correct", "outcome: wrong", "outcome:wrong ", "outcome: maybe", "confidence: 0.75", "confidence: 1.5",
    "confidence: -0.25", "confidence:1e-3", "confidence: 1.2.3", "confidence: .", "report: One. Two. Three.",
    "report: A. B.", "report: x! y? z.", "report:", "Report: A. B. C."])
spaces = st.sampled_from(["\n", " ", "\t", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u2028",
                          "\u3000"])
noise = st.lists(st.one_of(markers, field_lines, spaces, st.text(alphabet="ab .!?:\n\xa0", max_size=6)),
                 max_size=6).map("".join)
# a block's lines: the three a reply needs in any order, or any field lines
bodies = st.builds(str.join, spaces, st.permutations(["outcome: wrong", "confidence: 0.25", "report: A. B. C."])
                   | st.lists(field_lines, max_size=5))
replies = st.tuples(noise, st.just(REPLY_OPEN) | st.just("") | markers, st.lists(spaces, max_size=2).map("".join),
                    bodies, st.lists(spaces, max_size=2).map("".join), st.just(REPLY_CLOSE) | st.just("") | markers,
                    noise).map("".join)


def read_or_error(parse, reply):
    try:
        return parse(reply)
    except ValueError as exc:
        return ValueError, str(exc)


class TestReplyReader:
    @settings(max_examples=3000, deadline=None)
    @given(replies)
    def test_equals_the_regex_reader(self, reply):
        assert read_or_error(predict_mod._parse_reply, reply) == read_or_error(reference_parse_reply, reply)

    @pytest.mark.parametrize("reply", [
        f"{REPLY_OPEN}\x1c\noutcome: correct\nconfidence: 0.5\nreport: A. B. C.\u2003{REPLY_CLOSE}",
        f"{REPLY_OPEN}outcome: wrong\nconfidence: 1\nreport: A. B. C.{REPLY_CLOSE} {REPLY_CLOSE}",
        f"{REPLY_OPEN}>>> {REPLY_OPEN}\noutcome: wrong\nconfidence: 0\nreport: A. B. C.\n{REPLY_CLOSE}",
        "<<<PREDICTION>>>\noutcome: wrong\nconfidence: 0\nreport: A. B. C.\n",
    ])
    def test_markers_that_overlap_or_repeat(self, reply):
        assert read_or_error(predict_mod._parse_reply, reply) == read_or_error(reference_parse_reply, reply)


# -- prompts from per-student tables ------------------------------------------


def edge_inputs():
    """The golden inputs plus SN, who has a test row and no train rows, SX, who is in no row, and
    SK, whose only train row is on K2; the model gives SN and SX the prior ``irt.fit`` gives a cold
    student."""
    d, m = golden_inputs()
    extra = [Interaction("SN", "QT", frozenset({"K1"}), True, 5), Interaction("SK", "QC", frozenset({"K2"}), False, 4)]
    rows = [*interactions(d), *extra]
    splits = [*split_labels(d), "test", "train"]
    m = edited(m, theta={"SN": 0.0, "SX": 0.0, "SK": -0.25},
               ability_level={"SN": Level.MEDIUM, "SX": Level.MEDIUM, "SK": Level.LOW})
    return dataset_of(rows, splits), dataclasses.replace(m, cold_start_students=frozenset({"SN"}))


class TestStudentFacts:
    def test_bundles_equal_the_row_scan(self):
        """Each prompt's text is the reference's, on a cold memo, on that memo warm, and on one memo
        shared by every case; a second model starts the shared memo anew."""
        d, m = edge_inputs()
        # SX is in no row, and SK has no history on K1, the target KC of QT and QB
        peer_lists = ([], ["SP"], ["SN", "SX"], ["SK"], ["SA", "SP", "SN", "SX", "SK"])
        masks = (frozenset(), frozenset({MASK_SIMU}), frozenset({MASK_IRT}), frozenset({MASK_SIMU, MASK_IRT}))
        for cold in (False, True):
            if cold:  # QT as irt.fit leaves a question absent from train
                m = dataclasses.replace(
                    edited(m, diff={"QT": 0.0}, disc={"QT": 1.0}, difficulty_level={"QT": Level.MEDIUM}),
                    cold_start_questions=frozenset({"QT"}))
            for u in ("SA", "SP", "SN", "SK"):
                for q in ("QT", "QB", "QC"):
                    for peers in peer_lists:
                        for window in (0, 1, 2, 3, 20, 1000):
                            for mask in masks:
                                expected = reference_build_prompt(u, q, peers, m, d, mask, window).text
                                fresh = dataset_of(interactions(d), split_labels(d))
                                assert build_prompt(u, q, peers, m, fresh, mask, window).text == expected
                                assert build_prompt(u, q, peers, m, fresh, mask, window).text == expected
                                assert build_prompt(u, q, peers, m, d, mask, window).text == expected
        assert "\ncold_start: true\n" in build_prompt("SA", "QT", [], m, d).text

    def test_model_edits_show_in_the_next_bundle(self):
        """A model's tables cannot be edited; a model built with other values shows them in the next
        bundle on the same dataset, and the first model's bundles stay as they were."""
        d, m = golden_inputs()
        before = build_prompt("SA", "QT", ["SP"], m, d).text
        with pytest.raises(TypeError):
            m.theta["SA"] = 1.75
        edit = edited(m, theta={"SA": 1.75, "SP": -0.5}, diff={"QA": 2.0, "QT": -1.0},
                      difficulty_level={"QA": Level.HIGH})
        after = build_prompt("SA", "QT", ["SP"], edit, d).text
        assert after == reference_build_prompt("SA", "QT", ["SP"], edit, d).text
        assert after != before
        fields = parse_prompt(after)
        assert (fields["theta"], fields["difficulty"], fields["peers"][0]["theta"]) == (1.75, -1.0, -0.5)
        assert (fields["history"][0]["difficulty"], fields["history"][0]["difficulty_level"]) == (2.0, "High")
        assert build_prompt("SA", "QT", ["SP"], m, d).text == before

    def test_tables_are_built_once_per_dataset(self):
        d, _ = golden_inputs()
        assert student_tables(d) is student_tables(d)
        assert student_tables(golden_inputs()[0]) is not student_tables(d)

    def test_tables_die_with_the_context(self, tmp_path):
        csv, _ = planted_csv(n_bands=3, students_per_band=12, questions_per_band=10, seed=3)
        path = tmp_path / "small.csv"
        path.write_text(csv, encoding="utf-8")
        ctx = PipelineContext(RunConfig(data=str(path), n_walks=5, walk_len=8, top_k=3, top_s=2, pair_sample=200))
        run_experiment(ctx.cfg, ctx)
        dataset, model = weakref.ref(ctx.dataset), weakref.ref(ctx.irt)
        assert student_tables(ctx.dataset).has_kc.any()
        del ctx
        gc.collect()
        assert dataset() is None and model() is None


# -- the mock's lean reader ---------------------------------------------------

# str.splitlines breaks a line at each of these, so no rendered id may hold one
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
ids = st.one_of(
    st.text(alphabet="ab :|;-=", max_size=10),
    st.text(alphabet=st.characters(exclude_categories=("Cs",), exclude_characters=LINE_BREAKS), max_size=6),
    st.sampled_from(["a: b", "x | y", "q | correct: 1", ": ", " | ", "peer: p", "=== TASK ==="]),
)
reals = st.floats(-1e3, 1e3, allow_nan=False)
positive = st.floats(1e-3, 1e3)
accuracies = st.floats(0.0, 1.0)
labels = st.sampled_from([level.label for level in Level])
history_rows = st.builds(
    HistoryRow, ids, st.lists(ids, min_size=1, max_size=3).map(tuple), st.booleans(), st.integers(-10**6, 10**6),
    reals, positive, labels,
)
peer_infos = st.builds(
    PeerInfo, ids, reals, labels, st.none() | accuracies, accuracies,
    st.lists(st.tuples(ids, st.booleans(), st.integers(0, 10**6)), max_size=3).map(tuple),
)
bundles = st.builds(
    ReferenceBundle,
    target_student=ids, theta=reals, ability_level=labels,
    history=st.lists(history_rows, max_size=4).map(tuple),
    question_id=ids, question_kcs=st.lists(ids, min_size=1, max_size=3).map(tuple), target_kc=ids,
    student_kc_accuracy=st.none() | accuracies, difficulty=reals, discrimination=positive,
    difficulty_level=labels, cold_start=st.booleans(),
    peers=st.lists(peer_infos, max_size=4).map(tuple),
    ablation_mask=st.sampled_from([frozenset(), frozenset({MASK_SIMU}), frozenset({MASK_IRT}),
                                   frozenset({MASK_SIMU, MASK_IRT})]),
)


def assert_lean_read_matches(text):
    lean = predict_mod._mock_fields(text)
    full = parse_prompt(text)
    for key, value in lean.items():
        if key == "peers" and value is not None:
            assert value == [{k: peer[k] for k in ("target_kc_accuracy", "overall_accuracy")} for peer in full["peers"]]
        else:
            assert value == full[key], key
    assert mock_prediction_reply(text) == reference_mock_reply(text)


# (name, pattern, replacement, the error's text): garble the golden prompt at the pattern's first match
NOT_ALL_IRT = "ability, difficulty and discrimination are neither all present nor all absent"
GARBLED = [
    # a cut prompt, which must not be answered from default ids and a 0.5 base
    ("cut", r"(?s)\n=== TARGET QUESTION ===.*", "", "no target question block followed by a task block"),
    ("no-task", r"=== TASK ===", "=== END ===", "no target question block followed by a task block"),
    ("no-student-id", r"student_id: SA\n", "", "no student_id line"),
    ("no-question-id", r"question_id: QT\n", "", "no question_id line"),
    ("no-target-kc", r"target_kc: K1\n", "", "no target_kc line"),
    ("no-own-accuracy", r"student_accuracy_on_target_kc: .*\n", "", "no student_accuracy_on_target_kc line"),
    # only some IRT fields, which must not be answered from the IRT-masked base
    ("no-discrimination", r"\ndiscrimination: 1.5", "", NOT_ALL_IRT),
    ("no-difficulty", r"\ndifficulty: 0.5", "", NOT_ALL_IRT),
    ("no-ability", r"\nability: 0.25", "", NOT_ALL_IRT),
    # a peer without its overall_accuracy line, whose next line ("  target_kc_history: 3") must not be read for it
    ("no-overall-accuracy", r"\n  overall_accuracy: .*", "",
     "no overall_accuracy line after target_kc_accuracy '0.3333333333333333'"),
    ("peer-count-too-high", r"peer_count: 1", "peer_count: 2", "peer_count 2, but 1 peers"),
    ("no-peer-count", r"peer_count: 1\n", "", "no peer_count line"),
    ("peer-count-word", r"peer_count: 1", "peer_count: one", "peer_count 'one'"),
    # a count int() takes but the renderer never writes
    ("peer-count-arabic-indic", r"peer_count: 1", "peer_count: \u0661", "peer_count '\u0661'"),
    ("peer-count-space", r"peer_count: 1", "peer_count:  1", "peer_count ' 1'"),
    ("peer-count-plus", r"peer_count: 1", "peer_count: +1", "peer_count '+1'"),
    ("peer-count-underscore", r"peer_count: 1", "peer_count: 0_1", "peer_count '0_1'"),
    # a value that does not parse, which must fail the stage, not escape it as a bare ValueError
    ("difficulty-word", r"difficulty: 0.5", "difficulty: x0.5", "difficulty 'x0.5'"),
    ("ability-word", r"ability: 0.25", "ability: high", "ability 'high'"),
    ("discrimination-none", r"discrimination: 1.5", "discrimination: none", "discrimination 'none'"),
    ("own-accuracy-word", r"student_accuracy_on_target_kc: .*", "student_accuracy_on_target_kc: ?",
     "student_accuracy_on_target_kc '?'"),
    ("peer-accuracy-empty", r"target_kc_accuracy: .*", "target_kc_accuracy: ", "target_kc_accuracy ''"),
    ("overall-accuracy-none", r"overall_accuracy: .*", "overall_accuracy: none", "overall_accuracy 'none'"),
]


class TestMockReader:
    @settings(max_examples=300, deadline=None)
    @given(bundles)
    def test_reads_what_the_full_parser_reads(self, bundle):
        assert_lean_read_matches(bundle.text)

    def test_golden_prompts(self):
        for mask in (frozenset(), frozenset({MASK_SIMU}), frozenset({MASK_IRT}), frozenset({MASK_SIMU, MASK_IRT})):
            assert_lean_read_matches(golden_bundle(mask).text)

    @pytest.mark.parametrize("name, pattern, replacement, what", GARBLED, ids=[case[0] for case in GARBLED])
    def test_a_prompt_not_laid_out_as_rendered_is_a_transport_error(self, name, pattern, replacement, what):
        text = re.sub(pattern, replacement, golden_bundle().text, count=1)
        assert text != golden_bundle().text
        unreadable = "^mock transport cannot read this prediction prompt: "
        with pytest.raises(TransportError, match=unreadable + re.escape(what)):
            MOCK.complete(text)

    def test_irt_lines_under_the_irt_mask_are_a_transport_error(self):
        text = golden_bundle(frozenset({MASK_IRT})).text.replace("\ntarget_kc: K1", "\ntarget_kc: K1\ndifficulty: 0.5")
        with pytest.raises(TransportError, match=NOT_ALL_IRT):
            mock_prediction_reply(text)

    def test_predict_fails_on_a_prompt_the_mock_cannot_read(self):
        with pytest.raises(TransportError, match="cannot read this prediction prompt: no target question block"):
            predict(CutPromptBundle(**vars(golden_bundle())), MOCK)

    def test_history_rows_with_separators_in_their_ids(self):
        d, m = golden_inputs()
        bundle = reference_build_prompt("SA", "QT", ["SP"], m, d)
        row = HistoryRow("Q | 1", ("K | 2", "K: 3"), True, 4, 0.5, 1.25, "Low")
        peer = PeerInfo("P", 0.0, "Low", None, 0.5, (("Q | x", False, 7),))
        fields = parse_prompt(ReferenceBundle(**{**vars(bundle), "history": (row,), "peers": (peer,)}).text)
        assert fields["history"] == [{"question_id": "Q | 1", "kcs": ("K | 2", "K: 3"), "correct": True,
                                      "timestamp": 4, "difficulty": 0.5, "discrimination": 1.25,
                                      "difficulty_level": "Low"}]
        assert fields["peers"][0]["history"] == [("Q | x", False, 7)]


PLANTED_ABLATION = dict(seed=7, runs=1, n_walks=100, walk_len=20, top_k=5, top_s=3, pair_source="paths",
                        variants=("msr", "msl", "simu", "rsimu"))


@pytest.fixture(scope="module")
def planted_prompts(tmp_path_factory):
    """Every (build_prompt arguments, bundle) of one pass of the planted-ablation config, by planted seed."""
    calls = {}
    with pytest.MonkeyPatch.context() as patch:
        for seed in (1, 2, 3):
            path = tmp_path_factory.mktemp("planted") / f"seed{seed}.csv"
            path.write_text(planted_csv(seed=seed)[0], encoding="utf-8")
            calls[seed] = recorded = []

            def record(*args, _build=build_prompt, _recorded=recorded):
                bundle = _build(*args)
                _recorded.append((args, bundle))
                return bundle

            patch.setattr(predict_mod, "build_prompt", record)
            run_experiment(RunConfig(data=str(path), **PLANTED_ABLATION))
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_prompts_equal_the_row_scan(planted_prompts, seed):
    calls = planted_prompts[seed]
    dataset = calls[0][0][4]
    assert len(calls) == 5 * len(dataset.iter_split("test"))  # 900 on seed 1
    for args, bundle in planted_prompts[seed]:
        assert bundle.text == reference_build_prompt(*args).text


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_mock_replies_equal_the_full_parse(planted_prompts, seed):
    for _, bundle in planted_prompts[seed]:
        assert_lean_read_matches(bundle.text)


def test_each_question_block_is_rendered_once_per_model(tmp_path, monkeypatch):
    """Over the five variants of the planted-ablation config, each (student, question, IRT shown)
    question block is rendered once, every prompt equals an unmemoized render, and another model on
    the same dataset renders its question blocks anew."""
    path = tmp_path / "seed1.csv"
    path.write_text(planted_csv(seed=1)[0], encoding="utf-8")
    rendered, calls = [], []
    render, build = predict_mod._question_block, build_prompt

    def counted(u, q, target_kc, irt, m, d):
        rendered.append((u, q, irt))
        return render(u, q, target_kc, irt, m, d)

    def recorded(*args):
        bundle = build(*args)
        calls.append((args, bundle))
        return bundle

    monkeypatch.setattr(predict_mod, "_question_block", counted)
    monkeypatch.setattr(predict_mod, "build_prompt", recorded)
    run_experiment(RunConfig(data=str(path), **PLANTED_ABLATION))
    assert len(calls) == 5 * len(set(rendered)) == 5 * len(rendered)  # 900 prompts, 180 question blocks
    for args, bundle in calls:
        assert bundle.text == reference_build_prompt(*args).text

    (u, q, peers, m, d, mask, window), _ = calls[0]
    other = dataclasses.replace(m)
    rendered.clear()
    assert build_prompt(u, q, peers, other, d, mask, window).text == calls[0][1].text
    assert rendered == [(u, q, True)]
