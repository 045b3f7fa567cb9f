import io
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hisekt import dataset as dataset_mod
from hisekt.dataset import (
    MIN_QUESTION_ANSWERS,
    MIN_STUDENT_INTERACTIONS,
    Dataset,
    ingest,
    load,
    serialize,
    split,
)
from hisekt.errors import EmptyDatasetError, IngestError
from hisekt.synth import planted_csv

from conftest import grid_rows, rows_to_csv


def _ingest(rows):
    return ingest(io.StringIO(rows_to_csv(rows)))


def test_all_retained_when_counts_clear_filters():
    rows = grid_rows([f"S{i}" for i in range(12)], [f"Q{j}" for j in range(12)])
    d = _ingest(rows)
    assert len(d) == 144
    assert len(d.students()) == 12
    assert len(d.questions()) == 12


def test_student_below_ten_interactions_is_removed():
    rows = grid_rows([f"S{i}" for i in range(12)], [f"Q{j}" for j in range(12)])
    rows += [("S99", f"Q{j}", "K0", 1, j) for j in range(9)]  # 9 interactions only
    d = _ingest(rows)
    assert "S99" not in d.students()
    assert all(i.student_id != "S99" for i in d.interactions)


def test_filter_reaches_fixed_point_with_cascade():
    # Question QX is answered 10 times, but one answer comes from a student
    # that is itself removed, dropping QX to 9 answers in a second pass.
    base_students = [f"S{i}" for i in range(10)]
    questions = [f"Q{j}" for j in range(10)]
    rows = grid_rows(base_students, questions)
    rows += [(f"S{i}", "QX", "K0", 1, 100) for i in range(9)]  # 9 answers from kept students
    rows += [("S_weak", "QX", "K0", 1, 100)]  # 10th answer, from a 1-interaction student
    d = _ingest(rows)

    # Oracle: recompute counts from scratch on the surviving rows.
    student_counts = Counter(i.student_id for i in d.interactions)
    question_counts = Counter(i.question_id for i in d.interactions)
    assert all(c >= MIN_STUDENT_INTERACTIONS for c in student_counts.values())
    assert all(c >= MIN_QUESTION_ANSWERS for c in question_counts.values())
    assert "S_weak" not in student_counts
    assert "QX" not in question_counts


def test_duplicate_triples_keep_first():
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    rows.append(("S0", "Q0", "K0", 0, 0))  # resubmit of S0's first row with flipped label
    d = _ingest(rows)
    assert d.duplicate_rows == 1
    first = [i for i in d.interactions if i.student_id == "S0" and i.question_id == "Q0"]
    assert len(first) == 1 and first[0].correct is True


def test_missing_fields_dropped_and_counted():
    csv = rows_to_csv(grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)]))
    csv += "S0,Q0,,1,999\n"  # empty kc list
    csv += ",Q1,K0,1,999\n"  # missing student
    d = ingest(io.StringIO(csv))
    assert d.dropped_rows == 2


def test_unparseable_values_raise_with_row_number():
    csv = "student_id,question_id,kc_ids,correct,timestamp\nS0,Q0,K0,maybe,1\n"
    with pytest.raises(IngestError, match="row 2"):
        ingest(io.StringIO(csv))
    csv = "student_id,question_id,kc_ids,correct,timestamp\nS0,Q0,K0,1,later\n"
    with pytest.raises(IngestError, match="row 2"):
        ingest(io.StringIO(csv))


def test_missing_header_column_raises():
    with pytest.raises(IngestError, match="row 1"):
        ingest(io.StringIO("student_id,question_id,kc_ids,correct\nS0,Q0,K0,1\n"))


def test_everything_filtered_raises_empty():
    with pytest.raises(EmptyDatasetError):
        _ingest([("S0", "Q0", "K0", 1, 0)])


def test_split_10_interactions_is_8_1_1():
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    d = split(_ingest(rows), seed=3)
    for student in d.students():
        labels = [s for i, s in zip(d.interactions, d.splits) if i.student_id == student]
        assert Counter(labels) == {"train": 8, "val": 1, "test": 1}


def test_split_13_interactions_is_10_1_2():
    students = [f"S{i}" for i in range(13)]
    questions = [f"Q{j}" for j in range(13)]
    d = split(_ingest(grid_rows(students, questions)), seed=0)
    labels = [s for i, s in zip(d.interactions, d.splits) if i.student_id == "S0"]
    assert Counter(labels) == {"train": 10, "val": 1, "test": 2}


def test_split_deterministic_and_seed_free():
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    d = _ingest(rows)
    assert split(d, seed=1).splits == split(d, seed=1).splits == split(d, seed=2).splits


def test_split_is_temporal_partition():
    rows = grid_rows([f"S{i}" for i in range(12)], [f"Q{j}" for j in range(12)])
    d = split(_ingest(rows), seed=0)
    rank = {"train": 0, "val": 1, "test": 2}
    assert len(d.splits) == len(d.interactions)
    for student in d.students():
        seq = [
            (i.timestamp, rank[s])
            for i, s in zip(d.interactions, d.splits)
            if i.student_id == student
        ]
        assert seq == sorted(seq)  # labels never go back in time


def test_ingest_serialize_roundtrip_idempotent():
    rows = grid_rows(
        [f"S{i}" for i in range(11)],
        [f"Q{j}" for j in range(11)],
        kc_of={f"Q{j}": f"K{j % 2};K9" for j in range(11)},
        correct_fn=lambda s, q: (len(s) + len(q)) % 2,
    )
    d1 = _ingest(rows)
    d2 = ingest(io.StringIO(serialize(d1)))
    assert d1.interactions == d2.interactions


def test_load_restores_split_labels():
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    d = split(_ingest(rows), seed=5)
    restored = load(io.StringIO(serialize(d)))
    assert restored.splits == d.splits
    assert restored.interactions == d.interactions


def test_load_parses_each_row_once(monkeypatch):
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    text = serialize(split(_ingest(rows), seed=5))
    parse_row = dataset_mod._parse_row
    calls = []

    def counted(row, line_no):
        calls.append(line_no)
        return parse_row(row, line_no)

    monkeypatch.setattr(dataset_mod, "_parse_row", counted)
    load(io.StringIO(text))
    assert len(calls) == len(rows)


def test_iter_split_is_built_once_per_label():
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    d = split(_ingest(rows), seed=5)
    train = d.iter_split("train")
    assert d.iter_split("train") is train
    assert train == tuple(i for i, s in zip(d.interactions, d.splits) if s == "train")
    assert d.iter_split("test") == tuple(i for i, s in zip(d.interactions, d.splits) if s == "test")


def test_multi_kc_questions_parse_as_sets():
    rows = grid_rows(
        [f"S{i}" for i in range(10)],
        [f"Q{j}" for j in range(10)],
        kc_of={f"Q{j}": "K1;K2;K1" for j in range(10)},
    )
    d = _ingest(rows)
    assert d.question_kcs()["Q0"] == frozenset({"K1", "K2"})


@settings(max_examples=25, deadline=None)
@given(
    n_students=st.integers(min_value=1, max_value=14),
    n_questions=st.integers(min_value=1, max_value=14),
    drop=st.integers(min_value=0, max_value=40),
)
def test_filter_invariants_hold_on_random_grids(n_students, n_questions, drop):
    rng_rows = grid_rows([f"S{i}" for i in range(n_students)], [f"Q{j}" for j in range(n_questions)])
    rng_rows = rng_rows[: max(0, len(rng_rows) - drop)]
    try:
        d = _ingest(rng_rows)
    except EmptyDatasetError:
        return
    student_counts = Counter(i.student_id for i in d.interactions)
    question_counts = Counter(i.question_id for i in d.interactions)
    assert min(student_counts.values()) >= MIN_STUDENT_INTERACTIONS
    assert min(question_counts.values()) >= MIN_QUESTION_ANSWERS
    labeled = split(d, seed=0)
    assert set(labeled.splits) <= {"train", "val", "test"}
    assert len(labeled.splits) == len(labeled.interactions)


PLANTED_LINES = planted_csv(n_bands=3, students_per_band=12, questions_per_band=10, seed=3)[0].splitlines()


@settings(max_examples=25, deadline=None)
@given(divisor=st.integers(1, 10**6), seed=st.integers(0, 2**32))
@example(divisor=2, seed=0)
def test_row_order_does_not_reach_the_split(divisor, seed):
    """Timestamps divided down until many tie within a student, repeats of a (student, question,
    timestamp) triple dropped: every order of the rows splits alike."""
    header, rows, seen = PLANTED_LINES[0], [], set()
    for line in PLANTED_LINES[1:]:
        student, question, kcs, correct, timestamp = line.split(",")
        key = (student, question, int(timestamp) // divisor)
        if key not in seen:
            seen.add(key)
            rows.append(",".join([student, question, kcs, correct, str(key[2])]))
    shuffled = random.Random(seed).sample(rows, len(rows))

    def canonical(lines):
        return serialize(split(ingest(io.StringIO("\n".join([header, *lines]) + "\n")), 0))

    assert canonical(shuffled) == canonical(rows)
