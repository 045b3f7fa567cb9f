import io
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hisekt import dataset as dataset_mod
from hisekt.dataset import (
    MIN_QUESTION_ANSWERS,
    MIN_STUDENT_INTERACTIONS,
    ingest,
    load,
    serialize,
    split,
)
from hisekt.errors import EmptyDatasetError, IngestError
from hisekt.synth import planted_csv

from conftest import grid_rows, rows_to_csv
from support import decode_rows, interactions, reference_ingest, split_labels


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
    assert all(i.student_id != "S99" for i in interactions(d))


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
    student_counts = Counter(i.student_id for i in interactions(d))
    question_counts = Counter(i.question_id for i in interactions(d))
    assert all(c >= MIN_STUDENT_INTERACTIONS for c in student_counts.values())
    assert all(c >= MIN_QUESTION_ANSWERS for c in question_counts.values())
    assert "S_weak" not in student_counts
    assert "QX" not in question_counts


def test_conflicting_duplicate_triples_are_refused():
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    rows.append(("S0", "Q0", "K0", 0, 0))  # resubmit of S0's first row (line 2) with flipped label
    with pytest.raises(IngestError, match="rows 2 and 102: student S0, question Q0, timestamp 0 repeated"):
        _ingest(rows)
    rows[-1] = ("S0", "Q0", "K0;K1", 1, 0)  # the same answer under another KC set
    with pytest.raises(IngestError, match="rows 2 and 102"):
        _ingest(rows)


def test_identical_duplicate_triples_collapse():
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    d = _ingest(rows + [rows[0], rows[5], rows[0]])
    assert d.duplicate_rows == 3
    assert serialize(d) == serialize(_ingest(rows))
    rows[0] = ("S0", "Q0", "K1;K0", 1, 0)
    assert _ingest(rows + [("S0", "Q0", " K0 ;K1;K0", 1, 0)]).duplicate_rows == 1  # one KC set, written twice


def test_conflicting_split_labels_are_refused():
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    text = serialize(split(_ingest(rows), seed=0))
    first = text.splitlines()[1]
    with pytest.raises(IngestError, match="rows 2 and 102"):
        load(io.StringIO(text + first.replace(",train", ",test") + "\n"))
    assert len(load(io.StringIO(text + first + "\n"))) == len(rows)


def test_missing_fields_dropped_and_counted():
    csv = rows_to_csv(grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)]))
    csv += "S0,Q0,,1,999\n"  # empty kc list
    csv += ",Q1,K0,1,999\n"  # missing student
    d = ingest(io.StringIO(csv))
    assert d.dropped_rows == 2


def test_errors_name_the_physical_line():
    """Blank lines and a quoted field over two lines count; the error names the line its record ends on."""
    header = "student_id,question_id,kc_ids,correct,timestamp\n"
    with pytest.raises(IngestError, match=r"^row 5: correct must be 0 or 1, got 'maybe'$"):
        ingest(io.StringIO(header + "S0,Q0,K0,1,1\n\n\nS0,Q1,K0,maybe,2\n"))
    with pytest.raises(IngestError, match=r"^row 4: timestamp is not an integer: 'later'$"):
        ingest(io.StringIO(header + 'S0,Q0,"K0\n",1,1\nS0,Q1,K0,1,later\n'))
    with pytest.raises(IngestError, match=r"^row 4: correct must be 0 or 1"):
        ingest(io.StringIO(header + '\n"S0\n",Q1,K0,2,later\n'))


def test_timestamp_out_of_64_bits_raises():
    csv = "student_id,question_id,kc_ids,correct,timestamp\nS0,Q0,K0,1,99999999999999999999\n"
    with pytest.raises(IngestError, match="row 2: timestamp is out of the 64-bit range"):
        ingest(io.StringIO(csv))


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
        labels = [s for i, s in zip(interactions(d), split_labels(d)) if i.student_id == student]
        assert Counter(labels) == {"train": 8, "val": 1, "test": 1}


def test_split_13_interactions_is_10_1_2():
    students = [f"S{i}" for i in range(13)]
    questions = [f"Q{j}" for j in range(13)]
    d = split(_ingest(grid_rows(students, questions)), seed=0)
    labels = [s for i, s in zip(interactions(d), split_labels(d)) if i.student_id == "S0"]
    assert Counter(labels) == {"train": 10, "val": 1, "test": 2}


def test_split_deterministic_and_seed_free():
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    d = _ingest(rows)
    assert split_labels(split(d, seed=1)) == split_labels(split(d, seed=1)) == split_labels(split(d, seed=2))


def test_split_is_temporal_partition():
    rows = grid_rows([f"S{i}" for i in range(12)], [f"Q{j}" for j in range(12)])
    d = split(_ingest(rows), seed=0)
    rank = {"train": 0, "val": 1, "test": 2}
    assert len(d.splits) == len(d)
    for student in d.students():
        seq = [
            (i.timestamp, rank[s])
            for i, s in zip(interactions(d), split_labels(d))
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
    assert interactions(d1) == interactions(d2)


def test_load_restores_split_labels():
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    d = split(_ingest(rows), seed=5)
    restored = load(io.StringIO(serialize(d)))
    assert split_labels(restored) == split_labels(d)
    assert interactions(restored) == interactions(d)


def test_load_parses_each_row_once(monkeypatch):
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    text = serialize(split(_ingest(rows), seed=5))
    reader = dataset_mod.csv.reader
    calls = []

    class Counted:
        def __init__(self, handle):
            self.records = reader(handle)

        def __iter__(self):
            return self

        def __next__(self):
            calls.append(next(self.records))
            return calls[-1]

        @property
        def line_num(self):
            return self.records.line_num

    monkeypatch.setattr(dataset_mod.csv, "reader", Counted)
    load(io.StringIO(text))
    assert len(calls) == 1 + len(rows)


@pytest.mark.parametrize("label", ["tset", "", " "])
def test_load_refuses_a_row_without_a_split_label(tmp_path, label):
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    lines = serialize(split(_ingest(rows), seed=0)).splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0] + "," + label
    path = tmp_path / "dataset.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IngestError, match=f"^{path}: row 8: split label must be train, val or test, got "):
        load(path)


def test_load_refuses_a_file_without_a_split_column(tmp_path):
    path = tmp_path / "interactions.csv"
    path.write_text(rows_to_csv(grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])))
    with pytest.raises(IngestError, match=f"^{path}: no split labels$"):
        load(path)


def test_iter_split_is_built_once_per_label():
    rows = grid_rows([f"S{i}" for i in range(10)], [f"Q{j}" for j in range(10)])
    d = split(_ingest(rows), seed=5)
    train = d.iter_split("train")
    assert d.iter_split("train") is train
    labels = np.array(split_labels(d))
    assert np.array_equal(train, np.flatnonzero(labels == "train"))
    assert np.array_equal(d.iter_split("test"), np.flatnonzero(labels == "test"))


def test_by_student_runs_are_the_split_rows_of_each_student():
    rows = grid_rows([f"S{i}" for i in range(11)], [f"Q{j}" for j in range(12)])
    d = split(_ingest(rows), seed=0)
    runs = d.by_student("train")
    assert list(runs) == list(d.students())
    assert np.array_equal(np.concatenate(list(runs.values())), d.iter_split("train"))
    for student, run in runs.items():
        assert {i.student_id for i in decode_rows(d, run)} == {student}



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
    student_counts = Counter(i.student_id for i in interactions(d))
    question_counts = Counter(i.question_id for i in interactions(d))
    assert min(student_counts.values()) >= MIN_STUDENT_INTERACTIONS
    assert min(question_counts.values()) >= MIN_QUESTION_ANSWERS
    labeled = split(d, seed=0)
    assert set(labeled.splits.tolist()) <= {0, 1, 2}
    assert len(labeled.splits) == len(labeled)


PLANTED_LINES = planted_csv(n_bands=3, students_per_band=12, questions_per_band=10, seed=3)[0].splitlines()


@settings(max_examples=25, deadline=None)
@given(divisor=st.integers(1, 10**6), seed=st.integers(0, 2**32), copies=st.integers(0, 30))
@example(divisor=2, seed=0, copies=5)
def test_row_order_does_not_reach_the_split(divisor, seed, copies):
    """Timestamps divided down until many tie within a student, repeats of a (student, question,
    timestamp) triple dropped, then some rows written again as they are: every order of the rows
    splits alike."""
    header, rows, seen = PLANTED_LINES[0], [], set()
    for line in PLANTED_LINES[1:]:
        student, question, kcs, correct, timestamp = line.split(",")
        key = (student, question, int(timestamp) // divisor)
        if key not in seen:
            seen.add(key)
            rows.append(",".join([student, question, kcs, correct, str(key[2])]))
    rng = random.Random(seed)
    shuffled = rng.sample(rows, len(rows)) + rng.choices(rows, k=copies)
    rng.shuffle(shuffled)

    def canonical(lines):
        return serialize(split(ingest(io.StringIO("\n".join([header, *lines]) + "\n")), 0))

    assert canonical(shuffled) == canonical(rows)


KC_FIELDS = ("K0", "K1", "K1;K2", "K2;K1", " K2 ; K1 ;K2", "K3;", ";", "", " ")


def _outcome(read, text):
    try:
        d = read(io.StringIO(text))
    except (IngestError, EmptyDatasetError) as exc:
        return type(exc).__name__, str(exc)
    return serialize(d), d.dropped_rows, d.duplicate_rows


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), n_students=st.integers(11, 16), n_questions=st.integers(11, 15),
       keep=st.floats(0.88, 1.0), faults=st.integers(0, 4), copies=st.integers(0, 6), extra=st.booleans())
@example(seed=0, n_students=12, n_questions=12, keep=0.9, faults=2, copies=3, extra=True)
def test_reader_matches_the_row_object_reader(seed, n_students, n_questions, keep, faults, copies, extra):
    """Drawn logs with missing fields, multi-KC rows, identical duplicates, students whose removal
    cascades through the filter, and now and then a bad value: the columnar reader serializes, counts
    and refuses as the row-object reader in ``tests/support.py`` does."""
    rng = random.Random(seed)
    rows = [[f"S{s}", f"Q{q}", rng.choice(KC_FIELDS[:5]) if rng.random() < 0.97 else rng.choice(KC_FIELDS[5:]),
             str(rng.randrange(2)), str(rng.randrange(3) + 3 * q)]
            for s in range(n_students) for q in range(n_questions) if rng.random() < keep]
    rows += [["S_weak", f"Q{q}", "K0", "1", str(3 * q)] for q in range(rng.randrange(1, 10))]
    for row in rng.sample(rows, min(faults, len(rows))):
        bad = [(3, "yes"), (4, "1.5")] if rng.random() < 0.1 else [(0, ""), (1, " "), (2, ";"), (3, ""), (4, "")]
        column, value = rng.choice(bad)
        row[column] = value
    rows += [list(row) for row in rng.choices(rows, k=copies)]
    rng.shuffle(rows)
    header = ["student_id", "question_id", "kc_ids", "correct", "timestamp"] + (["note"] if extra else [])
    text = "\n".join(",".join(row + (["x"] if extra else [])) for row in [header, *rows]) + "\n"
    assert _outcome(ingest, text) == _outcome(reference_ingest, text)
