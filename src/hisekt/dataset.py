"""Ingestion of interaction logs, fixed-point filtering, and chronological splitting.

Input files are comma-separated text with a header row
``student_id,question_id,kc_ids,correct,timestamp``; ``kc_ids`` packs one or
more knowledge-concept ids separated by ``;``, ``correct`` is 0/1 and
``timestamp`` an integer epoch value.  Ingestion drops rows with missing
fields, collapses repeats of a (student, question, timestamp) triple with the
same answer and KC set and refuses one that differs, and then removes students
with fewer than 10 interactions and questions answered fewer than 10 times,
iterating until neither rule fires.  Errors name physical lines of the file.
A :class:`Dataset` holds int columns: ids are interned once, in sorted order.
"""

from __future__ import annotations

import array
import bisect
import contextlib
import csv
import io
import itertools
import logging
import operator
from collections import defaultdict
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import EmptyDatasetError, IngestError

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("student_id", "question_id", "kc_ids", "correct", "timestamp")
KC_DELIMITER = ";"
SPLIT_LABELS = ("train", "val", "test")
MIN_STUDENT_INTERACTIONS = 10
MIN_QUESTION_ANSWERS = 10
TRAIN_FRACTION = 0.8
VAL_FRACTION = 0.1


def code_of(ids: Sequence[str], value: str) -> int:
    """The position of ``value`` in the ascending id table ``ids``, or -1 if it is not there."""
    at = bisect.bisect_left(ids, value)
    return at if at < len(ids) and ids[at] == value else -1


class Dataset:
    """Immutable interaction log held as int columns, rows in (student, timestamp, question) order:
    ``student`` and ``question`` int32 codes into :meth:`students` and :meth:`questions` (sorted ids),
    ``kc_set`` an int32 code into ``kc_sets`` (ascending tuples of codes into :meth:`kcs`, decoded
    to sorted id tuples in ``kc_set_ids``), ``correct`` int8 0/1, ``timestamp`` int64, and ``splits``
    int8 codes into ``SPLIT_LABELS``, None before :func:`split`."""

    def __init__(self, student_ids: Sequence[str], question_ids: Sequence[str], kc_ids: Sequence[str], kc_sets,
                 student, question, kc_set, correct, timestamp, splits=None, dropped_rows=0, duplicate_rows=0):
        self._students, self._questions, self._kcs = tuple(student_ids), tuple(question_ids), tuple(kc_ids)
        self.kc_sets = tuple(kc_sets)
        self.kc_set_ids = tuple(tuple(map(self._kcs.__getitem__, kcs)) for kcs in self.kc_sets)
        self.student, self.question, self.kc_set = (np.asarray(c, dtype=np.int32) for c in (student, question, kc_set))
        self.correct, self.timestamp = np.asarray(correct, dtype=np.int8), np.asarray(timestamp, dtype=np.int64)
        self.splits = None if splits is None else np.asarray(splits, dtype=np.int8)
        for column in (self.student, self.question, self.kc_set, self.correct, self.timestamp, self.splits):
            if column is not None:
                column.flags.writeable = False
        self.dropped_rows, self.duplicate_rows = dropped_rows, duplicate_rows
        width = max(map(len, self.kc_sets), default=0)  # the KC sets as rows of codes, padded with -1
        self._kc_table = np.array([kcs + (-1,) * (width - len(kcs)) for kcs in self.kc_sets], int).reshape(
            len(self.kc_sets), width)
        # what is derived from the columns, each built in full before it is stored: split indices by
        # label, student runs by ("runs", label) and question KCs here, retrieval's student tables and
        # predict's rendered prompt text
        self._memo: dict = {}

    def __len__(self) -> int:
        return len(self.student)

    def students(self) -> tuple[str, ...]:
        return self._students

    def questions(self) -> tuple[str, ...]:
        return self._questions

    def kcs(self) -> tuple[str, ...]:
        return self._kcs

    def row_kcs(self, index) -> tuple[np.ndarray, np.ndarray]:
        """Each KC of each listed row, row by row: the row's position in ``index`` and the KC code."""
        table = self._kc_table[self.kc_set[index]]
        at, j = np.nonzero(table >= 0)
        return at, table[at, j]

    def question_kc_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct (question code, KC code) pairs the rows tag, ascending."""
        at, kcs = self.row_kcs(slice(None))
        return np.divmod(np.unique(self.question[at].astype(np.int64) * len(self._kcs) + kcs), len(self._kcs))

    def question_kcs(self) -> Mapping[str, frozenset[str]]:
        """Question id -> union of KC sets seen for it."""
        if "question_kcs" not in self._memo:
            pairs = zip(*(codes.tolist() for codes in self.question_kc_codes()))
            self._memo["question_kcs"] = {self._questions[q]: frozenset(self._kcs[k] for _, k in group)
                                          for q, group in itertools.groupby(pairs, key=operator.itemgetter(0))}
        return self._memo["question_kcs"]

    def iter_split(self, label: str) -> np.ndarray:
        """The ascending row indices of one split."""
        if self.splits is None:
            raise ValueError("dataset has no split assignment; call split() first")
        if label not in SPLIT_LABELS:
            raise ValueError(f"unknown split label {label!r}")
        if label not in self._memo:
            self._memo[label] = index = np.flatnonzero(self.splits == SPLIT_LABELS.index(label))
            index.flags.writeable = False
        return self._memo[label]

    def by_student(self, split: str) -> Mapping[str, np.ndarray]:
        """Student id -> the ascending (so time-ordered) indices of the student's rows in one split, a
        run of :meth:`iter_split`; students without such rows are absent."""
        if ("runs", split) not in self._memo:
            index = self.iter_split(split)
            runs = np.split(index, np.flatnonzero(np.diff(self.student[index])) + 1)
            self._memo["runs", split] = {self._students[self.student[run[0]]]: run for run in runs if len(run)}
        return self._memo["runs", split]


def _coded(codes: np.ndarray, ids: Mapping) -> tuple[list, np.ndarray]:
    """The ids of an interning table (id -> code) that ``codes`` holds, sorted, and ``codes`` recoded so."""
    used = np.bincount(codes, minlength=len(ids)).astype(bool).tolist()
    kept = sorted(x for x, code in ids.items() if used[code])
    rank = np.zeros(len(ids), dtype=np.int64)
    rank[[ids[x] for x in kept]] = np.arange(len(kept))
    return kept, rank[codes]


def _read(source: str | Path | IO[str], labelled: bool) -> Dataset:
    """:func:`ingest`, and with ``labelled`` each row's ``split`` label too, which it refuses
    unless it is one of ``SPLIT_LABELS``."""
    try:
        opened = (Path(source).open("r", encoding="utf-8", newline="") if isinstance(source, (str, Path))
                  else contextlib.nullcontext(source))
    except OSError as exc:
        raise IngestError(f"cannot open {Path(source)}: {exc}") from exc
    # ids and KC sets coded in first-seen order; a kc_ids text maps to its KC set's code, -1 if it names none
    students, questions, sets = (defaultdict(itertools.count().__next__) for _ in range(3))
    set_of: dict[str, int] = {}
    table, dropped = array.array("q"), 0  # per row: student, timestamp, question, line, correct, KC set[, label]
    with opened as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError("row 1: empty input, header row required")
            at = {name: j for j, name in enumerate(header)}  # a repeated name reads its last column
            missing_cols = [c for c in REQUIRED_COLUMNS if c not in at]
            if missing_cols:
                raise IngestError(f"row 1: header is missing columns {missing_cols}")
            if labelled and "split" not in at:
                raise IngestError(f"{source}: no split labels")
            columns = [at[c] for c in REQUIRED_COLUMNS] + ([at["split"]] if labelled else [])
            fields_of, width = operator.itemgetter(*columns), max(columns) + 1
            for row in reader:
                line = reader.line_num  # the physical line the record ends on
                if not row:
                    continue  # a blank line
                if len(row) < width:
                    row += [""] * (width - len(row))  # a short row's missing fields are empty
                s, q, kcs, c, t, *label = map(str.strip, fields_of(row))
                k = set_of.get(kcs)
                if k is None and kcs:
                    found = tuple(sorted({x.strip() for x in kcs.split(KC_DELIMITER)} - {""}))
                    k = set_of[kcs] = sets[found] if found else -1
                if not (s and q and c and t and kcs) or k < 0:
                    dropped += 1
                    continue
                if c not in ("0", "1"):
                    raise IngestError(f"row {line}: correct must be 0 or 1, got {c!r}")
                try:
                    table.extend((students[s], int(t), questions[q], line, c == "1", k))
                except ValueError:
                    raise IngestError(f"row {line}: timestamp is not an integer: {t!r}") from None
                except OverflowError:
                    raise IngestError(f"row {line}: timestamp is out of the 64-bit range: {t!r}") from None
                if labelled:
                    if label[0] not in SPLIT_LABELS:
                        raise IngestError(f"{source}: row {line}: split label must be train, val or test, "
                                          f"got {label[0]!r}")
                    table.append(SPLIT_LABELS.index(label[0]))
        except csv.Error as exc:
            raise IngestError(f"row {reader.line_num}: {exc}") from exc
    if dropped:
        logger.warning("ingest: dropped %d rows with missing fields", dropped)

    # repeats of a (student, timestamp, question) triple side by side, in file order: a repeat whose
    # answer, KC set or label differs is refused, an identical one dropped
    rows = np.frombuffer(table, dtype=np.int64).reshape(-1, 6 + labelled)
    rows = rows[np.lexsort(rows[:, 2::-1].T)]
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[1:] = (rows[1:, :3] == rows[:-1, :3]).all(axis=1)
    conflicts = np.flatnonzero(repeat[1:] & (rows[1:, 4:] != rows[:-1, 4:]).any(axis=1))
    if conflicts.size:
        pair = rows[conflicts[0]:conflicts[0] + 2]
        (s, t, q), lines = pair[0, :3].tolist(), sorted(pair[:, 3].tolist())
        raise IngestError(f"rows {lines[0]} and {lines[1]}: student {list(students)[s]}, question "
                          f"{list(questions)[q]}, timestamp {t} repeated with a different "
                          f"{'answer, KC set or split label' if labelled else 'answer or KC set'}")
    duplicates = int(repeat.sum())
    if duplicates:
        logger.info("ingest: ignored %d duplicate (student, question, timestamp) rows", duplicates)

    # drop sparse students and questions until both minimum-count rules hold: removing a
    # student can push a question below 10 answers and vice versa
    s_code, q_code, keep = rows[:, 0], rows[:, 2], ~repeat
    while True:
        kept = keep & (np.bincount(s_code[keep], minlength=len(students)) >= MIN_STUDENT_INTERACTIONS)[s_code]
        kept &= (np.bincount(q_code[kept], minlength=len(questions)) >= MIN_QUESTION_ANSWERS)[q_code]
        if np.array_equal(kept, keep):
            break
        keep = kept
    if not keep.any():
        raise EmptyDatasetError("no interactions survive the minimum-count filters")
    # the kept ids coded in sorted order, the rows in (student, timestamp, question) order
    rows = rows[keep]
    (student_ids, rows[:, 0]), (question_ids, rows[:, 2]), (set_ids, rows[:, 5]) = (
        _coded(rows[:, j], ids) for j, ids in ((0, students), (2, questions), (5, sets)))
    rows = rows[np.lexsort(rows[:, 2::-1].T)]
    kc_ids = sorted({kc for found in set_ids for kc in found})
    kc_code = dict(zip(kc_ids, range(len(kc_ids))))
    logger.info("ingest: %d interactions kept (%d students, %d questions)", len(rows), len(student_ids),
                len(question_ids))
    return Dataset(student_ids, question_ids, kc_ids, [tuple(map(kc_code.get, found)) for found in set_ids],
                   rows[:, 0], rows[:, 2], rows[:, 5], rows[:, 4], rows[:, 1].copy(), rows[:, 6] if labelled else None,
                   dropped, duplicates)


def ingest(source: str | Path | IO[str]) -> Dataset:
    """Read, validate, deduplicate, and filter an interaction log.

    ``source`` is a path or an open text stream.  Extra columns (e.g. a
    ``split`` column written by :func:`serialize`) are ignored, which makes
    ingestion idempotent across a serialize round trip.
    """
    return _read(source, labelled=False)


def split(d: Dataset, seed: int) -> Dataset:
    """Assign per-student chronological train/val/test labels in an 8:1:1 ratio.

    Each student's time-sorted sequence is cut as floor(0.8n) train, then
    floor(0.1n) val, with the remainder test, so every prediction target lies
    in the student's future.  The rule is deterministic; ``seed`` is accepted
    to keep stage signatures uniform but does not influence the cut.
    """
    del seed
    counts = np.bincount(d.student, minlength=len(d.students()))
    n_train, n_val = ((counts * fraction).astype(np.int64)[d.student] for fraction in (TRAIN_FRACTION, VAL_FRACTION))
    position = np.arange(len(d)) - (np.cumsum(counts) - counts)[d.student]  # within the student's run
    return Dataset(d.students(), d.questions(), d.kcs(), d.kc_sets, d.student, d.question, d.kc_set, d.correct,
                   d.timestamp, (position >= n_train) + (position >= n_train + n_val).astype(np.int8),
                   d.dropped_rows, d.duplicate_rows)


def serialize(d: Dataset) -> str:
    """Canonical text form of a dataset; re-ingestable (split column is ignored)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(REQUIRED_COLUMNS) + (["split"] if d.splits is not None else []))
    kc_text = list(map(KC_DELIMITER.join, d.kc_set_ids))
    columns = [map(d.students().__getitem__, d.student.tolist()), map(d.questions().__getitem__, d.question.tolist()),
               map(kc_text.__getitem__, d.kc_set.tolist()), map(str, d.correct.tolist()),
               map(str, d.timestamp.tolist())]
    if d.splits is not None:
        columns.append(map(SPLIT_LABELS.__getitem__, d.splits.tolist()))
    writer.writerows(zip(*columns))
    return buf.getvalue()


def load(source: str | Path | IO[str]) -> Dataset:
    """Read a dataset previously written by :func:`serialize`, restoring splits; IngestError naming
    ``source`` if it has no ``split`` column, or a row's label is not one of ``SPLIT_LABELS``."""
    return _read(source, labelled=True)
