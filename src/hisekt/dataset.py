"""Interaction-log ingestion, fixed-point filtering, and chronological splitting.

Input files are comma-separated text with a header row
``student_id,question_id,kc_ids,correct,timestamp``; ``kc_ids`` packs one or
more knowledge-concept ids separated by ``;``, ``correct`` is 0/1 and
``timestamp`` an integer epoch value.  Ingestion drops rows with missing
fields, deduplicates resubmitted (student, question, timestamp) triples, and
then removes students with fewer than 10 interactions and questions answered
fewer than 10 times, iterating until neither rule fires.
"""

from __future__ import annotations

import csv
import io
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping

from .errors import EmptyDatasetError, IngestError

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("student_id", "question_id", "kc_ids", "correct", "timestamp")
KC_DELIMITER = ";"
SPLIT_LABELS = ("train", "val", "test")
MIN_STUDENT_INTERACTIONS = 10
MIN_QUESTION_ANSWERS = 10
TRAIN_FRACTION = 0.8
VAL_FRACTION = 0.1


@dataclass(frozen=True)
class Interaction:
    """One answer record: a student answered a question tagged with KCs at a time."""

    student_id: str
    question_id: str
    kc_ids: frozenset[str]
    correct: bool
    timestamp: int


class Dataset:
    """Immutable, (student, timestamp, question)-sorted interaction list with optional split labels."""

    def __init__(
        self,
        interactions: Iterable[Interaction],
        splits: Iterable[str] | None = None,
        dropped_rows: int = 0,
        duplicate_rows: int = 0,
    ):
        self.interactions: tuple[Interaction, ...] = tuple(interactions)
        self.splits: tuple[str, ...] | None = tuple(splits) if splits is not None else None
        self.dropped_rows = dropped_rows
        self.duplicate_rows = duplicate_rows
        if self.splits is not None and len(self.splits) != len(self.interactions):
            raise ValueError("split labels must align one-to-one with interactions")
        self._split_cache: dict[str, tuple[Interaction, ...]] = {}
        self._by_student_cache: dict[str | None, dict[str, tuple[Interaction, ...]]] = {}
        self._question_kcs: dict[str, frozenset[str]] | None = None

    def __len__(self) -> int:
        return len(self.interactions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.interactions == other.interactions and self.splits == other.splits

    def __hash__(self):
        return hash((self.interactions, self.splits))

    # -- accessors ---------------------------------------------------------

    def students(self) -> tuple[str, ...]:
        return tuple(sorted({i.student_id for i in self.interactions}))

    def questions(self) -> tuple[str, ...]:
        return tuple(sorted({i.question_id for i in self.interactions}))

    def kcs(self) -> tuple[str, ...]:
        out: set[str] = set()
        for i in self.interactions:
            out.update(i.kc_ids)
        return tuple(sorted(out))

    def question_kcs(self) -> Mapping[str, frozenset[str]]:
        """Question id -> union of KC sets seen for it."""
        if self._question_kcs is None:
            acc: dict[str, set[str]] = defaultdict(set)
            for i in self.interactions:
                acc[i.question_id].update(i.kc_ids)
            self._question_kcs = {q: frozenset(ks) for q, ks in acc.items()}
        return self._question_kcs

    def iter_split(self, label: str) -> tuple[Interaction, ...]:
        if self.splits is None:
            raise ValueError("dataset has no split assignment; call split() first")
        if label not in SPLIT_LABELS:
            raise ValueError(f"unknown split label {label!r}")
        if label not in self._split_cache:
            self._split_cache[label] = tuple(i for i, s in zip(self.interactions, self.splits) if s == label)
        return self._split_cache[label]

    def by_student(self, split: str | None = None) -> Mapping[str, tuple[Interaction, ...]]:
        """Student id -> time-ordered interactions, optionally restricted to one split."""
        if split not in self._by_student_cache:
            rows = self.interactions if split is None else self.iter_split(split)
            acc: dict[str, list[Interaction]] = defaultdict(list)
            for i in rows:
                acc[i.student_id].append(i)
            self._by_student_cache[split] = {s: tuple(v) for s, v in acc.items()}
        return self._by_student_cache[split]


def _parse_row(row: Mapping[str, str], line_no: int) -> Interaction | None:
    """Parse one CSV row; None means the row lacks a required field and is dropped."""
    values = {}
    for col in REQUIRED_COLUMNS:
        raw = row.get(col)
        if raw is None or not raw.strip():
            return None
        values[col] = raw.strip()
    kc_ids = frozenset(k.strip() for k in values["kc_ids"].split(KC_DELIMITER) if k.strip())
    if not kc_ids:
        return None
    if values["correct"] not in ("0", "1"):
        raise IngestError(f"row {line_no}: correct must be 0 or 1, got {values['correct']!r}")
    try:
        timestamp = int(values["timestamp"])
    except ValueError:
        raise IngestError(f"row {line_no}: timestamp is not an integer: {values['timestamp']!r}")
    return Interaction(
        student_id=values["student_id"],
        question_id=values["question_id"],
        kc_ids=kc_ids,
        correct=values["correct"] == "1",
        timestamp=timestamp,
    )


def _filter_fixed_point(rows: list[Interaction]) -> list[Interaction]:
    """Drop sparse students/questions until both minimum-count rules hold.

    Removing a student can push a question below 10 answers and vice versa,
    so the two passes repeat until neither removes anything.
    """
    current = rows
    while True:
        student_counts = Counter(i.student_id for i in current)
        keep_students = {s for s, c in student_counts.items() if c >= MIN_STUDENT_INTERACTIONS}
        question_counts = Counter(i.question_id for i in current if i.student_id in keep_students)
        keep_questions = {q for q, c in question_counts.items() if c >= MIN_QUESTION_ANSWERS}
        pruned = [i for i in current if i.student_id in keep_students and i.question_id in keep_questions]
        if len(pruned) == len(current):
            return pruned
        current = pruned


def ingest(source: str | Path | IO[str]) -> Dataset:
    """Read, validate, deduplicate, and filter an interaction log.

    ``source`` is a path or an open text stream.  Extra columns (e.g. a
    ``split`` column written by :func:`serialize`) are ignored, which makes
    ingestion idempotent across a serialize round trip.
    """
    return _read(source)[0]


def _read(source: str | Path | IO[str]) -> tuple[Dataset, dict[tuple[str, str, int], str]]:
    """:func:`ingest` in one pass that also collects each parsed row's non-empty
    ``split`` label by (student, question, timestamp), the last row winning."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            handle: IO[str] = path.open("r", encoding="utf-8", newline="")
        except OSError as exc:
            raise IngestError(f"cannot open {path}: {exc}") from exc
        close = True
    else:
        handle = source
        close = False

    parsed: list[Interaction] = []
    label_of: dict[tuple[str, str, int], str] = {}
    dropped = 0
    duplicates = 0
    seen: set[tuple[str, str, int]] = set()
    try:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise IngestError("row 1: empty input, header row required")
        missing_cols = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing_cols:
            raise IngestError(f"row 1: header is missing columns {missing_cols}")
        for line_no, row in enumerate(reader, start=2):
            try:
                interaction = _parse_row(row, line_no)
            except csv.Error as exc:
                raise IngestError(f"row {line_no}: {exc}") from exc
            if interaction is None:
                dropped += 1
                continue
            key = (interaction.student_id, interaction.question_id, interaction.timestamp)
            if row.get("split"):
                label_of[key] = row["split"]
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            parsed.append(interaction)
    finally:
        if close:
            handle.close()

    if dropped:
        logger.warning("ingest: dropped %d rows with missing fields", dropped)
    if duplicates:
        logger.info("ingest: ignored %d duplicate (student, question, timestamp) rows", duplicates)

    kept = _filter_fixed_point(parsed)
    if not kept:
        raise EmptyDatasetError("no interactions survive the minimum-count filters")
    kept.sort(key=lambda i: (i.student_id, i.timestamp, i.question_id))  # a total order: no file order reaches split
    logger.info(
        "ingest: %d interactions kept (%d students, %d questions)",
        len(kept),
        len({i.student_id for i in kept}),
        len({i.question_id for i in kept}),
    )
    return Dataset(kept, dropped_rows=dropped, duplicate_rows=duplicates), label_of


def split(d: Dataset, seed: int) -> Dataset:
    """Assign per-student chronological train/val/test labels in an 8:1:1 ratio.

    Each student's time-sorted sequence is cut as floor(0.8n) train, then
    floor(0.1n) val, with the remainder test, so every prediction target lies
    in the student's future.  The rule is deterministic; ``seed`` is accepted
    to keep stage signatures uniform but does not influence the cut.
    """
    del seed
    counts = Counter(i.student_id for i in d.interactions)
    cursor: dict[str, int] = defaultdict(int)
    labels: list[str] = []
    for i in d.interactions:
        n = counts[i.student_id]
        n_train = int(n * TRAIN_FRACTION)
        n_val = int(n * VAL_FRACTION)
        pos = cursor[i.student_id]
        if pos < n_train:
            labels.append("train")
        elif pos < n_train + n_val:
            labels.append("val")
        else:
            labels.append("test")
        cursor[i.student_id] += 1
    return Dataset(d.interactions, labels, d.dropped_rows, d.duplicate_rows)


def serialize(d: Dataset) -> str:
    """Canonical text form of a dataset; re-ingestable (split column is ignored)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(REQUIRED_COLUMNS) + (["split"] if d.splits is not None else [])
    writer.writerow(header)
    for idx, i in enumerate(d.interactions):
        row = [
            i.student_id,
            i.question_id,
            KC_DELIMITER.join(sorted(i.kc_ids)),
            "1" if i.correct else "0",
            str(i.timestamp),
        ]
        if d.splits is not None:
            row.append(d.splits[idx])
        writer.writerow(row)
    return buf.getvalue()


def load(source: str | Path | IO[str]) -> Dataset:
    """Read a dataset previously written by :func:`serialize`, restoring splits; IngestError naming
    ``source`` if it has no split labels."""
    d, label_of = _read(source)
    if not label_of:
        raise IngestError(f"{source}: no split labels")
    labels = [label_of[(i.student_id, i.question_id, i.timestamp)] for i in d.interactions]
    return Dataset(d.interactions, labels, d.dropped_rows, d.duplicate_rows)
