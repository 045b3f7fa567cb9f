"""Synthetic interaction generators for calibration and end-to-end checks.

Two generators:

* ``irt_recovery_csv`` draws a full response matrix from known ability /
  difficulty / discrimination values, for parameter-recovery checks.
* ``planted_csv`` builds a population with planted similarity structure:
  ability bands of identical-ability students, band-matched question
  difficulty with mostly-own-band answering, and a band-specific concept
  affinity that a main-effects response model cannot absorb.  Similar
  students (same band) therefore carry real predictive signal, while
  cross-band peers mislead.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .seeding import derive_rng


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-max(min(z, 500.0), -500.0)))


def _rows_to_csv(rows: list[tuple[str, str, str, int, int]]) -> str:
    buf = io.StringIO()
    buf.write("student_id,question_id,kc_ids,correct,timestamp\n")
    for student, question, kcs, correct, ts in rows:
        buf.write(f"{student},{question},{kcs},{correct},{ts}\n")
    return buf.getvalue()


@dataclass(frozen=True)
class IrtTruth:
    theta: dict[str, float]
    disc: dict[str, float]
    diff: dict[str, float]


def irt_recovery_csv(
    n_students: int = 500,
    n_questions: int = 100,
    seed: int = 0,
) -> tuple[str, IrtTruth]:
    """Full response matrix drawn from known 2PL parameters."""
    rng = derive_rng(seed, "irt_recovery")
    students = [f"S{i:04d}" for i in range(n_students)]
    questions = [f"Q{j:04d}" for j in range(n_questions)]
    theta = {s: rng.gauss(0.0, 1.0) for s in students}
    diff = {q: rng.gauss(0.0, 1.0) for q in questions}
    # Log-uniform discriminations in [0.5, 2.0] give a recoverable rank spread.
    disc = {q: math.exp(rng.uniform(math.log(0.5), math.log(2.0))) for q in questions}
    rows = []
    for s in students:
        order = list(questions)
        rng.shuffle(order)  # per-student order, so no question is test-only after a temporal split
        for ts, q in enumerate(order):
            p = _sigmoid(disc[q] * (theta[s] - diff[q]))
            rows.append((s, q, f"K{int(q[1:]) % 5}", int(rng.random() < p), ts))
    return _rows_to_csv(rows), IrtTruth(theta, disc, diff)


@dataclass(frozen=True)
class PlantedTruth:
    band_of: dict[str, int]
    theta: dict[str, float]
    question_band: dict[str, int]
    question_diff: dict[str, float]
    kc_of: dict[str, str]
    affinity: dict[tuple[int, str], float]


def planted_csv(
    n_bands: int = 3,
    students_per_band: int = 20,
    questions_per_band: int = 16,
    kcs_per_band: int = 2,
    band_gap: float = 2.0,
    affinity: float = 2.0,
    cross_rate: float = 0.04,
    excursion_rate: float = 0.0,
    acc_offset: float = 0.8,
    diff_jitter: float = 0.4,
    seed: int = 0,
) -> tuple[str, PlantedTruth]:
    """Ability-banded population with band-local concepts and concept affinities.

    Students in a band share one true ability; questions in a band share the
    band's difficulty center (plus jitter) and carry one of the band's own
    KCs.  A student answers every own-band question, each foreign-band
    question with probability ``cross_rate``, and - with probability
    ``excursion_rate`` - every question of one foreign KC.  The success logit
    adds the student band's +-affinity for the question's KC, a band x
    concept interaction that per-student / per-question main effects cannot
    absorb but that transfers across same-band students.  Band-local KCs
    keep concept hops inside a band, so path neighborhoods, shared-concept
    counts, and concept accuracies all mark band identity.  ``acc_offset``
    tilts band difficulty centers so mean accuracy differs across bands,
    which makes a wrong-band peer's accuracy statistics actively misleading
    rather than merely uninformative.
    """
    rng = derive_rng(seed, "planted")
    band_kcs = {c: [f"K{c}_{j}" for j in range(kcs_per_band)] for c in range(n_bands)}
    kcs = [k for c in range(n_bands) for k in band_kcs[c]]
    band_theta = {c: (c - (n_bands - 1) / 2.0) * band_gap for c in range(n_bands)}

    band_of: dict[str, int] = {}
    theta: dict[str, float] = {}
    for c in range(n_bands):
        for i in range(students_per_band):
            sid = f"S{c}{i:02d}"
            band_of[sid] = c
            theta[sid] = band_theta[c]

    question_band: dict[str, int] = {}
    question_diff: dict[str, float] = {}
    kc_of: dict[str, str] = {}
    for c in range(n_bands):
        ease = ((n_bands - 1) / 2.0 - c) * acc_offset  # higher band -> harder questions
        for j in range(questions_per_band):
            qid = f"Q{c}{j:02d}"
            question_band[qid] = c
            question_diff[qid] = band_theta[c] - ease + rng.uniform(-diff_jitter, diff_jitter)
            kc_of[qid] = band_kcs[c][j % kcs_per_band]

    aff = {
        (c, k): (affinity if rng.random() < 0.5 else -affinity)
        for c in range(n_bands)
        for k in kcs
    }

    rows = []
    for sid in sorted(band_of):
        c = band_of[sid]
        chosen = {q for q in question_band if question_band[q] == c}
        if rng.random() < excursion_rate:
            foreign_kcs = [k for k in kcs if k not in band_kcs[c]]
            excursion_kc = foreign_kcs[rng.randrange(len(foreign_kcs))]
            chosen.update(q for q in question_band if kc_of[q] == excursion_kc)
        chosen.update(
            q
            for q in question_band
            if question_band[q] != c and q not in chosen and rng.random() < cross_rate
        )
        ordered = sorted(chosen)
        rng.shuffle(ordered)
        for ts, qid in enumerate(ordered):
            logit = theta[sid] + aff[(c, kc_of[qid])] - question_diff[qid]
            rows.append((sid, qid, kc_of[qid], int(rng.random() < _sigmoid(logit)), ts))
    return _rows_to_csv(rows), PlantedTruth(band_of, theta, question_band, question_diff, kc_of, aff)
