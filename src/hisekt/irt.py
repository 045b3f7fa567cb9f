"""Two-parameter logistic response model and three-level discretization.

The response model is P(correct) = 1 / (1 + exp(-a * (theta - b))) with
student ability theta, question difficulty b, and question discrimination
a > 0.  Joint maximum likelihood for this model is not identifiable without
anchoring, so fitting maximizes a Bernoulli log-likelihood with an L2 penalty
lambda * (theta^2 + b^2 + log(a)^2) that pins the scale and location.
Discrimination is parameterized as a = exp(alpha) to stay positive.

Fitting alternates two block updates per round: all thetas with question
parameters fixed, then all (alpha, b) with abilities fixed.  Each block takes
one damped Fisher-scoring step, which is deterministic given the data.
"""

from __future__ import annotations

import enum
import io
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from .dataset import Dataset

logger = logging.getLogger(__name__)

L2_PENALTY = 0.01
MAX_ROUNDS = 500
CONVERGENCE_TOL = 1e-4
INIT_CLAMP = 3.0
STEP_CLAMP = 1.0
ALPHA_CLAMP = 4.6  # keeps a = exp(alpha) within ~[0.01, 100]
INNER_STEPS = 25
INNER_TOL = 1e-6


class Level(enum.IntEnum):
    """Ability/difficulty band; the integer values give the total order Low < Medium < High."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @property
    def label(self) -> str:
        return {Level.LOW: "Low", Level.MEDIUM: "Medium", Level.HIGH: "High"}[self]

    @classmethod
    def from_label(cls, label: str) -> "Level":
        for level in cls:
            if level.label == label:
                return level
        raise ValueError(f"unknown level label {label!r}")


def _sigmoid(z: np.ndarray | float):
    z = np.clip(z, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-z))


def probability(theta: float, a: float, b: float) -> float:
    """P(correct) = 1 / (1 + exp(-a * (theta - b))); requires a > 0."""
    if a <= 0:
        raise ValueError(f"discrimination must be positive, got {a}")
    return float(_sigmoid(a * (theta - b)))


def discretize(values: Mapping[str, float]) -> dict[str, Level]:
    """Split values into Low / Medium / High around their population mean.

    Low iff x < mu - sigma, High iff x > mu + sigma, Medium on the closed
    band in between (boundaries inclusive).  Uses the population standard
    deviation, so a constant population is all Medium.
    """
    if not values:
        raise ValueError("cannot discretize an empty value map")
    mu, sigma = population_stats(values)
    out: dict[str, Level] = {}
    for key, x in values.items():
        if x < mu - sigma:
            out[key] = Level.LOW
        elif x > mu + sigma:
            out[key] = Level.HIGH
        else:
            out[key] = Level.MEDIUM
    return out


def population_stats(values: Mapping[str, float]) -> tuple[float, float]:
    arr = np.fromiter(values.values(), dtype=float)
    return float(arr.mean()), float(arr.std())


@dataclass
class IrtModel:
    """Fitted parameters plus level assignments for every student and question."""

    theta: dict[str, float]
    disc: dict[str, float]
    diff: dict[str, float]
    ability_level: dict[str, Level]
    difficulty_level: dict[str, Level]
    ability_mu: float
    ability_sigma: float
    difficulty_mu: float
    difficulty_sigma: float
    converged: bool = True
    rounds: int = 0
    cold_start_students: frozenset[str] = field(default_factory=frozenset)
    cold_start_questions: frozenset[str] = field(default_factory=frozenset)
    _theta_rows: dict[tuple[str, ...], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def has_question(self, question_id: str) -> bool:
        return question_id in self.diff

    def theta_array(self, students: tuple[str, ...]) -> np.ndarray:
        """theta of each of ``students`` in order, 0.0 where the model has none.

        Memoized per student tuple, so ``theta`` must not change after the
        first call.
        """
        rows = self._theta_rows.get(students)
        if rows is None:
            rows = np.array([self.theta.get(s, 0.0) for s in students], dtype=float)
            self._theta_rows[students] = rows
        return rows


# -- penalized likelihood -------------------------------------------------


def penalized_loglik(
    theta: np.ndarray,
    alpha: np.ndarray,
    b: np.ndarray,
    s_idx: np.ndarray,
    q_idx: np.ndarray,
    correct: np.ndarray,
    lam: float = L2_PENALTY,
) -> float:
    """L2-penalized Bernoulli log-likelihood over (student, question, correct) triples."""
    a = np.exp(alpha)
    z = a[q_idx] * (theta[s_idx] - b[q_idx])
    p = _sigmoid(z)
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    ll = np.sum(correct * np.log(p) + (1.0 - correct) * np.log(1.0 - p))
    penalty = lam * (np.sum(theta**2) + np.sum(alpha**2) + np.sum(b**2))
    return float(ll - penalty)


def penalized_loglik_grad(
    theta: np.ndarray,
    alpha: np.ndarray,
    b: np.ndarray,
    s_idx: np.ndarray,
    q_idx: np.ndarray,
    correct: np.ndarray,
    lam: float = L2_PENALTY,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradient of :func:`penalized_loglik` in (theta, alpha, b)."""
    a = np.exp(alpha)
    a_o = a[q_idx]
    resid = correct - _sigmoid(a_o * (theta[s_idx] - b[q_idx]))
    g_theta = np.bincount(s_idx, weights=a_o * resid, minlength=len(theta)) - 2.0 * lam * theta
    g_alpha = (
        np.bincount(q_idx, weights=a_o * (theta[s_idx] - b[q_idx]) * resid, minlength=len(b))
        - 2.0 * lam * alpha
    )
    g_b = -np.bincount(q_idx, weights=a_o * resid, minlength=len(b)) - 2.0 * lam * b
    return g_theta, g_alpha, g_b


def _clamped_logit(rate: float) -> float:
    rate = min(max(rate, 1e-9), 1.0 - 1e-9)
    return float(np.clip(math.log(rate / (1.0 - rate)), -INIT_CLAMP, INIT_CLAMP))


def fit(d: Dataset, lam: float = L2_PENALTY) -> IrtModel:
    """Fit abilities and question parameters on the train split.

    Students and questions that appear only in val/test receive the
    population-prior fallback theta = b = 0, a = 1, level Medium.
    """
    train = d.iter_split("train")
    students = sorted({i.student_id for i in train})
    questions = sorted({i.question_id for i in train})
    s_pos = {s: k for k, s in enumerate(students)}
    q_pos = {q: k for k, q in enumerate(questions)}
    s_idx = np.fromiter((s_pos[i.student_id] for i in train), dtype=np.int64, count=len(train))
    q_idx = np.fromiter((q_pos[i.question_id] for i in train), dtype=np.int64, count=len(train))
    correct = np.fromiter((1.0 if i.correct else 0.0 for i in train), dtype=float, count=len(train))

    # Warm start: accuracy logits clamped to +-3, unit discrimination.
    s_total = np.bincount(s_idx, minlength=len(students))
    s_right = np.bincount(s_idx, weights=correct, minlength=len(students))
    q_total = np.bincount(q_idx, minlength=len(questions))
    q_right = np.bincount(q_idx, weights=correct, minlength=len(questions))
    theta = np.array([_clamped_logit(r / t) for r, t in zip(s_right, s_total)])
    b = np.array([-_clamped_logit(r / t) for r, t in zip(q_right, q_total)])
    alpha = np.zeros(len(questions))

    converged = False
    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        theta_start, alpha_start, b_start = theta.copy(), alpha.copy(), b.copy()

        # Block 1: abilities with question parameters fixed (damped Fisher steps
        # iterated to block convergence).
        a = np.exp(alpha)
        a_o = a[q_idx]
        for _ in range(INNER_STEPS):
            p = _sigmoid(a_o * (theta[s_idx] - b[q_idx]))
            w = p * (1.0 - p)
            g = np.bincount(s_idx, weights=a_o * (correct - p), minlength=len(students)) - 2.0 * lam * theta
            info = np.bincount(s_idx, weights=a_o**2 * w, minlength=len(students)) + 2.0 * lam
            step = np.clip(g / info, -STEP_CLAMP, STEP_CLAMP)
            theta = theta + step
            if float(np.max(np.abs(step))) < INNER_TOL:
                break

        # Block 2: question parameters with abilities fixed, 2x2 Fisher steps per question.
        for _ in range(INNER_STEPS):
            a = np.exp(alpha)
            a_o = a[q_idx]
            gap = theta[s_idx] - b[q_idx]
            p = _sigmoid(a_o * gap)
            w = p * (1.0 - p)
            resid = correct - p
            g_alpha = np.bincount(q_idx, weights=a_o * gap * resid, minlength=len(questions)) - 2.0 * lam * alpha
            g_b = -np.bincount(q_idx, weights=a_o * resid, minlength=len(questions)) - 2.0 * lam * b
            i_aa = np.bincount(q_idx, weights=w * (a_o * gap) ** 2, minlength=len(questions)) + 2.0 * lam
            i_bb = np.bincount(q_idx, weights=w * a_o**2, minlength=len(questions)) + 2.0 * lam
            i_ab = -np.bincount(q_idx, weights=w * a_o**2 * gap, minlength=len(questions))
            det = i_aa * i_bb - i_ab**2
            det = np.where(np.abs(det) < 1e-12, 1e-12, det)
            step_alpha = np.clip((i_bb * g_alpha - i_ab * g_b) / det, -STEP_CLAMP, STEP_CLAMP)
            step_b = np.clip((-i_ab * g_alpha + i_aa * g_b) / det, -STEP_CLAMP, STEP_CLAMP)
            alpha = np.clip(alpha + step_alpha, -ALPHA_CLAMP, ALPHA_CLAMP)
            b = b + step_b
            if max(float(np.max(np.abs(step_alpha))), float(np.max(np.abs(step_b)))) < INNER_TOL:
                break

        round_change = max(
            float(np.max(np.abs(theta - theta_start))),
            float(np.max(np.abs(alpha - alpha_start))),
            float(np.max(np.abs(b - b_start))),
        )
        if round_change < CONVERGENCE_TOL:
            converged = True
            break

    if not converged:
        logger.warning("irt fit did not converge after %d rounds; returning best iterate", MAX_ROUNDS)

    theta_map = {s: float(theta[k]) for k, s in enumerate(students)}
    disc_map = {q: float(np.exp(alpha[k])) for k, q in enumerate(questions)}
    diff_map = {q: float(b[k]) for k, q in enumerate(questions)}
    ability_mu, ability_sigma = population_stats(theta_map)
    difficulty_mu, difficulty_sigma = population_stats(diff_map)
    ability_level = discretize(theta_map)
    difficulty_level = discretize(diff_map)

    # Cold-start fallback for ids never seen in the train split.
    cold_students = sorted(set(d.students()) - set(students))
    cold_questions = sorted(set(d.questions()) - set(questions))
    for s in cold_students:
        theta_map[s] = 0.0
        ability_level[s] = Level.MEDIUM
    for q in cold_questions:
        disc_map[q] = 1.0
        diff_map[q] = 0.0
        difficulty_level[q] = Level.MEDIUM
    if cold_students or cold_questions:
        logger.info(
            "irt fit: cold-start fallback for %d students, %d questions",
            len(cold_students),
            len(cold_questions),
        )

    return IrtModel(
        theta=theta_map,
        disc=disc_map,
        diff=diff_map,
        ability_level=ability_level,
        difficulty_level=difficulty_level,
        ability_mu=ability_mu,
        ability_sigma=ability_sigma,
        difficulty_mu=difficulty_mu,
        difficulty_sigma=difficulty_sigma,
        converged=converged,
        rounds=rounds,
        cold_start_students=frozenset(cold_students),
        cold_start_questions=frozenset(cold_questions),
    )


# -- serialization ---------------------------------------------------------


def serialize(m: IrtModel) -> str:
    """Tab-separated text artifact: stats header then one row per student/question."""
    buf = io.StringIO()
    buf.write("# irt model v1\n")
    buf.write(f"stats\tability\t{m.ability_mu!r}\t{m.ability_sigma!r}\n")
    buf.write(f"stats\tdifficulty\t{m.difficulty_mu!r}\t{m.difficulty_sigma!r}\n")
    buf.write(f"meta\tconverged\t{int(m.converged)}\t{m.rounds}\n")
    for s in sorted(m.theta):
        cold = int(s in m.cold_start_students)
        buf.write(f"student\t{s}\t{m.theta[s]!r}\t{m.ability_level[s].label}\t{cold}\n")
    for q in sorted(m.diff):
        cold = int(q in m.cold_start_questions)
        buf.write(
            f"question\t{q}\t{m.disc[q]!r}\t{m.diff[q]!r}\t{m.difficulty_level[q].label}\t{cold}\n"
        )
    return buf.getvalue()


def load(source: str | Path | IO[str]) -> IrtModel:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    theta: dict[str, float] = {}
    disc: dict[str, float] = {}
    diff: dict[str, float] = {}
    ability_level: dict[str, Level] = {}
    difficulty_level: dict[str, Level] = {}
    stats = {"ability": (0.0, 0.0), "difficulty": (0.0, 0.0)}
    converged, rounds = True, 0
    cold_s: set[str] = set()
    cold_q: set[str] = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        kind = parts[0]
        if kind == "stats":
            stats[parts[1]] = (float(parts[2]), float(parts[3]))
        elif kind == "meta":
            converged = bool(int(parts[2]))
            rounds = int(parts[3])
        elif kind == "student":
            theta[parts[1]] = float(parts[2])
            ability_level[parts[1]] = Level.from_label(parts[3])
            if int(parts[4]):
                cold_s.add(parts[1])
        elif kind == "question":
            disc[parts[1]] = float(parts[2])
            diff[parts[1]] = float(parts[3])
            difficulty_level[parts[1]] = Level.from_label(parts[4])
            if int(parts[5]):
                cold_q.add(parts[1])
    return IrtModel(
        theta=theta,
        disc=disc,
        diff=diff,
        ability_level=ability_level,
        difficulty_level=difficulty_level,
        ability_mu=stats["ability"][0],
        ability_sigma=stats["ability"][1],
        difficulty_mu=stats["difficulty"][0],
        difficulty_sigma=stats["difficulty"][1],
        converged=converged,
        rounds=rounds,
        cold_start_students=frozenset(cold_s),
        cold_start_questions=frozenset(cold_q),
    )
