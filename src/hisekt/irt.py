"""Two-parameter logistic response model and three-level discretization.

The response model is P(correct) = 1 / (1 + exp(-a * (theta - b))) with
student ability theta, question difficulty b, and question discrimination
a > 0.  Joint maximum likelihood for this model is not identifiable without
anchoring, so fitting maximizes a Bernoulli log-likelihood with an L2 penalty
lambda * (theta^2 + b^2 + log(a)^2) that pins the scale and location.
Discrimination is parameterized as a = exp(alpha) to stay positive.

Each fitting round takes one joint step in (theta, alpha, b) from the warm
start: a Newton step where the negative Hessian is positive definite, else a
Fisher-scoring step on the expected information, which the penalty keeps
positive definite.  The ability block of either matrix is diagonal and is
eliminated through its Schur complement, so a round solves one dense 2Q x 2Q
system for Q questions.  A backtracking line search keeps the penalized
objective from decreasing, and alpha is projected onto [-ALPHA_CLAMP,
ALPHA_CLAMP]: an alpha on the clamp whose gradient points outward is held for
the round.  The fit stops when the Newton decrement g . step falls below
DECREMENT_TOL * (1 + |objective|); MAX_ROUNDS is only a guard.  A joint step
moves along the ridge theta -> c theta, b -> c b, a -> a / c, on which the
predictor is constant and only the weak penalty acts, and along which
alternating block updates crawl.  The fit is deterministic given the data.

:func:`fit` is the only code that sets priors: the model it returns covers
every student and question of the dataset, so readers index it directly.
A model is frozen and its five tables are read-only copies of the mappings it
was built from, so values memoized from them cannot go stale.  :func:`serialize` and
:func:`load` store the model as JSON of its init fields.
"""

from __future__ import annotations

import enum
import json
import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import IO, Mapping

import numpy as np

from .dataset import Dataset

logger = logging.getLogger(__name__)

L2_PENALTY = 0.01
MAX_ROUNDS = 500  # a guard only: the fits stop on the decrement long before it
DECREMENT_TOL = 1e-12  # relative to 1 + |objective|
MIN_STEP = 2.0**-30  # smallest line-search step tried
INIT_CLAMP = 3.0
ALPHA_CLAMP = 4.6  # keeps a = exp(alpha) within ~[0.01, 100]
# Names the fitting rule in the CLI cache directory, so a model fitted by another rule is not read.
FIT_SCHEME = "joint-newton"


_LEVEL_LABELS = ("Low", "Medium", "High")  # by Level value


class Level(enum.IntEnum):
    """Ability/difficulty band; the integer values give the total order Low < Medium < High."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @property
    def label(self) -> str:
        return _LEVEL_LABELS[self]

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


@dataclass(frozen=True)
class IrtModel:
    """Fitted parameters plus level assignments for every student and question.

    A model from :func:`fit` covers every student and question of its dataset, cold-start ids
    included, and readers index it directly: an id it lacks raises KeyError.  A model is frozen,
    and its tables (``theta``, ``disc``, ``diff`` and the two level maps) are read-only copies of
    the mappings given: writing to one raises TypeError.  ``dataclasses.replace`` makes a model
    with other values.
    """

    theta: Mapping[str, float]
    disc: Mapping[str, float]
    diff: Mapping[str, float]
    ability_level: Mapping[str, Level]
    difficulty_level: Mapping[str, Level]
    ability_mu: float
    ability_sigma: float
    difficulty_mu: float
    difficulty_sigma: float
    converged: bool = True
    rounds: int = 0
    clamped_questions: int = 0  # questions whose alpha finished on +-ALPHA_CLAMP
    decrement: float = 0.0  # Newton decrement g . step at the last round
    cold_start_students: frozenset[str] = field(default_factory=frozenset)
    cold_start_questions: frozenset[str] = field(default_factory=frozenset)
    _theta_rows: dict[tuple[str, ...], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("theta", "disc", "diff", "ability_level", "difficulty_level"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def theta_array(self, students: tuple[str, ...]) -> np.ndarray:
        """theta of each of ``students`` in order, memoized per student tuple; KeyError if the
        model lacks one."""
        rows = self._theta_rows.get(students)
        if rows is None:
            rows = np.array([self.theta[s] for s in students], dtype=float)
            rows.flags.writeable = False  # shared by every caller
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
    z = np.exp(alpha)[q_idx] * (theta[s_idx] - b[q_idx])
    # log sigmoid(z) = -log(1 + e^-z) for a correct answer, log(1 - sigmoid(z)) = -log(1 + e^z) otherwise
    ll = -np.sum(np.logaddexp(0.0, (1.0 - 2.0 * correct) * z))
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


def _joint_step(theta, alpha, b, s_idx, q_idx, correct, lam, g_theta, g_alpha, g_b, held):
    """Joint step d = (d_theta, d_alpha, d_b) solving H d = g for the negative Hessian H.

    With z = a (theta - b), dz = dz/d(theta, alpha, b) = (a, z, -a) and p = sigmoid(z), H sums
    p (1 - p) outer(dz, dz) - (correct - p) d2z over the responses, plus 2 lam on the diagonal;
    d2z is nonzero only in the alpha rows, (a, z, -a) against (theta, alpha, b).  Without the
    residual term H is the expected information, positive definite by the penalty.  Either way the
    ability block is diagonal and is eliminated through its Schur complement, so one dense 2Q x 2Q
    system is solved; the cross block is N x 2Q.  The observed H is used when that complement
    is positive definite, else the expected information (a Fisher-scoring step).  The ``held``
    alphas keep a zero step.
    """
    n_s, n_q = len(theta), len(b)
    a_o = np.exp(alpha)[q_idx]
    z = a_o * (theta[s_idx] - b[q_idx])
    p = _sigmoid(z)
    w = p * (1.0 - p)
    info_theta = np.bincount(s_idx, weights=w * a_o**2, minlength=n_s) + 2.0 * lam
    cell = s_idx * n_q + q_idx
    pairs = np.arange(n_q)
    free = np.concatenate([~held, np.ones(n_q, dtype=bool)])
    g_q = np.concatenate([g_alpha, g_b])

    def solve(resid, check: bool):
        cross = np.hstack([
            np.bincount(cell, weights=(w * z - resid) * a_o, minlength=n_s * n_q).reshape(n_s, n_q),
            np.bincount(cell, weights=-w * a_o**2, minlength=n_s * n_q).reshape(n_s, n_q),
        ])
        info_q = np.diag(np.concatenate([
            np.bincount(q_idx, weights=(w * z - resid) * z, minlength=n_q),
            np.bincount(q_idx, weights=w * a_o**2, minlength=n_q),
        ]) + 2.0 * lam)
        info_q[pairs, n_q + pairs] = info_q[n_q + pairs, pairs] = np.bincount(
            q_idx, weights=(resid - w * z) * a_o, minlength=n_q)
        scaled = cross / info_theta[:, None]
        schur = (info_q - cross.T @ scaled)[np.ix_(free, free)]
        if check:
            np.linalg.cholesky(schur)  # raises LinAlgError unless positive definite
        d_q = np.zeros(2 * n_q)
        d_q[free] = np.linalg.solve(schur, (g_q - scaled.T @ g_theta)[free])
        return (g_theta - cross @ d_q) / info_theta, d_q[:n_q], d_q[n_q:]

    try:
        return solve(correct - p, check=True)
    except np.linalg.LinAlgError:
        return solve(0.0, check=False)


def _clamped_logit(rate: float) -> float:
    rate = min(max(rate, 1e-9), 1.0 - 1e-9)
    return float(np.clip(math.log(rate / (1.0 - rate)), -INIT_CLAMP, INIT_CLAMP))


def train_arrays(d: Dataset) -> tuple[list[str], list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Sorted train students and questions, and each train response's (student, question, correct)
    as index and 0/1 arrays: the data :func:`penalized_loglik` takes."""
    train = d.iter_split("train")
    students, s_idx = np.unique(d.student[train], return_inverse=True)
    questions, q_idx = np.unique(d.question[train], return_inverse=True)
    return ([d.students()[k] for k in students.tolist()], [d.questions()[k] for k in questions.tolist()],
            s_idx.astype(np.int64), q_idx.astype(np.int64), d.correct[train].astype(float))


def fit(d: Dataset, lam: float = L2_PENALTY) -> IrtModel:
    """Fit abilities and question parameters on the train split.

    The model covers every student and question of ``d``.  This is the one
    place priors are set: students and questions that appear only in val/test
    get theta = b = 0, a = 1 and level Medium, and are listed in
    ``cold_start_students`` / ``cold_start_questions``.  They are left out of
    the population statistics and the level cut points.
    """
    students, questions, s_idx, q_idx, correct = train_arrays(d)

    # Warm start: accuracy logits clamped to +-3, unit discrimination.
    s_total = np.bincount(s_idx, minlength=len(students))
    s_right = np.bincount(s_idx, weights=correct, minlength=len(students))
    q_total = np.bincount(q_idx, minlength=len(questions))
    q_right = np.bincount(q_idx, weights=correct, minlength=len(questions))
    theta = np.array([_clamped_logit(r / t) for r, t in zip(s_right, s_total)])
    b = np.array([-_clamped_logit(r / t) for r, t in zip(q_right, q_total)])
    alpha = np.zeros(len(questions))

    converged = False
    decrement = math.inf
    f = penalized_loglik(theta, alpha, b, s_idx, q_idx, correct, lam)
    for rounds in range(1, MAX_ROUNDS + 1):
        g_theta, g_alpha, g_b = penalized_loglik_grad(theta, alpha, b, s_idx, q_idx, correct, lam)
        # An alpha on its clamp whose gradient points outward is held for this round.
        held = ((alpha >= ALPHA_CLAMP) & (g_alpha > 0.0)) | ((alpha <= -ALPHA_CLAMP) & (g_alpha < 0.0))
        d_theta, d_alpha, d_b = _joint_step(
            theta, alpha, b, s_idx, q_idx, correct, lam, g_theta, g_alpha, g_b, held)
        decrement = float(g_theta @ d_theta + g_alpha @ d_alpha + g_b @ d_b)
        if decrement < DECREMENT_TOL * (1.0 + abs(f)):
            converged = True
            break
        # Backtrack until the penalized objective does not decrease.
        t = 1.0
        while True:
            trial = (theta + t * d_theta, np.clip(alpha + t * d_alpha, -ALPHA_CLAMP, ALPHA_CLAMP), b + t * d_b)
            f_trial = penalized_loglik(*trial, s_idx, q_idx, correct, lam)
            if f_trial >= f or t < MIN_STEP:
                break
            t *= 0.5
        if f_trial < f:
            break  # no step keeps the objective: stop, unconverged
        (theta, alpha, b), f = trial, f_trial
    clamped = int(np.count_nonzero(np.abs(alpha) >= ALPHA_CLAMP))
    if not converged:
        logger.warning(
            "irt fit did not converge after %d rounds: decrement %.3g, %d questions on the alpha clamp; "
            "returning the last iterate", rounds, decrement, clamped)

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
        clamped_questions=clamped,
        decrement=decrement,
        cold_start_students=frozenset(cold_students),
        cold_start_questions=frozenset(cold_questions),
    )


# -- serialization ---------------------------------------------------------


def serialize(m: IrtModel) -> str:
    """JSON of the model's init fields, keys sorted: levels by label, cold-start ids as sorted lists."""
    values = {f.name: getattr(m, f.name) for f in fields(m) if f.init}
    for name in ("theta", "disc", "diff"):
        values[name] = dict(values[name])
    for name in ("ability_level", "difficulty_level"):
        values[name] = {key: level.label for key, level in values[name].items()}
    for name in ("cold_start_students", "cold_start_questions"):
        values[name] = sorted(values[name])
    return json.dumps(values, sort_keys=True) + "\n"


def load(source: str | Path | IO[str]) -> IrtModel:
    """The model :func:`serialize` wrote, read whole: a cut file, a missing or unknown field, an
    unknown level label or a level table that is not an object raises ValueError, TypeError or
    AttributeError; no field falls back to its default."""
    text = Path(source).read_text(encoding="utf-8") if isinstance(source, (str, Path)) else source.read()
    values = json.loads(text)
    missing = {f.name for f in fields(IrtModel) if f.init} - set(values)
    if missing:
        raise ValueError(f"missing fields {sorted(missing)}")
    for name in ("ability_level", "difficulty_level"):
        values[name] = {key: Level.from_label(label) for key, label in values[name].items()}
    for name in ("cold_start_students", "cold_start_questions"):
        values[name] = frozenset(values[name])
    return IrtModel(**values)
