"""Candidate construction and Mahalanobis similar-student ranking.

Student pairs are encoded as five decay/gap features: absolute ability gap,
scaled mean accuracy gap over shared KCs, and reciprocal-power decays of the
shared-question count, shared-KC count, and path co-occurrence frequency.
A similarity model holds the mean and a shrinkage-regularized covariance of
those features over sampled pairs; candidates are ranked by ascending
Mahalanobis distance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset
from .errors import ModelError
from .irt import IrtModel
from .pathscore import ScoredInstance
from .seeding import derive_rng

logger = logging.getLogger(__name__)

FEATURE_DIM = 5
DEFAULT_SCALING = 2.0
DEFAULT_PAIR_SAMPLE = 10_000
SHRINKAGE_FLOOR = 0.05
SHRINKAGE_STEP = 0.01
MIN_EIGENVALUE = 1e-8


@dataclass(frozen=True)
class FeatureVector:
    z1: float  # ability gap
    z2: float  # mean shared-KC accuracy gap, scaled by c
    z3: float  # shared-question decay
    z4: float  # shared-KC decay
    z5: float  # co-occurrence decay

    def as_array(self) -> np.ndarray:
        return np.array([self.z1, self.z2, self.z3, self.z4, self.z5])


@dataclass(frozen=True)
class CandidateSet:
    target_student: str
    target_question: str
    candidates: Mapping[str, int]  # candidate id -> co-occurrence frequency f


@dataclass
class SimilarityModel:
    mu: np.ndarray
    sigma: np.ndarray
    shrinkage_lambda: float
    pair_sample_size: int
    _chol: np.ndarray | None = field(default=None, repr=False)

    def cholesky(self) -> np.ndarray:
        if self._chol is None:
            try:
                self._chol = np.linalg.cholesky(self.sigma)
            except np.linalg.LinAlgError as exc:
                raise ModelError(f"similarity covariance is not positive definite: {exc}") from exc
        return self._chol


class _TrainStats:
    """Per-student train-split summaries reused across encodings."""

    def __init__(self, d: Dataset):
        self.questions: dict[str, frozenset[str]] = {}
        self.kc_accuracy: dict[str, dict[str, float]] = {}
        for student, rows in d.by_student("train").items():
            self.questions[student] = frozenset(i.question_id for i in rows)
            totals: dict[str, int] = {}
            rights: dict[str, int] = {}
            for i in rows:
                for kc in i.kc_ids:
                    totals[kc] = totals.get(kc, 0) + 1
                    rights[kc] = rights.get(kc, 0) + (1 if i.correct else 0)
            self.kc_accuracy[student] = {kc: rights[kc] / totals[kc] for kc in totals}


def _train_stats(d: Dataset) -> _TrainStats:
    cached = getattr(d, "_pair_feature_stats", None)
    if cached is None:
        cached = _TrainStats(d)
        d._pair_feature_stats = cached  # memoized on the immutable dataset
    return cached


def student_counts(paths: Sequence[ScoredInstance]) -> dict[str, int]:
    """How often each student appears across the retained instances of one target question."""
    target_question = paths[0].instance.target_question if paths else ""
    counts: dict[str, int] = {}
    for scored in paths:
        if scored.instance.target_question != target_question:
            raise ValueError("all retained instances must share one target question")
        for kind, node_id in scored.instance.nodes:
            if kind == "U":
                counts[node_id] = counts.get(node_id, 0) + 1
    return counts


def candidates_of(counts: Mapping[str, int], u_target: str, target_question: str) -> CandidateSet:
    """The students of :func:`student_counts` minus the target, with their counts."""
    return CandidateSet(u_target, target_question, {sid: f for sid, f in counts.items() if sid != u_target})


def build_candidates(paths: Sequence[ScoredInstance], u_target: str) -> CandidateSet:
    """Distinct students across the retained instances, minus the target, with counts."""
    target_question = paths[0].instance.target_question if paths else ""
    return candidates_of(student_counts(paths), u_target, target_question)


def encode(
    u: str,
    s: str,
    f: int,
    m: IrtModel,
    d: Dataset,
    c: float = DEFAULT_SCALING,
) -> FeatureVector:
    """Five-dimensional pair features; symmetric in (u, s).

    Accuracies and shared counts come from train-split interactions only.
    With no shared KC the accuracy-gap feature takes its worst value ``c``,
    since absent shared evidence should not read as similarity.
    """
    if u == s:
        raise ValueError("cannot encode a student against itself")
    stats = _train_stats(d)
    theta_u = m.theta.get(u, 0.0)
    theta_s = m.theta.get(s, 0.0)
    z1 = abs(theta_u - theta_s)

    acc_u = stats.kc_accuracy.get(u, {})
    acc_s = stats.kc_accuracy.get(s, {})
    shared_kcs = acc_u.keys() & acc_s.keys()
    if shared_kcs:
        # summed in KC order: set order follows the per-process string hash
        z2 = (c / len(shared_kcs)) * sum(abs(acc_u[k] - acc_s[k]) for k in sorted(shared_kcs))
    else:
        z2 = c

    n_q = len(stats.questions.get(u, frozenset()) & stats.questions.get(s, frozenset()))
    z3 = (1.0 + n_q) ** (-c)
    z4 = (1.0 + len(shared_kcs)) ** (-c)
    z5 = (1.0 + f) ** (-c)
    return FeatureVector(z1, z2, z3, z4, z5)


def _shrink(sample_cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Blend toward the scaled identity until the smallest eigenvalue clears the floor."""
    target = (np.trace(sample_cov) / FEATURE_DIM) * np.eye(FEATURE_DIM)
    lam_found = None
    for step in range(1, 101):
        lam = step * SHRINKAGE_STEP
        candidate = (1.0 - lam) * sample_cov + lam * target
        if np.linalg.eigvalsh(candidate).min() >= MIN_EIGENVALUE:
            lam_found = lam
            break
    if lam_found is None:
        logger.warning("degenerate pair features; covariance floored to %g * I", MIN_EIGENVALUE)
        return MIN_EIGENVALUE * np.eye(FEATURE_DIM), 1.0
    lam = max(lam_found, SHRINKAGE_FLOOR)
    return (1.0 - lam) * sample_cov + lam * target, lam


def fit_similarity(
    d: Dataset,
    m: IrtModel,
    sample_pairs: int = DEFAULT_PAIR_SAMPLE,
    seed: int = 0,
    c: float = DEFAULT_SCALING,
    pair_pool: Sequence[tuple[str, str, int]] | None = None,
) -> SimilarityModel:
    """Estimate the pair-feature mean and shrunk covariance.

    By default pairs are distinct unordered student pairs drawn uniformly,
    encoded with co-occurrence f = 0 (random pairs carry no path evidence).
    ``pair_pool`` switches to caller-supplied (u, s, f) triples, e.g. pairs
    observed in retained path instances, sampled without replacement.
    """
    rng = derive_rng(seed, "fit_similarity")
    if pair_pool is not None:
        pool = sorted(set(pair_pool))
        if not pool:
            raise ModelError("empty pair pool for similarity fit")
        chosen = pool if len(pool) <= sample_pairs else rng.sample(pool, sample_pairs)
    else:
        students = d.students()
        if len(students) < 2:
            raise ModelError("need at least two students to fit a similarity model")
        all_pairs = [
            (students[i], students[j], 0)
            for i in range(len(students))
            for j in range(i + 1, len(students))
        ]
        chosen = all_pairs if len(all_pairs) <= sample_pairs else rng.sample(all_pairs, sample_pairs)

    features = np.array([encode(u, s, f, m, d, c).as_array() for u, s, f in chosen])
    mu, sigma, lam = _fit_from_features(features)
    model = SimilarityModel(mu=mu, sigma=sigma, shrinkage_lambda=lam, pair_sample_size=len(chosen))
    model.cholesky()  # assert positive definiteness now
    return model


def _fit_from_features(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    mu = features.mean(axis=0)
    if features.shape[0] > 1:
        sample_cov = np.atleast_2d(np.cov(features, rowvar=False))
    else:
        sample_cov = np.zeros((FEATURE_DIM, FEATURE_DIM))
    sigma, lam = _shrink(sample_cov)
    return mu, sigma, lam


def distance(z: FeatureVector, sm: SimilarityModel) -> float:
    """sqrt((z - mu)^T Sigma^-1 (z - mu)) via a triangular solve, no explicit inverse."""
    delta = z.as_array() - sm.mu
    chol = sm.cholesky()
    # Solve L y = delta; the squared distance is ||y||^2.
    y = np.linalg.solve(chol, delta)
    return float(np.sqrt(np.dot(y, y)))


def top_s(
    cands: CandidateSet,
    sm: SimilarityModel,
    m: IrtModel,
    d: Dataset,
    s: int,
    mode: str = "similar",
    c: float = DEFAULT_SCALING,
    seed: int = 0,
) -> list[str]:
    """Pick ``min(s, |candidates|)`` peers: nearest by distance, or uniform at random."""
    if s < 1:
        raise ValueError("s must be >= 1")
    ids = sorted(cands.candidates)
    if not ids:
        return []
    if mode == "similar":
        ranked = sorted(
            ids,
            key=lambda sid: (
                distance(encode(cands.target_student, sid, cands.candidates[sid], m, d, c), sm),
                sid,
            ),
        )
        return ranked[: min(s, len(ranked))]
    if mode == "random":
        rng = derive_rng(seed, "top_s", cands.target_student, cands.target_question)
        if s >= len(ids):
            return ids
        return rng.sample(ids, s)
    raise ValueError(f"unknown retrieval mode {mode!r}")
