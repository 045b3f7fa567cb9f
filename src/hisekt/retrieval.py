"""Candidate construction and Mahalanobis similar-student ranking.

Student pairs are encoded as five decay/gap features: absolute ability gap,
scaled mean accuracy gap over shared KCs, and reciprocal-power decays of the
shared-question count, shared-KC count, and path co-occurrence frequency.
A similarity model holds the mean and a shrinkage-regularized covariance of
those features over sampled pairs; candidates are ranked by ascending
Mahalanobis distance.

Pairs are encoded and ranked in blocks.  :class:`StudentTables`, built once
per dataset, gives every student a row position, a students x KCs train
accuracy matrix with a has-KC mask (columns in sorted KC order) and a packed
students x questions incidence matrix; theta comes from
``IrtModel.theta_array``, so the model must cover every student of the
dataset, as one from ``irt.fit`` does.  :func:`encode_many` is the one
place the five formulas live, and :func:`encode` is its one-row call.  Its
arithmetic matches a per-pair Python loop bit for bit: the accuracy gap is
a running sum in sorted KC order, left to right (unshared KCs adding 0.0,
one column at a time), and the three decays are read from a table of Python floats
``(1.0 + i) ** (-c)`` filled on demand.
:func:`distances` is forward substitution against the 5 x 5 Cholesky
factor (from ``np.linalg.cholesky``, once per model), column by column, then
the squares summed left to right: elementwise numpy steps, no BLAS or LAPACK
kernel, so each row's bits are those of the same steps on it alone in
Python floats.  Since no row's features or distance depend on another row,
:func:`top_s_packed` ranks the targets of a whole stage's questions at once:
it packs consecutive (question, target) pairs' candidates into blocks of at
most :data:`BLOCK_PAIRS` pairs, each with one :func:`encode_many`, one
:func:`distances` and one lexsort, each target getting the distances it
would get alone.  :func:`random_peers` draws ``random`` mode's peers of
one question's targets instead, :func:`top_s` is the one-target call of
either, and :func:`fit_similarity` encodes its sampled pairs as one block.
Sampled pairs are drawn as indices and only the chosen ones decoded: random
pairs index the nested-loop pair order and are never listed, and a caller's
pair pool is an ascending array of :func:`pair_keys`, ints that sort as the
``(u, s, f)`` triples they stand for.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataset import Dataset, code_of
from .errors import ModelError
from .irt import IrtModel
from .pathscore import row_sums
from .seeding import derive_rng

logger = logging.getLogger(__name__)

FEATURE_DIM = 5
DEFAULT_SCALING = 2.0
DEFAULT_PAIR_SAMPLE = 10_000
SHRINKAGE_FLOOR = 0.05
SHRINKAGE_STEP = 0.01
MIN_EIGENVALUE = 1e-8
# most candidate pairs :func:`top_s_packed` encodes at once (unless one target has more), so a
# block's arrays stay a few MB however many questions, targets and candidates a stage has
BLOCK_PAIRS = 1 << 14


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


# popcount of each byte value, for shared-question counts over packed incidence rows
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


class StudentTables:
    """Train-split summaries of every student of a dataset, one row each.

    Row ``i`` is student ``students[i]``, the dataset's student code ``i``;
    every id of ``d.students()`` has one, students without train rows
    included.  ``kc_accuracy[i, k]`` is row ``i``'s train accuracy on KC code
    ``k`` where ``has_kc[i, k]``, else 0.0.  ``questions`` is the students x
    questions train incidence, packed eight questions per byte, one column
    per question code.
    """

    def __init__(self, d: Dataset):
        self.students, self._questions = d.students(), d.questions()
        n, n_kcs = len(self.students), len(d.kcs())
        train = d.iter_split("train")
        at, kcs = d.row_kcs(train)
        cells = d.student[train][at].astype(np.intp) * n_kcs + kcs
        totals = np.bincount(cells, minlength=n * n_kcs).reshape(n, n_kcs)
        right = np.bincount(cells, weights=d.correct[train][at], minlength=totals.size).reshape(totals.shape)
        self.has_kc = totals > 0
        self.kc_accuracy = np.divide(right, totals, out=np.zeros(totals.shape), where=self.has_kc)
        # set each answered question's bit in place, as np.packbits orders them (first = high bit)
        self.questions = np.zeros((n, (len(self._questions) + 7) // 8), dtype=np.uint8)
        rows, cols = d.student[train], d.question[train]
        np.bitwise_or.at(self.questions, (rows, cols >> 3), (0x80 >> (cols & 7)).astype(np.uint8))
        self._decay: dict[float, np.ndarray] = {}

    def positions(self, ids: Iterable[str]) -> np.ndarray:
        ids = list(ids)
        rows = np.array([code_of(self.students, sid) for sid in ids], dtype=np.intp)
        if (rows < 0).any():
            raise ValueError(f"{ids[int(np.argmax(rows < 0))]!r} is not a student of the dataset")
        return rows

    def answerers(self, question_id: str) -> np.ndarray:
        """Rows with a train answer to ``question_id``, ascending; none for an id not in the dataset."""
        j = code_of(self._questions, question_id)
        if j < 0:
            return np.zeros(0, dtype=np.intp)
        return np.flatnonzero(self.questions[:, j >> 3] & (0x80 >> (j & 7)))

    def decay(self, counts: np.ndarray, c: float) -> np.ndarray:
        """``(1.0 + n) ** (-c)`` for each count ``n``, read from a table of Python floats."""
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be non-negative")
        top = int(counts.max(initial=0))
        table = self._decay.get(c)
        if table is None or len(table) <= top:
            table = np.array([(1.0 + n) ** (-c) for n in range(2 * top + 2)])
            self._decay[c] = table  # replaced whole, so a concurrent reader sees an old or a new table
        return table[counts]


def student_tables(d: Dataset) -> StudentTables:
    """The dataset's student tables, built on first use and kept in the dataset's memo."""
    tables = d._memo.get("student_tables")
    if tables is None:
        tables = d._memo["student_tables"] = StudentTables(d)
    return tables


def encode_many(
    u: Sequence[int] | np.ndarray,
    s: Sequence[int] | np.ndarray,
    f: Sequence[int] | np.ndarray,
    m: IrtModel,
    d: Dataset,
    c: float = DEFAULT_SCALING,
) -> np.ndarray:
    """Features of the pairs ``(u[r], s[r])`` with co-occurrence ``f[r]``, one row each (n x 5).

    ``u`` and ``s`` are row positions of :func:`student_tables`; the
    features are symmetric in them.  Accuracies and shared counts come from
    train-split interactions only.  With no shared KC the accuracy-gap
    feature takes its worst value ``c``, since absent shared evidence should
    not read as similarity.
    """
    t = student_tables(d)
    u = np.asarray(u, dtype=np.intp)
    s = np.asarray(s, dtype=np.intp)
    if np.any(u == s):
        raise ValueError("cannot encode a student against itself")
    theta = m.theta_array(t.students)
    z1 = np.abs(theta[u] - theta[s])

    shared = t.has_kc[u] & t.has_kc[s]
    gap = np.abs(t.kc_accuracy[u] - t.kc_accuracy[s])
    # a running sum in sorted KC order, as a per-pair loop adds (np.sum's pairwise
    # reduction would not give its bits); an unshared KC adds 0.0, which changes none
    total = row_sums(np.where(shared, gap, 0.0)) if gap.shape[1] else np.zeros(len(u))
    n_kcs = shared.sum(axis=1)
    z2 = np.where(n_kcs > 0, (c / np.maximum(n_kcs, 1)) * total, c)

    n_q = _POPCOUNT[t.questions[u] & t.questions[s]].sum(axis=1)
    return np.column_stack(
        [z1, z2, t.decay(n_q, c), t.decay(n_kcs, c), t.decay(np.asarray(f, dtype=np.int64), c)])


def encode(
    u: str,
    s: str,
    f: int,
    m: IrtModel,
    d: Dataset,
    c: float = DEFAULT_SCALING,
) -> np.ndarray:
    """The five features (ability gap, scaled mean shared-KC accuracy gap, shared-question,
    shared-KC and co-occurrence decays) of two students by id: one row of :func:`encode_many`."""
    t = student_tables(d)
    return encode_many(t.positions([u]), t.positions([s]), [f], m, d, c)[0]


def _check_key_space(n: int, base: int) -> None:
    if base < 1:
        raise ValueError("pair key base must be >= 1")
    if n * n * base > np.iinfo(np.int64).max:
        raise ValueError(f"pair keys of {n} students with base {base} do not fit in int64")


def pair_keys(
    u: Sequence[int] | np.ndarray,
    s: Sequence[int] | np.ndarray,
    f: Sequence[int] | np.ndarray,
    n: int,
    base: int,
) -> np.ndarray:
    """Keys ``(u * n + s) * base + f`` of pairs of :func:`student_tables` rows ``u``, ``s`` of ``n``
    students with co-occurrence ``0 <= f < base``, broadcast as ``u + s + f`` is.

    Rows sort as student ids do, so keys sort as the ``(u_id, s_id, f)``
    triples they stand for.  Raises ValueError if ``n * n * base`` does not
    fit in int64, before any key is made.
    """
    _check_key_space(n, base)
    f = np.asarray(f, dtype=np.int64)
    if f.size and (f.min() < 0 or f.max() >= base):
        raise ValueError(f"co-occurrence counts must lie in [0, {base})")
    return (np.asarray(u, dtype=np.int64) * n + np.asarray(s, dtype=np.int64)) * base + f


def _checked_pool(pair_pool: np.ndarray, n: int, base: int | None) -> np.ndarray:
    keys = np.asarray(pair_pool)
    if keys.ndim != 1 or (keys.size and not np.issubdtype(keys.dtype, np.integer)):
        raise ValueError("pair_pool must be a 1-D array of pair_keys")
    if not keys.size:
        raise ModelError("empty pair pool for similarity fit")
    if base is None:
        raise ValueError("pair_pool needs its pair_base")
    _check_key_space(n, base)
    keys = keys.astype(np.int64, copy=False)
    if keys[0] < 0 or keys[-1] >= n * n * base or np.any(keys[1:] <= keys[:-1]):
        raise ValueError(f"pair_pool must hold distinct ascending keys in [0, {n * n * base})")
    return keys


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
    pair_pool: np.ndarray | None = None,
    pair_base: int | None = None,
) -> SimilarityModel:
    """Estimate the pair-feature mean and shrunk covariance over ``min(sample_pairs, pool size)`` pairs.

    By default pairs are distinct unordered student pairs drawn uniformly,
    encoded with co-occurrence f = 0 (random pairs carry no path evidence).
    ``pair_pool`` switches to caller-supplied (u, s, f) triples, e.g. pairs
    observed in retained path instances, sampled without replacement: a 1-D
    array of distinct :func:`pair_keys` with base ``pair_base``, ascending.
    Either way the pairs are drawn as indices into the pool in order (the
    nested-loop order for random pairs), and only the chosen ones are decoded.
    """
    if sample_pairs < 1:
        raise ValueError("sample_pairs must be >= 1")
    rng = derive_rng(seed, "fit_similarity")
    t = student_tables(d)
    n = len(t.students)
    if pair_pool is None:
        if n < 2:
            raise ModelError("need at least two students to fit a similarity model")
        size = n * (n - 1) // 2
    else:
        keys = _checked_pool(pair_pool, n, pair_base)
        size = len(keys)
    # rng.sample reads only len() and indexing, so sampling indices picks
    # the pairs that sampling the listed pool would
    index = np.arange(size) if size <= sample_pairs else np.array(rng.sample(range(size), sample_pairs), dtype=np.int64)
    if pair_pool is None:
        u, s = pair_at(index, n)
        f = np.zeros(len(u), dtype=np.int64)
    else:
        pair, f = np.divmod(keys[index], pair_base)
        u, s = np.divmod(pair, n)

    features = encode_many(u, s, f, m, d, c)
    mu, sigma, lam = _fit_from_features(features)
    model = SimilarityModel(mu=mu, sigma=sigma, shrinkage_lambda=lam, pair_sample_size=len(features))
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


def pair_at(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j), i < j, of the index-th pair in the order ``for i: for j > i`` over n items."""
    rows = np.arange(n, dtype=np.int64)
    starts = rows * n - rows * (rows + 1) // 2  # index of each row's first pair
    i = np.searchsorted(starts, index, side="right") - 1
    return i, index - starts[i] + i + 1


def distances(z: np.ndarray, sm: SimilarityModel) -> np.ndarray:
    """Mahalanobis distance of each row of ``z`` (n x 5): ``L y = z - mu`` solved for ``y`` against the
    Cholesky factor ``L`` by forward substitution, column by column, then ``sqrt(y_1² + ... + y_5²)``
    summed left to right.  All elementwise, so each row's bits are those of the same steps on the row
    alone, in Python floats: ``y_i = (((z_i - mu_i) - L[i, 1] y_1) - ... - L[i, i-1] y_{i-1}) / L[i, i]``."""
    rest = np.asarray(z, dtype=float) - sm.mu
    chol = sm.cholesky()
    total = np.zeros(len(rest))
    for j in range(FEATURE_DIM):
        y = rest[:, j] / chol[j, j]
        rest[:, j + 1:] -= y[:, None] * chol[j + 1:, j]
        total += y * y
    return np.sqrt(total)


def random_peers(question: str, rows: np.ndarray, targets: Sequence[str], seeds: Sequence[int], d: Dataset,
                 s: int) -> list[list[str]]:
    """Random Top-S peers of each of ``targets`` on ``question``, one list per target in order.

    ``rows`` are the ascending :func:`student_tables` rows of the students on the question's
    retained walks; a target's candidates are those students but itself.  It gets all of them, in
    id order, if there are at most ``s``; else ``s`` drawn uniformly under its own seed from
    ``seeds``.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if len(seeds) != len(targets):
        raise ValueError("random mode needs one seed per target")
    ids = [student_tables(d).students[row] for row in rows.tolist()]
    peers = []
    for target, seed in zip(targets, seeds):
        pool = [sid for sid in ids if sid != target]
        peers.append(pool if s >= len(pool) else derive_rng(seed, "top_s", target, question).sample(pool, s))
    return peers


def top_s_packed(
    questions: Sequence[tuple[tuple[np.ndarray, np.ndarray], Sequence[str]]],
    sm: SimilarityModel,
    m: IrtModel,
    d: Dataset,
    s: int,
    c: float = DEFAULT_SCALING,
) -> list[list[list[str]]]:
    """The nearest Top-S peers of the targets of many questions: for each ``(retained, targets)`` of
    ``questions``, one peer list per target in order.

    ``retained`` is ``(rows, counts)``: the ascending :func:`student_tables` rows of the students
    on the question's retained walks, and each one's co-occurrence count.  Each distinct
    (question, target) pair, in order of first appearance, has its candidates: the question's
    retained rows but its own.  Consecutive pairs are packed into blocks of at most
    :data:`BLOCK_PAIRS` candidates (a target with more has a block of its own), and each block
    gets one :func:`encode_many`, one :func:`distances` and one lexsort by (target, distance,
    row).  Rows do not interact, so a target's distances are those it would get alone, bit for
    bit, and its peers are its first ``min(s, |candidates|)`` rows of that order: nearest by
    distance, ties in id order (rows sort as student ids do).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    t = student_tables(d)
    n = len(t.students)
    sizes = np.array([len(retained[0]) for retained, _ in questions], dtype=np.intp)
    rows = np.concatenate([np.zeros(0, dtype=np.intp), *(retained[0] for retained, _ in questions)])
    f = np.concatenate([np.zeros(0, dtype=np.int64), *(retained[1] for retained, _ in questions)])
    asked = np.repeat(np.arange(len(questions)), [len(targets) for _, targets in questions])
    # the distinct (question, target) pairs in order of first appearance, and each target's pair
    keys, first, inverse = np.unique(asked * n + t.positions(u for _, targets in questions for u in targets),
                                     return_index=True, return_inverse=True)
    appearance = np.argsort(first)
    pair_of = np.empty_like(appearance)
    pair_of[appearance] = np.arange(len(appearance))
    question, u = np.divmod(keys[appearance], n)
    # a target's candidates: its question's rows, less its own if retained
    candidates = sizes[question] - np.isin(question * n + u, np.repeat(np.arange(len(questions)), sizes) * n + rows)
    starts = np.cumsum(sizes) - sizes
    kept = []
    for lo, hi in _blocks(candidates.tolist()):
        # each pair's question rows, pair by pair, then all but the target's own
        span = sizes[question[lo:hi]]
        which = np.repeat(np.arange(lo, hi), span)
        col = np.arange(len(which)) + np.repeat(starts[question[lo:hi]] - (np.cumsum(span) - span), span)
        mine = rows[col] != u[which]
        which, col = which[mine], col[mine]
        dist = distances(encode_many(u[which], rows[col], f[col], m, d, c), sm)
        order = np.lexsort((rows[col], dist, which))
        rank = np.arange(len(order)) - np.searchsorted(which, which)  # which is ascending
        kept.append(rows[col[order][rank < s]])
    peers = [t.students[row] for row in np.concatenate([np.zeros(0, dtype=np.intp), *kept]).tolist()]
    ends = np.cumsum(np.minimum(candidates, s)).tolist()
    lists = [peers[lo:hi] for lo, hi in zip([0, *ends], ends)]
    entry = iter(pair_of[inverse].tolist())
    return [[list(lists[next(entry)]) for _ in targets] for _, targets in questions]


def _blocks(sizes: list[int]) -> list[tuple[int, int]]:
    """``(lo, hi)`` spans of consecutive items whose sizes add up to at most :data:`BLOCK_PAIRS`,
    greedily; an item larger than that is a span of its own."""
    spans, lo, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > lo and total + size > BLOCK_PAIRS:
            spans.append((lo, i))
            lo, total = i, 0
        total += size
    if lo < len(sizes):
        spans.append((lo, len(sizes)))
    return spans


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
    """Pick ``min(s, |candidates|)`` peers: nearest by distance (the one-target call of
    :func:`top_s_packed`), or uniform at random (of :func:`random_peers`), on the candidates' rows
    and counts."""
    if mode not in ("similar", "random"):
        raise ValueError(f"unknown retrieval mode {mode!r}")
    ids = sorted(cands.candidates)
    rows = student_tables(d).positions(ids)
    if mode == "random":
        return random_peers(cands.target_question, rows, [cands.target_student], [seed], d, s)[0]
    counts = np.array([cands.candidates[sid] for sid in ids], dtype=np.int64)
    return top_s_packed([((rows, counts), [cands.target_student])], sm, m, d, s, c)[0][0]
