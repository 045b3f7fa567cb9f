"""Test helpers with no caller in the package: a client that plays back canned LLM replies,
a prompt bundle whose text is cut, the shape check of criterion 8's AUC-by-K series, the
path pair pool as string triples with its conversions to and from ``retrieval.pair_keys``,
and the path formulas on one walk of node indices."""

import math

import numpy as np

from hisekt.errors import TransportError
from hisekt.llm import LlmClient
from hisekt.pathscore import LEVEL_CATEGORIES, MAX_DIMENSION_SCORE
from hisekt.predict import PromptBundle
from hisekt.retrieval import pair_keys, student_tables


def scripted_client(replies, **kwargs):
    """A mock-backend client whose transport plays back ``replies`` in order."""
    queue = list(replies)

    def transport(prompt):
        del prompt
        if not queue:
            raise TransportError("scripted client exhausted")
        return queue.pop(0)

    return LlmClient(backend="mock", transport=transport, **kwargs)


class CutPromptBundle(PromptBundle):
    """A prediction prompt bundle whose text ends where its target question block would start."""

    @property
    def text(self) -> str:
        full = super().text
        return full[: full.index("=== TARGET QUESTION ===")]


def unimodal_or_plateau(values, tol=0.01):
    """True if the series rises (within tol) to some peak and never rises after it."""
    n = len(values)
    for peak in range(n):
        rising = all(values[i + 1] >= values[i] - tol for i in range(peak))
        falling = all(values[i + 1] <= values[i] + tol for i in range(peak, n - 1))
        if rising and falling:
            return True
    return False


def reference_path_pair_pool(counts, d):
    """The path pair pool as a set of ``(answerer, candidate, f)`` string triples, built as
    ``evaluation._path_pair_pool`` was before it made int keys: each train answerer of each target
    question against each student retained for it but itself, with that student's count."""
    answerers = {}
    for i in d.iter_split("train"):
        answerers.setdefault(i.question_id, set()).add(i.student_id)
    pool = set()
    for qid, per_student in counts.items():
        for u in answerers.get(qid, ()):
            for sid, f in per_student.items():
                if sid != u:
                    pool.add((u, sid, f))
    return pool


def keys_of_triples(triples, d):
    """``(keys, base)``: the distinct ``(u, s, f)`` string triples as ascending ``pair_keys``."""
    t = student_tables(d)
    base = 1 + max(f for _, _, f in triples)
    keys = pair_keys(t.positions(u for u, _, _ in triples), t.positions(s for _, s, _ in triples),
                     [f for _, _, f in triples], len(t.students), base)
    return np.unique(keys), base


def triples_of_keys(keys, base, d):
    """The ``(u, s, f)`` string triples that ``pair_keys`` ``keys`` stand for, in key order."""
    students = student_tables(d).students
    pair, f = np.divmod(np.asarray(keys), base)
    u, s = np.divmod(pair, len(students))
    return [(students[a], students[b], c) for a, b, c in zip(u.tolist(), s.tolist(), f.tolist())]


_LEVEL_INDEX = {tuple(category.split("_")): i for i, category in enumerate(LEVEL_CATEGORIES)}


def reference_score_walk(walk, nodes, kinds, hops, covers, kstar):
    """The four dimensions and the total of one walk, the reference both of the package's forms
    of the formulas (``pathscore.score_all`` and ``pathscore._score_path``) are held to.

    ``walk`` holds node indices, ``walk[0]`` being the target question.  Node ``x`` is
    ``nodes[x]`` of kind ``kinds[x]``, ``hops[x]`` hops from the target question; ``covers[x]``
    tells whether it is a question covering the target KC, whose index is ``kstar`` (``None``
    if not a node here).  Indices follow sorted (kind, id) order, so the questions are summed
    in sorted id order.
    """
    length = len(walk) - 1
    questions = sorted({x for x in walk if kinds[x] == "Q"})

    # centrality: 5 * (1 - mean over distinct questions of min(hops, L) / L), clamped; the
    # terms are added left to right, which built-in sum() does not do from Python 3.12 on
    if length == 0:
        centrality = MAX_DIMENSION_SCORE
    else:
        spread = 0.0
        for q in questions:
            spread += min(hops[q], length) / length
        raw = 1.0 - spread / len(questions)
        centrality = MAX_DIMENSION_SCORE * min(max(raw, 0.0), 1.0)

    # kc_relevance: share of the distinct questions that cover the target KC
    kc_relevance = MAX_DIMENSION_SCORE * sum(1 for q in questions if covers[q]) / len(questions)

    # informativeness: distinct share of U/Q/K occurrences, repeat visits to q0 and K* dropped
    counted = [x for x in walk if kinds[x] in ("U", "Q", "K")]
    repeats = walk.count(walk[0]) - 1 + max(walk.count(kstar) - 1, 0)
    informativeness = MAX_DIMENSION_SCORE * len(set(counted)) / (len(counted) - repeats)

    # diversity: normalized entropy of A/D level occurrences over the six categories
    counts = [0] * len(LEVEL_CATEGORIES)
    for level in [nodes[x] for x in walk if kinds[x] in ("A", "D")]:
        counts[_LEVEL_INDEX[level]] += 1
    total = sum(counts)
    entropy = 0.0
    for c in counts:
        if c:
            freq = c / total
            entropy -= freq * math.log(freq)
    diversity = MAX_DIMENSION_SCORE * entropy / math.log(len(LEVEL_CATEGORIES)) if total else 0.0

    return (centrality, kc_relevance, informativeness, diversity,
            centrality + kc_relevance + informativeness + diversity)
