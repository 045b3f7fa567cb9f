"""Test helpers with no caller in the package: a client that plays back canned LLM replies,
a prompt bundle whose text is cut, the shape check of criterion 8's AUC-by-K series, and the
path pair pool as string triples with its conversions to and from ``retrieval.pair_keys``."""

import numpy as np

from hisekt.errors import TransportError
from hisekt.llm import LlmClient
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
