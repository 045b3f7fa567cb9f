"""Four-dimension quality scoring of sampled path instances and Top-K selection.

Each dimension is normalized to [0, 5] so the total lands in [0, 20]:

* centrality      - question nodes stay close to the target question
                    (5 * (1 - mean over distinct questions of dist(q0, q) / L))
* kc_relevance    - fraction of distinct questions covering the target KC
* informativeness - fraction of distinct U/Q/K occurrences, ignoring repeat
                    visits to the target question and target KC
* diversity       - normalized entropy of ability/difficulty level occurrences
                    over the six level categories

The formula scorer is the deterministic reference; an LLM backend can score
the same rendered path and is validated against it.

Walks are scored a group at a time (:func:`score_all` on a
:class:`~hisekt.mrhin.WalkGroup`): each walk's node ints index the target
question's hop array and a per-group "covers the target KC" flag, and the
group's scores are one float array with a row per walk.  The same per-walk
function scores a single path with tables built from its own nodes, which is
how the per-instance functions and the mock LLM reply (from the hops and KC
sets annotated in the prompt) use it, so each formula exists once.
:func:`select_top_k` ranks a group by (total, tie key) on its arrays and
decodes only the kept rows.
"""

from __future__ import annotations

import math
import logging
import re
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import IngestError, ScoringError
from .llm import LlmClient
from .mrhin import Mrhin, Node, PathInstance, WalkGroup, read_walks, write_walks
from .seeding import derive_rng

# Not called here: the benchmark's tracer patches this name on this module.
from .mrhin import graph_distance  # noqa: F401

logger = logging.getLogger(__name__)

MAX_DIMENSION_SCORE = 5.0
LEVEL_CATEGORIES = ("A_Low", "A_Medium", "A_High", "D_Low", "D_Medium", "D_High")
SCORING_PROMPT_HEADER = "### PATH QUALITY SCORING TASK ###"
_SCORE_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


@dataclass(frozen=True)
class PathScore:
    centrality: float
    kc_relevance: float
    informativeness: float
    diversity: float
    total: float
    backend: str = "formula"

    @classmethod
    def build(cls, c: float, r: float, i: float, dv: float, backend: str = "formula") -> "PathScore":
        return cls(c, r, i, dv, c + r + i + dv, backend)


@dataclass(frozen=True)
class ScoredInstance:
    instance: PathInstance
    score: PathScore


class ScoredGroup(Sequence[ScoredInstance]):
    """A walk group with its scores: one row per walk of (centrality,
    kc_relevance, informativeness, diversity, total), all from one backend.
    Indexing or iterating decodes a row to a :class:`ScoredInstance`, once per row."""

    def __init__(self, walks: WalkGroup, scores: np.ndarray, backend: str):
        self.walks = walks
        self.scores = scores
        self.backend = backend
        self._decoded: dict[int, ScoredInstance] = {}

    @classmethod
    def from_scores(cls, walks: WalkGroup, scores: Sequence[PathScore], backend: str) -> "ScoredGroup":
        """The group with one given score per walk, in walk order."""
        if any(s.backend != backend for s in scores):
            raise ValueError(f"a scored group holds scores of one backend, {backend!r}")
        table = [(s.centrality, s.kc_relevance, s.informativeness, s.diversity, s.total) for s in scores]
        return cls(walks, np.array(table, dtype=np.float64).reshape(len(table), 5), backend)

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i: int) -> ScoredInstance:
        # every variant and every rerun reads the kept rows again: decode each once
        row = self._decoded.get(int(i))
        if row is None:
            row = ScoredInstance(self.walks[i], PathScore(*self.scores[i].tolist(), self.backend))
            self._decoded[int(i)] = row
        return row


# -- the formulas --------------------------------------------------------------

_LEVEL_INDEX = {tuple(category.split("_")): i for i, category in enumerate(LEVEL_CATEGORIES)}
_LOG_CATEGORIES = math.log(len(LEVEL_CATEGORIES))
_COUNTED_KINDS = frozenset(("U", "Q", "K"))
_LEVEL_KINDS = frozenset(("A", "D"))


def _score_walk(walk: list[int], nodes: Sequence[Node], kinds: Sequence[str], hops: Sequence[int],
                covers: Sequence[bool], kstar: int | None) -> tuple[float, float, float, float, float]:
    """The four dimensions and the total of one walk.

    ``walk`` holds node indices, ``walk[0]`` being the target question.  Node
    ``x`` is ``nodes[x]`` of kind ``kinds[x]``, ``hops[x]`` hops from the
    target question; ``covers[x]`` tells whether it is a question covering
    the target KC, whose index is ``kstar`` (``None`` if not a node here).
    Indices follow sorted (kind, id) order, so the questions are summed in
    sorted id order.
    """
    length = len(walk) - 1
    questions = sorted({x for x in walk if kinds[x] == "Q"})

    # centrality: 5 * (1 - mean over distinct questions of min(hops, L) / L), clamped
    if length == 0:
        centrality = MAX_DIMENSION_SCORE
    else:
        raw = 1.0 - sum([min(hops[q], length) / length for q in questions]) / len(questions)
        centrality = MAX_DIMENSION_SCORE * min(max(raw, 0.0), 1.0)

    # kc_relevance: share of the distinct questions that cover the target KC
    kc_relevance = MAX_DIMENSION_SCORE * sum(1 for q in questions if covers[q]) / len(questions)

    # informativeness: distinct share of U/Q/K occurrences, repeat visits to q0 and K* dropped
    counted = [x for x in walk if kinds[x] in _COUNTED_KINDS]
    repeats = walk.count(walk[0]) - 1 + max(walk.count(kstar) - 1, 0)
    informativeness = MAX_DIMENSION_SCORE * len(set(counted)) / (len(counted) - repeats)

    # diversity: normalized entropy of A/D level occurrences over the six categories
    counts = [0] * len(LEVEL_CATEGORIES)
    for level in [nodes[x] for x in walk if kinds[x] in _LEVEL_KINDS]:
        counts[_LEVEL_INDEX[level]] += 1
    total = sum(counts)
    entropy = 0.0
    for c in counts:
        if c:
            freq = c / total
            entropy -= freq * math.log(freq)
    diversity = MAX_DIMENSION_SCORE * entropy / _LOG_CATEGORIES if total else 0.0

    return (centrality, kc_relevance, informativeness, diversity,
            centrality + kc_relevance + informativeness + diversity)


def score_all(walks: WalkGroup, g: Mrhin) -> ScoredGroup:
    """Formula scores of a walk group, reading hops and KC coverage by node int."""
    hops = g.hops_from(("Q", walks.target_question))
    kstar = g.index(("K", walks.target_kc))
    covers = [False] * len(g.node_ids)
    for q in g.int_adj["Q"][kstar]:
        covers[q] = True
    table = [_score_walk(walk, g.node_ids, g.kinds, hops, covers, kstar) for walk in walks.walks()]
    return ScoredGroup(walks, np.array(table, dtype=np.float64).reshape(len(table), 5), "formula")


def _score_path(path: Sequence[Node], target_kc: str, hop_of: Mapping[str, int],
                kc_of: Mapping[str, frozenset[str]]) -> tuple[float, float, float, float, float]:
    """One path's four dimensions and total, given each path question's hop
    count from the target question and KC set (0 hops and no KC if absent)."""
    nodes = sorted(set(path))
    index = {node: i for i, node in enumerate(nodes)}
    hops = [hop_of.get(node_id, 0) for _, node_id in nodes]
    covers = [kind == "Q" and target_kc in kc_of.get(node_id, ()) for kind, node_id in nodes]
    walk = [index[node] for node in path]
    return _score_walk(walk, nodes, [kind for kind, _ in nodes], hops, covers, index.get(("K", target_kc)))


def centrality(p: PathInstance, g: Mrhin) -> float:
    """Closeness of the path's distinct questions to the target question."""
    return score(p, g).centrality


def kc_relevance(p: PathInstance, kc_of: Mapping[str, frozenset[str]]) -> float:
    """Fraction of distinct path questions that cover the target KC."""
    return _score_path(p.nodes, p.target_kc, {}, kc_of)[1]


def informativeness(p: PathInstance) -> float:
    """Distinct fraction of U/Q/K occurrences, with repeats of q0 and the target KC ignored."""
    return _score_path(p.nodes, p.target_kc, {}, {})[2]


def diversity(p: PathInstance) -> float:
    """Normalized entropy of A/D level occurrences over the six level categories."""
    return _score_path(p.nodes, p.target_kc, {}, {})[3]


def score(p: PathInstance, g: Mrhin) -> PathScore:
    """All four dimensions of one path on the graph, scored as a group of one."""
    return score_all(WalkGroup.of(g, [p]), g)[0].score


# -- LLM scoring backend -----------------------------------------------------


# graph -> each node's prompt entry without its hop count, by node int; built in full before it is
# stored, so threads scoring on one graph never see a partial entry
_NODE_ENTRIES: weakref.WeakKeyDictionary[Mrhin, tuple[str, ...]] = weakref.WeakKeyDictionary()


def _node_entries(g: Mrhin) -> tuple[str, ...]:
    """``kind:id`` plus the fixed annotations of every node: KCs and difficulty level of a
    question, ability level of a student."""
    entries = _NODE_ENTRIES.get(g)
    if entries is None:
        def entry(node: Node) -> str:
            kind, node_id = node
            if kind == "Q":
                level = g.neighbors(node, "D")
                kcs = ";".join(sorted(g.question_kcs(node_id)))
                return f"Q:{node_id} | kcs: {kcs} | difficulty_level: {level[0][1] if level else 'Medium'}"
            if kind == "U":
                level = g.neighbors(node, "A")
                return f"U:{node_id} | ability_level: {level[0][1] if level else 'Medium'}"
            return f"{kind}:{node_id}"

        entries = tuple(entry(node) for node in g.node_ids)
        _NODE_ENTRIES[g] = entries
    return entries


def render_scoring_prompt(p: PathInstance, g: Mrhin) -> str:
    """Serialize the path with KC/level/hop annotations plus the four rubrics."""
    entries = _node_entries(g)
    hops = g.hops_from(("Q", p.target_question))
    cap = max(p.edge_count, 1)
    lines = [
        SCORING_PROMPT_HEADER,
        f"target_question: {p.target_question}",
        f"target_kc: {p.target_kc}",
        "path:",
    ]
    for idx, node in enumerate(p.nodes, start=1):
        x = g.index(node)
        entry = f"  {idx}. {entries[x]}"
        if node[0] == "Q":
            entry += f" | hops_from_target: {min(hops[x], cap)}"
        lines.append(entry)
    lines += [
        "",
        "Score this path on four dimensions, each from 0 to 5:",
        "1. centrality: question nodes remain close to the target question, forming a star around it.",
        "2. kc_relevance: the questions on the path cover the target knowledge concept.",
        "3. informativeness: steps keep introducing new students, questions, and concepts"
        " (repeat visits to the target question or target concept are not penalized).",
        "4. diversity: ability and difficulty level nodes cover the six level categories evenly.",
        "Reply with exactly four numbers in braces: {centrality, kc_relevance, informativeness, diversity}",
    ]
    return "\n".join(lines)


def is_scoring_prompt(text: str) -> bool:
    return text.startswith(SCORING_PROMPT_HEADER)


def _parse_scoring_prompt(text: str) -> tuple[list[Node], str, dict[str, int], dict[str, frozenset[str]]]:
    """The path, target KC, and each question's hop count and KC set written in a scoring prompt."""
    target_kc = ""
    nodes: list[Node] = []
    hop_of: dict[str, int] = {}
    kc_of: dict[str, frozenset[str]] = {}
    for line in text.splitlines():
        if line.startswith("target_kc: "):
            target_kc = line.split(": ", 1)[1]
        elif re.match(r"^  \d+\. ", line):
            head, *notes = line.split(". ", 1)[1].split(" | ")
            kind, node_id = head.split(":", 1)
            nodes.append((kind, node_id))
            if kind == "Q":
                fields = dict(note.split(": ", 1) for note in notes)
                hop_of[node_id] = int(fields["hops_from_target"])
                kc_of[node_id] = frozenset(k for k in fields["kcs"].split(";") if k)
    return nodes, target_kc, hop_of, kc_of


def mock_score_reply(prompt: str) -> str:
    """Deterministic scoring reply computed from the prompt alone.

    Applies the formulas to the path, KC sets and hop counts rendered into
    the prompt, so an offline run of the LLM backend matches the formula
    scorer bit for bit.
    """
    c, r, i, dv, _ = _score_path(*_parse_scoring_prompt(prompt))
    return f"{{{c!r}, {r!r}, {i!r}, {dv!r}}}"


def score_llm(p: PathInstance, client: LlmClient, g: Mrhin) -> PathScore:
    """Score one instance via the LLM backend; clamps stray values, retries on garbage."""
    prompt = render_scoring_prompt(p, g)
    last_reply = ""
    for _ in range(max(client.max_retries, 1)):
        last_reply = client.complete(prompt)
        numbers = _SCORE_RE.findall(last_reply)
        if len(numbers) >= 4:
            dims = []
            for raw in numbers[:4]:
                value = float(raw)
                if not 0.0 <= value <= MAX_DIMENSION_SCORE:
                    logger.warning("llm score %s out of [0, 5]; clamped", raw)
                    value = min(max(value, 0.0), MAX_DIMENSION_SCORE)
                dims.append(value)
            return PathScore.build(*dims, backend="llm")
    raise ScoringError("llm scorer returned no parsable scores after retries", raw_response=last_reply)


# -- scored store --------------------------------------------------------------

SCORE_FIELDS = ("centrality", "kc_relevance", "informativeness", "diversity", "total")


def write_scored(grouped: Mapping[str, Mapping[str, ScoredGroup]], path: str | Path) -> int:
    """The scored groups' walks as :func:`~hisekt.mrhin.write_walks` writes them, each record
    with its five score fields and backend added; returns the number of walks."""
    def fields(qid: str, name: str, i: int) -> dict:
        group = grouped[qid][name]
        return {**dict(zip(SCORE_FIELDS, group.scores[i].tolist())), "backend": group.backend}

    return write_walks({qid: {name: group.walks for name, group in per_template.items()}
                        for qid, per_template in grouped.items()}, path, fields)


def read_scored(path: str | Path, g: Mrhin) -> dict[str, dict[str, ScoredGroup]]:
    """The scored groups of a :func:`write_scored` file on graph ``g``; raises IngestError where
    :func:`~hisekt.mrhin.read_walks` does or where one group holds scores of two backends."""
    def scored(walks: WalkGroup, rows: list[tuple]) -> ScoredGroup:
        backends = sorted({row[-1] for row in rows})
        if len(backends) > 1:
            raise IngestError(f"{path}: the {walks.template.name} walks from {walks.target_question} "
                              f"were scored by backends {backends}")
        return ScoredGroup(walks, np.array([row[:-1] for row in rows], dtype=np.float64), backends[0])

    return read_walks(path, g, (*SCORE_FIELDS, "backend"), scored)


# -- selection ---------------------------------------------------------------


def select_top_k(
    scored: ScoredGroup | Sequence[ScoredInstance],
    k: int,
    mode: str = "top",
    seed: int = 0,
) -> list[ScoredInstance]:
    """Keep ``min(k, len(scored))`` instances by total score.

    ``top`` keeps the highest totals, ``lowest`` the lowest, ``random`` a
    uniform sample without replacement under ``seed``.  Equal totals are
    ordered by a stable hash of the node sequence so reruns agree.  A
    :class:`ScoredGroup` is ranked on its arrays and only the kept rows are
    decoded.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(scored):
        return []
    if isinstance(scored, ScoredGroup):
        totals, keys = scored.scores[:, 4], scored.walks.tie_keys
    else:
        totals = np.array([s.score.total for s in scored])
        keys = np.array([s.instance.tie_key for s in scored], dtype=np.int64)
    if mode == "top":
        kept = np.lexsort((keys, -totals))[:k]
    elif mode == "lowest":
        kept = np.lexsort((keys, totals))[:k]
    elif mode == "random":
        pool = np.argsort(keys, kind="stable").tolist()
        kept = pool if k >= len(pool) else derive_rng(seed, "select_top_k").sample(pool, k)
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    return [scored[i] for i in kept]
