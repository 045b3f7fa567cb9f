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
"""

from __future__ import annotations

import json
import math
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ScoringError
from .llm import LlmClient
from .mrhin import TEMPLATES, Mrhin, PathInstance, graph_distance
from .seeding import derive_rng

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


def _question_nodes(p: PathInstance) -> list[str]:
    return [node_id for kind, node_id in p.nodes if kind == "Q"]


def _closeness(p: PathInstance, hops: Callable[[str], int]) -> float:
    """5 * (1 - mean of min(hops(q), L) / L over the distinct path questions q), clamped; L = edge count."""
    length = p.edge_count
    if length == 0:
        return MAX_DIMENSION_SCORE
    q_set = sorted(set(_question_nodes(p)))
    raw = 1.0 - sum(min(hops(q), length) / length for q in q_set) / len(q_set)
    return MAX_DIMENSION_SCORE * min(max(raw, 0.0), 1.0)


def centrality(p: PathInstance, g: Mrhin) -> float:
    """Closeness of the path's distinct questions to the target question."""
    q0 = ("Q", p.target_question)
    cap = p.edge_count
    return _closeness(p, lambda q: graph_distance(g, q0, ("Q", q), cap=cap))


def kc_relevance(p: PathInstance, kc_of: Mapping[str, frozenset[str]]) -> float:
    """Fraction of distinct path questions that cover the target KC."""
    q_set = set(_question_nodes(p))
    hits = sum(1 for q in q_set if p.target_kc in kc_of.get(q, frozenset()))
    return MAX_DIMENSION_SCORE * hits / len(q_set)


def informativeness(p: PathInstance) -> float:
    """Distinct fraction of U/Q/K occurrences, with repeats of q0 and the target KC ignored."""
    q0 = ("Q", p.target_question)
    kstar = ("K", p.target_kc)
    kept: list[tuple[str, str]] = []
    seen_q0 = False
    seen_kstar = False
    for node in p.nodes:
        if node[0] not in ("U", "Q", "K"):
            continue
        if node == q0:
            if seen_q0:
                continue
            seen_q0 = True
        elif node == kstar:
            if seen_kstar:
                continue
            seen_kstar = True
        kept.append(node)
    return MAX_DIMENSION_SCORE * len(set(kept)) / len(kept)


def diversity(p: PathInstance) -> float:
    """Normalized entropy of A/D level occurrences over the six level categories."""
    counts = {cat: 0 for cat in LEVEL_CATEGORIES}
    total = 0
    for kind, node_id in p.nodes:
        if kind in ("A", "D"):
            counts[f"{kind}_{node_id}"] += 1
            total += 1
    if total == 0:
        return 0.0
    entropy = 0.0
    for c in counts.values():
        if c:
            freq = c / total
            entropy -= freq * math.log(freq)
    return MAX_DIMENSION_SCORE * entropy / math.log(len(LEVEL_CATEGORIES))


def score(p: PathInstance, g: Mrhin) -> PathScore:
    """Deterministic reference score across all four dimensions."""
    return PathScore.build(
        centrality(p, g),
        kc_relevance(p, {q: g.question_kcs(q) for q in set(_question_nodes(p))}),
        informativeness(p),
        diversity(p),
        backend="formula",
    )


def score_all(instances: Iterable[PathInstance], g: Mrhin) -> list[ScoredInstance]:
    return [ScoredInstance(p, score(p, g)) for p in instances]


# -- LLM scoring backend -----------------------------------------------------


def render_scoring_prompt(p: PathInstance, g: Mrhin) -> str:
    """Serialize the path with KC/level/hop annotations plus the four rubrics."""
    lines = [
        SCORING_PROMPT_HEADER,
        f"target_question: {p.target_question}",
        f"target_kc: {p.target_kc}",
        "path:",
    ]
    length = p.edge_count
    for idx, (kind, node_id) in enumerate(p.nodes, start=1):
        entry = f"  {idx}. {kind}:{node_id}"
        if kind == "Q":
            kcs = ";".join(sorted(g.question_kcs(node_id)))
            level = g.neighbors(("Q", node_id), "D")
            level_label = level[0][1] if level else "Medium"
            hops = graph_distance(g, ("Q", p.target_question), ("Q", node_id), cap=max(length, 1))
            entry += f" | kcs: {kcs} | difficulty_level: {level_label} | hops_from_target: {hops}"
        elif kind == "U":
            level = g.neighbors(("U", node_id), "A")
            entry += f" | ability_level: {level[0][1] if level else 'Medium'}"
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


def parse_scoring_prompt(text: str) -> PathInstance:
    """Rebuild the path instance encoded in a scoring prompt (used by the mock backend)."""
    from .mrhin import MetaPathTemplate  # local: only the node sequence matters here

    target_q = ""
    target_kc = ""
    nodes: list[tuple[str, str]] = []
    for line in text.splitlines():
        if line.startswith("target_question: "):
            target_q = line.split(": ", 1)[1]
        elif line.startswith("target_kc: "):
            target_kc = line.split(": ", 1)[1]
        elif re.match(r"^  \d+\. ", line):
            body = line.split(". ", 1)[1]
            head = body.split(" | ", 1)[0]
            kind, node_id = head.split(":", 1)
            nodes.append((kind, node_id))
    del target_q
    template = MetaPathTemplate("Q-K-Q", ("Q", "K", "Q"))  # placeholder, unused by the formulas
    return PathInstance(template=template, nodes=tuple(nodes), target_kc=target_kc)


def _prompt_annotations(text: str) -> tuple[dict[str, frozenset[str]], dict[str, int]]:
    """Per-question KC sets and hop counts recovered from a scoring prompt."""
    kc_of: dict[str, frozenset[str]] = {}
    hops: dict[str, int] = {}
    for line in text.splitlines():
        m = re.match(r"^  \d+\. Q:(.+?) \| kcs: (.*?) \| difficulty_level: .+? \| hops_from_target: (\d+)$", line)
        if m:
            kc_of[m.group(1)] = frozenset(k for k in m.group(2).split(";") if k)
            hops[m.group(1)] = int(m.group(3))
    return kc_of, hops


def mock_score_reply(prompt: str) -> str:
    """Deterministic scoring reply computed from the prompt alone.

    Applies the reference formulas to the path, KC sets and hop counts
    rendered into the prompt, so an offline run of the LLM backend matches the
    formula scorer bit for bit.
    """
    p = parse_scoring_prompt(prompt)
    kc_of, hops = _prompt_annotations(prompt)
    c = _closeness(p, hops.__getitem__)
    return f"{{{c!r}, {kc_relevance(p, kc_of)!r}, {informativeness(p)!r}, {diversity(p)!r}}}"


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


def write_scored(scored: Iterable[ScoredInstance], sink) -> None:
    """One JSON record per scored instance: the instance plus its five score fields."""
    records = sorted(
        scored, key=lambda s: (s.instance.target_question, s.instance.template.name, s.instance.nodes)
    )
    lines = [
        json.dumps(
            {
                "target_q": s.instance.target_question,
                "template": s.instance.template.name,
                "target_kc": s.instance.target_kc,
                "nodes": [[k, i] for k, i in s.instance.nodes],
                "centrality": s.score.centrality,
                "kc_relevance": s.score.kc_relevance,
                "informativeness": s.score.informativeness,
                "diversity": s.score.diversity,
                "total": s.score.total,
                "backend": s.score.backend,
            },
            sort_keys=True,
        )
        for s in records
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
    else:
        sink.write(text)


def read_scored(source) -> list[ScoredInstance]:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    out: list[ScoredInstance] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        inst = PathInstance(
            template=TEMPLATES[rec["template"]],
            nodes=tuple((k, i) for k, i in rec["nodes"]),
            target_kc=rec["target_kc"],
        )
        out.append(
            ScoredInstance(
                inst,
                PathScore(
                    rec["centrality"],
                    rec["kc_relevance"],
                    rec["informativeness"],
                    rec["diversity"],
                    rec["total"],
                    rec["backend"],
                ),
            )
        )
    return out


# -- selection ---------------------------------------------------------------


def select_top_k(
    scored: Sequence[ScoredInstance],
    k: int,
    mode: str = "top",
    seed: int = 0,
) -> list[ScoredInstance]:
    """Keep ``min(k, len(scored))`` instances by total score.

    ``top`` keeps the highest totals, ``lowest`` the lowest, ``random`` a
    uniform sample without replacement under ``seed``.  Equal totals are
    ordered by a stable hash of the node sequence so reruns agree.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not scored:
        return []
    if mode == "top":
        ranked = sorted(scored, key=lambda s: (-s.score.total, s.instance.tie_key))
    elif mode == "lowest":
        ranked = sorted(scored, key=lambda s: (s.score.total, s.instance.tie_key))
    elif mode == "random":
        rng = derive_rng(seed, "select_top_k")
        pool = sorted(scored, key=lambda s: s.instance.tie_key)
        return pool if k >= len(pool) else rng.sample(pool, k)
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    return ranked[: min(k, len(ranked))]
