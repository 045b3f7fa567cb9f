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

Both backends run the formulas in one form, :func:`_score_rows`: numpy column
operations over rows of node numbers with per-node tables, each dimension
reading only the columns that hold a node kind it reads.  The formula backend
(:func:`score_groups`; :func:`score_all` for one group) fills the tables from
the graph and stacks the groups' int rows; a template puts each kind in fixed
columns, so the pipeline makes one pass per template: the 65,800 walks of the
acceptance fixture's criterion-6 run score in about 40 ms.

The LLM backend (:func:`score_llm`) renders each walk's prompt from its int
row and a table of path lines per graph, target question and hop cap, and
sends a stage's prompts in blocks of :data:`SCORE_BLOCK`.  The mock answers a
block (:func:`mock_score_replies`) with no other knowledge of the graph: it
reads each path line after checking its ``"  n. "`` number, once per distinct
numbered line and mock transport (:func:`_read_path_line`), numbers the
block's distinct line texts in sorted (kind, id, hop) order and fills the
tables from their annotations.  The staged CLI's 13,160 scoring prompts on
the acceptance fixture hold 157,920 path lines, 1,135 distinct numbered lines
and 213 distinct texts.  Per prompt that is about 5 us to render and about
9 us for the mock to read, score and answer it in a block (17 us with the
plain-Python per-path formula it replaces; about 250 us for a block of one).
(All on a shared 2-vCPU VM, Python 3.11, numpy 2.4.)

:func:`write_scored` writes one line per walk holding only what scoring
adds: the backend, the five scores and the walk's tie key, in the walk file's
order, which is each group's row order.  :func:`read_scored` pairs the lines
with the walk groups again, line ``j`` of a group with its row ``j``, and
refuses a line whose tie key is not its walk's.  Each score is written as
``json.dumps`` writes it, rendered once per distinct bit pattern over the
whole file: the staged CLI's 13,160 scored walks on the acceptance fixture
hold 65,800 scores but 633 distinct values.

Top-K selection keeps each group's best (or lowest, or randomly drawn)
rows by total, equal totals ordered by the walks' tie keys
(:attr:`~hisekt.mrhin.WalkGroup.tie_keys`, one gather per group from the
graph's term table).  :func:`select_top_k_many` ranks every group of a stage
in one pass over a padded groups x rows matrix: one ``np.partition`` finds
each group's k-th total, and one lexsort orders only the rows at or past it
(``random`` mode: one row-wise stable argsort of the tie keys, then each
group's seeded draw).  :func:`select_top_k` is its one-group call, and
returns the kept rows as a :class:`ScoredGroup`.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import re
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import IngestError, ScoringError, TransportError
from .llm import LlmClient
from .mrhin import DEFAULT_WALK_LEN, PAD, Mrhin, Node, WalkGroup, read_json_lines
from .seeding import derive_rng

logger = logging.getLogger(__name__)

MAX_DIMENSION_SCORE = 5.0
LEVEL_CATEGORIES = ("A_Low", "A_Medium", "A_High", "D_Low", "D_Medium", "D_High")
SCORING_PROMPT_HEADER = "### PATH QUALITY SCORING TASK ###"
# a scoring reply's four scores: a braced group of exactly four comma-separated numbers
_REPLY_RE = re.compile(r"\{" + ",".join([r"\s*(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*"] * 4) + r"\}")


class ScoredGroup:
    """A walk group with its scores: one row per walk of (centrality,
    kc_relevance, informativeness, diversity, total), all from one backend."""

    def __init__(self, walks: WalkGroup, scores: np.ndarray, backend: str):
        self.walks = walks
        self.scores = scores
        self.backend = backend

    def __len__(self) -> int:
        return len(self.scores)

    def take(self, index: np.ndarray) -> "ScoredGroup":
        """The group of the rows at ``index``, in that order, with their scores and tie keys."""
        return ScoredGroup(self.walks.take(index), self.scores[index], self.backend)


# -- the formulas --------------------------------------------------------------

_LEVEL_INDEX = {tuple(category.split("_")): i for i, category in enumerate(LEVEL_CATEGORIES)}
_LOG_CATEGORIES = math.log(len(LEVEL_CATEGORIES))
# one bit per node kind, so a column's kinds are the OR of its rows' bits
_KIND_BITS = {"U": 1, "Q": 2, "K": 4, "A": 8, "D": 16}
_U, _Q, _K, _A, _D = (np.uint8(_KIND_BITS[kind]) for kind in ("U", "Q", "K", "A", "D"))


class _GraphTables:
    """A graph's node tables, kept in its memo, each built in full before it is stored, so threads
    on one graph never see a partial one.

    For :func:`_score_rows`, by node int plus the sentinel ``PAD`` reaches: kind bits and level
    categories, and hop counts from a node (the graph's one hop memo) and the questions covering a
    KC, a row per node and per KC.  For :func:`render_scoring_prompt`, built on first use: each
    node's path line without its ``"  N. "`` number, ``kind:id`` plus the fixed annotations (KCs
    and difficulty level of a question, ability level of a student), and per target question and
    hop cap the lines with each question's hop count added (:meth:`lines`)."""

    def __init__(self, g: Mrhin):
        self.kind = np.array([_KIND_BITS[kind] for kind in g.kinds] + [0], dtype=np.uint8)
        no_level = len(LEVEL_CATEGORIES)
        self.level = np.array([_LEVEL_INDEX.get(node, no_level) for node in g.node_ids] + [no_level])
        self._hops: dict[int, np.ndarray] = {}
        self._covers: dict[str, np.ndarray] = {}
        self._entries: tuple[str, ...] | None = None
        self._lines: dict[tuple[str, int], tuple[str, ...]] = {}

    def hops(self, g: Mrhin, sources: Sequence[int]) -> list[np.ndarray]:
        """Each node's hop count from each source node int, a row per source, as
        :meth:`~hisekt.mrhin.Mrhin.hops` gives it; the sources not met before are searched in one
        :meth:`~hisekt.mrhin.Mrhin.hops` call."""
        missing = [x for x in dict.fromkeys(sources) if x not in self._hops]
        if missing:
            self._hops.update(zip(missing, np.pad(g.hops(missing), ((0, 0), (0, 1)))))
        return [self._hops[x] for x in sources]

    def covers(self, g: Mrhin, kc: str) -> np.ndarray:
        """Whether each node is a question covering the KC."""
        found = self._covers.get(kc)
        if found is None:
            x = g.index(("K", kc))
            found = np.zeros(len(self.kind), dtype=bool)
            found[g.flat[g.offsets[x]:g.offsets[x + 1]]] = True  # a KC's neighbors are all questions
            self._covers[kc] = found
        return found

    def lines(self, g: Mrhin, question_id: str, cap: int) -> tuple[str, ...]:
        """Every node's path line in a prompt whose target question is ``question_id`` and
        whose hop counts are capped at ``cap``."""
        key = (question_id, cap)
        found = self._lines.get(key)
        if found is None:
            if self._entries is None:
                self._entries = tuple(map(functools.partial(_entry, g), g.node_ids))
            hops = self.hops(g, [g.index(("Q", question_id))])[0].tolist()
            found = tuple(f"{entry} | hops_from_target: {min(hop, cap)}" if kind == "Q" else entry
                          for entry, kind, hop in zip(self._entries, g.kinds, hops))
            self._lines[key] = found
        return found


def _entry(g: Mrhin, node: Node) -> str:
    """A node's path line without its number and hop count."""
    kind, node_id = node
    if kind == "Q":
        level = g.neighbors(node, "D")
        kcs = ";".join(sorted(g.question_kcs(node_id)))
        return f"Q:{node_id} | kcs: {kcs} | difficulty_level: {level[0][1] if level else 'Medium'}"
    if kind == "U":
        level = g.neighbors(node, "A")
        return f"U:{node_id} | ability_level: {level[0][1] if level else 'Medium'}"
    return f"{kind}:{node_id}"


def graph_tables(g: Mrhin) -> _GraphTables:
    """The graph's node tables, built on first use and kept in the graph's memo."""
    tables = g._memo.get("graph_tables")
    if tables is None:
        tables = g._memo["graph_tables"] = _GraphTables(g)
    return tables


def graph_distance(g: Mrhin, x: Node, y: Node, cap: int = DEFAULT_WALK_LEN) -> int:
    """Shortest hop count between two graph nodes, saturating at ``cap``: one row of the hop memo."""
    return min(int(graph_tables(g).hops(g, [g.index(x)])[0][g.index(y)]), cap)


@functools.lru_cache(maxsize=16)
def _entropy_terms(width: int) -> np.ndarray:
    """``terms[c, t]`` is the entropy term ``0.0 - (c/t) log(c/t)`` of a level category seen
    ``c`` of ``t`` times, as a per-walk ``entropy -= freq * log(freq)`` computes it; 0.0 where
    ``c`` is 0.  No term is -0.0, so adding a row's terms left to right from 0.0 gives the bits
    of that loop over the same categories."""
    terms = np.zeros((width + 1, width + 1))
    for total in range(1, width + 1):
        for count in range(1, total + 1):
            freq = count / total
            terms[count, total] = 0.0 - freq * math.log(freq)
    terms.flags.writeable = False
    return terms


def _distinct(nodes: np.ndarray, kept: np.ndarray, sentinel: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``nodes`` sorted, the nodes not ``kept`` replaced by ``sentinel``, which sorts
    last; and where each distinct kept node first stands in it."""
    ordered = np.sort(np.where(kept, nodes, sentinel), axis=1)
    first = ordered != sentinel
    first[:, 1:] &= ordered[:, 1:] != ordered[:, :-1]
    return ordered, first


def _gather(table: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``table[i, j]`` of a 2-d table, as one gather from its flat form (``np.take`` gathers
    faster than fancy indexing)."""
    return np.take(table, i * table.shape[1] + j)


def row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row's terms added left to right, as ``np.cumsum(terms, axis=1)[:, -1]`` adds them,
    one column at a time."""
    total = terms[:, 0].copy()
    for column in terms.T[1:]:
        total += column
    return total


def score_all(walks: WalkGroup, g: Mrhin) -> ScoredGroup:
    """Formula scores of one walk group: ``score_groups([walks], g)[0]``."""
    return score_groups([walks], g)[0]


def score_groups(groups: Sequence[WalkGroup], g: Mrhin) -> list[ScoredGroup]:
    """Formula scores of walk groups on graph ``g``, all their rows in one pass of
    :func:`_score_rows` on the graph's tables.

    The groups may differ in template, target question, target KC and width.  Their rows are
    stacked, narrower ones padded with ``PAD``.  Hop counts come from the hop memo, a row per distinct
    target question, and whether a question covers the target KC from a table per distinct
    target KC.  Each score has the bits ``tests/support.reference_score_walk`` gives the row's
    walk, whatever the other groups.
    """
    sizes = [len(group) for group in groups]
    if not sum(sizes):
        return [ScoredGroup(group, np.empty((0, 5)), "formula") for group in groups]
    tables = graph_tables(g)
    width = max(group.rows.shape[1] for group in groups)
    rows = np.concatenate([group.rows if group.rows.shape[1] == width else
                           np.pad(group.rows, ((0, 0), (0, width - group.rows.shape[1])), constant_values=PAD)
                           for group in groups])
    # each row's target question and target KC, by position among the distinct ones
    owner = np.repeat(np.arange(len(groups)), sizes)
    questions = {q: i for i, q in enumerate(dict.fromkeys(group.target_question for group in groups))}
    kcs = {kc: i for i, kc in enumerate(dict.fromkeys(group.target_kc for group in groups))}
    question_of = np.array([questions[group.target_question] for group in groups])[owner]
    kc_of = np.array([kcs[group.target_kc] for group in groups])[owner]
    kstar = np.array([g.index(("K", kc)) for kc in kcs])[kc_of]
    hops = np.stack(tables.hops(g, [g.index(("Q", q)) for q in questions]))
    covers = np.stack([tables.covers(g, kc) for kc in kcs])
    scores = _score_rows(rows, tables.kind, tables.level, hops, question_of, covers, kc_of, kstar)
    ends = np.cumsum(sizes)
    return [ScoredGroup(group, scores[end - size:end], "formula") for group, size, end in zip(groups, sizes, ends)]


def _score_rows(rows: np.ndarray, kind: np.ndarray, level: np.ndarray, hops: np.ndarray, question_of: np.ndarray,
                covers: np.ndarray, kc_of: np.ndarray, kstar: np.ndarray) -> np.ndarray:
    """The n x 5 scores of rows of node numbers (in sorted (kind, id) order, each row starting at
    its target question): the one form of the formulas, which both backends run.

    ``kind`` (:data:`_KIND_BITS`) and ``level`` (level category, ``len(LEVEL_CATEGORIES)`` if
    none) are per node, plus a sentinel entry, reached by ``PAD``, that is no node.  Row ``i``
    reads hops from row ``question_of[i]`` of ``hops`` and covering questions from row
    ``kc_of[i]`` of ``covers``; ``kstar[i]`` is its target KC's number, or one no row holds.
    A dimension reads only the columns where some row holds a node of a kind it counts; the
    centrality terms of a row's distinct questions are added in sorted id order, left to right
    (a column left out adds 0.0, which changes no bits)."""
    n, width = rows.shape
    sentinel = len(kind) - 1
    kinds = np.take(kind, rows)
    present = np.bitwise_or.reduce(kinds, axis=0)
    q_cols = np.flatnonzero(present & _Q)
    uk_cols = np.flatnonzero(present & (_U | _K))
    k_cols = np.flatnonzero(present & _K)
    level_cols = np.flatnonzero(present & (_A | _D))

    # each row's questions in node order, then the sentinel in place of its other nodes
    q_nodes = rows[:, q_cols]
    is_question = kinds[:, q_cols] == _Q
    ordered, distinct = _distinct(q_nodes, is_question, sentinel)
    n_questions = distinct.sum(axis=1)

    # the other U/Q/K nodes (students and KCs), each counted once per row
    is_uk = (kinds[:, uk_cols] & (_U | _K)) != 0
    _, uk_distinct = _distinct(rows[:, uk_cols], is_uk, sentinel)

    # one bincount over all rows: row i's six categories and "no level" are bins 7 i .. 7 i + 6
    bins = len(LEVEL_CATEGORIES) + 1
    levels = np.take(level, rows[:, level_cols]) + bins * np.arange(n)[:, None]
    counts = np.bincount(levels.ravel(), minlength=bins * n).reshape(n, bins)[:, :-1]
    n_counted = is_question.sum(axis=1) + is_uk.sum(axis=1)
    n_levels = counts.sum(axis=1)
    length = n_counted + n_levels - 1

    # an edgeless walk (L = 0) scores 5 without its terms; they are divided by 1, not by 0
    span = np.maximum(length, 1)[:, None]
    terms = np.where(distinct, np.minimum(_gather(hops, question_of[:, None], ordered), span) / span, 0.0)
    raw = 1.0 - row_sums(terms) / n_questions
    centrality = np.where(length == 0, MAX_DIMENSION_SCORE,
                          MAX_DIMENSION_SCORE * np.minimum(np.maximum(raw, 0.0), 1.0))

    kc_relevance = MAX_DIMENSION_SCORE * (distinct & _gather(covers, kc_of[:, None], ordered)).sum(axis=1) / n_questions

    # repeat visits to q0 (only on question columns) and to K* (only on KC columns)
    repeats = ((q_nodes == rows[:, :1]).sum(axis=1) - 1
               + np.maximum((rows[:, k_cols] == kstar[:, None]).sum(axis=1) - 1, 0))
    informativeness = MAX_DIMENSION_SCORE * (n_questions + uk_distinct.sum(axis=1)) / (n_counted - repeats)

    entropy = row_sums(_gather(_entropy_terms(width), counts, n_levels[:, None]))
    diversity = MAX_DIMENSION_SCORE * entropy / _LOG_CATEGORIES

    total = centrality + kc_relevance + informativeness + diversity
    return np.stack([centrality, kc_relevance, informativeness, diversity, total], axis=1)


# -- LLM scoring backend -----------------------------------------------------


_RUBRIC = "\n".join([
    "Score this path on four dimensions, each from 0 to 5:",
    "1. centrality: question nodes remain close to the target question, forming a star around it.",
    "2. kc_relevance: the questions on the path cover the target knowledge concept.",
    "3. informativeness: steps keep introducing new students, questions, and concepts"
    " (repeat visits to the target question or target concept are not penalized).",
    "4. diversity: ability and difficulty level nodes cover the six level categories evenly.",
    "Reply with exactly four numbers in braces: {centrality, kc_relevance, informativeness, diversity}",
])


@functools.lru_cache(maxsize=64)
def _numbers(count: int) -> tuple[str, ...]:
    """The path lines' prefixes ``"  1. "`` .. ``"  count. "``."""
    return tuple(f"  {i}. " for i in range(1, count + 1))


def render_scoring_prompt(walks: WalkGroup, i: int) -> str:
    """The scoring prompt of walk ``i`` of a group, rendered from its int row: the path with
    KC/level/hop annotations, then the four rubrics."""
    g, walk = walks.graph, walks.walk(i)
    lines = graph_tables(g).lines(g, walks.target_question, max(len(walk) - 1, 1))
    path = "\n".join(map(str.__add__, _numbers(len(walk)), map(lines.__getitem__, walk)))
    return (f"{SCORING_PROMPT_HEADER}\ntarget_question: {walks.target_question}\n"
            f"target_kc: {walks.target_kc}\npath:\n{path}\n\n{_RUBRIC}")


def is_scoring_prompt(text: str) -> bool:
    return text.startswith(SCORING_PROMPT_HEADER)


def _unreadable(what: str) -> TransportError:
    return TransportError(f"mock transport cannot read this scoring prompt: {what}")


# a path line's parts: its node, and a question's hop count and KC set (None on other kinds)
PathLine = tuple[Node, int | None, frozenset[str] | None]
# a numbered path line's number, text after the number and parts, as the path-line memo stores them
NumberedLine = tuple[int, str, PathLine]


def _read_path_line(body: str) -> PathLine:
    """One path line after its ``"  n. "`` number, read by its node kind with its fields taken from
    the right: a question line ends in its KCs, difficulty level and hop count, a student line in
    its ability level, and on other lines all that follows the kind is the id.  So ids may hold
    ``": "`` or ``" | "``; KC ids may not hold ``";"``, which separates them.  Raises ValueError
    on a line without its fields, an empty id, a level other than Low, Medium or High, or a hop
    count not written in ASCII digits."""
    kind, colon, rest = body.partition(":")
    if not colon:
        raise ValueError
    hops = kcs = None
    if kind == "Q":
        named, level, hop_field = rest.rsplit(" | ", 2)
        node_id, kcs_found, kc_field = named.rpartition(" | kcs: ")
        count = hop_field[18:]
        if not (kcs_found and level.startswith("difficulty_level: ") and ("D", level[18:]) in _LEVEL_INDEX
                and hop_field.startswith("hops_from_target: ") and count.isascii() and count.isdigit()):
            raise ValueError
        hops, kcs = int(count), frozenset(filter(None, kc_field.split(";")))
    elif kind == "U":
        node_id, found, level = rest.rpartition(" | ability_level: ")
        if not (found and ("A", level) in _LEVEL_INDEX):
            raise ValueError
    elif kind == "K" or (kind, rest) in _LEVEL_INDEX:
        node_id = rest
    else:
        raise ValueError
    if not node_id:
        raise ValueError
    return (kind, node_id), hops, kcs


def _read_scoring_prompts(prompts: Sequence[str], memo: dict[str, NumberedLine] | None = None
                          ) -> tuple[list[PathLine], np.ndarray, list[str]]:
    """A block of scoring prompts read as rendered, with no other knowledge of the graph: the parts
    of each distinct path-line text (after the ``"  n. "`` number) in sorted (kind, id, hop) order,
    each path as a row of their positions (``PAD``-padded), and each prompt's target KC.

    Raises TransportError naming the first path line it cannot read, path line 1 if it is not the
    question of the ``target_question`` line, or a node written two ways in one prompt.  ``memo``
    holds each line read before, by the whole line: found under its own number it costs one
    lookup; any other line has its number checked and its text read, and is stored if it reads."""
    if memo is None:
        memo = {}
    parts: dict[str, PathLine] = {}
    paths: list[list[str]] = []
    target_kcs = []
    for text in prompts:
        start = text.find("\npath:\n")
        end = text.find("\n\n", start + 7) if start >= 0 else -1
        kc_line = text[text.rfind("\n", 0, start) + 1:start]
        if not (end >= 0 and kc_line.startswith("target_kc: ")):
            raise _unreadable("no target_kc line followed by a path block")
        lines = text[start + 7:end].split("\n")
        path = []
        for n, line in enumerate(lines, 1):
            read = memo.get(line)
            if read is None or read[0] != n:
                number = f"  {n}. "
                if not line.startswith(number):
                    raise _unreadable(f"path line {line!r}")
                try:
                    read = memo[line] = (n, line[len(number):], _read_path_line(line[len(number):]))
                except ValueError:
                    raise _unreadable(f"path line {line!r}") from None
            path.append(read[1])
            parts[read[1]] = read[2]
        kind, node_id = parts[path[0]][0]
        if kind != "Q" or not text.startswith(f"{SCORING_PROMPT_HEADER}\ntarget_question: {node_id}\n"):
            raise _unreadable(f"path line {lines[0]!r} is not the question of the target_question line")
        paths.append(path)
        target_kcs.append(kc_line[11:])
    texts = sorted(parts, key=lambda body: parts[body][:2])
    position = {body: i for i, body in enumerate(texts)}
    lengths = np.array([len(path) for path in paths])
    rows = np.full((len(paths), lengths.max()), PAD)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = [position[body] for path in paths for body in path]
    # one node's texts sort side by side, so two of them in one row are neighbours in its sorted row
    nodes = [parts[body][0] for body in texts]
    node_of = np.cumsum([True] + [a != b for a, b in zip(nodes, nodes[1:])] + [True])
    ordered = np.sort(rows, axis=1)
    same = np.take(node_of, ordered)
    clash = np.argwhere((ordered[:, 1:] != ordered[:, :-1]) & (same[:, 1:] == same[:, :-1]))
    if len(clash):
        kind, node_id = nodes[ordered[clash[0, 0], clash[0, 1]]]
        raise _unreadable(f"node {kind}:{node_id} is written two ways")
    return [parts[body] for body in texts], rows, target_kcs


def mock_score_replies(prompts: Sequence[str], memo: dict[str, NumberedLine] | None = None) -> list[str]:
    """Deterministic scoring replies from the prompts alone, matching the formula scorer bit for bit:
    every path of the block (read with ``memo``) scored in one :func:`_score_rows` pass on tables
    filled from the prompts' annotations, each distinct score's ``repr`` rendered once."""
    if not prompts:
        return []
    lines, rows, target_kcs = _read_scoring_prompts(prompts, memo)
    no_level, kcs = len(LEVEL_CATEGORIES), {kc: i for i, kc in enumerate(dict.fromkeys(target_kcs))}
    kc_entry = {node[1]: i for i, (node, _, _) in enumerate(lines) if node[0] == "K"}
    scores = _score_rows(
        rows, np.array([_KIND_BITS[node[0]] for node, _, _ in lines] + [0], dtype=np.uint8),
        np.array([_LEVEL_INDEX.get(node, no_level) for node, _, _ in lines] + [no_level]),
        np.array([[hops or 0 for _, hops, _ in lines] + [0]]), np.zeros(len(rows), dtype=np.intp),
        np.array([[kc in (covered or ()) for _, _, covered in lines] + [False] for kc in kcs]),
        np.array([kcs[kc] for kc in target_kcs]), np.array([kc_entry.get(kc, len(lines)) for kc in target_kcs]))
    bits, inverse = np.unique(np.ascontiguousarray(scores[:, :4]).view(np.uint64), return_inverse=True)
    text = list(map(repr, bits.view(np.float64).tolist()))
    return [f"{{{text[c]}, {text[r]}, {text[i]}, {text[dv]}}}" for c, r, i, dv in inverse.reshape(-1, 4).tolist()]


# walks whose prompts are rendered, sent and held at once by score_llm
SCORE_BLOCK = 1024


def score_llm(groups: Sequence[WalkGroup], client: LlmClient) -> list[ScoredGroup]:
    """The groups scored via the LLM backend, in blocks of :data:`SCORE_BLOCK` walks whose prompts
    are sent together (:meth:`~hisekt.llm.LlmClient.complete_many`); a row's total is
    ``c + r + i + dv``, summed left to right.

    The scores are the last ``{...}`` group in the reply holding exactly four comma-separated
    numbers, the format the rubric asks for; a block reads each distinct reply once.  Values out
    of [0, 5] are clamped, each with a warning.  Only prompts whose reply did not read are sent
    again, and one still unread after ``client.max_retries`` sends raises ScoringError.  One hop
    search per graph fills the hop memo for every target question before any prompt is rendered."""
    for g in {group.graph: None for group in groups}:
        graph_tables(g).hops(g, [g.index(("Q", group.target_question)) for group in groups if group.graph is g])
    walks = [(group, k) for group in groups for k in range(len(group))]
    table = np.empty((len(walks), 5))
    for start in range(0, len(walks), SCORE_BLOCK):
        prompts = [render_scoring_prompt(group, k) for group, k in walks[start:start + SCORE_BLOCK]]
        read: dict[str, tuple[float, ...]] = {}  # each distinct reply of the block, read once
        scores: list[tuple[float, ...]] = [()] * len(prompts)  # () until its reply reads
        pending = range(len(prompts))
        for _ in range(max(client.max_retries, 1)):
            replies = dict(zip(pending, client.complete_many([prompts[j] for j in pending])))
            for j, reply in replies.items():
                if reply not in read:
                    found = _REPLY_RE.findall(reply)
                    read[reply] = tuple(map(float, found[-1])) if found else ()
                scores[j] = read[reply]
            pending = [j for j in pending if not scores[j]]
            if not pending:
                break
        else:
            raise ScoringError("llm scorer returned no parsable scores after retries", raw_response=replies[pending[0]])
        table[start:start + len(prompts), :4] = scores
    dimensions = table[:, :4]
    out = ~((dimensions >= 0.0) & (dimensions <= MAX_DIMENSION_SCORE))
    for value in dimensions[out].tolist():
        logger.warning("llm score %r out of [0, 5]; clamped", value)
    dimensions[out] = np.clip(dimensions[out], 0.0, MAX_DIMENSION_SCORE)
    table[:, 4] = table[:, 0] + table[:, 1] + table[:, 2] + table[:, 3]
    ends = np.cumsum([len(group) for group in groups])
    return [ScoredGroup(group, table[end - len(group):end], "llm") for group, end in zip(groups, ends)]


# -- scored store --------------------------------------------------------------

SCORE_FIELDS = ("centrality", "kc_relevance", "informativeness", "diversity", "total")


def write_scored(grouped: Mapping[str, Mapping[str, ScoredGroup]], path: str | Path) -> int:
    """One line per walk, in the order :func:`~hisekt.mrhin.write_walks` writes the walks: the
    walk's backend, five score fields and tie key, as ``json.dumps(sort_keys=True)`` writes them;
    returns the number of walks.

    Each score is rendered once per distinct value: the distinct bit patterns of every group's
    scores (so ``-0.0`` stays apart from ``0.0``, and a NaN is written ``NaN``) map to their texts,
    and each group's columns are filled from that."""
    tables = [np.ravel(group.scores) for per_template in grouped.values() for group in per_template.values()]
    bits = np.unique(np.concatenate(tables or [np.empty(0)]).view(np.uint64))
    text = dict(zip(bits.tolist(), map(json.dumps, bits.view(np.float64).tolist())))
    keys = sorted((*SCORE_FIELDS, "backend", "tie_key"))
    line = "{{" + ", ".join(f"{json.dumps(key)}: {{}}" for key in keys) + "}}\n"
    with open(path, "w", encoding="utf-8") as out:
        for qid in sorted(grouped):
            for name, group in sorted(grouped[qid].items()):
                columns = np.ascontiguousarray(group.scores).view(np.uint64).T.tolist()
                fields = dict(zip(SCORE_FIELDS, (map(text.__getitem__, column) for column in columns)),
                              backend=itertools.repeat(json.dumps(group.backend)),
                              tie_key=map(str, group.walks.tie_keys.tolist()))
                out.writelines(map(line.format, *(fields[key] for key in keys)))
    return sum(len(group) for per_template in grouped.values() for group in per_template.values())


def _check_scores(values: tuple) -> None:
    """Raises ValueError unless a scored record's five score fields are finite JSON numbers (not
    bools, nulls or strings) whose total is the four dimensions summed left to right, as
    :func:`score_llm` and :func:`score_groups` sum them; the written ``repr`` of each float reads
    back its bits."""
    for key, value in zip(SCORE_FIELDS, values):
        if type(value) is not float and type(value) is not int:
            raise ValueError(f"{key} is {json.dumps(value)}, not a number")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{key} is {json.dumps(value)}, not a finite number")
    c, r, i, dv, total = map(float, values)
    if c + r + i + dv != total:
        raise ValueError(f"total is {total!r}, not the sum of the four scores, {c + r + i + dv!r}")


def read_scored(path: str | Path, walks: Mapping[str, Mapping[str, WalkGroup]]) -> dict[str, dict[str, ScoredGroup]]:
    """The scored groups of a :func:`write_scored` file on the walk groups it scored, read from
    ``paths.jsonl`` or sampled again: line ``j`` of a group's block scores its row ``j``, as float64
    scores.  Groups without walks have no line and are left out.

    Raises IngestError naming the file and line of a score that is not a finite JSON number, of a
    total that is not the sum of its four scores, of a tie key that is not its walk's, or where
    the file holds more or fewer lines than there are walks; and naming the file where one group
    holds scores of two backends."""
    groups = [(qid, name, group) for qid in sorted(walks) for name, group in sorted(walks[qid].items()) if len(group)]
    count = sum(len(group) for _, _, group in groups)
    expected = iter([key for _, _, group in groups for key in group.tie_keys.tolist()])

    def decode(rec: dict) -> tuple:
        want = next(expected, None)
        if want is None:
            raise ValueError(f"more lines than the {count} walks")
        values = tuple(rec[field] for field in SCORE_FIELDS)
        _check_scores(values)
        key = rec["tie_key"]
        if type(key) is not int or key != want:
            raise ValueError(f"tie key {json.dumps(key)}, but the walk of this line has tie key {want}")
        return (*values, rec["backend"])

    rows = read_json_lines(path, decode)
    if len(rows) < count:
        raise IngestError(f"{path} line {len(rows) + 1}: the file ends, but there are {count} walks")
    out: dict[str, dict[str, ScoredGroup]] = {}
    start = 0
    for qid, name, group in groups:
        block, start = rows[start:start + len(group)], start + len(group)
        backends = sorted({row[-1] for row in block})
        if len(backends) > 1:
            raise IngestError(f"{path}: the {name} walks from {qid} were scored by backends {backends}")
        scores = np.array([row[:-1] for row in block], dtype=np.float64)
        out.setdefault(qid, {})[name] = ScoredGroup(group, scores, backends[0])
    return out


# -- selection ---------------------------------------------------------------


def select_top_k(scored: ScoredGroup, k: int, mode: str = "top", seed: int = 0) -> ScoredGroup:
    """Keep ``min(k, len(scored))`` rows by total score, in selection order.

    ``top`` keeps the highest totals, ``lowest`` the lowest, ``random`` a
    uniform sample without replacement under ``seed``.  Equal totals are
    ordered by the walks' tie keys, so reruns agree.  The kept rows are
    returned as a :class:`ScoredGroup` with their tie keys: the one-group call
    of :func:`select_top_k_many`.
    """
    return scored.take(select_top_k_many([scored], k, mode, [seed])[0])


def select_top_k_many(groups: Sequence[ScoredGroup], k: int, mode: str = "top",
                      seeds: Sequence[int] = ()) -> list[np.ndarray]:
    """The row indices :func:`select_top_k` keeps of each group, in selection order, ranked in one
    pass over all groups; ``random`` mode draws group ``i`` under ``seeds[i]``.

    ``random`` mode pads the groups' tie keys into one groups x longest-group matrix, argsorts its
    rows stably and draws ``k`` positions of a longer group's order.  ``top`` and ``lowest`` pad
    the totals (negated for ``top``) into such a matrix, find each group's k-th value with one
    ``np.partition`` and lexsort only the rows at or past it (NaN included) by (group, value, tie
    key), each group keeping its first ``k``.  A row past its group's k-th value has ``k`` rows
    before it, so each group keeps what its own lexsort of ``(tie keys, values)`` would.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("top", "lowest", "random"):
        raise ValueError(f"unknown selection mode {mode!r}")
    if mode == "random" and len(seeds) != len(groups):
        raise ValueError("random mode needs one seed per group")
    sizes = np.array([len(group) for group in groups], dtype=np.intp)
    cell = np.arange(sizes.max(initial=0)) < sizes[:, None]
    if not cell.size:
        return [np.zeros(0, dtype=np.intp) for _ in groups]
    keys = np.concatenate([group.walks.tie_keys for group in groups])
    if mode == "random":
        # a pad sorts after every row of its group: a stable sort keeps a real key equal to the pad first
        padded = np.full(cell.shape, np.iinfo(np.int64).max)
        padded[cell] = keys
        order = np.argsort(padded, axis=1, kind="stable")
        return [order[i, :n] if n <= k else order[i, derive_rng(seed, "select_top_k").sample(range(n), k)]
                for i, (n, seed) in enumerate(zip(sizes.tolist(), seeds))]
    values = np.full(cell.shape, np.inf)
    values[cell] = np.concatenate([group.scores[:, 4] for group in groups])
    if mode == "top":
        np.negative(values, out=values, where=cell)
    last = min(k, cell.shape[1]) - 1
    kth = np.partition(values, last, axis=1)[:, last:last + 1]
    group, row = np.nonzero(cell & ~(values > kth))
    order = np.lexsort((keys[np.cumsum(sizes)[group] - sizes[group] + row], values[group, row], group))
    group, row = group[order], row[order]
    rank = np.arange(len(group)) - np.searchsorted(group, group)
    return np.split(row[rank < k], np.cumsum(np.minimum(sizes, k))[:-1])
