"""Typed student/question/concept/level graph and meta-path walk sampling.

Nodes come in five kinds: U (student), Q (question), K (knowledge concept),
A (ability level), D (difficulty level).  Edges are undirected and of four
kinds: Q-U (student answered question in the train split), Q-K (question
covers concept), Q-D (question's difficulty level), U-A (student's ability
level).

A meta-path template is a kind sequence starting and ending at Q.  Sampled
walks follow the template's kind pattern cyclically - the terminal Q of one
cycle seeds the next - until they reach the requested node count, choosing
uniformly among the neighbors of the required next kind at each step.

Walk draws are counter-based: each step's draw is a SplitMix64 hash of the
key (seed, template, question, attempt, step), so a walk depends on its own
key only.  :func:`sample_walks` therefore advances every attempt of a
template, from every listed question, in lockstep as numpy arrays, and
gives the same rows as sampling each question alone.

Equal Top-K totals are ordered by a walk's tie key, which mixes the same
way: each node has a sha256 key, and a walk's key sums ``mix`` of each
node's key plus its position times γ.  That term depends only on the
(position, node) pair, so each graph memoizes one table of it, a row per
position up to its widest walks (:func:`tie_terms`), and a group's keys are
one gather from the table and one row sum (:attr:`WalkGroup.tie_keys`): the
sum wraps modulo 2**64, so its order does not change the bits.

The graph interns its nodes as ints in sorted ``(kind, id)`` order, so int
order is node order, and holds its edges once, as one CSR over all edge
kinds (:class:`Mrhin`).  The walks of one (target question, template) pair
are a :class:`WalkGroup`: one int array with a row per walk, padded with
``PAD`` after a truncated walk's last node.  The walk file (``paths.jsonl``)
is written from groups and read back into groups, one JSON line per walk, in
each group's row order, which is the order :func:`sample_walks` drew them in:
a group read back holds the sampled walks in the sampled order.
``scored.jsonl`` (:mod:`hisekt.pathscore`) holds each walk's scores and tie
key, line for line in the same order.
"""

from __future__ import annotations

import bisect
import itertools
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from .dataset import Dataset
from .errors import IngestError
from .irt import IrtModel
from .seeding import derive_seed, stable_hash

logger = logging.getLogger(__name__)

Node = tuple[str, str]  # (kind, id)
T = TypeVar("T")

NODE_KINDS = ("U", "Q", "K", "A", "D")
EDGE_KINDS = frozenset({frozenset(("Q", "U")), frozenset(("Q", "K")),
                        frozenset(("Q", "D")), frozenset(("U", "A"))})

DEFAULT_NUM_WALKS = 100
DEFAULT_WALK_LEN = 20
RESAMPLE_FACTOR = 10
PAD = -1  # fills a walk row after the last node of a truncated walk
UNREACHABLE = 2**31 - 1  # hop count of a node no path reaches; above any cap
# Names the walk draw rule, the tie-key rule and the layout of the walk and score files, for
# caches of sampled walks and of what their Top-K order decides: change it with any of them.
WALK_SCHEME = "splitmix64-mixsum-tiekeyed-roworder"

# SplitMix64 (Steele, Lea & Flood 2014): the golden-ratio increment and the
# finalizer's constants.  Kept as np.uint64 so that all wrapping arithmetic is on
# uint64 arrays, which wrap silently (a wrapping scalar product warns).
GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_MIX_MULTIPLIERS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_HALF = np.uint64(32)
_ONE = np.uint64(1)


@dataclass(frozen=True)
class MetaPathTemplate:
    """Named kind sequence; consecutive kinds must form valid edge kinds."""

    name: str
    kinds: tuple[str, ...]

    def __post_init__(self):
        if self.kinds[0] != "Q" or self.kinds[-1] != "Q":
            raise ValueError(f"template {self.name} must start and end at Q")
        for x, y in zip(self.kinds, self.kinds[1:]):
            if frozenset((x, y)) not in EDGE_KINDS:
                raise ValueError(f"template {self.name} has invalid step {x}-{y}")

    @property
    def period(self) -> int:
        return len(self.kinds) - 1

    def kind_at(self, position: int) -> str:
        """Node kind at a walk position under cyclic extension of the pattern."""
        if position == 0:
            return self.kinds[0]
        return self.kinds[(position - 1) % self.period + 1]


_TEMPLATE_NAMES = (
    # basic
    "Q-U-Q",
    "Q-K-Q",
    "Q-D-Q",
    "Q-U-A-U-Q",
    # composite
    "Q-K-Q-D-Q",
    "Q-D-Q-K-Q",
    "Q-U-Q-D-Q",
    "Q-D-Q-U-Q",
    "Q-K-Q-U-Q",
    "Q-U-Q-K-Q",
    "Q-K-Q-U-Q-D-Q",
    "Q-U-Q-K-Q-D-Q",
    "Q-K-Q-U-A-U-Q",
    "Q-K-Q-U-Q-D-Q-U-A-U-Q",
)

TEMPLATES: dict[str, MetaPathTemplate] = {
    name: MetaPathTemplate(name, tuple(name.split("-"))) for name in _TEMPLATE_NAMES
}


def node_token(node: Node) -> str:
    """The ``kind:id`` string that artifacts use for a node."""
    return f"{node[0]}:{node[1]}"


def node_key(node: Node) -> int:
    """The 63-bit sha256 key of a node that walk tie keys mix."""
    return stable_hash(node_token(node))


class Mrhin:
    """Immutable typed graph held as one CSR over node ints.

    Node int ``i`` is node ``node_ids[i]``, of kind ``kinds[i]``, with the
    tie-key term ``node_keys[i]`` (:func:`node_key`).  Its neighbors are
    ``flat[offsets[i]:offsets[i + 1]]`` in int order, so its neighbors of
    one kind form one run of ``flat``: ``csr[kind]`` is ``(degree, offsets)``
    of those runs, by node int, into the same ``flat``.  ``_memo`` holds
    what is derived from the graph, each table built in full before it is
    stored: the tie-key terms (:func:`tie_terms`) and the node tables of
    :func:`hisekt.pathscore.graph_tables`, its hop memo and prompt path
    lines included.
    """

    def __init__(self, node_ids: Sequence[Node], edges: np.ndarray):
        """``node_ids`` of the node kinds in sorted ``(kind, id)`` order, without repeats; ``edges`` an
        ``m x 2`` array of node-int pairs of the edge kinds, each an undirected edge in either
        orientation, a repeated edge being one edge."""
        self.node_ids: tuple[Node, ...] = tuple(node_ids)
        n = len(self.node_ids)
        if any(a >= b for a, b in zip(self.node_ids, self.node_ids[1:])):
            raise ValueError("graph nodes must be in sorted (kind, id) order, without repeats")
        self._index = {node: i for i, node in enumerate(self.node_ids)}
        self.kinds = tuple(kind for kind, _ in self.node_ids)
        self.node_keys = np.array([node_key(node) for node in self.node_ids], dtype=np.uint64)
        self._spans = {kind: (bisect.bisect_left(self.kinds, kind), bisect.bisect_right(self.kinds, kind))
                       for kind in NODE_KINDS}
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and not (edges.min() >= 0 and edges.max() < n):
            raise ValueError("an edge end is not a node int")
        # each edge in both orientations, once, in (node, neighbor) order
        pairs = np.unique(np.concatenate([edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]]))
        base = np.arange(n + 1, dtype=np.int64) * n
        self.offsets = np.searchsorted(pairs, base)
        self.flat = (pairs % max(n, 1)).astype(np.int32)
        self.csr: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for kind, (lo, hi) in self._spans.items():
            start = np.searchsorted(pairs, base[:-1] + lo)
            self.csr[kind] = (np.searchsorted(pairs, base[:-1] + hi) - start, start)
        self._memo: dict = {}  # by name: "tie_terms", "graph_tables"

    @classmethod
    def build(cls, d: Dataset, m: IrtModel) -> "Mrhin":
        """The graph of a split dataset and fitted model: a node per student, question, KC and level
        held, a Q-U edge per train answer, a Q-K edge per KC of a question, and each question's
        Q-D and each student's U-A level edge.  The constructor keeps one of each repeated edge."""
        ability = [m.ability_level[s].label for s in d.students()]
        difficulty = [m.difficulty_level[q].label for q in d.questions()]
        ids = {"A": sorted(set(ability)), "D": sorted(set(difficulty)), "K": d.kcs(), "Q": d.questions(),
               "U": d.students()}
        node_ids = [(kind, node_id) for kind in sorted(ids) for node_id in ids[kind]]
        first = {kind: bisect.bisect_left(node_ids, (kind,)) for kind in ids}  # a node's int: first[kind] + its code
        train, (question, kc) = d.iter_split("train"), d.question_kc_codes()
        ends = [("Q", d.question[train], "U", d.student[train]), ("Q", question, "K", kc),
                ("Q", range(len(difficulty)), "D", list(map(ids["D"].index, difficulty))),
                ("U", range(len(ability)), "A", list(map(ids["A"].index, ability)))]
        return cls(node_ids, np.concatenate([np.column_stack([np.add(a, first[x]), np.add(b, first[y])])
                                             for x, a, y, b in ends]))

    def nodes(self, kind: str | None = None) -> tuple[Node, ...]:
        lo, hi = (0, len(self.node_ids)) if kind is None else self._spans.get(kind, (0, 0))
        return self.node_ids[lo:hi]

    def has_node(self, node: Node) -> bool:
        return node in self._index

    def index(self, node: Node) -> int:
        """The node's int id."""
        try:
            return self._index[node]
        except KeyError:
            raise ValueError(f"{node} is not a graph node") from None

    def neighbors(self, node: Node, kind: str | None = None) -> tuple[Node, ...]:
        x = self._index.get(node)
        if x is None:
            return ()
        start, stop = self.offsets[x], self.offsets[x + 1]
        if kind is not None:
            degree, offsets = self.csr[kind]
            start, stop = offsets[x], offsets[x] + degree[x]
        return tuple(map(self.node_ids.__getitem__, self.flat[start:stop].tolist()))

    def edge_count(self) -> int:
        return len(self.flat) // 2

    def question_kcs(self, question_id: str) -> frozenset[str]:
        return frozenset(node_id for _, node_id in self.neighbors(("Q", question_id), "K"))

    def hops(self, sources: Sequence[int] | np.ndarray) -> np.ndarray:
        """Hop counts from each source node int: an int32 table with a row per source and a column per
        node int, ``UNREACHABLE`` where no path leads.  One level-synchronous breadth-first pass serves
        every source (MS-BFS, Then et al., VLDB 2014): source ``j`` is bit ``j % 64`` of word ``j // 64``
        of each node's words, and a level is one ``np.bitwise_or.reduceat`` of the frontier words
        gathered through ``flat``, less the words already seen."""
        sources = np.asarray(sources, dtype=np.intp).reshape(-1)
        n, count = len(self.node_ids), len(sources)
        if count and not (sources.min() >= 0 and sources.max() < n):
            raise ValueError("hop sources must be node ints")
        table = np.full((count, n), UNREACHABLE, dtype=np.int32)
        owner = np.arange(count)
        frontier = np.zeros((n, -(-count // 64)), dtype=np.uint64)
        np.bitwise_or.at(frontier, (sources, owner // 64), np.left_shift(_ONE, (owner % 64).astype(np.uint64)))
        seen = frontier.copy()
        linked = np.flatnonzero(np.diff(self.offsets))  # the nodes with a neighbor
        for depth in itertools.count():
            rows = np.flatnonzero(frontier.any(axis=1))
            if not len(rows):
                return table
            bits = np.unpackbits(frontier[rows].astype("<u8").view(np.uint8), axis=1, bitorder="little")
            at, source = np.nonzero(bits[:, :count])
            table[source, rows[at]] = depth
            reached = np.zeros_like(frontier)
            reached[linked] = np.bitwise_or.reduceat(frontier[self.flat], self.offsets[linked], axis=0)
            frontier = reached & ~seen
            seen |= frontier


class WalkGroup:
    """Walks of one template from one target question toward one target KC.

    ``rows`` holds one walk per row as graph node ints (``n x walk_len``),
    padded with ``PAD`` after the last node of a truncated walk;
    :attr:`tie_keys` holds each walk's Top-K tie key, gathered once per group
    from the graph's :func:`tie_terms`.
    """

    def __init__(self, graph: Mrhin, template: MetaPathTemplate, target_question: str, target_kc: str,
                 rows: np.ndarray):
        self.graph = graph
        self.template = template
        self.target_question = target_question
        self.target_kc = target_kc
        self.rows = rows
        self._tie_keys: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def walk(self, i: int) -> list[int]:
        """Walk ``i``'s node ints, without padding."""
        return _unpadded(self.rows[i].tolist())

    def walks(self) -> list[list[int]]:
        """Each walk's node ints, without padding."""
        return [_unpadded(row) for row in self.rows.tolist()]

    def take(self, index: np.ndarray) -> "WalkGroup":
        """The group of the rows at ``index``, in that order, with their tie keys if computed."""
        part = WalkGroup(self.graph, self.template, self.target_question, self.target_kc, self.rows[index])
        if self._tie_keys is not None:
            part._tie_keys = self._tie_keys[index]
        return part

    @property
    def tie_keys(self) -> np.ndarray:
        """Each walk's tie key ``(Σ_{t=1..len} mix(node_keys[x_t] + t·γ) mod 2**64) >> 1``, over its
        nodes ``x_1 .. x_len``, as int64: one sha256 per graph node, none per walk, and one gather
        of :func:`tie_terms` per group."""
        keys = self._tie_keys
        if keys is None:
            width = self.rows.shape[1]
            terms = tie_terms(self.graph, width)
            # row t - 1 of the flat table starts at (t - 1)(nodes + 1), and node x (PAD too) is column x + 1
            at = self.rows + np.arange(1, width * terms.shape[1], terms.shape[1])
            keys = (np.take(terms, at).sum(axis=1, dtype=np.uint64) >> _ONE).astype(np.int64)
            self._tie_keys = keys
        return keys


def tie_terms(g: Mrhin, width: int) -> np.ndarray:
    """The tie-key terms of walks up to ``width`` nodes on ``g``: ``terms[t - 1, x + 1]`` is
    ``mix(node_keys[x] + t·γ)`` of node int ``x`` at walk position ``t``, and the ``PAD`` column
    (column 0) is 0, so a padded position adds nothing.  Read-only; a row per position, ``width``
    rows or more: the graph's widest table yet, built in full before it is stored."""
    terms = g._memo.get("tie_terms")
    if terms is None or len(terms) < width:
        steps = np.arange(1, width + 1, dtype=np.uint64)[:, None] * GAMMA
        terms = np.zeros((width, len(g.node_keys) + 1), dtype=np.uint64)
        terms[:, 1:] = mix(g.node_keys + steps)
        terms.flags.writeable = False
        g._memo["tie_terms"] = terms
    return terms


def _padded(walks: list[list[int]]) -> np.ndarray:
    """One int row per walk, as wide as the longest, padded with ``PAD``."""
    width = max(map(len, walks))
    return np.array([walk + [PAD] * (width - len(walk)) for walk in walks], dtype=np.int32)


def _unpadded(row: list[int]) -> list[int]:
    return row[: row.index(PAD)] if PAD in row else row


def mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of each element of a uint64 array."""
    (s1, s2, s3), (m1, m2) = _MIX_SHIFTS, _MIX_MULTIPLIERS
    z = (z ^ (z >> s1)) * m1
    z = (z ^ (z >> s2)) * m2
    return z ^ (z >> s3)


def _target_kc(g: Mrhin, q0: str, target_kc: str | None = None) -> str:
    """``target_kc``, by default the smallest KC of ``q0``; raises ValueError if ``q0`` is
    not a graph node or ``target_kc`` is not one of its KCs."""
    if not g.has_node(("Q", q0)):
        raise ValueError(f"question {q0!r} is not a node of the graph")
    kcs = g.question_kcs(q0)
    if target_kc is None:
        if not kcs:
            raise ValueError(f"question {q0!r} has no knowledge concepts")
        return min(kcs)
    if target_kc not in kcs:
        raise ValueError(f"target KC {target_kc!r} does not belong to question {q0!r}")
    return target_kc


def _lockstep_rows(g: Mrhin, template: MetaPathTemplate, questions: Sequence[str], n: int,
                   walk_len: int, seed: int) -> list[np.ndarray]:
    """Each question's walk rows, in the order of ``questions``: see :func:`sample_instances`."""
    steps = [g.csr[template.kind_at(position)] for position in range(1, walk_len)]
    width = len(steps) + 1
    min_length = min(width, len(template.kinds))
    step_offsets = np.arange(1, width, dtype=np.uint64) * GAMMA
    starts = np.array([g.index(("Q", q0)) for q0 in questions], dtype=np.int32)
    bases = np.array([derive_seed(seed, template.name, q0) for q0 in questions], dtype=np.uint64)
    kept: list[list[np.ndarray]] = [[] for _ in questions]
    missing = np.full(len(questions), n, dtype=np.int64)
    tried = np.zeros(len(questions), dtype=np.int64)
    while True:
        counts = np.minimum(missing, RESAMPLE_FACTOR * n - tried)
        total = int(counts.sum())
        if total <= 0:
            break
        # one row per attempt, by question, then attempt index
        owner = np.repeat(np.arange(len(questions)), counts)
        attempt = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts) + tried[owner]
        keys = mix(bases[owner] + attempt.astype(np.uint64) * GAMMA)
        rows = np.full((total, width), PAD, dtype=np.int32)
        rows[:, 0] = starts[owner]
        length = np.ones(total, dtype=np.int64)
        live = np.arange(total)
        node = rows[:, 0]
        for position, (degree, offsets) in enumerate(steps, start=1):
            deg = degree[node]
            if not deg.all():  # a walk ends at a node with no neighbor of the next kind
                going = deg > 0
                live, node, deg = live[going], node[going], deg[going]
                if not len(live):
                    break
            draws = mix(keys[live] + step_offsets[position - 1])
            # multiply-shift: the high 32 bits of the draw scaled to [0, deg)
            pick = (((draws >> _HALF) * deg.astype(np.uint64)) >> _HALF).astype(np.int64)
            node = g.flat[offsets[node] + pick]
            rows[live, position] = node
            length[live] = position + 1
        good = length >= min_length
        per_question = np.bincount(owner[good], minlength=len(questions))
        for i, chunk in enumerate(np.split(rows[good], np.cumsum(per_question)[:-1])):
            if len(chunk):
                kept[i].append(chunk)
        missing -= per_question
        tried += counts
    return [np.concatenate(chunks) if chunks else np.empty((0, width), dtype=np.int32) for chunks in kept]


def sample_walks(
    g: Mrhin,
    template: MetaPathTemplate,
    questions: Sequence[str],
    n: int = DEFAULT_NUM_WALKS,
    walk_len: int = DEFAULT_WALK_LEN,
    seed: int = 0,
) -> dict[str, WalkGroup]:
    """{question: the group ``sample_instances(g, template, question, n, walk_len, seed)``} for
    every listed question, sampled in one lockstep pass over all their attempts."""
    kcs = {q0: _target_kc(g, q0) for q0 in questions}
    rows = _lockstep_rows(g, template, list(kcs), n, walk_len, seed)
    return {q0: _group(g, template, q0, kc, walks) for (q0, kc), walks in zip(kcs.items(), rows)}


def sample_instances(
    g: Mrhin,
    template: MetaPathTemplate,
    q0: str,
    n: int = DEFAULT_NUM_WALKS,
    walk_len: int = DEFAULT_WALK_LEN,
    seed: int = 0,
    target_kc: str | None = None,
) -> WalkGroup:
    """Sample up to ``n`` template-conformant walks of ``walk_len`` nodes from ``q0``.

    A walk that hits a node with no neighbor of the required next kind is
    kept truncated (padded with ``PAD``) if it already completed one full
    template cycle, otherwise discarded; the group holds the first ``n``
    kept walks of up to 10n attempts.

    Draws are counter-based, with SplitMix64's increment γ and finalizer
    ``mix``: attempt ``a`` has the key ``mix(base + a·γ)``, where ``base`` is
    ``derive_seed(seed, template.name, q0)``, and node ``t`` of its walk
    (``t >= 1``) is neighbor ``((d >> 32) · deg) >> 32`` of the sorted
    neighbor ints of the required kind of node ``t - 1``, where
    ``d = mix(key + t·γ)`` and ``deg`` is their count (multiply-shift).  All
    arithmetic is modulo 2**64.  Each of the ``deg`` neighbors owns
    ``floor(2**32 / deg)`` or ``ceil(2**32 / deg)`` of the 2**32 values of
    ``d >> 32``, so its probability differs from ``1 / deg`` by less than
    ``2**-32``: a relative bias below ``deg / 2**32``.

    A walk depends only on its own key, so :func:`sample_walks`, which runs
    the attempts of many questions in lockstep, gives the same rows, and
    reruns are byte-identical.  This is the same pass for one question.
    """
    target_kc = _target_kc(g, q0, target_kc)
    return _group(g, template, q0, target_kc, _lockstep_rows(g, template, [q0], n, walk_len, seed)[0])


def _group(g: Mrhin, template: MetaPathTemplate, q0: str, target_kc: str, rows: np.ndarray) -> WalkGroup:
    if not len(rows):
        logger.info("no conformant walk for template %s from %s", template.name, q0)
    return WalkGroup(g, template, q0, target_kc, rows)


# -- graph store -------------------------------------------------------------


def write_graph(g: Mrhin, path: str | Path) -> None:
    """JSON adjacency artifact for the graph-build stage: {node: {kind: its neighbors of that kind}}."""
    tokens = tuple(map(node_token, g.node_ids))
    flat, offsets = g.flat.tolist(), g.offsets.tolist()
    payload = {
        token: {kind: list(map(tokens.__getitem__, run))
                for kind, run in itertools.groupby(flat[offsets[x]:offsets[x + 1]], g.kinds.__getitem__)}
        for x, token in enumerate(tokens)
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def read_graph(path: str | Path) -> Mrhin:
    """The graph of a :func:`write_graph` file.  Raises IngestError naming the file and the first
    node, in node order, that is not ``kind:id`` of a node kind, lists neighbors of a kind it has
    no edge kind with, lists a neighbor under a kind that is not that neighbor's or that is no node
    of the file, or lists a neighbor that does not list it back."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        tokens = sorted(payload, key=lambda token: token.split(":", 1))
        index = {token: i for i, token in enumerate(tokens)}
        listed: list[tuple[int, int]] = []  # (node, neighbor) per listed neighbor
        for x, token in enumerate(tokens):
            kind, colon, _ = token.partition(":")
            if not colon or kind not in NODE_KINDS:
                raise ValueError(f"node {token} is not kind:id of a node kind")
            for key, nbrs in payload[token].items():
                if frozenset((kind, key)) not in EDGE_KINDS:
                    raise ValueError(f"node {token} lists {key} neighbors, and {kind}-{key} is no edge kind")
                for nbr in nbrs:
                    if nbr not in index or not nbr.startswith(f"{key}:"):
                        raise ValueError(f"node {token} lists {nbr} under {key!r}, which is no {key} node of the file")
                    listed.append((x, index[nbr]))
        ends = np.array(listed, dtype=np.int64).reshape(-1, 2).T
        back = np.isin(ends[1] * len(tokens) + ends[0], ends[0] * len(tokens) + ends[1])
        if not back.all():
            x, y = ends[:, np.argmin(back)]
            raise ValueError(f"node {tokens[x]} lists {tokens[y]}, which does not list it")
        return Mrhin([tuple(token.split(":", 1)) for token in tokens], ends.T)
    except (AttributeError, TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise IngestError(f"{path}: {exc}") from None


# -- walk store ----------------------------------------------------------------
#
# ``paths.jsonl`` holds one JSON record per walk, {"nodes": [[kind, id], ...], "target_kc",
# "target_q", "template"}, sorted by target question, then template name, each group's walks in
# row order.  Each line is the text ``json.dumps(record, sort_keys=True)`` gives,
# assembled from JSON fragments instead of dumped per walk: each node's ``[kind, id]`` is dumped
# once per graph, the target KC, question and template once per group.  Lines go to the file
# group by group, so the file's text is never held whole.  ``scored.jsonl``
# (:func:`hisekt.pathscore.write_scored`) holds each walk's scores in the same order.


def write_walks(grouped: Mapping[str, Mapping[str, WalkGroup]], path: str | Path) -> int:
    """Write {target question: {template: WalkGroup}} as one line per walk; returns the number
    of walks."""
    count = 0
    node_json: dict[Mrhin, tuple[str, ...]] = {}
    with open(path, "w", encoding="utf-8") as out:
        for qid in sorted(grouped):
            for name in sorted(grouped[qid]):
                group = grouped[qid][name]
                nodes = node_json.get(group.graph)
                if nodes is None:
                    nodes = node_json[group.graph] = tuple(json.dumps(list(node)) for node in group.graph.node_ids)
                tail = (f"], \"target_kc\": {json.dumps(group.target_kc)}, \"target_q\": {json.dumps(qid)}, "
                        f"\"template\": {json.dumps(name)}}}\n")
                rows = group.rows.tolist()
                out.writelines('{"nodes": [' + ", ".join(map(nodes.__getitem__, _unpadded(row))) + tail for row in rows)
                count += len(rows)
    return count


def read_json_lines(path: str | Path, decode: Callable[[dict], T]) -> list[T]:
    """``decode`` of each non-blank JSON line of the file; raises IngestError naming the
    file and line of a line that is not JSON or that ``decode`` rejects."""
    out = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if line.strip():
                try:
                    out.append(decode(json.loads(line)))
                except (KeyError, ValueError, TypeError) as exc:  # json.JSONDecodeError is a ValueError
                    raise IngestError(f"{path} line {line_no}: {type(exc).__name__}: {exc}") from None
    return out


def read_walks(path: str | Path, g: Mrhin) -> dict[str, dict[str, WalkGroup]]:
    """{target question: {template: group}} from a :func:`write_walks` file on graph ``g``, each
    group's rows in file order, which is the order they were written in.

    Raises IngestError naming the file and line of a record whose template is unknown, whose
    node is not in ``g``, that does not start at its target question or breaks its template
    (naming the position of the first node whose kind is not ``template.kind_at(position)``), or
    whose target KC differs from that of earlier walks of its group.
    """
    index, kinds = g._index, g.kinds
    kc_of: dict[tuple[str, str], str] = {}
    kinds_of: dict[tuple[str, int], tuple[str, ...]] = {}  # (template, length) -> its kind sequence

    def decode(rec: dict) -> tuple[str, str, list[int]]:
        qid, name, kc, nodes = rec["target_q"], rec["template"], rec["target_kc"], rec["nodes"]
        if name not in TEMPLATES:
            raise ValueError(f"unknown template {name!r}")
        if kc_of.setdefault((qid, name), kc) != kc:
            raise ValueError(f"target KC {kc!r}, but earlier {name} walks from {qid} have {kc_of[qid, name]!r}")
        walk = [index.get(tuple(node), PAD) for node in nodes]
        if PAD in walk:
            raise ValueError(f"{nodes[walk.index(PAD)]} is not a graph node")
        if walk[:1] != [index.get(("Q", qid))]:
            raise ValueError(f"the walk does not start at its target question {qid}")
        found, wanted = tuple(map(kinds.__getitem__, walk)), kinds_of.get((name, len(walk)))
        if wanted is None:
            wanted = kinds_of[name, len(walk)] = tuple(map(TEMPLATES[name].kind_at, range(len(walk))))
        if found != wanted:
            position = next(p for p, (kind, want) in enumerate(zip(found, wanted)) if kind != want)
            raise ValueError(f"node {position}, {nodes[position]}, is of kind {found[position]}, "
                             f"but template {name} has kind {wanted[position]} at position {position}")
        return qid, name, walk

    buckets: dict[str, dict[str, list[list[int]]]] = {}
    for qid, name, walk in read_json_lines(path, decode):
        buckets.setdefault(qid, {}).setdefault(name, []).append(walk)
    return {
        qid: {name: WalkGroup(g, TEMPLATES[name], qid, kc_of[qid, name], _padded(walks))
              for name, walks in per_template.items()}
        for qid, per_template in buckets.items()
    }
