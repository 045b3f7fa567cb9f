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
node's key plus its position times γ.  Tie keys exist only per group, as one
array expression over its rows (:attr:`WalkGroup.tie_keys`).

The graph interns its nodes as ints in sorted ``(kind, id)`` order, so int
order is node order, and keeps a per-kind int adjacency, also as CSR arrays
for sampling.  The walks of one (target question, template) pair are a
:class:`WalkGroup`: one int array with a row per walk, padded with ``PAD``
after a truncated walk's last node.  Walk files (``paths.jsonl``, and
``scored.jsonl`` through :mod:`hisekt.pathscore`) are written from groups and
read back into groups, one JSON line per walk.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

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
# Names the walk draw rule and the tie-key rule, for caches of sampled walks and of what their
# Top-K order decides: change it with either rule.
WALK_SCHEME = "splitmix64-mixsum"

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
    """Immutable typed graph with kind-filtered adjacency.

    Node int ``i`` is node ``node_ids[i]``, of kind ``kinds[i]``, with the
    tie-key term ``node_keys[i]`` (:func:`node_key`; ``node_keys[PAD]`` is a
    0 sentinel); ``int_adj[kind][i]`` are its neighbors of that kind as ints.
    ``csr[kind]`` holds the same neighbors as three arrays (degree and offset
    by node int, and all neighbors in node order).

    Two per-node results are memoized on the graph, since scoring asks for
    them once per target question: the hop array of :meth:`hops_from` (one
    breadth-first search per source node) and the KC set of
    :meth:`question_kcs`.  Each is built in full before it is stored, so
    threads that read the same graph never see a partial entry; two threads
    may both compute an entry, and they store equal values.
    """

    def __init__(self, adjacency: Mapping[Node, Mapping[str, tuple[Node, ...]]]):
        self._adj = {n: dict(kinds) for n, kinds in adjacency.items()}
        self.node_ids: tuple[Node, ...] = tuple(sorted(self._adj))
        self._index = {node: i for i, node in enumerate(self.node_ids)}
        self.kinds = tuple(kind for kind, _ in self.node_ids)
        self.node_keys = np.array([node_key(node) for node in self.node_ids] + [0], dtype=np.uint64)
        # per kind, the int neighbors of that kind of every node, sorted like
        # the node tuples, so a draw by position picks the same neighbor
        self.int_adj: dict[str, tuple[tuple[int, ...], ...]] = {
            kind: tuple(tuple(self._index[n] for n in self._adj[node].get(kind, ())) for node in self.node_ids)
            for kind in NODE_KINDS
        }
        self.csr: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for kind, nbrs_of in self.int_adj.items():
            degree = np.array([len(nbrs) for nbrs in nbrs_of], dtype=np.int64)
            offsets = np.cumsum(degree) - degree
            flat = np.array([x for nbrs in nbrs_of for x in nbrs], dtype=np.int32)
            self.csr[kind] = (degree, offsets, flat)
        self._hops: dict[int, tuple[int, ...]] = {}
        self._kcs: dict[str, frozenset[str]] = {}

    @classmethod
    def build(cls, d: Dataset, m: IrtModel) -> "Mrhin":
        """Assemble nodes and deduplicated edges from a split dataset and fitted model."""
        adj: dict[Node, dict[str, set[Node]]] = {}

        def add_node(node: Node):
            adj.setdefault(node, {})

        def add_edge(x: Node, y: Node):
            adj.setdefault(x, {}).setdefault(y[0], set()).add(y)
            adj.setdefault(y, {}).setdefault(x[0], set()).add(x)

        for s in d.students():
            add_node(("U", s))
        for q in d.questions():
            add_node(("Q", q))
        for k in d.kcs():
            add_node(("K", k))

        for i in d.iter_split("train"):
            add_edge(("Q", i.question_id), ("U", i.student_id))
        for q, kcs in d.question_kcs().items():
            for k in kcs:
                add_edge(("Q", q), ("K", k))
        for q in d.questions():
            add_edge(("Q", q), ("D", m.difficulty_level[q].label))
        for s in d.students():
            add_edge(("U", s), ("A", m.ability_level[s].label))

        frozen = {
            node: {kind: tuple(sorted(nbrs)) for kind, nbrs in kinds.items()}
            for node, kinds in adj.items()
        }
        return cls(frozen)

    def nodes(self, kind: str | None = None) -> tuple[Node, ...]:
        if kind is None:
            return self.node_ids
        return tuple(sorted(n for n in self._adj if n[0] == kind))

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def index(self, node: Node) -> int:
        """The node's int id."""
        try:
            return self._index[node]
        except KeyError:
            raise ValueError(f"{node} is not a graph node") from None

    def neighbors(self, node: Node, kind: str | None = None) -> tuple[Node, ...]:
        kinds = self._adj.get(node, {})
        if kind is not None:
            return kinds.get(kind, ())
        out: list[Node] = []
        for k in sorted(kinds):
            out.extend(kinds[k])
        return tuple(out)

    def edge_count(self) -> int:
        return sum(len(nbrs) for kinds in self._adj.values() for nbrs in kinds.values()) // 2

    def question_kcs(self, question_id: str) -> frozenset[str]:
        kcs = self._kcs.get(question_id)
        if kcs is None:
            kcs = frozenset(n[1] for n in self.neighbors(("Q", question_id), "K"))
            self._kcs[question_id] = kcs
        return kcs

    def hops_from(self, source: Node) -> tuple[int, ...]:
        """Shortest hop count from ``source`` to every node, by node int, ``UNREACHABLE``
        where no path leads (one BFS, memoized)."""
        start = self.index(source)
        hops = self._hops.get(start)
        if hops is None:
            found = [UNREACHABLE] * len(self.node_ids)
            found[start] = 0
            frontier = [start]
            depth = 0
            while frontier:
                depth += 1
                reached = []
                for node in frontier:
                    for nbrs_of in self.int_adj.values():
                        for nbr in nbrs_of[node]:
                            if found[nbr] == UNREACHABLE:
                                found[nbr] = depth
                                reached.append(nbr)
                frontier = reached
            hops = tuple(found)
            self._hops[start] = hops
        return hops


def graph_distance(g: Mrhin, x: Node, y: Node, cap: int = DEFAULT_WALK_LEN) -> int:
    """Shortest hop count between two nodes, saturating at ``cap``."""
    if not g.has_node(x) or not g.has_node(y):
        raise ValueError("both endpoints must be graph nodes")
    if x == y:
        return 0
    return min(g.hops_from(x)[g.index(y)], cap)


class WalkGroup:
    """Walks of one template from one target question toward one target KC.

    ``rows`` holds one walk per row as graph node ints (``n x walk_len``),
    padded with ``PAD`` after the last node of a truncated walk;
    :attr:`tie_keys` holds each walk's Top-K tie key, computed once per group
    on its rows.
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
        nodes ``x_1 .. x_len``, as int64: one sha256 per graph node, none per walk."""
        keys = self._tie_keys
        if keys is None:
            steps = np.arange(1, self.rows.shape[1] + 1, dtype=np.uint64) * GAMMA
            terms = np.where(self.rows != PAD, mix(self.graph.node_keys[self.rows] + steps), np.uint64(0))
            keys = (terms.sum(axis=1, dtype=np.uint64) >> _ONE).astype(np.int64)
            self._tie_keys = keys
        return keys


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
        for position, (degree, offsets, flat) in enumerate(steps, start=1):
            deg = degree[node]
            if not deg.all():  # a walk ends at a node with no neighbor of the next kind
                going = deg > 0
                live, node, deg = live[going], node[going], deg[going]
                if not len(live):
                    break
            draws = mix(keys[live] + step_offsets[position - 1])
            # multiply-shift: the high 32 bits of the draw scaled to [0, deg)
            pick = (((draws >> _HALF) * deg.astype(np.uint64)) >> _HALF).astype(np.int64)
            node = flat[offsets[node] + pick]
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
    """JSON adjacency artifact for the graph-build stage."""
    payload = {
        node_token(node): {k: list(map(node_token, g.neighbors(node, k))) for k in NODE_KINDS if g.neighbors(node, k)}
        for node in g.nodes()
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def read_graph(path: str | Path) -> Mrhin:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))

    def decode(token: str) -> Node:
        kind, node_id = token.split(":", 1)
        return (kind, node_id)

    adjacency = {
        decode(token): {k: tuple(decode(t) for t in nbrs) for k, nbrs in kinds.items()}
        for token, kinds in payload.items()
    }
    return Mrhin(adjacency)


# -- walk store ----------------------------------------------------------------
#
# A walk file holds one JSON record per walk, {"nodes": [[kind, id], ...], "target_kc",
# "target_q", "template"} plus any fields its writer adds, sorted by target question, then
# template name, then node sequence.  Each line is the text ``json.dumps(record,
# sort_keys=True)`` gives, assembled from JSON fragments instead of dumped per walk: each node's
# ``[kind, id]`` is dumped once per graph, the target KC, question and template once per group,
# and the added fields come as per-group columns of JSON values.  Lines go to the file group by
# group, so the file's text is never held whole.


def write_walks(grouped: Mapping[str, Mapping[str, WalkGroup]], path: str | Path,
                columns: Callable[[str, str], Mapping[str, Sequence[str]]] | None = None) -> int:
    """Write {target question: {template: WalkGroup}} as one line per walk; returns the number
    of walks.  ``columns(question, template)``, if given, adds fields to that group's records:
    {field name: the JSON text of its value on each row, in row order}.

    A group's walks go in the order of their int rows, which is node order."""
    count = 0
    node_json: dict[Mrhin, tuple[str, ...]] = {}
    with open(path, "w", encoding="utf-8") as out:
        for qid in sorted(grouped):
            for name in sorted(grouped[qid]):
                group = grouped[qid][name]
                nodes = node_json.get(group.graph)
                if nodes is None:
                    nodes = node_json[group.graph] = tuple(json.dumps(list(node)) for node in group.graph.node_ids)
                walks = group.walks()
                order = sorted(range(len(walks)), key=walks.__getitem__)
                fields: dict[str, Iterable[str]] = {
                    "nodes": ["[" + ", ".join(map(nodes.__getitem__, walks[i])) + "]" for i in order],
                    "target_kc": repeat(json.dumps(group.target_kc)),
                    "target_q": repeat(json.dumps(qid)),
                    "template": repeat(json.dumps(name)),
                }
                for key, values in (columns(qid, name) if columns else {}).items():
                    fields[key] = [values[i] for i in order]
                keys = sorted(fields)
                line = "{{" + ", ".join(f"{json.dumps(key)}: {{}}" for key in keys) + "}}\n"
                out.writelines(map(line.format, *(fields[key] for key in keys)))
                count += len(order)
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


def read_walks(path: str | Path, g: Mrhin, fields: Sequence[str] = (),
               make: Callable[[WalkGroup, list[tuple]], object] = lambda walks, rows: walks,
               check: Callable[[tuple], None] | None = None) -> dict[str, dict]:
    """{target question: {template: group}} from a :func:`write_walks` file on graph ``g``, each
    group being ``make(walks, rows)`` of its :class:`WalkGroup` and its walks' values of
    ``fields``, in row order (by default the walk group itself).

    Raises IngestError naming the file and line of a record whose template is unknown, whose
    node is not in ``g``, that does not start at its target question or breaks its template
    (naming the position of the first node whose kind is not ``template.kind_at(position)``),
    whose target KC differs from that of earlier walks of its group, or whose values of
    ``fields`` make ``check``, if given, raise ValueError.
    """
    index, kinds = g._index, g.kinds
    kc_of: dict[tuple[str, str], str] = {}
    kinds_of: dict[tuple[str, int], tuple[str, ...]] = {}  # (template, length) -> its kind sequence

    def decode(rec: dict) -> tuple[str, str, list[int], tuple]:
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
        values = tuple(rec[key] for key in fields)
        if check:
            check(values)
        return qid, name, walk, values

    buckets: dict[str, dict[str, tuple[list[list[int]], list[tuple]]]] = {}
    for qid, name, walk, values in read_json_lines(path, decode):
        walks, rows = buckets.setdefault(qid, {}).setdefault(name, ([], []))
        walks.append(walk)
        rows.append(values)
    return {
        qid: {name: make(WalkGroup(g, TEMPLATES[name], qid, kc_of[qid, name], _padded(walks)), rows)
              for name, (walks, rows) in per_template.items()}
        for qid, per_template in buckets.items()
    }
