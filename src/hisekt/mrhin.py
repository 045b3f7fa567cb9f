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

The graph interns its nodes as ints in sorted ``(kind, id)`` order, so int
order is node order, and keeps a per-kind int adjacency for sampling.  The
walks of one (target question, template) pair are a :class:`WalkGroup`: one
int array with a row per walk, padded with ``PAD`` after a truncated walk's
last node.  A row is decoded to a :class:`PathInstance` only when it is read
as one.  Walk files (``paths.jsonl``, and ``scored.jsonl`` through
:mod:`hisekt.pathscore`) are written from groups and read back into groups,
one JSON line per walk.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from .dataset import Dataset
from .errors import IngestError
from .irt import IrtModel
from .seeding import hash_joined, seeds_after

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


@dataclass(frozen=True)
class PathInstance:
    """One concrete sampled walk under a template, tied to a target question and KC."""

    template: MetaPathTemplate
    nodes: tuple[Node, ...]
    target_kc: str
    _tie_key: int | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def target_question(self) -> str:
        return self.nodes[0][1]

    @property
    def edge_count(self) -> int:
        return len(self.nodes) - 1

    @property
    def tie_key(self) -> int:
        """Stable hash of the node sequence that orders equal Top-K totals; computed once."""
        key = self._tie_key
        if key is None:
            key = hash_joined(node_token(node).encode("utf-8") for node in self.nodes)
            object.__setattr__(self, "_tie_key", key)
        return key


def node_token(node: Node) -> str:
    """The ``kind:id`` string that artifacts and tie keys use for a node."""
    return f"{node[0]}:{node[1]}"


class Mrhin:
    """Immutable typed graph with kind-filtered adjacency.

    Node int ``i`` is node ``node_ids[i]``, of kind ``kinds[i]``; its
    ``kind:id`` token, which artifacts write and tie keys hash, is
    ``token_bytes[i]`` in UTF-8; ``int_adj[kind][i]`` are its neighbors of
    that kind as ints.

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
        self.token_bytes = tuple(node_token(node).encode("utf-8") for node in self.node_ids)
        # per kind, the int neighbors of that kind of every node, sorted like
        # the node tuples, so a draw by position picks the same neighbor
        self.int_adj: dict[str, tuple[tuple[int, ...], ...]] = {
            kind: tuple(tuple(self._index[n] for n in self._adj[node].get(kind, ())) for node in self.node_ids)
            for kind in NODE_KINDS
        }
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

    def has_edge(self, x: Node, y: Node) -> bool:
        return y in self._adj.get(x, {}).get(y[0], ())

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


class WalkGroup(Sequence[PathInstance]):
    """Walks of one template from one target question toward one target KC.

    ``rows`` holds one walk per row as graph node ints (``n x walk_len``),
    padded with ``PAD`` after the last node of a truncated walk.  Indexing or
    iterating decodes rows to :class:`PathInstance`; :attr:`tie_keys` holds
    each walk's ``PathInstance.tie_key``, computed once per group.
    """

    def __init__(self, graph: Mrhin, template: MetaPathTemplate, target_question: str, target_kc: str,
                 rows: np.ndarray):
        self.graph = graph
        self.template = template
        self.target_question = target_question
        self.target_kc = target_kc
        self.rows = rows
        self._tie_keys: np.ndarray | None = None

    @classmethod
    def of(cls, g: Mrhin, instances: Sequence[PathInstance]) -> "WalkGroup":
        """Intern a non-empty list of instances that share a template, target question and target KC."""
        first = instances[0]
        shared = (first.template, first.nodes[0], first.target_kc)
        if any((p.template, p.nodes[0], p.target_kc) != shared for p in instances):
            raise ValueError("a walk group needs one template, target question and target KC")
        try:
            walks = [[g._index[node] for node in p.nodes] for p in instances]
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]} is not a graph node") from None
        return cls(g, first.template, first.target_question, first.target_kc, _padded(walks))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> PathInstance:
        ids = self.graph.node_ids
        return PathInstance(self.template, tuple(ids[x] for x in _unpadded(self.rows[i].tolist())), self.target_kc)

    def walks(self) -> list[list[int]]:
        """Each walk's node ints, without padding."""
        return [_unpadded(row) for row in self.rows.tolist()]

    @property
    def tie_keys(self) -> np.ndarray:
        keys = self._tie_keys
        if keys is None:
            tokens = self.graph.token_bytes
            keys = np.array([hash_joined([tokens[x] for x in walk]) for walk in self.walks()], dtype=np.int64)
            self._tie_keys = keys
        return keys


def _padded(walks: list[list[int]]) -> np.ndarray:
    """One int row per walk, as wide as the longest, padded with ``PAD``."""
    width = max(map(len, walks))
    return np.array([walk + [PAD] * (width - len(walk)) for walk in walks], dtype=np.int32)


def _unpadded(row: list[int]) -> list[int]:
    return row[: row.index(PAD)] if PAD in row else row


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
    kept truncated if it already completed one full template cycle, otherwise
    discarded and resampled; sampling stops after 10n attempts.  Each attempt
    seeds its own RNG with ``derive_seed(seed, template, q0, attempt index)``,
    so parallel and serial sampling agree and reruns are byte-identical.  Each
    step draws like ``rng.choice`` over the sorted neighbor ints, which picks
    the same neighbor as a draw over the sorted neighbor nodes.
    """
    start: Node = ("Q", q0)
    if not g.has_node(start):
        raise ValueError(f"question {q0!r} is not a node of the graph")
    kcs = g.question_kcs(q0)
    if target_kc is None:
        if not kcs:
            raise ValueError(f"question {q0!r} has no knowledge concepts")
        target_kc = min(kcs)
    elif target_kc not in kcs:
        raise ValueError(f"target KC {target_kc!r} does not belong to question {q0!r}")

    rows: list[list[int]] = []
    min_full_cycle = len(template.kinds)
    steps = [g.int_adj[template.kind_at(position)] for position in range(1, walk_len)]
    width = len(steps) + 1
    first = g.index(start)
    seed_of = seeds_after(seed, template.name, q0)
    rng = random.Random()
    getrandbits = rng.getrandbits
    for attempt in range(RESAMPLE_FACTOR * n):
        rng.seed(seed_of(attempt))  # the state of random.Random(seed_of(attempt))
        walk = [first]
        node = first
        for nbrs_of in steps:
            nbrs = nbrs_of[node]
            if not nbrs:
                break
            # rng.choice(nbrs) without its call overhead: CPython's Random._randbelow
            # draws bit_length(count) bits until the draw is below count
            count = len(nbrs)
            bits = count.bit_length()
            r = getrandbits(bits)
            while r >= count:
                r = getrandbits(bits)
            node = nbrs[r]
            walk.append(node)
        if len(walk) < width:
            if len(walk) < min_full_cycle:
                continue
            walk += [PAD] * (width - len(walk))
        rows.append(walk)
        if len(rows) == n:
            break
    if not rows:
        logger.info("no conformant walk for template %s from %s", template.name, q0)
    return WalkGroup(g, template, q0, target_kc, np.array(rows, dtype=np.int32).reshape(len(rows), width))


def validate_instance(g: Mrhin, inst: PathInstance) -> None:
    """Raise ValueError unless the instance conforms to its template on this graph."""
    if len(inst.nodes) < len(inst.template.kinds):
        raise ValueError("instance shorter than one full template cycle")
    for position, node in enumerate(inst.nodes):
        expected = inst.template.kind_at(position)
        if node[0] != expected:
            raise ValueError(f"node {position} has kind {node[0]}, template expects {expected}")
        if not g.has_node(node):
            raise ValueError(f"node {node} is not in the graph")
    for x, y in zip(inst.nodes, inst.nodes[1:]):
        if not g.has_edge(x, y):
            raise ValueError(f"missing edge {x} - {y}")
    if inst.target_kc not in g.question_kcs(inst.target_question):
        raise ValueError("target KC does not belong to the target question")


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
# template name, then node sequence.


def write_walks(grouped: Mapping[str, Mapping[str, WalkGroup]], path: str | Path,
                fields: Callable[[str, str, int], dict] | None = None) -> int:
    """Write {target question: {template: WalkGroup}} as one line per walk, each record
    extended by ``fields(question, template, row)`` if given; returns the number of walks.

    A group's walks go in the order of their int rows, which is node order."""
    lines = []
    for qid in sorted(grouped):
        for name in sorted(grouped[qid]):
            group = grouped[qid][name]
            ids, walks = group.graph.node_ids, group.walks()
            for i in sorted(range(len(walks)), key=walks.__getitem__):
                record = {"target_q": qid, "template": name, "target_kc": group.target_kc,
                          "nodes": [list(ids[x]) for x in walks[i]]}
                if fields:
                    record.update(fields(qid, name, i))
                lines.append(json.dumps(record, sort_keys=True) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")
    return len(lines)


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
               make: Callable[[WalkGroup, list[tuple]], object] = lambda walks, rows: walks) -> dict[str, dict]:
    """{target question: {template: group}} from a :func:`write_walks` file on graph ``g``, each
    group being ``make(walks, rows)`` of its :class:`WalkGroup` and its walks' values of
    ``fields``, in row order (by default the walk group itself).

    Raises IngestError naming the file and line of a record whose template is unknown, whose
    node is not in ``g`` or that does not start at its target question, or whose target KC
    differs from that of earlier walks of its group.
    """
    index = g._index
    kc_of: dict[tuple[str, str], str] = {}

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
        return qid, name, walk, tuple(rec[key] for key in fields)

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
