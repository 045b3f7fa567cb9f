"""Shared hand-built graph fixture and independent walk oracles.

The oracle helpers here deliberately work from the raw fixture tables (edge
tuples), not through the graph implementation, so tests that use them check
the implementation against independent bookkeeping.
"""

import hashlib

import numpy as np

from hisekt.irt import IrtModel, Level
from hisekt.mrhin import NODE_KINDS, PAD, TEMPLATES, Mrhin, WalkGroup
from hisekt.seeding import derive_rng

from support import Interaction, dataset_of


MASK64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_tie_key(nodes):
    """The Top-K tie key of a node sequence from its definition, in Python ints: over positions
    t = 1, 2, ..., the sum of splitmix64(key + t·γ) modulo 2**64, shifted right by one, where a
    node's key is the first 8 bytes (big-endian) of the sha256 of ``kind:id``, shifted right by one."""
    total = 0
    for t, (kind, node_id) in enumerate(nodes, start=1):
        key = int.from_bytes(hashlib.sha256(f"{kind}:{node_id}".encode("utf-8")).digest()[:8], "big") >> 1
        total += splitmix64((key + t * GAMMA) & MASK64)
    return (total & MASK64) >> 1


def reference_top_k(scored, k, mode, seed=0):
    """The row indices Top-K keeps of a scored group, in selection order, with each walk's tie key
    recomputed from its node sequence on every comparison."""
    nodes, totals = walk_nodes(scored.walks), scored.scores[:, 4].tolist()

    def tie(i):
        return reference_tie_key(nodes[i])

    if mode == "random":
        pool = sorted(range(len(nodes)), key=tie)
        return pool if k >= len(pool) else derive_rng(seed, "select_top_k").sample(pool, k)
    sign = -1 if mode == "top" else 1
    return sorted(range(len(nodes)), key=lambda i: (sign * totals[i], tie(i)))[:k]


def renamed_graph(g, new_id):
    """The graph ``g`` with each node ``(kind, id)`` that ``new_id`` maps renamed to
    ``(kind, new_id[(kind, id)])``; its edges stay."""
    def rename(node):
        return (node[0], new_id.get(node, node[1]))

    return adjacency_graph({rename(node): {kind: tuple(sorted(map(rename, g.neighbors(node, kind))))
                                           for kind in NODE_KINDS if g.neighbors(node, kind)}
                            for node in g.node_ids})


def adjacency_graph(adjacency):
    """The graph of ``{node: {kind: its neighbors of that kind}}``: its nodes sorted, and an edge per
    listed neighbor."""
    node_ids = sorted(adjacency)
    index = {node: i for i, node in enumerate(node_ids)}
    edges = [(index[node], index[nbr]) for node, kinds in adjacency.items() for nbrs in kinds.values() for nbr in nbrs]
    return Mrhin(node_ids, np.array(edges, dtype=np.int64).reshape(-1, 2))


def group_of(g, template_name, walks, target_kc):
    """The walk group of a non-empty list of ``(kind, id)`` node sequences that start at one target
    question: one row of node ints per walk, padded with ``PAD``."""
    if any(walk[0] != walks[0][0] for walk in walks):
        raise ValueError("a walk group needs one target question")
    rows = np.full((len(walks), max(map(len, walks))), PAD, dtype=np.int32)
    for row, walk in zip(rows, walks):
        row[: len(walk)] = [g.index(node) for node in walk]
    return WalkGroup(g, TEMPLATES[template_name], walks[0][0][1], target_kc, rows)


def walk_nodes(walks):
    """Each walk of a group as its tuple of ``(kind, id)`` nodes, in row order."""
    ids = walks.graph.node_ids
    return [tuple(ids[x] for x in walk) for walk in walks.walks()]


def make_model(ability_levels, difficulty_levels, theta=()):
    """Hand-built model: only the level maps matter for graph construction.  Every theta is 0.0 but
    those ``theta`` gives; a model's tables are read-only once built."""
    return IrtModel(
        theta={**{s: 0.0 for s in ability_levels}, **dict(theta)},
        disc={q: 1.0 for q in difficulty_levels},
        diff={q: 0.0 for q in difficulty_levels},
        ability_level=dict(ability_levels),
        difficulty_level=dict(difficulty_levels),
        ability_mu=0.0,
        ability_sigma=1.0,
        difficulty_mu=0.0,
        difficulty_sigma=1.0,
    )


def make_dataset(train_pairs, kc_of, extra=()):
    """train_pairs: (student, question) answered in train; extra: (s, q, split)."""
    rows = []
    splits = []
    ts = 0
    for s, q in train_pairs:
        rows.append(Interaction(s, q, frozenset(kc_of[q].split(";")), True, ts))
        splits.append("train")
        ts += 1
    for s, q, label in extra:
        rows.append(Interaction(s, q, frozenset(kc_of[q].split(";")), True, ts))
        splits.append(label)
        ts += 1
    return dataset_of(rows, splits)


KC_OF = {"Q1": "K1", "Q2": "K1", "Q3": "K2", "Q4": "K2", "Q5": "K1;K2", "Q6": "K3"}
TRAIN_PAIRS = [
    ("S1", "Q1"), ("S1", "Q2"), ("S1", "Q3"), ("S1", "Q4"),
    ("S2", "Q1"), ("S2", "Q2"), ("S2", "Q5"), ("S2", "Q6"),
    ("S3", "Q2"), ("S3", "Q3"), ("S3", "Q5"),
    ("S4", "Q3"), ("S4", "Q4"), ("S4", "Q6"),
    ("S5", "Q1"), ("S5", "Q2"), ("S5", "Q3"), ("S5", "Q4"), ("S5", "Q5"), ("S5", "Q6"),
]
ABILITY = {
    "S1": Level.LOW, "S2": Level.MEDIUM, "S3": Level.MEDIUM, "S4": Level.HIGH, "S5": Level.MEDIUM,
}
DIFFICULTY = {
    "Q1": Level.LOW, "Q2": Level.MEDIUM, "Q3": Level.HIGH,
    "Q4": Level.MEDIUM, "Q5": Level.LOW, "Q6": Level.HIGH,
}


def build_fixture_graph():
    d = make_dataset(TRAIN_PAIRS, KC_OF)
    m = make_model(ABILITY, DIFFICULTY)
    return Mrhin.build(d, m)


def fixture_edges():
    """Raw undirected edge tuples built from the fixture tables, not via Mrhin."""
    edges = set()
    for s, q in TRAIN_PAIRS:
        edges.add((("Q", q), ("U", s)))
    for q, kcs in KC_OF.items():
        for k in kcs.split(";"):
            edges.add((("Q", q), ("K", k)))
    for q, lvl in DIFFICULTY.items():
        edges.add((("Q", q), ("D", lvl.label)))
    for s, lvl in ABILITY.items():
        edges.add((("U", s), ("A", lvl.label)))
    return edges | {(y, x) for x, y in edges}


def enumerate_walks(edges, template, q0, walk_len):
    """Independent DFS oracle over raw edge tuples; returns all legal sampler outputs.

    Legal outputs are full-length walks plus dead-end truncations that cover
    at least one full template cycle.
    """
    out = set()

    def neighbors(node, kind):
        return sorted(y for x, y in edges if x == node and y[0] == kind)

    def extend(walk):
        if len(walk) == walk_len:
            out.add(tuple(walk))
            return
        next_kind = template.kind_at(len(walk))
        nbrs = neighbors(walk[-1], next_kind)
        if not nbrs:
            if len(walk) >= len(template.kinds):
                out.add(tuple(walk))
            return
        for nbr in nbrs:
            extend(walk + [nbr])

    extend([("Q", q0)])
    return out


def is_conformant_walk(edges, template, nodes, walk_len):
    """Stepwise membership test in the conformant-walk set, from raw edges.

    A walk belongs to the set iff every node matches the cyclically extended
    kind pattern, every hop is a fixture edge, and it is either full length or
    a legal truncation: at least one full cycle long with no extension
    possible at its end.
    """
    if len(nodes) < len(template.kinds) or len(nodes) > walk_len:
        return False
    edge_set = edges
    for pos, node in enumerate(nodes):
        if node[0] != template.kind_at(pos):
            return False
    for x, y in zip(nodes, nodes[1:]):
        if (x, y) not in edge_set:
            return False
    if len(nodes) < walk_len:
        next_kind = template.kind_at(len(nodes))
        extensions = [y for x, y in edge_set if x == nodes[-1] and y[0] == next_kind]
        if extensions:
            return False
    return True
