import functools
import hashlib
import io
import json
import sys
import threading
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chisquare

from hisekt.dataset import ingest, split
from hisekt.mrhin import (
    PAD,
    RESAMPLE_FACTOR,
    TEMPLATES,
    EDGE_KINDS,
    NODE_KINDS,
    MetaPathTemplate,
    Mrhin,
    read_graph,
    read_walks,
    sample_instances,
    sample_walks,
    write_graph,
    write_walks,
)
from hisekt.errors import IngestError
from hisekt.irt import Level
from hisekt.pathscore import graph_distance
from hisekt.seeding import derive_seed
from hisekt.synth import planted_csv

from support import hops_from

from graph_fixture import (
    ABILITY,
    DIFFICULTY,
    GAMMA,
    KC_OF,
    MASK64,
    TRAIN_PAIRS,
    adjacency_graph,
    build_fixture_graph,
    enumerate_walks,
    fixture_edges,
    make_dataset,
    make_model,
    reference_tie_key,
    splitmix64,
    walk_nodes,
)


@pytest.fixture
def fixture_graph():
    return build_fixture_graph()


def has_edge(g, x, y):
    return y in g.neighbors(x, y[0])


def validate_walk(g, template, nodes, target_kc):
    """Raise ValueError unless a walk's ``(kind, id)`` nodes conform to its template on this graph
    and its target KC is one of its first question's."""
    if len(nodes) < len(template.kinds):
        raise ValueError("walk shorter than one full template cycle")
    for position, node in enumerate(nodes):
        expected = template.kind_at(position)
        if node[0] != expected:
            raise ValueError(f"node {position} has kind {node[0]}, template expects {expected}")
        if not g.has_node(node):
            raise ValueError(f"node {node} is not in the graph")
    for x, y in zip(nodes, nodes[1:]):
        if not has_edge(g, x, y):
            raise ValueError(f"missing edge {x} - {y}")
    if target_kc not in g.question_kcs(nodes[0][1]):
        raise ValueError("target KC does not belong to the target question")


def capped_bfs(g, x, y, cap):
    """Reference: a fresh breadth-first search per pair that stops at depth ``cap``."""
    if x == y:
        return 0
    seen = {x}
    frontier = deque([(x, 0)])
    while frontier:
        node, depth = frontier.popleft()
        if depth >= cap:
            continue
        for nbr in g.neighbors(node):
            if nbr == y:
                return depth + 1
            if nbr not in seen:
                seen.add(nbr)
                frontier.append((nbr, depth + 1))
    return cap


def ring_graph(n=40):
    """Questions on a ring, each linked to the next by one student, with shared KCs and levels."""
    qs = [f"Q{i:02d}" for i in range(n)]
    students = [f"S{i:02d}" for i in range(n)]
    pairs = [(s, qs[i]) for i, s in enumerate(students)] + [(s, qs[(i + 1) % n]) for i, s in enumerate(students)]
    levels = (Level.LOW, Level.MEDIUM, Level.HIGH)
    m = make_model({s: levels[i % 3] for i, s in enumerate(students)}, {q: levels[i % 3] for i, q in enumerate(qs)})
    return Mrhin.build(make_dataset(pairs, {q: f"K{i % 7}" for i, q in enumerate(qs)}), m)


def two_component_graph():
    # QX shares no KC, difficulty level, or student with Q1, so the two
    # components are disjoint.
    m = make_model({"S1": Level.MEDIUM}, {"Q1": Level.MEDIUM, "QX": Level.HIGH})
    d = make_dataset([("S1", "Q1")], {"Q1": "K1", "QX": "K9"}, extra=[("S1", "QX", "val")])
    return Mrhin.build(d, m)


class TestTemplates:
    def test_registry_has_exactly_the_14_templates(self):
        assert len(TEMPLATES) == 14
        basics = {"Q-U-Q", "Q-K-Q", "Q-D-Q", "Q-U-A-U-Q"}
        assert basics < set(TEMPLATES)
        assert "Q-K-Q-U-Q-D-Q-U-A-U-Q" in TEMPLATES

    def test_every_template_step_is_a_valid_edge_kind(self):
        for t in TEMPLATES.values():
            for x, y in zip(t.kinds, t.kinds[1:]):
                assert frozenset((x, y)) in EDGE_KINDS

    def test_cyclic_kind_extension(self):
        t = TEMPLATES["Q-U-A-U-Q"]
        expected = ["Q", "U", "A", "U", "Q", "U", "A", "U", "Q", "U"]
        assert [t.kind_at(i) for i in range(10)] == expected

    def test_invalid_template_rejected(self):
        with pytest.raises(ValueError):
            MetaPathTemplate("Q-A-Q", ("Q", "A", "Q"))
        with pytest.raises(ValueError):
            MetaPathTemplate("U-Q-U", ("U", "Q", "U"))


class TestBuild:
    def test_minimal_graph_counts(self):
        d = make_dataset([("S1", "Q1")], {"Q1": "K1"})
        m = make_model({"S1": Level.MEDIUM}, {"Q1": Level.MEDIUM})
        g = Mrhin.build(d, m)
        assert len(g.nodes()) == 5
        assert g.edge_count() == 4
        assert has_edge(g, ("Q", "Q1"), ("U", "S1"))
        assert has_edge(g, ("Q", "Q1"), ("K", "K1"))
        assert has_edge(g, ("Q", "Q1"), ("D", "Medium"))
        assert has_edge(g, ("U", "S1"), ("A", "Medium"))

    def test_shared_kc_gives_degree_two(self):
        d = make_dataset([("S1", "Q1"), ("S1", "Q2")], {"Q1": "K1", "Q2": "K1"})
        m = make_model({"S1": Level.MEDIUM}, {"Q1": Level.MEDIUM, "Q2": Level.MEDIUM})
        g = Mrhin.build(d, m)
        assert len(g.neighbors(("K", "K1"), "Q")) == 2

    def test_fixture_counts_match_hand_enumeration(self, fixture_graph):
        g = fixture_graph
        # 5 U + 6 Q + 3 K + 3 A + 3 D
        assert len(g.nodes("U")) == 5
        assert len(g.nodes("Q")) == 6
        assert len(g.nodes("K")) == 3
        assert len(g.nodes("A")) == 3
        assert len(g.nodes("D")) == 3
        # Oracle: recount edges straight from the fixture tables.
        qu = len(set(TRAIN_PAIRS))
        qk = sum(len(v.split(";")) for v in KC_OF.values())
        qd = len(DIFFICULTY)
        ua = len(ABILITY)
        assert g.edge_count() == qu + qk + qd + ua

    def test_duplicate_answers_are_one_edge(self):
        d = make_dataset([("S1", "Q1"), ("S1", "Q1")], {"Q1": "K1"})
        m = make_model({"S1": Level.MEDIUM}, {"Q1": Level.MEDIUM})
        g = Mrhin.build(d, m)
        assert len(g.neighbors(("Q", "Q1"), "U")) == 1

    def test_every_question_has_one_difficulty_edge(self, fixture_graph):
        for node in fixture_graph.nodes("Q"):
            assert len(fixture_graph.neighbors(node, "D")) == 1
        for node in fixture_graph.nodes("U"):
            assert len(fixture_graph.neighbors(node, "A")) == 1


class TestGraphDistance:
    def test_self_distance_zero(self, fixture_graph):
        assert graph_distance(fixture_graph, ("Q", "Q1"), ("Q", "Q1")) == 0

    def test_one_intermediary_is_two(self, fixture_graph):
        assert graph_distance(fixture_graph, ("Q", "Q1"), ("Q", "Q2")) == 2

    def test_disconnected_saturates_at_cap(self):
        # QX shares no KC, difficulty level, or student with Q1, so the two
        # components are disjoint and the distance saturates.
        m = make_model({"S1": Level.MEDIUM}, {"Q1": Level.MEDIUM, "QX": Level.HIGH})
        d = make_dataset([("S1", "Q1")], {"Q1": "K1", "QX": "K9"}, extra=[("S1", "QX", "val")])
        g = Mrhin.build(d, m)
        assert graph_distance(g, ("Q", "Q1"), ("Q", "QX"), cap=20) == 20

    @pytest.mark.parametrize("make_graph", [build_fixture_graph, two_component_graph])
    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 5, 20])
    def test_equals_capped_bfs_for_every_pair(self, make_graph, cap):
        g = make_graph()
        nodes = g.nodes()
        for x in nodes:
            for y in nodes:
                assert graph_distance(g, x, y, cap=cap) == capped_bfs(g, x, y, cap), (x, y, cap)

    def test_unknown_endpoint_rejected(self, fixture_graph):
        with pytest.raises(ValueError):
            graph_distance(fixture_graph, ("Q", "Q1"), ("Q", "NOPE"))
        with pytest.raises(ValueError):
            fixture_graph.hops([len(fixture_graph.node_ids)])

    def test_concurrent_first_reads_agree_with_reference(self):
        # Eight threads start together on a fresh graph and ask for the same
        # sources in the same order, so most hop maps are requested while
        # another thread is still building them.  A map published before its
        # search finishes shows up here as a saturated distance.
        reference = ring_graph()
        sources = reference.nodes("Q")
        nodes = reference.nodes()
        expected = {(x, y): capped_bfs(reference, x, y, 5) for x in sources for y in nodes}
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                g = ring_graph()
                barrier = threading.Barrier(8, timeout=60)
                results = {}

                def worker(index):
                    barrier.wait()
                    targets = nodes[index:] + nodes[:index]
                    results[index] = {(x, y): graph_distance(g, x, y, cap=5) for x in sources for y in targets}

                threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert sorted(results) == list(range(8))
                for got in results.values():
                    assert got == expected
        finally:
            sys.setswitchinterval(old_interval)

    def test_symmetry(self, fixture_graph):
        nodes = fixture_graph.nodes()
        for x in nodes[::3]:
            for y in nodes[::4]:
                assert graph_distance(fixture_graph, x, y, cap=10) == graph_distance(
                    fixture_graph, y, x, cap=10
                )


@st.composite
def small_graphs(draw):
    """A graph of up to 5 nodes of each kind, some of them isolated, with drawn edges of the edge kinds."""
    node_ids = sorted((kind, str(i)) for kind in NODE_KINDS for i in range(draw(st.integers(0, 5), label=kind)))
    pairs = [(a, b) for a in range(len(node_ids)) for b in range(a)
             if frozenset((node_ids[a][0], node_ids[b][0])) in EDGE_KINDS]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=40), label="edges") if pairs else []
    return Mrhin(node_ids, np.array(edges, dtype=np.int64).reshape(-1, 2))


class TestHops:
    @given(g=small_graphs(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_table_equals_the_reference_search(self, g, data):
        n = len(g.node_ids)
        sources = data.draw(st.lists(st.integers(0, n - 1), max_size=150) if n else st.just([]), label="sources")
        table = g.hops(sources)
        assert table.dtype == np.int32 and table.shape == (len(sources), n)
        for source, row in zip(sources, table.tolist()):
            assert tuple(row) == hops_from(g, g.node_ids[source])

    @pytest.mark.parametrize("make_graph", [build_fixture_graph, two_component_graph, ring_graph])
    def test_more_than_64_sources_with_repeats(self, make_graph):
        g = make_graph()
        n = len(g.node_ids)
        sources = [x % n for x in range(3 * n + 70)][::-1]  # every node, three times or more
        table = g.hops(sources)
        assert len(sources) > 64 and table.shape == (len(sources), n)
        reference = [hops_from(g, node) for node in g.node_ids]
        assert [tuple(row) for row in table.tolist()] == [reference[x] for x in sources]

    def test_unknown_source_rejected(self, fixture_graph):
        for bad in ([len(fixture_graph.node_ids)], [-1]):
            with pytest.raises(ValueError):
                fixture_graph.hops(bad)


class TestSampling:
    def test_degenerate_forced_walk(self):
        d = make_dataset([("S1", "Q1"), ("S1", "Q2")], {"Q1": "K1", "Q2": "K1"})
        m = make_model({"S1": Level.MEDIUM}, {"Q1": Level.MEDIUM, "Q2": Level.MEDIUM})
        g = Mrhin.build(d, m)
        # Make Q1's only K-route deterministic by removing S1 alternative? Q-K-Q
        # from Q1 alternates K1 and a uniform pick of {Q1, Q2}; force it by a
        # dedicated two-question graph where K1 has exactly Q1 and Q2 and walks
        # bounce Q1 -> K1 -> {Q1,Q2}: not forced. Use a single-question graph.
        d1 = make_dataset([("S1", "Q1")], {"Q1": "K1"})
        m1 = make_model({"S1": Level.MEDIUM}, {"Q1": Level.MEDIUM})
        g1 = Mrhin.build(d1, m1)
        walks = sample_instances(g1, TEMPLATES["Q-K-Q"], "Q1", n=5, walk_len=20, seed=0)
        assert len(walks) == 5
        for w in walk_nodes(walks):
            assert len(w) == 20
            assert all(node == (("Q", "Q1") if i % 2 == 0 else ("K", "K1")) for i, node in enumerate(w))

    @pytest.mark.parametrize("template_name", ["Q-K-Q", "Q-U-Q", "Q-D-Q"])
    def test_sampled_walks_in_enumerated_set(self, fixture_graph, template_name):
        template = TEMPLATES[template_name]
        oracle = enumerate_walks(fixture_edges(), template, "Q1", walk_len=5)
        sampled = sample_instances(fixture_graph, template, "Q1", n=300, walk_len=5, seed=3)
        assert len(sampled), "expected walks on the dense fixture"
        for nodes in walk_nodes(sampled):
            assert nodes in oracle

    def test_longer_template_walks_in_enumerated_set(self, fixture_graph):
        template = TEMPLATES["Q-U-A-U-Q"]
        oracle = enumerate_walks(fixture_edges(), template, "Q2", walk_len=9)
        sampled = sample_instances(fixture_graph, template, "Q2", n=200, walk_len=9, seed=8)
        assert len(sampled)
        for nodes in walk_nodes(sampled):
            assert nodes in oracle

    def test_every_sampled_instance_validates(self, fixture_graph):
        for name, template in TEMPLATES.items():
            group = sample_instances(fixture_graph, template, "Q5", n=40, walk_len=20, seed=1)
            for nodes in walk_nodes(group):
                validate_walk(fixture_graph, template, nodes, group.target_kc)

    def test_same_seed_is_byte_identical(self, fixture_graph):
        a = sample_instances(fixture_graph, TEMPLATES["Q-K-Q-U-Q"], "Q1", n=50, walk_len=20, seed=9)
        b = sample_instances(fixture_graph, TEMPLATES["Q-K-Q-U-Q"], "Q1", n=50, walk_len=20, seed=9)
        c = sample_instances(fixture_graph, TEMPLATES["Q-K-Q-U-Q"], "Q1", n=50, walk_len=20, seed=10)
        assert a.rows.tobytes() == b.rows.tobytes() and walk_nodes(a) == walk_nodes(b)
        assert walk_nodes(a) != walk_nodes(c)

    def test_walk_stream_is_pinned(self, fixture_graph):
        # Digest of every template's walks from every fixture question.  The
        # fixture has hand-set levels and no IRT fit, so only a change to the
        # sampler's draws or their order can move it.  The scalar reference
        # ``reference_walks`` gives the same digest.
        digest = hashlib.sha256()
        for name, template in TEMPLATES.items():
            for _, q in fixture_graph.nodes("Q"):
                group = sample_instances(fixture_graph, template, q, n=20, walk_len=20, seed=11)
                for nodes in walk_nodes(group):
                    digest.update(json.dumps([name, group.target_kc, nodes]).encode() + b"\n")
        assert digest.hexdigest() == "27bbefd59ea2a235fbad089220b649a0d4d102e1da5880bb1189bcc115472baa"

    def test_no_completable_cycle_returns_empty(self):
        # QLONE has no train answerers, so Q-U-Q cannot leave it.
        d = make_dataset(
            [("S1", "Q1")], {"Q1": "K1", "QLONE": "K1"}, extra=[("S1", "QLONE", "val")]
        )
        m = make_model({"S1": Level.MEDIUM}, {"Q1": Level.MEDIUM, "QLONE": Level.MEDIUM})
        g = Mrhin.build(d, m)
        assert len(sample_instances(g, TEMPLATES["Q-U-Q"], "QLONE", n=10, walk_len=20, seed=0)) == 0

    def test_dead_end_after_full_cycle_is_kept_truncated(self):
        # QDEAD is reachable via K1 but has no students, so Q-K-Q-U-Q walks
        # that route through it die at the U step.
        pairs = [(s, q) for s in ("S1", "S2", "S3") for q in ("Q1", "Q2", "Q3")]
        kc_of = {"Q1": "K1", "Q2": "K1", "Q3": "K1", "QDEAD": "K1"}
        d = make_dataset(pairs, kc_of, extra=[("S1", "QDEAD", "val")])
        m = make_model(
            {s: Level.MEDIUM for s in ("S1", "S2", "S3")},
            {q: Level.MEDIUM for q in kc_of},
        )
        g = Mrhin.build(d, m)
        template = TEMPLATES["Q-K-Q-U-Q"]
        walks = sample_instances(g, template, "Q1", n=400, walk_len=13, seed=2)
        truncated = [w for w in walk_nodes(walks) if len(w) < 13]
        assert truncated, "some walk should route through the dead-end question"
        for w in truncated:
            assert len(w) >= len(template.kinds)
            assert w[-1] == ("Q", "QDEAD")
            validate_walk(g, template, w, walks.target_kc)

    def test_first_cycle_choice_is_uniform(self):
        # One KC shared by q0 and three other questions: the first-cycle
        # terminal is a uniform draw over four questions.
        pairs = [("S1", q) for q in ("QA", "QB", "QC", "QD")]
        kc_of = {q: "K1" for q in ("QA", "QB", "QC", "QD")}
        d = make_dataset(pairs, kc_of)
        m = make_model({"S1": Level.MEDIUM}, {q: Level.MEDIUM for q in kc_of})
        g = Mrhin.build(d, m)
        walks = sample_instances(g, TEMPLATES["Q-K-Q"], "QA", n=3000, walk_len=3, seed=17)
        counts = {}
        for w in walk_nodes(walks):
            counts[w[2][1]] = counts.get(w[2][1], 0) + 1
        observed = [counts.get(q, 0) for q in ("QA", "QB", "QC", "QD")]
        assert chisquare(observed).pvalue > 0.01

    def test_target_kc_defaults_to_smallest_and_validates(self, fixture_graph):
        assert sample_instances(fixture_graph, TEMPLATES["Q-K-Q"], "Q5", n=1, walk_len=5, seed=0).target_kc == "K1"
        # Q5 covers K1 and K2
        with pytest.raises(ValueError):
            sample_instances(fixture_graph, TEMPLATES["Q-K-Q"], "Q1", n=1, walk_len=5, seed=0, target_kc="K9")

    def test_draws_equal_scalar_reference_for_1_to_70_neighbors(self):
        g = one_to_seventy_graph()
        template = TEMPLATES["Q-U-Q"]
        for seed in range(4):
            for _, q0 in g.nodes("Q"):
                got = walk_nodes(sample_instances(g, template, q0, n=5, walk_len=20, seed=seed))
                assert got == reference_walks(g, template, q0, 5, 20, seed)

    def test_first_step_picks_are_uniform_for_1_to_70_neighbors(self):
        """Multiply-shift maps the high 32 bits of a draw to one of ``deg`` neighbors, each
        owning floor or ceil of 2**32 / deg of those values: a relative bias of at most
        deg / 2**32, far below what 3,500 draws per question can show.  So the first-step
        picks from Qn, over its n students, pass a chi-squared test of uniformity, each
        question at a Bonferroni level and all questions pooled."""
        g = one_to_seventy_graph()
        groups = sample_walks(g, TEMPLATES["Q-U-Q"], [q for _, q in g.nodes("Q")], n=3500, walk_len=2, seed=23)
        statistic, dof, pvalues = 0.0, 0, []
        for q0, group in groups.items():
            students = [g.index(u) for u in g.neighbors(("Q", q0), "U")]
            picks = np.array([np.count_nonzero(group.rows[:, 1] == u) for u in students])
            degree = len(students)
            assert picks.sum() == 3500
            if degree == 1:
                continue
            result = chisquare(picks)
            statistic += result.statistic
            dof += degree - 1
            pvalues.append(result.pvalue)
        assert min(pvalues) > 0.01 / len(pvalues)
        assert chi2.sf(statistic, dof) > 0.01


def one_to_seventy_graph():
    """Q01..Q70 and S00..S69, with an edge where j < n: question Qn has n students and
    student Sj has 70 - j questions, so Q-U-Q walks draw among every count of neighbors
    from 1 to 70."""
    questions = [("Q", f"Q{n:02d}") for n in range(1, 71)]
    students = [("U", f"S{j:02d}") for j in range(70)]
    adjacency = {q: {"U": tuple(students[: int(q[1][1:])]), "K": (("K", "K1"),)} for q in questions}
    adjacency.update({u: {"Q": tuple(q for q in questions if int(q[1][1:]) > int(u[1][1:]))} for u in students})
    adjacency[("K", "K1")] = {"Q": tuple(questions)}
    return adjacency_graph(adjacency)


def reference_walks(g, template, q0, n, walk_len, seed):
    """The walks of ``sample_instances``, one attempt at a time in Python ints: attempt ``a``
    has the key ``mix(base + a·γ)`` and node ``t`` is neighbor ``((mix(key + t·γ) >> 32) · deg)
    >> 32`` of the sorted neighbors of the required kind."""
    base = derive_seed(seed, template.name, q0)
    walks = []
    for attempt in range(RESAMPLE_FACTOR * n):
        key = splitmix64((base + attempt * GAMMA) & MASK64)
        walk = [("Q", q0)]
        for t in range(1, walk_len):
            nbrs = g.neighbors(walk[-1], template.kind_at(t))
            if not nbrs:
                break
            draw = splitmix64((key + t * GAMMA) & MASK64)
            walk.append(nbrs[((draw >> 32) * len(nbrs)) >> 32])
        if len(walk) < min(walk_len, len(template.kinds)):
            continue
        walks.append(tuple(walk))
        if len(walks) == n:
            break
    return walks


@functools.cache
def dead_end_graph():
    """Q1..Q3 answered by S1..S3; QDEAD shares K1 with them but has no train answerer,
    so walks through it stop at their next U step, and Q-U-Q from QDEAD never leaves it."""
    pairs = [(s, q) for s in ("S1", "S2", "S3") for q in ("Q1", "Q2", "Q3")]
    kc_of = {"Q1": "K1", "Q2": "K1;K2", "Q3": "K2", "QDEAD": "K1"}
    d = make_dataset(pairs, kc_of, extra=[("S1", "QDEAD", "val")])
    m = make_model({"S1": Level.LOW, "S2": Level.MEDIUM, "S3": Level.MEDIUM},
                   {"Q1": Level.LOW, "Q2": Level.MEDIUM, "Q3": Level.HIGH, "QDEAD": Level.MEDIUM})
    return Mrhin.build(d, m)


DEAD_END_QUESTIONS = ("Q1", "Q2", "Q3", "QDEAD")


class TestLockstep:
    @given(
        name=st.sampled_from(sorted(TEMPLATES)),
        questions=st.lists(st.sampled_from(DEAD_END_QUESTIONS), min_size=1, max_size=4, unique=True),
        n=st.integers(1, 12),
        walk_len=st.integers(1, 14),
        seed=st.integers(0, 2**40),
    )
    @example(name="Q-U-Q", questions=["QDEAD", "Q2"], n=5, walk_len=9, seed=0)  # QDEAD: no conformant walk
    @example(name="Q-K-Q-U-Q", questions=["Q3", "Q1"], n=12, walk_len=13, seed=2)  # truncated rows
    @settings(max_examples=60, deadline=None)
    def test_batched_groups_equal_one_question_calls_and_the_reference(self, name, questions, n, walk_len, seed):
        g, template = dead_end_graph(), TEMPLATES[name]
        batched = sample_walks(g, template, questions, n=n, walk_len=walk_len, seed=seed)
        assert list(batched) == questions
        for q0 in questions:
            alone = sample_instances(g, template, q0, n=n, walk_len=walk_len, seed=seed)
            got = batched[q0]
            assert (got.template, got.target_question, got.target_kc) == (template, q0, alone.target_kc)
            assert got.rows.dtype == alone.rows.dtype and got.rows.shape == alone.rows.shape
            assert np.array_equal(got.rows, alone.rows)
            assert walk_nodes(alone) == reference_walks(g, template, q0, n, walk_len, seed)

    def test_dead_end_graph_gives_truncated_rows_and_an_empty_group(self):
        g = dead_end_graph()
        assert len(sample_walks(g, TEMPLATES["Q-U-Q"], ["QDEAD", "Q2"], n=5, walk_len=9, seed=0)["QDEAD"]) == 0
        rows = sample_walks(g, TEMPLATES["Q-K-Q-U-Q"], ["Q3", "Q1"], n=12, walk_len=13, seed=2)["Q1"].rows
        assert (rows == PAD).any() and (rows[:, -1] != PAD).any()


@functools.cache
def planted_graph():
    """The graph of planted seed 1 with every student and question on the medium level."""
    d = split(ingest(io.StringIO(planted_csv(seed=1)[0])), 0)
    return Mrhin.build(d, make_model({s: Level.MEDIUM for s in d.students()},
                                     {q: Level.MEDIUM for q in d.questions()}))


def test_planted_group_keys_equal_the_reference():
    g = planted_graph()
    for _, q in g.nodes("Q"):
        for template in TEMPLATES.values():
            group = sample_instances(g, template, q, n=10, walk_len=20, seed=1)
            assert group.tie_keys.tolist() == [reference_tie_key(nodes) for nodes in walk_nodes(group)]


class TestTieKeys:
    @given(
        name=st.sampled_from(sorted(TEMPLATES)),
        q0=st.sampled_from(DEAD_END_QUESTIONS),
        n=st.integers(1, 12),
        walk_len=st.integers(1, 14),
        seed=st.integers(0, 2**40),
    )
    @example(name="Q-U-Q", q0="QDEAD", n=5, walk_len=9, seed=0)  # an empty group
    @example(name="Q-K-Q-U-Q", q0="Q1", n=12, walk_len=13, seed=2)  # truncated rows among full ones
    @settings(max_examples=60, deadline=None)
    def test_group_keys_equal_the_reference(self, name, q0, n, walk_len, seed):
        group = sample_instances(dead_end_graph(), TEMPLATES[name], q0, n=n, walk_len=walk_len, seed=seed)
        keys = group.tie_keys
        assert keys.dtype == np.int64 and keys.shape == (len(group),)
        assert keys.tolist() == [reference_tie_key(nodes) for nodes in walk_nodes(group)]

    def test_planted_keys_are_pinned_and_distinct(self):
        g = planted_graph()
        questions = [q for _, q in g.nodes("Q")]
        digest = hashlib.sha256()
        keys, walks = [], set()
        for template in TEMPLATES.values():
            groups = sample_walks(g, template, questions, n=100, walk_len=20, seed=1)
            for q in questions:
                digest.update(groups[q].tie_keys.astype("<i8").tobytes())
                keys.extend(groups[q].tie_keys.tolist())
                walks.update(map(tuple, groups[q].walks()))
        assert len(keys) == 67_200
        assert len(set(keys)) == len(walks)  # one key per distinct node sequence
        assert digest.hexdigest() == "033a2144b69285ddf9cc8ff3aa75dd77eccd4782d9828770cbba789504855f79"


class TestStores:
    @pytest.fixture
    def grouped(self, fixture_graph):
        return {q: {name: sample_instances(fixture_graph, TEMPLATES[name], q, n=10, walk_len=9, seed=4)
                    for name in ("Q-K-Q", "Q-U-A-U-Q")} for q in ("Q1", "Q2")}

    def test_walk_store_round_trip(self, fixture_graph, grouped, tmp_path):
        path = tmp_path / "paths.jsonl"
        write_walks(grouped, path)
        loaded = read_walks(path, fixture_graph)
        assert sorted(loaded) == sorted(grouped)
        for q, per_template in grouped.items():
            assert sorted(loaded[q]) == sorted(per_template)
            for name, group in per_template.items():
                got = loaded[q][name]
                assert (got.template, got.target_question, got.target_kc) == (
                    group.template, group.target_question, group.target_kc)
                # rows come back in the group's row order, the order they were sampled in
                assert got.walks() == group.walks()
                assert walk_nodes(got) == walk_nodes(group)

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(target_kc="K9"), "target KC"),
        (lambda r: r["nodes"].append(["U", "NOPE"]), "not a graph node"),
        (lambda r: r.update(template="Q-Z-Q"), "unknown template"),
        (lambda r: r.update(target_q="Q2"), "target question"),
        (lambda r: r["nodes"].__setitem__(3, ["D", "Low"]),
         "is of kind D, but template Q-K-Q has kind K at position 3"),
        (lambda r: r.pop("nodes"), "KeyError: 'nodes'"),
    ])
    def test_walk_store_rejects_bad_records_by_line(self, fixture_graph, grouped, tmp_path, edit, message):
        path = tmp_path / "paths.jsonl"
        write_walks(grouped, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[3])
        edit(record)
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match=f"paths.jsonl line 4: .*{message}"):
            read_walks(path, fixture_graph)

    @pytest.mark.parametrize("make_graph", [build_fixture_graph, two_component_graph, ring_graph,
                                            one_to_seventy_graph, planted_graph])
    def test_graph_file_reads_back_to_the_same_bytes(self, make_graph, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        write_graph(make_graph(), first)
        write_graph(read_graph(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_graph_store_round_trip(self, fixture_graph, tmp_path):
        path = tmp_path / "graph.json"
        write_graph(fixture_graph, path)
        g2 = read_graph(path)
        assert g2.nodes() == fixture_graph.nodes()
        assert g2.edge_count() == fixture_graph.edge_count()
        for node in fixture_graph.nodes():
            assert g2.neighbors(node) == fixture_graph.neighbors(node)
