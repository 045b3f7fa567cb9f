import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hisekt
from hisekt import evaluation
from hisekt import retrieval as retrieval_mod
from hisekt.config import ABLATIONS, RunConfig
from hisekt.dataset import ingest, split
from hisekt.errors import ModelError
from hisekt.evaluation import PipelineContext, run_seed_of
from hisekt.irt import IrtModel, Level
from hisekt.mrhin import TEMPLATES, Mrhin
from hisekt.pathscore import select_top_k
from hisekt.retrieval import (
    CandidateSet,
    SimilarityModel,
    _fit_from_features,
    distances,
    encode,
    encode_many,
    fit_similarity,
    pair_at,
    pair_keys,
    random_peers,
    student_tables,
    top_s,
    top_s_packed,
)
from hisekt.seeding import derive_rng, derive_seed
from hisekt.synth import planted_csv

from graph_fixture import ABILITY, DIFFICULTY, KC_OF, TRAIN_PAIRS, make_dataset, make_model, walk_nodes
from support import (Interaction, candidates_of, dataset_of, decode_rows, interactions, keys_of_triples,
                     reference_distances, reference_path_pair_pool, reference_peers, reference_top_s, retained_ids,
                     retained_rows, split_labels, triples_of_keys)


def student_counts(walks):
    """How often each student appears across the retained walks (``(kind, id)`` node sequences) of
    one target question: the reference the retained stage's array count is held to."""
    target = walks[0][0] if walks else None
    counts = {}
    for nodes in walks:
        if nodes[0] != target:
            raise ValueError("all retained walks must share one target question")
        for kind, node_id in nodes:
            if kind == "U":
                counts[node_id] = counts.get(node_id, 0) + 1
    return counts


def build_candidates(walks, u_target):
    """Distinct students across the retained walks, minus the target, with counts."""
    target_question = walks[0][0][1] if walks else ""
    return candidates_of(student_counts(walks), u_target, target_question)


class TestBuildCandidates:
    def test_dedup_and_counts(self):
        walk = [("Q", "Q1"), ("U", "u1"), ("Q", "Q2"), ("U", "u2"), ("Q", "Q3"), ("U", "u1"), ("Q", "Q1")]
        cands = build_candidates([walk], "u3")
        assert cands.candidates == {"u1": 2, "u2": 1}
        assert cands.target_question == "Q1"

    def test_target_student_excluded(self):
        cands = build_candidates([[("Q", "Q1"), ("U", "u1"), ("Q", "Q2")]], "u1")
        assert "u1" not in cands.candidates

    def test_counts_sum_across_instances(self):
        a = [("Q", "Q1"), ("U", "u2"), ("Q", "Q2")]
        b = [("Q", "Q1"), ("U", "u2"), ("Q", "Q3"), ("U", "u4"), ("Q", "Q1")]
        cands = build_candidates([a, b], "u9")
        assert cands.candidates == {"u2": 2, "u4": 1}

    def test_mixed_target_questions_rejected(self):
        a = [("Q", "Q1"), ("U", "u2"), ("Q", "Q2")]
        b = [("Q", "Q7"), ("U", "u2"), ("Q", "Q3")]
        with pytest.raises(ValueError):
            build_candidates([a, b], "u9")

    def test_empty_paths_empty_candidates(self):
        cands = build_candidates([], "u1")
        assert cands.candidates == {}


@pytest.fixture(scope="module")
def planted_context(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.csv"
    path.write_text(planted_csv(seed=1)[0], encoding="utf-8")
    return PipelineContext(RunConfig(data=str(path)))


@pytest.mark.parametrize("variant", [None, "msr", "msl"], ids=["top", "random", "lowest"])
def test_retained_counts_equal_the_reference_on_the_decoded_kept_rows(planted_context, variant):
    ctx = planted_context
    cfg, run_seed, mode = ctx.cfg, run_seed_of(ctx.cfg, 0), ABLATIONS[variant][0]
    scored = ctx.scored(run_seed)
    retained = evaluation._retained(ctx, cfg, run_seed, variant)
    students = student_tables(ctx.dataset).students
    assert list(retained) == sorted(scored)
    for qid, per_template in scored.items():
        kept = [nodes for name in TEMPLATES if name in per_template
                for nodes in walk_nodes(select_top_k(per_template[name], cfg.top_k, mode,
                                                     seed=derive_seed(run_seed, "topk", qid, name)).walks)]
        rows, counts = retained[qid]
        assert rows.dtype.kind == counts.dtype.kind == "i" and np.all(rows[1:] > rows[:-1])
        # rows in student id order, each with its count
        assert list(zip([students[row] for row in rows.tolist()], counts.tolist())) == \
            sorted(student_counts(kept).items())


def test_a_graph_student_missing_from_the_dataset_raises_naming_it():
    # the graph of the fixture dataset with one more student, S9, who is on no walk from Q6
    d = make_dataset(TRAIN_PAIRS, KC_OF, extra=[("S1", "Q6", "test")])
    wider = make_dataset([*TRAIN_PAIRS, ("S9", "Q1")], KC_OF)
    graph = Mrhin.build(wider, make_model({**ABILITY, "S9": Level.LOW}, DIFFICULTY))
    ctx = PipelineContext(RunConfig(data="unused.csv", n_walks=5, walk_len=8),
                          readers={"dataset": lambda _: d, "graph": lambda _: graph})
    assert len(ctx.get("scored")["Q6"]["Q-U-Q"]) == 5
    with pytest.raises(ValueError, match="^'S9' is not a student of the dataset$"):
        ctx.get("retained")


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda seed: f"planted{seed}")
def criterion6_context(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.csv"
    path.write_text(planted_csv(seed=request.param)[0], encoding="utf-8")
    return PipelineContext(RunConfig(data=str(path), seed=7, n_walks=100, walk_len=20, top_k=5, top_s=3,
                                     pair_source="paths"))


@st.composite
def retained_maps(draw):
    """A dataset whose ids sort apart from their order of first appearance, and a retained map
    over its questions, one absent from the dataset, with empty ones and students who answer
    the question themselves."""
    students = draw(st.lists(st.text(alphabet="Zb0a_", min_size=1, max_size=3), min_size=1, max_size=7, unique=True))
    kc_of = {f"Q{j}": "K0" for j in range(draw(st.integers(1, 4)))}
    train = draw(st.lists(st.tuples(st.sampled_from(students), st.sampled_from(sorted(kc_of))), max_size=20))
    d = make_dataset(train, kc_of, extra=[(s, "Q0", "test") for s in students])
    per_question = st.dictionaries(st.sampled_from(students), st.integers(1, 6), max_size=len(students))
    counts = draw(st.dictionaries(st.sampled_from([*kc_of, "Qx"]), per_question, max_size=len(kc_of) + 1))
    return counts, d


class TestPathPairPool:
    """``evaluation._path_pair_pool`` decodes to the sorted set of string triples it replaced."""

    @staticmethod
    def assert_equals_reference(counts, d):
        pool = evaluation._path_pair_pool(retained_rows(counts, d), d)
        reference = reference_path_pair_pool(counts, d)
        if not reference:
            assert pool is None
            return
        keys, base = pool
        assert keys.dtype == np.int64 and base == 1 + max(f for per in counts.values() for f in per.values())
        assert triples_of_keys(keys, base, d) == sorted(reference)

    @pytest.mark.parametrize("variant", [None, "msr", "msl"], ids=["top", "random", "lowest"])
    def test_planted(self, criterion6_context, variant):
        ctx = criterion6_context
        counts = retained_ids(ctx.get("retained", ctx.cfg, run_seed_of(ctx.cfg, 0), variant), ctx.dataset)
        assert len(reference_path_pair_pool(counts, ctx.dataset)) > 10_000
        self.assert_equals_reference(counts, ctx.dataset)

    @settings(max_examples=150, deadline=None)
    @given(retained_maps())
    def test_drawn(self, drawn):
        self.assert_equals_reference(*drawn)

    def test_single_student(self):
        d = make_dataset([("S1", "Q0"), ("S1", "Q1")], {"Q0": "K0", "Q1": "K0"})
        assert evaluation._path_pair_pool(retained_rows({"Q0": {"S1": 2}, "Q1": {}}, d), d) is None

    def test_answerers_read_from_the_packed_incidence(self):
        d = make_dataset([("b", "Q3"), ("a", "Q3"), ("c", "Q1")], {f"Q{j}": "K0" for j in range(10)},
                         extra=[("d", "Q3", "test")])
        t = student_tables(d)
        assert [t.students[i] for i in t.answerers("Q3")] == ["a", "b"]
        assert [t.students[i] for i in t.answerers("Q1")] == ["c"]
        assert t.answerers("Q9").size == t.answerers("Qx").size == 0


def pair_dataset(correct_fn=None, questions=10, students=("S1", "S2", "S3", "S4")):
    kc_of = {f"Q{j}": f"K{j % 3}" for j in range(questions)}
    pairs = [(s, q) for s in students for q in kc_of]
    d = make_dataset(pairs, kc_of)
    if correct_fn is not None:
        rows = [
            Interaction(i.student_id, i.question_id, i.kc_ids, correct_fn(i), i.timestamp)
            for i in interactions(d)
        ]
        d = dataset_of(rows, split_labels(d))
    return d, kc_of


class TestEncode:
    def setup_method(self):
        self.d, self.kc_of = pair_dataset()
        self.m = make_model(
            {"S1": Level.MEDIUM, "S2": Level.MEDIUM, "S3": Level.MEDIUM, "S4": Level.MEDIUM},
            {q: Level.MEDIUM for q in self.kc_of},
        )

    def test_equal_thetas_give_zero_gap(self):
        z = encode("S1", "S2", 0, self.m, self.d)
        assert z[0] == 0.0

    def test_theta_gap(self):
        m = make_model({s: Level.MEDIUM for s in self.m.theta}, {q: Level.MEDIUM for q in self.kc_of},
                       theta={"S1": 1.25, "S2": -0.75})
        assert encode("S1", "S2", 0, m, self.d)[0] == pytest.approx(2.0)

    def test_shared_question_decay_values(self):
        # both answered all 10 questions: z3 = (1 + 10)^-2
        z = encode("S1", "S2", 0, self.m, self.d)
        assert z[2] == pytest.approx((1 + 10) ** -2.0)
        # three shared KCs: z4 = (1 + 3)^-2 = 0.0625
        assert z[3] == pytest.approx(0.0625)

    def test_no_shared_questions_gives_one(self):
        kc_of = {f"Q{j}": "K0" for j in range(6)}
        pairs = [("S1", q) for q in ("Q0", "Q1", "Q2")] + [("S2", q) for q in ("Q3", "Q4", "Q5")]
        d = make_dataset(pairs, kc_of)
        m = make_model({"S1": Level.MEDIUM, "S2": Level.MEDIUM}, {q: Level.MEDIUM for q in kc_of})
        z = encode("S1", "S2", 0, m, d)
        assert z[2] == 1.0

    def test_cooccurrence_decay(self):
        assert encode("S1", "S2", 0, self.m, self.d)[4] == 1.0
        assert encode("S1", "S2", 1, self.m, self.d)[4] == pytest.approx(0.25)
        assert encode("S1", "S2", 3, self.m, self.d)[4] == pytest.approx(0.0625)

    def test_accuracy_gap_scaled_by_c(self):
        # S1 all correct, S2 all wrong on every shared KC: gap 1 per KC, z2 = c
        d, kc_of = pair_dataset(correct_fn=lambda i: i.student_id == "S1")
        assert encode("S1", "S2", 0, self.m, d, c=2.0)[1] == pytest.approx(2.0)
        assert encode("S1", "S2", 0, self.m, d, c=3.0)[1] == pytest.approx(3.0)

    def test_no_shared_kcs_worst_case(self):
        kc_of = {"Q0": "KA", "Q1": "KB"}
        pairs = [("S1", "Q0"), ("S2", "Q1")]
        d = make_dataset(pairs, kc_of)
        m = make_model({"S1": Level.MEDIUM, "S2": Level.MEDIUM}, {q: Level.MEDIUM for q in kc_of})
        assert encode("S1", "S2", 0, m, d, c=2.0)[1] == 2.0

    def test_symmetry(self):
        d, _ = pair_dataset(correct_fn=lambda i: (len(i.student_id + i.question_id) % 2) == 0)
        m = make_model({s: Level.MEDIUM for s in self.m.theta}, {q: Level.MEDIUM for q in self.kc_of},
                       theta={"S1": 0.3, "S2": -0.8})
        for f in (0, 2):
            assert encode("S1", "S2", f, m, d).tobytes() == encode("S2", "S1", f, m, d).tobytes()

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            encode("S1", "S1", 0, self.m, self.d)

    def test_components_bounded(self):
        z = encode("S1", "S2", 5, self.m, self.d)
        assert z.shape == (5,) and z.dtype == np.float64
        assert np.all(z >= 0.0)
        assert np.all(z[2:] <= 1.0)

    def test_features_do_not_depend_on_the_string_hash_seed(self):
        # The shared-KC set iterates in string-hash order, which changes with
        # PYTHONHASHSEED; the accuracy-gap sum must not follow that order.
        script = "\n".join([
            "import hashlib, io, itertools",
            "from hisekt.dataset import ingest, split",
            "from hisekt.irt import IrtModel",
            "from hisekt.retrieval import encode",
            "from hisekt.synth import planted_csv",
            "d = split(ingest(io.StringIO(planted_csv(seed=1)[0])), 0)",
            "m = IrtModel({s: 0.01 * i for i, s in enumerate(d.students())}, {}, {}, {}, {}, 0.0, 1.0, 0.0, 1.0)",
            "digest = hashlib.sha256()",
            "for u, s in itertools.combinations(d.students(), 2):",
            "    digest.update(encode(u, s, 1, m, d).tobytes())",
            "print(digest.hexdigest())",
        ])
        src = str(Path(hisekt.__file__).resolve().parent.parent)
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                stdout=subprocess.PIPE,
                text=True,
            )
            for hash_seed in ("0", "1")
        ]
        digests = [run.communicate(timeout=120)[0].strip() for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


class TestFitSimilarity:
    def test_identical_pairs_hit_identity_floor(self):
        d, kc_of = pair_dataset(correct_fn=lambda i: True)
        m = make_model(
            {s: Level.MEDIUM for s in ("S1", "S2", "S3", "S4")},
            {q: Level.MEDIUM for q in kc_of},
        )
        sm = fit_similarity(d, m, sample_pairs=100, seed=0)
        assert np.allclose(sm.sigma, 1e-8 * np.eye(5))
        assert np.linalg.eigvalsh(sm.sigma).min() >= 1e-8 - 1e-20

    def test_diagonal_covariance_recovered(self):
        # Variance spread kept moderate: the mandated 0.05 shrinkage floor
        # biases each diagonal toward the trace mean by up to
        # 0.05 * |mean - var| / var, which must stay inside the 10% budget.
        rng = np.random.default_rng(5)
        true_var = np.array([0.5, 0.3, 0.25, 0.6, 0.45])
        features = rng.normal(0.0, np.sqrt(true_var), size=(10_000, 5))
        mu, sigma, lam = _fit_from_features(features)
        assert np.allclose(mu, 0.0, atol=0.05)
        for k in range(5):
            assert abs(sigma[k, k] - true_var[k]) / true_var[k] < 0.10
        off_diagonal = sigma[~np.eye(5, dtype=bool)]
        assert np.max(np.abs(off_diagonal)) < 0.05

    def test_same_seed_identical_model(self):
        d, kc_of = pair_dataset(correct_fn=lambda i: (hash(i.question_id) % 3) == 0)
        m = make_model(
            {s: Level.MEDIUM for s in ("S1", "S2", "S3", "S4")},
            {q: Level.MEDIUM for q in kc_of},
            theta={"S1": 0.5, "S2": -0.5, "S3": 1.0, "S4": 0.0},
        )
        a = fit_similarity(d, m, sample_pairs=4, seed=3)
        b = fit_similarity(d, m, sample_pairs=4, seed=3)
        assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)

    def test_single_student_rejected(self):
        kc_of = {f"Q{j}": "K0" for j in range(3)}
        d = make_dataset([("S1", q) for q in kc_of], kc_of)
        m = make_model({"S1": Level.MEDIUM}, {q: Level.MEDIUM for q in kc_of})
        with pytest.raises(ModelError):
            fit_similarity(d, m)

    def test_shrinkage_always_positive_definite(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(2, 12)
            base = rng.normal(size=(n, 5))
            # degenerate constructions: constant columns, duplicated rows, rank-1
            base[:, rng.integers(0, 5)] = rng.normal()
            if n > 2:
                base[1] = base[0]
            if rng.random() < 0.3:
                base = np.outer(rng.normal(size=n), rng.normal(size=5))
            _, sigma, _ = _fit_from_features(base)
            assert np.linalg.eigvalsh(sigma).min() >= 1e-8 - 1e-20
            np.linalg.cholesky(sigma)

    def test_pair_pool_mode(self):
        d, kc_of = pair_dataset()
        m = make_model(
            {s: Level.MEDIUM for s in ("S1", "S2", "S3", "S4")},
            {q: Level.MEDIUM for q in kc_of},
            theta={"S1": 0.5, "S2": -0.5, "S3": 1.0, "S4": 0.0},
        )
        keys, base = keys_of_triples([("S1", "S2", 1), ("S1", "S3", 2), ("S2", "S4", 1), ("S3", "S4", 3)], d)
        sm = fit_similarity(d, m, sample_pairs=10, seed=0, pair_pool=keys, pair_base=base)
        assert sm.pair_sample_size == 4
        with pytest.raises(ModelError):
            fit_similarity(d, m, pair_pool=[])
        with pytest.raises(ModelError):
            fit_similarity(d, m, pair_pool=np.zeros(0, dtype=np.int64), pair_base=base)

    @pytest.mark.parametrize("sample_pairs", [0, -1])
    @pytest.mark.parametrize("pooled", [False, True], ids=["random", "pool"])
    def test_sample_pairs_below_one_rejected(self, sample_pairs, pooled):
        d, kc_of = pair_dataset()
        m = make_model({s: Level.MEDIUM for s in ("S1", "S2", "S3", "S4")}, {q: Level.MEDIUM for q in kc_of})
        keys, base = keys_of_triples([("S1", "S2", 1), ("S3", "S4", 2)], d) if pooled else (None, None)
        with pytest.raises(ValueError, match="sample_pairs"):
            fit_similarity(d, m, sample_pairs=sample_pairs, pair_pool=keys, pair_base=base)

    def test_pool_must_be_ascending_distinct_keys_with_a_base(self):
        d, kc_of = pair_dataset()
        m = make_model({s: Level.MEDIUM for s in ("S1", "S2", "S3", "S4")}, {q: Level.MEDIUM for q in kc_of})
        keys, base = keys_of_triples([("S1", "S2", 1), ("S1", "S3", 2), ("S2", "S4", 1)], d)
        bad = {
            "tuples": ([("S1", "S2", 1), ("S1", "S3", 2)], base),
            "2-D": (keys[None, :], base),
            "floats": (keys.astype(float), base),
            "descending": (keys[::-1], base),
            "duplicate": (np.repeat(keys, 2), base),
            "negative": (keys - keys[-1] - 1, base),
            "past the last pair": (keys + 4 * 4 * base, base),
            "no base": (keys, None),
            "base 0": (keys, 0),
        }
        for pool, pool_base in bad.values():
            with pytest.raises(ValueError):
                fit_similarity(d, m, pair_pool=pool, pair_base=pool_base)

    def test_key_space_must_fit_in_int64(self):
        limit = np.iinfo(np.int64).max
        assert pair_keys([2**31 - 1], [2**31 - 1], [0], 2**31, 1).tolist() == [2**62 - 1]
        with pytest.raises(ValueError, match="int64"):
            pair_keys([1], [0], [0], 2**31, 2)  # n * n * base is 2**63
        with pytest.raises(ValueError, match="int64"):
            pair_keys([1], [0], [0], 2, limit // 4 + 1)
        with pytest.raises(ValueError):
            pair_keys([1], [0], [3], 2, 3)  # f must be below the base
        d, kc_of = pair_dataset()
        m = make_model({s: Level.MEDIUM for s in ("S1", "S2", "S3", "S4")}, {q: Level.MEDIUM for q in kc_of})
        with pytest.raises(ValueError, match="int64"):
            fit_similarity(d, m, pair_pool=np.array([1, 2]), pair_base=limit // 16 + 1)
        with pytest.raises(ValueError, match="int64"):
            evaluation._path_pair_pool(retained_rows({"Q0": {"S1": limit // 16 + 1}}, d), d)

    @pytest.mark.parametrize("sample_pairs", [500, 1_000_000])
    def test_pool_fit_equals_a_fit_on_the_sorted_triples(self, sample_pairs):
        # fit_similarity on string triples as it was: sorted, sampled with rng.sample, encoded by id
        d = split(ingest(io.StringIO(planted_csv(seed=1)[0])), 0)
        students = d.students()
        m = IrtModel({sid: 0.01 * n for n, sid in enumerate(students)}, {}, {}, {}, {}, 0.0, 1.0, 0.0, 1.0)
        rng = random.Random(4)
        triples = {(u, s, rng.randint(1, 9)) for u, s in (rng.sample(students, 2) for _ in range(3_000))}
        keys, base = keys_of_triples(sorted(triples, reverse=True), d)
        got = fit_similarity(d, m, sample_pairs=sample_pairs, seed=6, pair_pool=keys, pair_base=base)

        pool = sorted(triples)
        chosen = pool if len(pool) <= sample_pairs else derive_rng(6, "fit_similarity").sample(pool, sample_pairs)
        t = student_tables(d)
        features = encode_many(t.positions(p[0] for p in chosen), t.positions(p[1] for p in chosen),
                               [p[2] for p in chosen], m, d)
        mu, sigma, lam = _fit_from_features(features)
        assert got.pair_sample_size == min(len(pool), sample_pairs)
        assert got.mu.tobytes() == mu.tobytes() and got.sigma.tobytes() == sigma.tobytes()
        assert got.shrinkage_lambda == lam


def unit_model(mu=None, sigma=None):
    return SimilarityModel(
        mu=np.zeros(5) if mu is None else np.asarray(mu, dtype=float),
        sigma=np.eye(5) if sigma is None else np.asarray(sigma, dtype=float),
        shrinkage_lambda=0.05,
        pair_sample_size=100,
    )


class TestDistance:
    def test_zero_at_mean(self):
        sm = unit_model(mu=[0.3, 0.1, 0.5, 0.2, 0.9])
        z = np.array([[0.3, 0.1, 0.5, 0.2, 0.9]])
        assert distances(z, sm)[0] == pytest.approx(0.0, abs=1e-12)

    def test_identity_covariance_is_euclidean(self):
        sm = unit_model()
        z = np.array([[3.0, 4.0, 0.0, 0.0, 0.0]])
        assert abs(distances(z, sm)[0] - 5.0) < 1e-12

    def test_diagonal_whitening(self):
        sm = unit_model(sigma=np.diag([4.0, 1.0, 1.0, 1.0, 1.0]))
        z = np.array([[2.0, 0.0, 0.0, 0.0, 0.0]])
        assert distances(z, sm)[0] == pytest.approx(1.0, abs=1e-12)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(200, 5))
        cov = base.T @ base / 200 + 0.1 * np.eye(5)
        mu = rng.normal(size=5)
        z = rng.normal(size=5)
        sm = unit_model(mu=mu, sigma=cov)
        d0 = distances(z[None, :], sm)[0]
        for axis in range(5):
            gamma, delta = 3.7, -1.2
            scale = np.ones(5)
            scale[axis] = gamma
            shift = np.zeros(5)
            shift[axis] = delta
            z2 = z * scale + shift
            mu2 = mu * scale + shift
            cov2 = cov * np.outer(scale, scale)
            d1 = distances(z2[None, :], unit_model(mu=mu2, sigma=cov2))[0]
            assert abs(d0 - d1) < 1e-9

    def test_positive_away_from_mean(self):
        sm = unit_model()
        assert distances(np.array([[0.1, 0, 0, 0, 0]]), sm)[0] > 0.0


class TestTopS:
    def setup_method(self):
        self.d, kc_of = pair_dataset(
            correct_fn=lambda i: True, students=("S1", "S2", "S3", "S4", "S5")
        )
        # identical histories: only the ability gap differentiates candidates
        self.m = make_model(
            {s: Level.MEDIUM for s in ("S1", "S2", "S3", "S4", "S5")},
            {q: Level.MEDIUM for q in kc_of},
            theta={"S1": 0.0, "S2": 0.1, "S3": 0.9, "S4": 0.5, "S5": 0.1},
        )
        self.sm = unit_model()
        self.cands = CandidateSet("S1", "Q0", {"S2": 1, "S3": 1, "S4": 1, "S5": 1})

    def test_ascending_distance_order(self):
        assert top_s(self.cands, self.sm, self.m, self.d, 3) == ["S2", "S5", "S4"]

    def test_single_nearest(self):
        assert top_s(self.cands, self.sm, self.m, self.d, 1) == ["S2"]

    def test_ties_break_by_student_id(self):
        picked = top_s(self.cands, self.sm, self.m, self.d, 2)
        assert picked == ["S2", "S5"]  # equal distance, id order

    def test_random_mode_seeded(self):
        a = top_s(self.cands, self.sm, self.m, self.d, 2, mode="random", seed=4)
        b = top_s(self.cands, self.sm, self.m, self.d, 2, mode="random", seed=4)
        assert a == b
        assert set(a) <= set(self.cands.candidates)

    def test_empty_candidates(self):
        empty = CandidateSet("S1", "Q0", {})
        assert top_s(empty, self.sm, self.m, self.d, 3) == []

    def test_s_larger_than_pool(self):
        assert len(top_s(self.cands, self.sm, self.m, self.d, 99)) == 4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            top_s(self.cands, self.sm, self.m, self.d, 0)
        with pytest.raises(ValueError):
            top_s(self.cands, self.sm, self.m, self.d, 1, mode="best")


# -- blocks against the per-pair loop they replaced ---------------------------


class LoopEncoder:
    """The per-pair encoder the block functions replaced, kept as their reference."""

    def __init__(self, d):
        self.questions = {}
        self.kc_accuracy = {}
        for student, run in d.by_student("train").items():
            rows = decode_rows(d, run)
            self.questions[student] = frozenset(i.question_id for i in rows)
            totals, rights = {}, {}
            for i in rows:
                for kc in i.kc_ids:
                    totals[kc] = totals.get(kc, 0) + 1
                    rights[kc] = rights.get(kc, 0) + (1 if i.correct else 0)
            self.kc_accuracy[student] = {kc: rights[kc] / totals[kc] for kc in totals}

    def encode(self, u, s, f, m, c=2.0):
        theta_u = m.theta[u]
        theta_s = m.theta[s]
        z1 = abs(theta_u - theta_s)
        acc_u = self.kc_accuracy.get(u, {})
        acc_s = self.kc_accuracy.get(s, {})
        shared_kcs = acc_u.keys() & acc_s.keys()
        if shared_kcs:
            # a running sum in KC order (sum() of floats compensates on Python 3.12+)
            total = 0.0
            for k in sorted(shared_kcs):
                total += abs(acc_u[k] - acc_s[k])
            z2 = (c / len(shared_kcs)) * total
        else:
            z2 = c
        n_q = len(self.questions.get(u, frozenset()) & self.questions.get(s, frozenset()))
        return [z1, z2, (1.0 + n_q) ** (-c), (1.0 + len(shared_kcs)) ** (-c), (1.0 + f) ** (-c)]


def loop_distance(z, sm):
    """One row's distance in Python floats: forward substitution against the Cholesky factor,
    each ``y_i`` subtracting ``L[i, j] y_j`` for j = 1, 2, ... in turn, then the squares summed
    left to right from 0.0."""
    chol = sm.cholesky().tolist()
    y = []
    for i, value in enumerate((np.asarray(z, dtype=float) - sm.mu).tolist()):
        for j in range(i):
            value -= chol[i][j] * y[j]
        y.append(value / chol[i][i])
    total = 0.0
    for value in y:
        total += value * value
    return math.sqrt(total)


def lapack_distance(z, sm):
    """One row's distance from LAPACK: ``np.linalg.solve`` against the Cholesky factor."""
    y = np.linalg.solve(sm.cholesky(), np.asarray(z) - sm.mu)
    return float(np.sqrt(np.dot(y, y)))


# Forward substitution and LAPACK's solve each land within 4 ulp of the exact distance of the
# rounded z - mu (a search over pair features found 4 and 3); so they differ by at most 8 ulp
# (the search found 6)
ULPS = 8


def ulps_apart(a, b):
    """How many units in the last place of the larger of each pair ``a`` and ``b`` lie apart."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


@pytest.fixture(scope="module", params=[(1, {}), (2, {}), (3, {}), (1, {"kcs_per_band": 10, "questions_per_band": 70})],
                ids=["seed1", "seed2", "seed3", "30kcs"])
def planted(request):
    """A planted dataset, a hand-set theta for every student (0.0 for the first, the prior
    ``irt.fit`` gives a cold student), and the loop encoder.

    With 10 KCs of 7 questions per band, same-band pairs share 10 KCs with
    accuracies such as 3/7: enough that a numpy reduction along the row, which
    adds 8 or more items in another order, would round differently.
    """
    seed, shape = request.param
    d = split(ingest(io.StringIO(planted_csv(seed=seed, **shape)[0])), 0)
    rng = random.Random(seed)
    theta = {sid: rng.gauss(0.0, 1.0) for sid in d.students()[1:]}
    theta[d.students()[0]] = 0.0
    m = IrtModel(theta, {}, {}, {}, {}, 0.0, 1.0, 0.0, 1.0)
    return d, m, LoopEncoder(d)


class TestBlocksEqualTheLoop:
    def test_encode_many_rows(self, planted):
        d, m, loop = planted
        students = student_tables(d).students
        pairs = [(a, b) for a in range(len(students)) for b in range(len(students)) if a != b]
        f = [(7 * a + 3 * b) % 300 for a, b in pairs]
        for c in (2.0, 0.5):
            got = encode_many([a for a, _ in pairs], [b for _, b in pairs], f, m, d, c)
            expected = [loop.encode(students[a], students[b], ff, m, c) for (a, b), ff in zip(pairs, f)]
            assert got.tobytes() == np.array(expected).tobytes()
        u, s = students[0], students[-1]
        assert encode(u, s, 4, m, d).tobytes() == np.array(loop.encode(u, s, 4, m)).tobytes()

    def test_distances(self, planted):
        d, m, loop = planted
        sm = fit_similarity(d, m, seed=1)
        students = d.students()
        rows = [loop.encode(u, s, (len(u) * i) % 50, m) for i, u in enumerate(students) for s in students if s != u]
        rows = np.vstack([rows, np.random.default_rng(0).normal(size=(5_000, 5))])
        expected = [loop_distance(z, sm) for z in rows]
        got = distances(rows, sm)
        assert got.tobytes() == np.array(expected).tobytes()
        assert distances(rows[:1], sm)[0] == expected[0]
        # on these rows forward substitution stays within 4 ulp of LAPACK's solve
        assert ulps_apart(got, [lapack_distance(z, sm) for z in rows]).max() <= 4

    def test_top_s_ranking(self, planted):
        """Peers equal the ranking by LAPACK distances wherever those are not within ``ULPS`` of a
        tie among the first six, where the two can order candidates apart."""
        d, m, loop = planted
        sm = fit_similarity(d, m, seed=2)
        targets = sorted({(i.student_id, i.question_id) for i in decode_rows(d, d.iter_split("test"))})[::7]
        checked = 0
        for u, q in targets:
            cands = CandidateSet(u, q, {s: 1 + (len(s) + len(q)) % 4 for s in d.students() if s != u})
            reference = {s: lapack_distance(loop.encode(u, s, f, m), sm) for s, f in cands.candidates.items()}
            ranked = sorted(cands.candidates, key=lambda s: (reference[s], s))
            decisive = [reference[s] for s in ranked[:6]]
            if (ulps_apart(decisive[1:], decisive[:-1]) <= ULPS).any():
                continue
            checked += 1
            assert top_s(cands, sm, m, d, 5) == ranked[:5]
        assert checked >= len(targets) // 2


# pair features as the pipeline makes them: an ability gap, an accuracy gap up to c = 2, and the
# three decays (1 + n) ** -2 of small counts
PAIR_FEATURES = st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 2.0),
                          *[st.integers(0, 40).map(lambda n: (1.0 + n) ** -2.0)] * 3)


@settings(max_examples=300, deadline=None)
@given(st.lists(PAIR_FEATURES, min_size=2, max_size=40), st.lists(PAIR_FEATURES, min_size=1, max_size=40))
def test_distances_are_within_ulps_of_lapack(sample, rows):
    mu, sigma, lam = _fit_from_features(np.array(sample))
    sm = SimilarityModel(mu, sigma, lam, len(sample))
    got = distances(np.array(rows), sm)
    assert ulps_apart(got, [lapack_distance(z, sm) for z in rows]).max() <= ULPS


class TestRandomPairs:
    @pytest.mark.parametrize("n,k", [(30, 400), (400, 10_000), (700, 10_000)])
    def test_index_draw_picks_the_listed_pairs_draw(self, n, k):
        listed = [(i, j) for i in range(n) for j in range(i + 1, n)]
        expected = derive_rng(5, "fit_similarity").sample(listed, k)
        index = derive_rng(5, "fit_similarity").sample(range(len(listed)), k)
        i, j = pair_at(np.array(index), n)
        assert list(zip(i.tolist(), j.tolist())) == expected
        i, j = pair_at(np.arange(len(listed)), n)
        assert list(zip(i.tolist(), j.tolist())) == listed

    def test_fit_equals_a_fit_on_the_listed_pairs(self):
        students = [f"S{n:02d}" for n in range(30)]
        kc_of = {f"Q{j}": f"K{j % 3}" for j in range(8)}
        pairs = [(s, q) for n, s in enumerate(students) for j, q in enumerate(kc_of) if (n + j) % 3]
        d = make_dataset(pairs, kc_of)
        m = make_model({s: Level.MEDIUM for s in students}, {q: Level.MEDIUM for q in kc_of},
                       theta={s: 0.1 * n for n, s in enumerate(students)})
        listed, base = keys_of_triples([(u, s, 0) for n, u in enumerate(students) for s in students[n + 1:]], d)
        a = fit_similarity(d, m, sample_pairs=400, seed=3)
        b = fit_similarity(d, m, sample_pairs=400, seed=3, pair_pool=listed, pair_base=base)
        assert a.mu.tobytes() == b.mu.tobytes() and a.sigma.tobytes() == b.sigma.tobytes()

    def test_memory_does_not_grow_with_the_pair_count(self):
        # 1,000 students make 499,500 pairs; listing them took over 30 MB
        students = [f"S{n:04d}" for n in range(1_000)]
        kc_of = {f"Q{j}": f"K{j % 5}" for j in range(20)}
        d = make_dataset([(s, f"Q{(n + j) % 20}") for n, s in enumerate(students) for j in range(3)], kc_of)
        m = IrtModel({s: 0.001 * n for n, s in enumerate(students)}, {}, {}, {}, {}, 0.0, 1.0, 0.0, 1.0)
        tracemalloc.start()
        try:
            sm = fit_similarity(d, m, sample_pairs=10_000, seed=0)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert sm.pair_sample_size == 10_000
        assert peak_mb < 8.0


# -- the targets of one question ranked together, against one target at a time ------


@st.composite
def question_blocks(draw):
    """A dataset, one question's retained map and its targets.  Thetas, answers and counts take
    few values, so distances tie; the map may be empty or hold only one target, and targets
    repeat and may be absent from it."""
    students = [f"S{n}" for n in range(draw(st.integers(1, 7)))]
    kc_of = {f"Q{j}": f"K{j % 2}" for j in range(3)}
    train = draw(st.lists(st.tuples(st.sampled_from(students), st.sampled_from(sorted(kc_of))), max_size=20))
    d = make_dataset(train, kc_of, extra=[(sid, "Q0", "test") for sid in students])
    right = draw(st.lists(st.booleans(), min_size=len(d), max_size=len(d)))
    d = dataset_of([Interaction(i.student_id, i.question_id, i.kc_ids, r, i.timestamp)
                    for i, r in zip(interactions(d), right)], split_labels(d))
    theta = {sid: draw(st.sampled_from([0.0, 0.5, -1.0])) for sid in students}
    m = make_model({sid: Level.MEDIUM for sid in students}, {q: Level.MEDIUM for q in kc_of}, theta=theta)
    retained = draw(st.dictionaries(st.sampled_from(students), st.integers(1, 3), max_size=len(students)))
    targets = draw(st.lists(st.sampled_from(students), min_size=1, max_size=8))
    return d, m, retained, targets


# a correlated covariance, so every feature moves the distance
SPREAD = unit_model(mu=[0.2, 1.0, 0.3, 0.4, 0.5],
                    sigma=np.eye(5) + 0.3 * np.ones((5, 5)) + np.diag([0.5, 0.0, 0.2, 0.1, 0.4]))


class TestQuestionBlocks:
    @settings(max_examples=200, deadline=None)
    @given(question_blocks(), st.integers(1, 4), st.sampled_from([1, 3, 1 << 14]))
    def test_each_target_gets_the_distances_and_peers_it_gets_alone(self, block, s, block_pairs):
        d, m, retained, targets = block
        blocks = []

        def recorded(z, sm):
            blocks.append(distances(z, sm))
            return blocks[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(retrieval_mod, "distances", recorded)
            patch.setattr(retrieval_mod, "BLOCK_PAIRS", block_pairs)
            [got] = top_s_packed([(retained_rows({"Q0": retained}, d)["Q0"], targets)], SPREAD, m, d, s)
        alone = [reference_distances(candidates_of(retained, u, "Q0"), SPREAD, m, d)[1] for u in dict.fromkeys(targets)]
        assert np.concatenate([np.zeros(0), *blocks]).tobytes() == np.concatenate([np.zeros(0), *alone]).tobytes()
        assert all(z.size <= max(block_pairs, len(retained)) for z in blocks)
        assert got == [reference_top_s(candidates_of(retained, u, "Q0"), SPREAD, m, d, s) for u in targets]

    @settings(max_examples=100, deadline=None)
    @given(question_blocks(), st.integers(1, 4))
    def test_random_mode_draws_each_target_with_its_own_seed(self, block, s):
        d, m, retained, targets = block
        seeds = list(range(len(targets)))
        got = random_peers("Q0", retained_rows({"Q0": retained}, d)["Q0"][0], targets, seeds, d, s)
        assert got == [reference_top_s(candidates_of(retained, u, "Q0"), None, m, d, s, mode="random", seed=seed)
                       for u, seed in zip(targets, seeds)]

    @settings(max_examples=100, deadline=None)
    @given(question_blocks(), st.integers(1, 4))
    def test_top_s_returns_the_peers_of_both_modes(self, block, s):
        d, m, retained, targets = block
        rows = retained_rows({"Q0": retained}, d)["Q0"]
        for seed, u in enumerate(targets):
            cands = candidates_of(retained, u, "Q0")
            assert top_s(cands, SPREAD, m, d, s) == top_s_packed([(rows, [u])], SPREAD, m, d, s)[0][0]
            assert (top_s(cands, None, m, d, s, mode="random", seed=seed)
                    == random_peers("Q0", rows[0], [u], [seed], d, s)[0])

    def test_ties_empty_sets_and_a_lone_target(self):
        d, _ = pair_dataset(correct_fn=lambda i: True, students=("S1", "S2", "S3", "S4", "S5"))
        m = make_model({sid: Level.MEDIUM for sid in ("S1", "S2", "S3", "S4", "S5")}, {"Q0": Level.MEDIUM},
                       theta={"S2": 0.1, "S3": 0.9, "S4": 0.5, "S5": 0.1})
        def pool(counts):
            return retained_rows({"Q0": counts}, d)["Q0"]

        [ranked] = top_s_packed([(pool({"S5": 1, "S2": 1, "S4": 1, "S3": 1}), ["S1", "S2", "S1"])], unit_model(), m, d, 2)
        assert ranked == [["S2", "S5"], ["S5", "S4"], ["S2", "S5"]]  # S2 and S5 tie for S1: id order
        assert top_s_packed([(pool({}), ["S1", "S2"])], unit_model(), m, d, 2) == [[[], []]]
        assert top_s_packed([(pool({"S3": 2}), ["S3", "S1"])], unit_model(), m, d, 2) == [[[], ["S3"]]]
        with pytest.raises(ValueError, match="one seed per target"):
            random_peers("Q0", pool({"S3": 2})[0], ["S1"], [], d, 2)


class TestPackedBlocks:
    @pytest.mark.parametrize("block_pairs", [1, 37, 500, retrieval_mod.BLOCK_PAIRS])
    def test_packed_peers_equal_each_question_alone_within_the_block_bound(self, criterion6_context, block_pairs,
                                                                          monkeypatch):
        ctx = criterion6_context
        cfg, d, m = ctx.cfg, ctx.dataset, ctx.irt
        run_seed = run_seed_of(cfg, 0)
        retained, sim = ctx.get("retained", cfg, run_seed), ctx.get("similarity", cfg, run_seed)
        none = (np.zeros(0, dtype=np.intp),) * 2
        by_question = {}
        for u, qid, _ in ctx.test_targets():
            by_question.setdefault(qid, []).append(u)
        batches = [(retained.get(qid, none), targets) for qid, targets in by_question.items()]
        alone = [top_s_packed([batch], sim, m, d, cfg.top_s, cfg.c)[0] for batch in batches]
        largest = max(len(rows) for (rows, _), _ in batches)
        calls = []
        encode = retrieval_mod.encode_many

        def recorded(u, s, f, *args):
            calls.append(np.unique(u))
            assert len(u) <= block_pairs or (len(calls[-1]) == 1 and len(u) <= largest), "a block is too large"
            return encode(u, s, f, *args)

        monkeypatch.setattr(retrieval_mod, "encode_many", recorded)
        monkeypatch.setattr(retrieval_mod, "BLOCK_PAIRS", block_pairs)
        assert top_s_packed(batches, sim, m, d, cfg.top_s, cfg.c) == alone
        # small blocks split a question's targets; a large one packs several questions' targets
        assert len(calls) < len(by_question) if block_pairs > largest else len(calls) > len(by_question)


@pytest.mark.parametrize("variant", [None, "msr", "msl", "rsimu", "simu"])
def test_peers_equal_the_per_target_loop(criterion6_context, variant):
    ctx = criterion6_context
    run_seed = run_seed_of(ctx.cfg, 0)
    got = evaluation._peers(ctx, ctx.cfg, run_seed, variant)
    assert list(got.items()) == list(reference_peers(ctx, ctx.cfg, run_seed, variant).items())
