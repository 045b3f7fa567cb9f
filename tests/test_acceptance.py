"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every expected value is
either a frozen literal or computed by an oracle that is independent of the
implementation path it checks (raw-edge BFS, exhaustive enumeration, O(n^2)
pair counting, from-scratch formula arithmetic).
"""

import dataclasses
import io
import math
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare, spearmanr

from hisekt.cli import main as cli_main
from hisekt.config import RunConfig
from hisekt.dataset import ingest, split
from hisekt.evaluation import (
    PipelineContext,
    auc,
    run_experiment,
)
from hisekt.irt import fit
from hisekt.mrhin import TEMPLATES, Mrhin, sample_instances
from hisekt.pathscore import score_all
from hisekt.retrieval import SimilarityModel, _fit_from_features, distances
from hisekt.synth import irt_recovery_csv, planted_csv

from graph_fixture import (
    build_fixture_graph,
    enumerate_walks,
    fixture_edges,
    group_of,
    is_conformant_walk,
    make_dataset,
    make_model,
    walk_nodes,
)
from hisekt.irt import Level
from support import unimodal_or_plateau


def report_criterion(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] {name}" + (f" | {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_irt_recovery():
    started = time.time()
    csv, truth = irt_recovery_csv(500, 100, seed=11)
    d = split(ingest(io.StringIO(csv)), 0)
    m = fit(d)
    elapsed = time.time() - started
    students = sorted(m.theta)
    questions = sorted(m.diff)
    rho_theta = spearmanr([m.theta[s] for s in students], [truth.theta[s] for s in students]).statistic
    rho_b = spearmanr([m.diff[q] for q in questions], [truth.diff[q] for q in questions]).statistic
    rho_a = spearmanr([m.disc[q] for q in questions], [truth.disc[q] for q in questions]).statistic
    ok = rho_theta >= 0.9 and rho_b >= 0.9 and rho_a >= 0.7 and elapsed < 120.0
    report_criterion(
        "criterion 1: parameter recovery on 500x100 synthetic responses",
        ok,
        f"rho_theta={rho_theta:.3f} rho_b={rho_b:.3f} rho_a={rho_a:.3f} time={elapsed:.1f}s",
    )


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_walk_conformance():
    g = build_fixture_graph()
    edges = fixture_edges()
    per_template = 10_000 // (len(TEMPLATES) * 6) + 1
    checked = 0
    for name, template in TEMPLATES.items():
        for q0 in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"):
            for nodes in walk_nodes(sample_instances(g, template, q0, n=per_template, walk_len=20, seed=29)):
                assert is_conformant_walk(edges, template, nodes, 20), (
                    f"non-conformant walk under {name} from {q0}: {nodes}"
                )
                checked += 1
    assert checked >= 10_000

    # exhaustive-enumeration subcase: the full conformant-walk set is tractable
    # at walk length 7 for a three-kind template
    oracle_set = enumerate_walks(edges, TEMPLATES["Q-K-Q"], "Q1", walk_len=7)
    members = sample_instances(g, TEMPLATES["Q-K-Q"], "Q1", n=500, walk_len=7, seed=31)
    assert members
    for nodes in walk_nodes(members):
        assert nodes in oracle_set

    # first-cycle uniformity: one KC shared by q0 and three other questions
    pairs = [("S1", q) for q in ("QA", "QB", "QC", "QD")]
    kc_of = {q: "K1" for q in ("QA", "QB", "QC", "QD")}
    d = make_dataset(pairs, kc_of)
    m = make_model({"S1": Level.MEDIUM}, {q: Level.MEDIUM for q in kc_of})
    g_uniform = Mrhin.build(d, m)
    walks = sample_instances(g_uniform, TEMPLATES["Q-K-Q"], "QA", n=3000, walk_len=3, seed=17)
    counts = {}
    for w in walk_nodes(walks):
        counts[w[2][1]] = counts.get(w[2][1], 0) + 1
    pvalue = chisquare([counts.get(q, 0) for q in ("QA", "QB", "QC", "QD")]).pvalue
    ok = pvalue > 0.01
    report_criterion(
        "criterion 2: walk conformance and first-cycle uniformity",
        ok,
        f"{checked} sampled walks conformant; enumeration subcase {len(members)} walks; chi2 p={pvalue:.3f}",
    )


# -- criterion 3 -------------------------------------------------------------


def oracle_scores(nodes, target_kc, raw_edges, kc_of):
    """From-scratch four-dimension arithmetic over raw fixture tables."""

    def bfs(a, b, cap):
        if a == b:
            return 0
        seen, frontier = {a}, deque([(a, 0)])
        while frontier:
            node, depth = frontier.popleft()
            if depth >= cap:
                continue
            for x, y in raw_edges:
                if x == node and y not in seen:
                    if y == b:
                        return depth + 1
                    seen.add(y)
                    frontier.append((y, depth + 1))
        return cap

    q0 = nodes[0]
    length = len(nodes) - 1
    q_set = sorted({n for n in nodes if n[0] == "Q"})
    c = 5.0 * max(0.0, min(1.0, 1.0 - sum(min(bfs(q0, q, length), length) / length for q in q_set) / len(q_set))) if length else 5.0
    r = 5.0 * sum(1 for q in q_set if target_kc in kc_of.get(q[1], set())) / len(q_set)
    kept = []
    seen_q0 = seen_k = False
    for n in nodes:
        if n[0] not in ("U", "Q", "K"):
            continue
        if n == q0:
            if seen_q0:
                continue
            seen_q0 = True
        elif n == ("K", target_kc):
            if seen_k:
                continue
            seen_k = True
        kept.append(n)
    i = 5.0 * len(set(kept)) / len(kept)
    level_counts = {}
    total = 0
    for kind, nid in nodes:
        if kind in ("A", "D"):
            level_counts[(kind, nid)] = level_counts.get((kind, nid), 0) + 1
            total += 1
    if total == 0:
        dv = 0.0
    else:
        entropy = -sum((n / total) * math.log(n / total) for n in level_counts.values())
        dv = 5.0 * entropy / math.log(6)
    return c, r, i, dv


def fixture_paths():
    """20 hand-built template-conformant paths on the shared and mini fixtures."""
    link = lambda name, nodes, kc: (TEMPLATES[name], tuple(nodes), kc)
    Q, U, K, A, D = (lambda i: ("Q", i)), (lambda i: ("U", i)), (lambda i: ("K", i)), (lambda i: ("A", i)), (lambda i: ("D", i))
    return [
        link("Q-K-Q", [Q("Q1"), K("K1"), Q("Q1")], "K1"),
        link("Q-K-Q", [Q("Q1"), K("K1"), Q("Q2")], "K1"),
        link("Q-K-Q", [Q("Q1"), K("K1"), Q("Q2"), K("K1"), Q("Q5")], "K1"),
        link("Q-K-Q", [Q("Q3"), K("K2"), Q("Q4"), K("K2"), Q("Q3")], "K2"),
        link("Q-U-Q", [Q("Q1"), U("S1"), Q("Q2")], "K1"),
        link("Q-U-Q", [Q("Q1"), U("S2"), Q("Q5"), U("S3"), Q("Q2")], "K1"),
        link("Q-U-Q", [Q("Q2"), U("S1"), Q("Q2"), U("S1"), Q("Q2")], "K1"),
        link("Q-U-Q", [Q("Q6"), U("S4"), Q("Q3"), U("S5"), Q("Q6")], "K3"),
        link("Q-D-Q", [Q("Q1"), D("Low"), Q("Q5")], "K1"),
        link("Q-D-Q", [Q("Q2"), D("Medium"), Q("Q4"), D("Medium"), Q("Q2")], "K1"),
        link("Q-U-A-U-Q", [Q("Q1"), U("S2"), A("Medium"), U("S3"), Q("Q5")], "K1"),
        link("Q-U-A-U-Q", [Q("Q3"), U("S4"), A("High"), U("S4"), Q("Q6"), U("S2"), A("Medium"), U("S5"), Q("Q4")], "K2"),
        link("Q-K-Q-D-Q", [Q("Q1"), K("K1"), Q("Q5"), D("Low"), Q("Q1")], "K1"),
        link("Q-D-Q-K-Q", [Q("Q3"), D("High"), Q("Q6"), K("K3"), Q("Q6")], "K2"),
        link("Q-U-Q-D-Q", [Q("Q5"), U("S3"), Q("Q3"), D("High"), Q("Q6")], "K1"),
        link("Q-D-Q-U-Q", [Q("Q4"), D("Medium"), Q("Q2"), U("S3"), Q("Q5")], "K2"),
        link("Q-K-Q-U-Q", [Q("Q2"), K("K1"), Q("Q1"), U("S5"), Q("Q4"), K("K2"), Q("Q3"), U("S1"), Q("Q2")], "K1"),
        link("Q-U-Q-K-Q", [Q("Q6"), U("S2"), Q("Q1"), K("K1"), Q("Q2")], "K3"),
        link("Q-K-Q-U-Q-D-Q", [Q("Q5"), K("K2"), Q("Q3"), U("S1"), Q("Q4"), D("Medium"), Q("Q2")], "K2"),
        link("Q-K-Q-U-Q-D-Q-U-A-U-Q", [Q("Q2"), K("K1"), Q("Q5"), U("S3"), Q("Q3"), D("High"), Q("Q6"), U("S4"), A("High"), U("S4"), Q("Q3")], "K1"),
    ]


def test_criterion_3_scoring_oracle_equivalence():
    g = build_fixture_graph()
    edges = fixture_edges()
    kc_of = {q: set(v.split(";")) for q, v in
             {"Q1": "K1", "Q2": "K1", "Q3": "K2", "Q4": "K2", "Q5": "K1;K2", "Q6": "K3"}.items()}
    paths = fixture_paths()
    assert len(paths) == 20
    worst = 0.0
    for template, nodes, target_kc in paths:
        assert is_conformant_walk(edges, template, nodes, len(nodes)) or len(nodes) == len(template.kinds)
        got = score_all(group_of(g, template.name, [nodes], target_kc), g).scores[0].tolist()
        want = oracle_scores(nodes, target_kc, edges, kc_of)
        for label, got_v, want_v in zip(("centrality", "kc_relevance", "informativeness", "diversity"), got, want):
            worst = max(worst, abs(got_v - want_v))
            assert abs(got_v - want_v) <= 1e-9, f"{label} on {nodes}: {got_v} vs {want_v}"
        assert abs(got[4] - sum(want)) <= 1e-9

    # frozen literal anchors
    from test_pathscore import centrality as centrality_op
    from test_pathscore import diversity as diversity_op
    from test_pathscore import informativeness as informativeness_op
    from test_pathscore import kc_relevance as kc_relevance_op
    from test_pathscore import path

    seven_q = [("Q", "Q0")]
    for i in range(1, 7):
        seven_q += [("U", f"U{i}"), ("Q", f"Q{i}")]
    anchor_ratio = path("Q-U-Q", seven_q, "K1")
    anchor_map = {f"Q{i}": frozenset({"K1"} if i < 4 else {"K9"}) for i in range(7)}
    assert kc_relevance_op(anchor_ratio, anchor_map) == pytest.approx(2.857142857142857, abs=1e-9)

    no_repeat = path("Q-U-Q", (("Q", "Q0"), ("U", "U1"), ("Q", "Q1"), ("U", "U2"), ("Q", "Q2")), "K1")
    assert informativeness_op(no_repeat) == pytest.approx(5.0, abs=1e-12)

    d_line = make_dataset([("S1", "Q0"), ("S1", "Q1")], {"Q0": "K1", "Q1": "K1"})
    m_line = make_model({"S1": Level.MEDIUM}, {"Q0": Level.MEDIUM, "Q1": Level.MEDIUM})
    g_line = Mrhin.build(d_line, m_line)
    star = path("Q-U-Q", (("Q", "Q0"), ("U", "S1"), ("Q", "Q1"), ("U", "S1"), ("Q", "Q0")), "K1")
    assert centrality_op(star, g_line) == pytest.approx(3.75, abs=1e-9)

    three_levels = path(
        "Q-D-Q", (("Q", "Q0"), ("D", "Low"), ("Q", "Q1"), ("D", "Medium"), ("Q", "Q2"), ("D", "High"), ("Q", "Q0")), "K1")
    assert diversity_op(three_levels) == pytest.approx(3.065735963827292, abs=1e-9)

    report_criterion(
        "criterion 3: formula scorer matches hand-computed values on 20 fixture paths",
        True,
        f"max |difference| = {worst:.2e}; anchors 2.857142857 / 5.0 / 3.75 / 3.065735964 hit",
    )


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_mahalanobis_correctness():
    sm = SimilarityModel(mu=np.zeros(5), sigma=np.eye(5), shrinkage_lambda=0.05, pair_sample_size=10)
    euclid_err = abs(distances(np.array([[3.0, 4.0, 0.0, 0.0, 0.0]]), sm)[0] - 5.0)
    assert euclid_err <= 1e-12
    assert abs(distances(np.ones((1, 5)), sm)[0] - math.sqrt(5.0)) <= 1e-12

    rng = np.random.default_rng(3)
    base = rng.normal(size=(300, 5))
    cov = base.T @ base / 300 + 0.1 * np.eye(5)
    mu = rng.normal(size=5)
    worst_whiten = 0.0
    for _ in range(40):
        z = rng.normal(size=5)
        d0 = distances(z[None, :], SimilarityModel(mu, cov, 0.05, 10))[0]
        axis = int(rng.integers(0, 5))
        gamma = float(rng.uniform(0.2, 5.0))
        delta = float(rng.normal())
        scale = np.ones(5)
        scale[axis] = gamma
        shift = np.zeros(5)
        shift[axis] = delta
        d1 = distances(
            (z * scale + shift)[None, :],
            SimilarityModel(mu * scale + shift, cov * np.outer(scale, scale), 0.05, 10),
        )[0]
        worst_whiten = max(worst_whiten, abs(d0 - d1))
    assert worst_whiten <= 1e-9

    min_eig = np.inf
    for trial in range(1000):
        trial_rng = np.random.default_rng(trial)
        n = int(trial_rng.integers(2, 10))
        feats = trial_rng.normal(size=(n, 5))
        feats[:, trial_rng.integers(0, 5)] = trial_rng.normal()  # constant column
        if trial % 3 == 0 and n > 2:
            feats[1] = feats[0]  # duplicated row
        if trial % 5 == 0:
            feats = np.outer(trial_rng.normal(size=n), trial_rng.normal(size=5))  # rank one
        _, sigma, _ = _fit_from_features(feats)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(sigma).min()))
        np.linalg.cholesky(sigma)
    assert min_eig >= 1e-8 - 1e-20
    report_criterion(
        "criterion 4: Mahalanobis distance and shrinkage positive-definiteness",
        True,
        f"euclid err={euclid_err:.1e}; whitening err={worst_whiten:.1e}; min eig over 1000 degenerate sets={min_eig:.2e}",
    )


# -- criterion 5 -------------------------------------------------------------


def pairwise_auc(labels, scores):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_criterion_5_auc_oracle():
    rng = np.random.default_rng(23)
    exact = 0
    for _ in range(200):
        n = int(rng.integers(2, 101))
        labels = rng.integers(0, 2, n).tolist()
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        if rng.random() < 0.5:
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n).tolist()  # tie-heavy
        else:
            scores = rng.random(n).tolist()
        assert auc(labels, scores) == pairwise_auc(labels, scores)
        exact += 1
    report_criterion(
        "criterion 5: fast AUC equals O(n^2) pairwise counting exactly",
        exact == 200,
        f"{exact}/200 instances bit-exact, tie-heavy included",
    )


# -- criteria 6 and 8 share the planted fixture ------------------------------


@pytest.fixture(scope="module")
def planted_fixture(tmp_path_factory):
    csv, _ = planted_csv(seed=1)
    path = tmp_path_factory.mktemp("planted") / "planted.csv"
    path.write_text(csv, encoding="utf-8")
    return str(path)


def planted_config(planted_fixture, **overrides):
    base = dict(
        data=planted_fixture,
        seed=7,
        runs=5,
        n_walks=100,
        walk_len=20,
        top_k=5,
        top_s=3,
        pair_source="paths",
        variants=("msr", "msl", "simu", "rsimu"),
    )
    base.update(overrides)
    return RunConfig(**base)


def test_criterion_6_end_to_end_ablation_ordering(planted_fixture):
    started = time.time()
    report = run_experiment(planted_config(planted_fixture))
    elapsed = time.time() - started
    pv = report.per_variant
    d_simu = report.auc - pv["simu"].auc
    d_rsimu = report.auc - pv["rsimu"].auc
    d_msr = report.auc - pv["msr"].auc
    d_msr_msl = pv["msr"].auc - pv["msl"].auc
    ok = (
        d_simu >= 0.02
        and d_rsimu >= 0.02
        and d_msr > 0.0
        and d_msr_msl > 0.0
        and elapsed < 600.0
    )
    report_criterion(
        "criterion 6: planted-structure ablation ordering over 5 seeded runs",
        ok,
        f"full={report.auc:.4f} vs simu={pv['simu'].auc:.4f} (+{d_simu:.4f}), "
        f"rsimu={pv['rsimu'].auc:.4f} (+{d_rsimu:.4f}), msr={pv['msr'].auc:.4f}, "
        f"msl={pv['msl'].auc:.4f}; time={elapsed:.0f}s",
    )


def test_criterion_7_pipeline_determinism(planted_fixture, tmp_path, capsys):
    import shutil

    cache_root = tmp_path / "cache"
    cfg_path = tmp_path / "run.toml"
    cfg_path.write_text(
        "\n".join(
            [
                f"data = {planted_fixture}",
                f"cache_dir = {cache_root}",
                f"out_dir = {tmp_path / 'out'}",
                "seed = 7",
                "runs = 1",
                "n_walks = 20",
                "walk_len = 12",
                "top_k = 3",
                "top_s = 2",
                "pair_source = paths",
                "pair_sample = 2000",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    reports = []
    for attempt in ("first", "second"):
        if cache_root.exists():
            shutil.rmtree(cache_root)  # force a fresh end-to-end recomputation
        out = tmp_path / f"report_{attempt}.json"
        assert cli_main(["pipeline", "--config", str(cfg_path), "--llm-backend", "mock", "--out", str(out)]) == 0
        capsys.readouterr()
        reports.append(out.read_bytes())
    ok = reports[0] == reports[1]
    report_criterion(
        "criterion 7: two pipeline runs with identical config are byte-identical",
        ok,
        f"{len(reports[0])} bytes each, cache wiped between runs",
    )


def test_criterion_8_top_k_sensitivity_shape(planted_fixture):
    sweep_runs = 3
    base_cfg = planted_config(planted_fixture, runs=sweep_runs, variants=())
    base_ctx = PipelineContext(base_cfg)
    # each K reuses the base context's walks and scores: only Top-K onward runs again
    aucs = [run_experiment(dataclasses.replace(base_cfg, top_k=k), base_ctx).auc for k in (1, 5, 10, 20, 40)]
    ok = unimodal_or_plateau(aucs, tol=0.01)
    report_criterion(
        "criterion 8: AUC vs Top-K is unimodal-or-plateau over {1,5,10,20,40}",
        ok,
        "auc by K: " + " ".join(f"{k}:{a:.4f}" for k, a in zip((1, 5, 10, 20, 40), aucs)),
    )
