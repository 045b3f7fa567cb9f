import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from hisekt import irt
from hisekt.dataset import ingest, split
from hisekt.irt import (
    ALPHA_CLAMP,
    DECREMENT_TOL,
    MAX_ROUNDS,
    IrtModel,
    Level,
    discretize,
    fit,
    load,
    penalized_loglik,
    penalized_loglik_grad,
    population_stats,
    probability,
    serialize,
    train_arrays,
)
from hisekt.synth import irt_recovery_csv, planted_csv

from conftest import grid_rows, late_question_csv, rows_to_csv
from support import interactions


class TestProbability:
    def test_midpoint_is_half(self):
        for a in (0.2, 1.0, 7.0):
            assert probability(1.3, a, 1.3) == pytest.approx(0.5, abs=1e-12)

    def test_direct_values(self):
        # 1 / (1 + e^-1) and logistic at slope 10
        assert probability(1.0, 1.0, 0.0) == pytest.approx(0.7310585786300049, abs=1e-12)
        assert probability(0.0, 10.0, 0.0) == pytest.approx(0.5, abs=1e-12)
        # sigma(10 * 0.5) = 1 / (1 + e^-5)
        assert probability(0.5, 10.0, 0.0) == pytest.approx(0.9933071490757153, abs=1e-12)

    def test_nonpositive_discrimination_rejected(self):
        with pytest.raises(ValueError):
            probability(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            probability(0.0, -1.0, 0.0)

    def test_monotone_in_theta_and_b(self):
        assert probability(1.0, 2.0, 0.0) > probability(0.5, 2.0, 0.0)
        assert probability(0.5, 2.0, 1.0) < probability(0.5, 2.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(-5, 5),
        a=st.floats(0.01, 10),
        b=st.floats(-5, 5),
    )
    def test_symmetry(self, theta, a, b):
        assert probability(theta, a, b) + probability(2 * b - theta, a, b) == pytest.approx(
            1.0, abs=1e-12
        )


# logits at and around the clamp, signed zeros and infinities
LOGIT_EDGES = [0.0, -0.0, 500.0, -500.0, *map(float, [np.nextafter(500.0, 0.0), np.nextafter(500.0, np.inf),
               np.nextafter(-500.0, 0.0), np.nextafter(-500.0, -np.inf)]), 1e308, -1e308, math.inf, -math.inf]
edge_floats = st.floats() | st.sampled_from(LOGIT_EDGES)


def sigmoid_bits(theta, a, b):
    """``probability``'s value as it computed it, through ``_sigmoid``'s ``np.clip``, or the refusal."""
    if a <= 0:
        return ValueError
    return np.float64(irt._sigmoid(a * (theta - b))).tobytes()


def probability_bits(theta, a, b):
    try:
        return np.float64(probability(theta, a, b)).tobytes()
    except ValueError as exc:
        assert str(exc) == f"discrimination must be positive, got {a}"
        return ValueError


class TestProbabilityBits:
    @settings(max_examples=2000, deadline=None)
    @given(theta=edge_floats, a=edge_floats | st.sampled_from([1.0, 5e-324, -5e-324]), b=edge_floats)
    def test_equals_the_clipped_sigmoid(self, theta, a, b):
        assert probability_bits(theta, a, b) == sigmoid_bits(theta, a, b)

    @pytest.mark.parametrize("logit", LOGIT_EDGES)
    @pytest.mark.parametrize("a", [1.0, 0.5])
    def test_logits_at_the_clamp(self, logit, a):
        # theta - b is the logit / a, so a * (theta - b) lands on the logit itself or next to it
        for theta, b in ((logit / a, 0.0), (0.0, -logit / a)):
            assert probability_bits(theta, a, b) == sigmoid_bits(theta, a, b)

    @pytest.mark.parametrize("a", [0.0, -0.0, -5e-324, -1.0, -math.inf])
    def test_nonpositive_discrimination_is_refused(self, a):
        assert probability_bits(0.0, a, 0.0) is ValueError


class TestDiscretize:
    def test_mean_is_medium(self):
        values = {"a": -1.0, "b": 0.0, "c": 1.0}
        assert discretize(values)["b"] is Level.MEDIUM

    def test_boundary_is_medium(self):
        # population of {0, 0, 3, 3} has mu 1.5, sigma 1.5; 3 == mu + sigma exactly
        values = {"a": 0.0, "b": 0.0, "c": 3.0, "d": 3.0}
        levels = discretize(values)
        assert levels["c"] is Level.MEDIUM and levels["a"] is Level.MEDIUM

    def test_constant_population_all_medium(self):
        values = {k: 2.5 for k in "abcdef"}
        assert set(discretize(values).values()) == {Level.MEDIUM}

    def test_strict_outliers_get_low_high(self):
        values = {f"v{i}": 0.0 for i in range(20)}
        values["low"] = -10.0
        values["high"] = 10.0
        levels = discretize(values)
        assert levels["low"] is Level.LOW and levels["high"] is Level.HIGH

    def test_level_order(self):
        assert Level.LOW < Level.MEDIUM < Level.HIGH

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    def test_partition(self, xs):
        values = {f"k{i}": x for i, x in enumerate(xs)}
        levels = discretize(values)
        assert set(levels) == set(values)
        counts = [sum(1 for v in levels.values() if v is lvl) for lvl in Level]
        assert sum(counts) == len(values)


def _synthetic_dataset(n_students=120, n_questions=30, seed=5):
    csv, truth = irt_recovery_csv(n_students, n_questions, seed=seed)
    return split(ingest(io.StringIO(csv)), 0), truth


class TestFit:
    def test_generate_and_recover_ranks(self):
        d, truth = _synthetic_dataset(150, 40, seed=9)
        m = fit(d)
        students = sorted(m.theta)
        questions = sorted(m.diff)
        r_theta = spearmanr(
            [m.theta[s] for s in students], [truth.theta[s] for s in students]
        ).statistic
        r_b = spearmanr([m.diff[q] for q in questions], [truth.diff[q] for q in questions]).statistic
        assert r_theta >= 0.8
        assert r_b >= 0.8

    def test_all_correct_student_sits_above_cohort_mean(self):
        rows = grid_rows(
            [f"S{i}" for i in range(12)],
            [f"Q{j}" for j in range(12)],
            correct_fn=lambda s, q: 1 if s == "S0" else (int(q[1:]) + int(s[1:])) % 2,
        )
        d = split(ingest(io.StringIO(rows_to_csv(rows))), 0)
        m = fit(d)
        mean_theta = sum(m.theta.values()) / len(m.theta)
        assert m.theta["S0"] > mean_theta

    def test_identical_students_get_identical_theta(self):
        pattern = lambda q: int(q[1:]) % 2
        rows = grid_rows(
            [f"S{i}" for i in range(12)],
            [f"Q{j}" for j in range(12)],
            correct_fn=lambda s, q: pattern(q) if s in ("S0", "S1") else (len(s + q) * 7) % 2,
        )
        d = split(ingest(io.StringIO(rows_to_csv(rows))), 0)
        m = fit(d)
        assert abs(m.theta["S0"] - m.theta["S1"]) < 1e-6

    def test_label_flip_negates_ability_ranking(self):
        d, _ = _synthetic_dataset(80, 24, seed=3)
        flipped_rows = [
            (i.student_id, i.question_id, ";".join(sorted(i.kc_ids)), int(not i.correct), i.timestamp)
            for i in interactions(d)
        ]
        d_flip = split(ingest(io.StringIO(rows_to_csv(flipped_rows))), 0)
        m = fit(d)
        m_flip = fit(d_flip)
        students = sorted(m.theta)
        rho = spearmanr(
            [m.theta[s] for s in students], [m_flip.theta[s] for s in students]
        ).statistic
        assert rho <= -0.95

    def test_cold_start_fallback_for_test_only_ids(self):
        m = fit(_late_question_dataset())
        assert "QLATE" in m.cold_start_questions
        assert m.diff["QLATE"] == 0.0
        assert m.disc["QLATE"] == 1.0
        assert m.difficulty_level["QLATE"] is Level.MEDIUM

    def test_levels_consistent_with_population_stats(self):
        d, _ = _synthetic_dataset(80, 24, seed=3)
        m = fit(d)
        fitted = {s: t for s, t in m.theta.items() if s not in m.cold_start_students}
        mu, sigma = population_stats(fitted)
        assert mu == pytest.approx(m.ability_mu)
        for s, t in fitted.items():
            if t < mu - sigma:
                assert m.ability_level[s] is Level.LOW
            elif t > mu + sigma:
                assert m.ability_level[s] is Level.HIGH
            else:
                assert m.ability_level[s] in (Level.MEDIUM,)

    def test_fit_is_deterministic(self):
        d, _ = _synthetic_dataset(40, 15, seed=2)
        m1 = fit(d)
        m2 = fit(d)
        assert m1.theta == m2.theta and m1.diff == m2.diff and m1.disc == m2.disc


def _late_question_dataset():
    return split(ingest(io.StringIO(late_question_csv("QLATE"))), 0)


def _planted_dataset(seed, **kwargs):
    csv, truth = planted_csv(seed=seed, **kwargs)
    return split(ingest(io.StringIO(csv)), 0), truth


def _fitted_arrays(d, m):
    """(theta, alpha, b, s_idx, q_idx, correct) of a fitted model, in :func:`train_arrays` order."""
    students, questions, s_idx, q_idx, correct = train_arrays(d)
    theta = np.array([m.theta[s] for s in students])
    alpha = np.log([m.disc[q] for q in questions])
    b = np.array([m.diff[q] for q in questions])
    return theta, alpha, b, s_idx, q_idx, correct


CONVERGENCE_CASES = {
    "criterion-1 data": lambda: _synthetic_dataset(500, 100, seed=11)[0],
    "planted seed 1": lambda: _planted_dataset(1)[0],
    "planted seed 2": lambda: _planted_dataset(2)[0],
    "planted seed 3": lambda: _planted_dataset(3)[0],
    "planted seed 1, 300 per band": lambda: _planted_dataset(1, students_per_band=300)[0],
}


class TestConvergence:
    @pytest.fixture(scope="class", params=sorted(CONVERGENCE_CASES))
    def fitted(self, request):
        d = CONVERGENCE_CASES[request.param]()
        return d, fit(d)

    def test_converges_below_the_round_cap(self, fitted):
        d, m = fitted
        assert m.converged and m.rounds < MAX_ROUNDS
        f = penalized_loglik(*_fitted_arrays(d, m))
        assert 0.0 <= m.decrement < DECREMENT_TOL * (1.0 + abs(f))

    def test_kkt_conditions_hold(self, fitted):
        d, m = fitted
        theta, alpha, b, s_idx, q_idx, correct = _fitted_arrays(d, m)
        g_theta, g_alpha, g_b = penalized_loglik_grad(theta, alpha, b, s_idx, q_idx, correct)
        upper = alpha >= ALPHA_CLAMP - 1e-9
        lower = alpha <= -ALPHA_CLAMP + 1e-9
        assert m.clamped_questions == int(np.count_nonzero(upper | lower))
        # on the clamp the gradient points outward; inside it vanishes
        assert np.all(g_alpha[upper] > 0.0) and np.all(g_alpha[lower] < 0.0)
        projected = np.concatenate([g_theta, g_alpha[~(upper | lower)], g_b])
        assert np.max(np.abs(projected)) < 1e-3

    def test_no_feasible_perturbation_raises_the_objective(self, fitted):
        d, m = fitted
        theta, alpha, b, s_idx, q_idx, correct = _fitted_arrays(d, m)
        best = penalized_loglik(theta, alpha, b, s_idx, q_idx, correct)
        rng = np.random.default_rng(0)
        scale = 1e-3
        for _ in range(20):
            trial = (
                theta + rng.normal(0.0, scale, theta.shape),
                np.clip(alpha + rng.normal(0.0, scale, alpha.shape), -ALPHA_CLAMP, ALPHA_CLAMP),
                b + rng.normal(0.0, scale, b.shape),
            )
            assert penalized_loglik(*trial, s_idx, q_idx, correct) <= best

    @pytest.mark.parametrize("seed, floor", [(1, 0.625), (2, 0.801), (3, 0.798)])
    def test_planted_bands_rank_at_least_as_well_as_the_capped_block_fit(self, seed, floor):
        # floors: rho of the 500-round block-alternation fit this fit replaced
        d, truth = _planted_dataset(seed)
        m = fit(d)
        students = sorted(s for s in m.theta if s not in m.cold_start_students)
        rho = spearmanr([m.theta[s] for s in students], [truth.band_of[s] for s in students]).statistic
        assert rho >= floor

    def test_warning_names_rounds_decrement_and_clamp(self, monkeypatch, caplog):
        monkeypatch.setattr("hisekt.irt.MAX_ROUNDS", 3)
        d, _ = _planted_dataset(1)
        m = fit(d)
        assert not m.converged and m.rounds == 3
        message = caplog.records[-1].getMessage()
        assert "after 3 rounds" in message
        assert f"decrement {m.decrement:.3g}" in message
        assert f"{m.clamped_questions} questions on the alpha clamp" in message


class TestGradient:
    def test_analytic_gradient_matches_central_differences(self):
        rng = np.random.default_rng(7)
        n_s, n_q, n_obs = 12, 9, 160
        s_idx = rng.integers(0, n_s, n_obs)
        q_idx = rng.integers(0, n_q, n_obs)
        correct = rng.integers(0, 2, n_obs).astype(float)
        theta = rng.normal(0, 1, n_s)
        alpha = rng.normal(0, 0.4, n_q)
        b = rng.normal(0, 1, n_q)
        g_theta, g_alpha, g_b = penalized_loglik_grad(theta, alpha, b, s_idx, q_idx, correct)
        eps = 1e-6

        def numeric(vec, grad, which):
            for _ in range(34):  # ~100 random coordinates across the three blocks
                k = rng.integers(0, len(vec))
                up, down = vec.copy(), vec.copy()
                up[k] += eps
                down[k] -= eps
                args = {"theta": theta, "alpha": alpha, "b": b}
                args[which] = up
                f_up = penalized_loglik(args["theta"], args["alpha"], args["b"], s_idx, q_idx, correct)
                args[which] = down
                f_down = penalized_loglik(args["theta"], args["alpha"], args["b"], s_idx, q_idx, correct)
                fd = (f_up - f_down) / (2 * eps)
                scale = max(abs(fd), abs(grad[k]), 1e-8)
                assert abs(fd - grad[k]) / scale < 1e-4

        numeric(theta, g_theta, "theta")
        numeric(alpha, g_alpha, "alpha")
        numeric(b, g_b, "b")


class TestSerialization:
    def test_round_trip(self):
        d, _ = _synthetic_dataset(40, 15, seed=2)
        m = fit(d)
        m2 = load(io.StringIO(serialize(m)))
        assert m2.theta == m.theta
        assert m2.disc == m.disc
        assert m2.diff == m.diff
        assert m2.ability_level == m.ability_level
        assert m2.difficulty_level == m.difficulty_level
        assert m2.ability_mu == m.ability_mu
        assert m2.converged == m.converged
        assert m2.rounds == m.rounds
        assert m2.clamped_questions == m.clamped_questions
        assert m2.decrement == m.decrement
        assert m2 == m

    def test_tables_are_read_only_copies(self):
        # a write after theta_array memoized theta once left retrieval's ability gaps stale
        d, _ = _synthetic_dataset(40, 15, seed=2)
        theta = {s: 0.0 for s in d.students()}
        m = IrtModel(theta, {}, {}, {}, {}, 0.0, 1.0, 0.0, 1.0)
        theta[d.students()[0]] = 1.0
        assert m.theta_array(d.students())[0] == 0.0 and m.theta[d.students()[0]] == 0.0
        m = fit(d)
        s, q = d.students()[0], d.questions()[0]
        for table, key, value in [("theta", s, 1.0), ("disc", q, 2.0), ("diff", q, 0.5),
                                  ("ability_level", s, Level.HIGH), ("difficulty_level", q, Level.LOW)]:
            with pytest.raises(TypeError):
                getattr(m, table)[key] = value
            with pytest.raises(TypeError):
                del getattr(m, table)[key]
        with pytest.raises(ValueError):
            m.theta_array(d.students())[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.theta = {}
        assert json.loads(serialize(m))["theta"] == dict(m.theta)

    def test_round_trip_keeps_the_cold_start_ids(self):
        m = fit(_late_question_dataset())
        text = serialize(m)
        assert "QLATE" in m.cold_start_questions
        assert json.loads(text)["cold_start_questions"] == sorted(m.cold_start_questions)
        assert load(io.StringIO(text)) == m

    @pytest.mark.parametrize("damage", [
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "rounds"}),
        lambda text: json.dumps({**json.loads(text), "ability_mu": 0.0, "extra": 1}),
        lambda text: text.replace('"Medium"', '"Middling"', 1),
    ], ids=["cut", "no field", "extra field", "unknown level"])
    def test_a_damaged_model_is_refused(self, damage):
        damaged = damage(serialize(fit(_synthetic_dataset(40, 15, seed=2)[0])))
        with pytest.raises((ValueError, TypeError)):
            load(io.StringIO(damaged))

    def test_round_trip_of_an_unconverged_fit(self, monkeypatch):
        monkeypatch.setattr("hisekt.irt.MAX_ROUNDS", 2)
        d, _ = _planted_dataset(1)
        m = fit(d)
        m2 = load(io.StringIO(serialize(m)))
        assert (m2.converged, m2.rounds, m2.clamped_questions, m2.decrement) == (
            False, 2, m.clamped_questions, m.decrement)
