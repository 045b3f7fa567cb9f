import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from hisekt import cli, irt, pathscore, predict
from hisekt.cli import main
from hisekt.config import RunConfig, fingerprint, load_config_file, resolve_config
from hisekt.errors import ConfigError, HisektError
from hisekt.evaluation import PipelineContext, accuracy, auc, run_experiment, run_seed_of
from hisekt.llm import LlmClient
from hisekt.mrhin import TEMPLATES
from hisekt.pathscore import select_top_k
from hisekt.predict import is_prediction_prompt
from hisekt.seeding import derive_seed
from hisekt.synth import planted_csv

from conftest import late_question_csv
from graph_fixture import walk_nodes
from support import CutPromptBundle


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "interactions.csv"
    path.write_text(small_planted_csv(seed=3), encoding="utf-8")
    return path


def kept_rows(scored, k, mode, run_seed):
    """Each question's kept rows, in the order the retained stage counts them: each one's template,
    target KC, ``(kind, id)`` nodes, scores and backend."""
    out = {}
    for qid in sorted(scored):
        out[qid] = []
        for name in TEMPLATES:
            if name in scored[qid]:
                kept = select_top_k(scored[qid][name], k, mode, seed=derive_seed(run_seed, "topk", qid, name))
                out[qid] += [(name, kept.walks.target_kc, nodes, row, kept.backend)
                             for nodes, row in zip(walk_nodes(kept.walks), kept.scores.tolist())]
    return out


def small_planted_csv(seed: int) -> str:
    csv, _ = planted_csv(
        n_bands=3, students_per_band=12, questions_per_band=10, band_gap=2.0,
        cross_rate=0.05, affinity=2.0, seed=seed,
    )
    return csv


def write_config(tmp_path, data_file):
    path = tmp_path / "run.toml"
    path.write_text(
        "\n".join(
            [
                "# tiny smoke configuration",
                f"data = {data_file}",
                f"cache_dir = {tmp_path / 'cache'}",
                f"out_dir = {tmp_path / 'out'}",
                "n_walks = 10",
                "walk_len = 12",
                "top_k = 3",
                "top_s = 2",
                "pair_sample = 1500",
                "pair_source = paths",
                "seed = 11",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def config_file(tmp_path, data_file):
    return write_config(tmp_path, data_file)


@pytest.fixture(scope="module")
def staged_cache(tmp_path_factory):
    """The flags of a CLI run on a small planted dataset, and its cache root after the stages up
    to ``retrieve``."""
    tmp = tmp_path_factory.mktemp("staged")
    data = tmp / "interactions.csv"
    data.write_text(planted_csv(n_bands=3, students_per_band=12, questions_per_band=10, seed=3)[0], encoding="utf-8")
    flags = ["--data", str(data), "--cache-dir", str(tmp / "cache")]
    for stage in ("ingest", "fit-irt", "build-hin", "sample-paths", "score-paths", "retrieve"):
        assert main([stage, *flags]) == 0
    [root] = (tmp / "cache").iterdir()
    return flags, root


@pytest.fixture
def staged(staged_cache, capsys):
    """``staged_cache``, its artifacts put back as they were after the test."""
    flags, root = staged_cache
    saved = {path: path.read_bytes() for path in root.iterdir()}
    capsys.readouterr()
    yield flags, root
    for path in root.iterdir():
        if path not in saved:
            path.unlink()
    for path, data in saved.items():
        path.write_bytes(data)


class TestConfig:
    def test_defaults_file_flags_precedence(self, config_file):
        file_values = load_config_file(config_file)
        cfg = resolve_config(file_values, {"top_k": 9})
        assert cfg.top_k == 9  # flag wins
        assert cfg.n_walks == 10  # file wins over default
        assert cfg.walk_len == 12
        assert cfg.window == 20  # untouched default

    def test_variants_parse_as_tuple(self, config_file):
        cfg = resolve_config(load_config_file(config_file), {"variants": "msr, simu"})
        assert cfg.variants == ("msr", "simu")

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("nonsense = 1\n", encoding="utf-8")
        with pytest.raises(HisektError, match="unknown config key"):
            load_config_file(bad)

    def test_missing_data_rejected(self):
        with pytest.raises(HisektError, match="data"):
            resolve_config({}, {})

    def test_fingerprint_tracks_every_field(self, config_file):
        base = resolve_config(load_config_file(config_file), {})
        changed = resolve_config(load_config_file(config_file), {"top_s": 5})
        assert fingerprint(base) != fingerprint(changed)
        assert fingerprint(base) == fingerprint(
            resolve_config(load_config_file(config_file), {})
        )

    @pytest.mark.parametrize(
        "key, value, bad",
        [
            ("score_backend", "llm2", "llm2"),
            ("llm_backend", "htp", "htp"),
            ("pair_source", "pathz", "pathz"),
            ("variants", "msr,bogus", "bogus"),
        ],
    )
    def test_bad_enumerated_value_in_file_rejected(self, config_file, key, value, bad):
        with config_file.open("a", encoding="utf-8") as f:
            f.write(f"{key} = {value}\n")
        with pytest.raises(HisektError, match=f"{key}.*'{bad}'"):
            resolve_config(load_config_file(config_file), {})

    @pytest.mark.parametrize("key", ["retrieval_mode", "path_select", "mask_simu", "mask_irt"])
    def test_removed_ablation_keys_rejected(self, config_file, key):
        with config_file.open("a", encoding="utf-8") as f:
            f.write(f"{key} = random\n")
        with pytest.raises(HisektError, match="unknown config key"):
            load_config_file(config_file)


class TestWindow:
    def test_negative_window_flag_fails_before_any_stage(self, config_file, tmp_path, capsys):
        assert main(["pipeline", "--config", str(config_file), "--window", "-1"]) == 1
        err = capsys.readouterr().err
        assert "error in stage pipeline" in err and "'window'" in err
        assert not (tmp_path / "cache").exists()

    def test_negative_window_in_a_run_config(self, data_file):
        cfg = RunConfig(data=str(data_file), window=-1)
        with pytest.raises(ConfigError, match="'window'"):
            PipelineContext(cfg)
        with pytest.raises(ConfigError, match="'window'"):
            run_experiment(cfg)

    def test_window_zero_renders_no_history(self, config_file, monkeypatch):
        texts = []
        build = predict.build_prompt

        def record(*args):
            bundle = build(*args)
            texts.append(bundle.text)
            return bundle

        monkeypatch.setattr(predict, "build_prompt", record)
        assert main(["pipeline", "--config", str(config_file), "--window", "0"]) == 0
        from_cli = len(texts)
        cfg = resolve_config(load_config_file(config_file), {"window": 0})
        run_experiment(RunConfig(**{**vars(cfg), "variants": ("irt",)}))
        assert 0 < from_cli < len(texts)
        for text in texts:
            assert "recent_interactions: 0\n=== TARGET QUESTION ===" in text
            assert "\n  - question: " not in text


# each count at 0 and below: the config is refused before the first stage runs
COUNTS = [(key, value) for key in ("n_walks", "walk_len", "top_k", "top_s", "runs", "pair_sample") for value in (0, -3)]


class TestCounts:
    @pytest.mark.parametrize("key, value", COUNTS)
    def test_a_count_flag_below_one_fails_before_any_stage(self, config_file, tmp_path, capsys, key, value):
        assert main(["pipeline", "--config", str(config_file), "--" + key.replace("_", "-"), str(value)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error in stage pipeline: config field '{key}': {value} is less than 1")
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("key, value", COUNTS)
    def test_a_count_below_one_in_a_run_config(self, data_file, key, value):
        cfg = RunConfig(data=str(data_file), **{key: value})
        with pytest.raises(ConfigError, match=f"'{key}'"):
            PipelineContext(cfg)
        with pytest.raises(ConfigError, match=f"'{key}'"):
            run_experiment(cfg)


# a scaling c that is not finite or not above 0: before the check, nan and inf failed in the
# similarity fit's eigenvalue solve with a raw LinAlgError, and 0 and -1 ran on
# constant or growing "decays"
BAD_C = ["nan", "inf", "-inf", "0", "-1"]


class TestScalingC:
    @staticmethod
    def refusal(raw):
        return f"error in stage pipeline: config field 'c': {float(raw)!r} is not a finite number above 0\n"

    @pytest.mark.parametrize("raw", BAD_C)
    def test_the_flag_fails_with_one_line_before_any_stage(self, config_file, tmp_path, capsys, raw):
        assert main(["pipeline", "--config", str(config_file), f"--scaling-c={raw}"]) == 1
        assert capsys.readouterr().err == self.refusal(raw)
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("raw", BAD_C)
    def test_a_config_file_value_fails_with_one_line(self, config_file, tmp_path, capsys, raw):
        config_file.write_text(config_file.read_text(encoding="utf-8") + f"c = {raw}\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(config_file)]) == 1
        assert capsys.readouterr().err == self.refusal(raw)
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("raw", BAD_C)
    def test_a_run_config_value_fails(self, data_file, raw):
        cfg = RunConfig(data=str(data_file), c=float(raw))
        with pytest.raises(ConfigError, match="'c'"):
            PipelineContext(cfg)
        with pytest.raises(ConfigError, match="'c'"):
            run_experiment(cfg)

    @pytest.mark.parametrize("value", [1e-300, 0.5, 2, 1e300])
    def test_finite_values_above_zero_pass(self, data_file, value):
        assert PipelineContext(RunConfig(data=str(data_file), c=value)).cfg.c == value


class TestRepeatedVariant:
    def test_a_run_config_is_refused(self, data_file):
        cfg = RunConfig(data=str(data_file), variants=("msr", "simu", "msr"))
        with pytest.raises(ConfigError, match="'variants': 'msr' is listed more than once"):
            PipelineContext(cfg)
        with pytest.raises(ConfigError, match="'variants': 'msr' is listed more than once"):
            run_experiment(cfg)

    def test_the_flag_fails_before_any_stage(self, config_file, tmp_path, capsys):
        assert main(["pipeline", "--config", str(config_file), "--variants", "msr,msr"]) == 1
        err = capsys.readouterr().err
        assert err == "error in stage pipeline: config field 'variants': 'msr' is listed more than once\n"
        assert not (tmp_path / "cache").exists()


# a RunConfig built in Python with a value of another type than its field's: before the type
# check, a string count raised a raw TypeError, a float window ran, and a string of variants was
# refused naming one of its characters
WRONG_TYPES = [("top_k", "3", "an integer"), ("c", "2", "a number"), ("window", 2.5, "an integer"),
               ("variants", "msr", "a tuple of strings"), ("runs", True, "an integer"), ("llm_timeout", False, "a number"),
               ("score_backend", None, "a string")]


class TestRunConfigTypes:
    @pytest.mark.parametrize("key, value, what", WRONG_TYPES, ids=[key for key, _, _ in WRONG_TYPES])
    def test_a_value_of_another_type_is_refused_naming_its_field(self, data_file, key, value, what):
        cfg = RunConfig(data=str(data_file), **{key: value})
        with pytest.raises(ConfigError, match=re.escape(f"config field '{key}': {value!r} is not {what}")):
            PipelineContext(cfg)

    def test_an_int_for_a_float_field_passes(self, data_file):
        assert PipelineContext(RunConfig(data=str(data_file), c=2, llm_timeout=5)).cfg.llm_timeout == 5


class TestUnparsableConfig:
    @pytest.mark.parametrize("line, message", [("top_k = three", "config key 'top_k': 'three' is not an integer"),
                                               ("runs = 2.5", "config key 'runs': '2.5' is not an integer"),
                                               ("c = abc", "config key 'c': 'abc' is not a number")])
    def test_a_file_value_names_its_line_and_key(self, config_file, tmp_path, capsys, line, message):
        line_no = len(config_file.read_text(encoding="utf-8").splitlines()) + 1
        config_file.write_text(config_file.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{config_file}:{line_no}: {message}")):
            load_config_file(config_file)
        assert main(["pipeline", "--config", str(config_file)]) == 1
        assert capsys.readouterr().err == f"error in stage pipeline: {config_file}:{line_no}: {message}\n"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("key, value", [("runs", "2.5"), ("top_k", "three"), ("c", "abc"), ("top_s", [2])])
    def test_an_override_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}': "):
            resolve_config({"data": "x", key: value})

    # before the check, a float was truncated (2.5 ran as 2) and a bool read as 0 or 1
    @pytest.mark.parametrize("key, value, what", [("runs", 2.5, "an integer"), ("top_k", True, "an integer"),
                                                  ("window", False, "an integer"), ("c", True, "a number"),
                                                  ("n_walks", math.inf, "an integer")])
    def test_an_override_that_is_not_its_number_names_its_key(self, key, value, what):
        with pytest.raises(ConfigError, match=re.escape(f"config key '{key}': {value!r} is not {what}")):
            resolve_config({"data": "x", key: value})

    def test_an_integral_float_and_an_int_override_read_as_the_field_type(self):
        cfg = resolve_config({"data": "x", "runs": 2.0, "c": 2})
        assert (cfg.runs, type(cfg.runs), cfg.c, type(cfg.c)) == (2, int, 2.0, float)

    def test_a_missing_config_file_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        with pytest.raises(HisektError, match="cannot read config file"):
            load_config_file(missing)
        assert main(["pipeline", "--config", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error in stage pipeline: cannot read config file {missing}: ") and err.count("\n") == 1


# the LLM transport bounds: counts below 1 and timeouts that are not finite numbers above 0
BAD_TRANSPORT = [("llm_max_retries", -3), ("llm_max_retries", 0), ("llm_max_in_flight", 0),
                 *(("llm_timeout", value) for value in (-1.0, 0.0, float("nan"), float("inf")))]


class TestTransportFields:
    @pytest.mark.parametrize("key, value", BAD_TRANSPORT)
    def test_a_run_config_value_is_refused(self, data_file, key, value):
        with pytest.raises(ConfigError, match=f"config field '{key}': "):
            PipelineContext(RunConfig(data=str(data_file), **{key: value}))

    @pytest.mark.parametrize("key, value", BAD_TRANSPORT)
    def test_a_file_value_fails_ingest_before_it_runs(self, config_file, tmp_path, capsys, key, value):
        config_file.write_text(config_file.read_text(encoding="utf-8") + f"{key} = {value}\n", encoding="utf-8")
        assert main(["ingest", "--config", str(config_file)]) == 1
        assert capsys.readouterr().err.startswith(f"error in stage ingest: config field '{key}': ")
        assert not (tmp_path / "cache").exists()

    def test_the_report_does_not_depend_on_the_cache_dir_or_transport(self, config_file, tmp_path, monkeypatch,
                                                                      capsys):
        """Two cache dir names and two in-flight bounds give one fingerprint and one report, byte
        for byte, and the first cache, warm, serves the second bound without an LLM request."""
        base, requests = config_file.read_text(encoding="utf-8"), []
        complete, score_llm = LlmClient.complete, pathscore.score_llm
        monkeypatch.setattr(LlmClient, "complete", lambda client, prompt: requests.append(prompt)
                            or complete(client, prompt))
        monkeypatch.setattr(pathscore, "score_llm", lambda groups, client: requests.extend(groups)
                            or score_llm(groups, client))
        reports, asked = [], []
        for run, (name, in_flight) in enumerate((("cache", 1), ("other-cache", 2), ("cache", 2))):
            config_file.write_text(f"{base}llm_max_in_flight = {in_flight}\nllm_timeout = {5.0 * in_flight}\n",
                                   encoding="utf-8")
            out = tmp_path / f"report-{run}.json"
            argv = ["pipeline", "--config", str(config_file), "--cache-dir", str(tmp_path / name), "--out", str(out)]
            assert main([*argv, "--score-backend", "llm", "--llm-backend", "mock"]) == 0
            reports.append(out.read_bytes())
            asked.append(len(requests))
            requests.clear()
        capsys.readouterr()
        assert asked[0] > 0 and asked[1] == asked[0] and asked[2] == 0
        assert reports[0] == reports[1] == reports[2]
        roots = [[p.name for p in (tmp_path / name).iterdir()] for name in ("cache", "other-cache")]
        assert roots[0] == roots[1]  # one fingerprint
        config = json.loads(reports[0])["config"]
        assert not {"cache_dir", "out_dir", "llm_timeout", "llm_max_retries", "llm_max_in_flight"} & set(config)
        assert config["top_k"] == 3


class TestCliStages:
    def test_pipeline_smoke_writes_report(self, config_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["pipeline", "--config", str(config_file), "--llm-backend", "mock", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert 0.0 <= payload["auc"] <= 1.0
        assert payload["runs"]
        # the resolved configuration is echoed into the report
        assert payload["config"]["n_walks"] == 10
        assert payload["config"]["top_k"] == 3
        stdout = capsys.readouterr().out
        assert "evaluate: report ->" in stdout

    def test_stage_without_upstream_cache_fails(self, config_file, capsys):
        code = main(["score-paths", "--config", str(config_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert "sample-paths" in err

    def test_rerun_hits_cache_and_reproduces_bytes(self, config_file, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["pipeline", "--config", str(config_file), "--out", str(out1)]) == 0
        first = capsys.readouterr().out
        assert main(["pipeline", "--config", str(config_file), "--out", str(out2)]) == 0
        second = capsys.readouterr().out
        assert second.count("cache hit") >= 7
        assert out1.read_bytes() == out2.read_bytes()

    def test_changed_config_does_not_reuse_stale_cache(self, config_file, capsys):
        assert main(["ingest", "--config", str(config_file)]) == 0
        capsys.readouterr()
        # different top_k -> different fingerprint -> upstream artifact missing
        code = main(["fit-irt", "--config", str(config_file), "--top-k", "7"])
        assert code == 1
        assert "ingest" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, config_file):
        assert main(["pipeline", "--config", str(config_file), "--frobnicate"]) == 2

    def test_unknown_variant_fails_before_any_stage(self, config_file, tmp_path, capsys):
        code = main(["pipeline", "--config", str(config_file), "--variants", "bogus"])
        assert code == 1
        assert "error in stage pipeline" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_unknown_command_is_usage_error(self):
        assert main(["explode"]) == 2

    def test_single_stages_run_in_order(self, config_file, tmp_path, capsys):
        for stage in ("ingest", "fit-irt", "build-hin", "sample-paths", "score-paths", "retrieve", "predict"):
            assert main([stage, "--config", str(config_file)]) == 0
        stdout = capsys.readouterr().out
        assert "predictions" in stdout
        cfg = resolve_config(load_config_file(config_file), {})
        cache = cli._cache_dir(cfg)
        for name in ("dataset.csv", "irt.json", "graph.json", "paths.jsonl", "scored.jsonl", "retrieval.json", "predictions.jsonl"):
            assert (cache / name).exists()

    def test_predictions_artifact_rows_are_complete(self, config_file, capsys):
        for stage in ("ingest", "fit-irt", "build-hin", "sample-paths", "score-paths", "retrieve", "predict"):
            assert main([stage, "--config", str(config_file)]) == 0
        capsys.readouterr()
        cfg = resolve_config(load_config_file(config_file), {})
        cache = cli._cache_dir(cfg)
        rows = [json.loads(line) for line in (cache / "predictions.jsonl").read_text().splitlines()]
        assert rows
        for row in rows:
            assert row["outcome"] in ("correct", "wrong")
            assert 0.0 <= row["p_correct"] <= 1.0
            assert row["label"] in (0, 1)

    def test_warm_pipeline_scores_no_walks(self, config_file, tmp_path, monkeypatch, capsys):
        calls = []
        score_llm = pathscore.score_llm

        def counting(groups, client):
            calls.append(sum(map(len, groups)))
            return score_llm(groups, client)

        monkeypatch.setattr(pathscore, "score_llm", counting)
        argv = ["pipeline", "--config", str(config_file), "--score-backend", "llm"]
        assert main([*argv, "--out", str(tmp_path / "cold.json")]) == 0
        cfg = resolve_config(load_config_file(config_file), {"score_backend": "llm"})
        walks = (cli._cache_dir(cfg) / "paths.jsonl").read_text().splitlines()
        assert calls == [len(walks)] and walks  # each walk is scored once, by score-paths
        calls.clear()
        assert main([*argv, "--out", str(tmp_path / "warm.json")]) == 0
        assert calls == []
        assert (tmp_path / "cold.json").read_bytes() == (tmp_path / "warm.json").read_bytes()

    def test_report_is_computed_from_the_predictions_next_to_it(self, config_file, tmp_path, capsys):
        assert main(["pipeline", "--config", str(config_file)]) == 0
        cfg = resolve_config(load_config_file(config_file), {})
        cache = cli._cache_dir(cfg)
        files = sorted(tmp_path.rglob("*"))
        report = (cache / "report.json").read_text(encoding="utf-8")
        assert run_experiment(cfg).to_json() == report
        assert sorted(tmp_path.rglob("*")) == files  # the library path writes nothing

        rows = [json.loads(line) for line in (cache / "predictions.jsonl").read_text().splitlines()]
        labels = [row["label"] for row in rows]
        full = [r for r in json.loads(report)["runs"] if r["run"] == 0 and r["variant"] == "full"]
        assert full == [
            {
                "run": 0,
                "variant": "full",
                "acc": accuracy(labels, [1 if row["outcome"] == "correct" else 0 for row in rows]),
                "auc": auc(labels, [row["p_correct"] for row in rows]),
                "n": len(rows),
            }
        ]

    @pytest.mark.parametrize("backend", ["formula", "llm"])
    def test_cached_scored_walks_keep_the_same_top_k(self, config_file, capsys, backend):
        for stage in ("ingest", "fit-irt", "build-hin", "sample-paths", "score-paths"):
            assert main([stage, "--config", str(config_file), "--score-backend", backend]) == 0
        capsys.readouterr()
        cfg = resolve_config(load_config_file(config_file), {"score_backend": backend})
        run_seed = run_seed_of(cfg, 0)
        seeded = cli._context(cfg, cli._cache_dir(cfg)).scored(run_seed)
        fresh = PipelineContext(cfg).scored(run_seed)
        # paths.jsonl keeps each group's row order, so the groups read from it hold the sampled
        # walks in the order sampling left them; groups without walks have no line
        for q in fresh:
            for name, group in fresh[q].items():
                cached = seeded[q].get(name)
                assert (cached.walks.walks() if cached else []) == group.walks.walks()
                assert (cached.scores.tolist() if cached else []) == group.scores.tolist()
        for mode in ("top", "lowest", "random"):
            assert kept_rows(seeded, cfg.top_k, mode, run_seed) == kept_rows(fresh, cfg.top_k, mode, run_seed)

    def test_cold_pipeline_prompts_once_and_warm_pipeline_reads_only_what_the_report_needs(
        self, config_file, tmp_path, monkeypatch, capsys
    ):
        prompts = []
        complete = LlmClient.complete
        read_scored = pathscore.read_scored
        reads = []

        def recording(client, prompt):
            prompts.append(prompt)
            return complete(client, prompt)

        monkeypatch.setattr(LlmClient, "complete", recording)
        monkeypatch.setattr(pathscore, "read_scored", lambda path, walks: reads.append(path) or read_scored(path, walks))
        argv = ["pipeline", "--config", str(config_file), "--score-backend", "llm"]
        assert main([*argv, "--out", str(tmp_path / "cold.json")]) == 0
        cfg = resolve_config(load_config_file(config_file), {"score_backend": "llm"})
        rows = (cli._cache_dir(cfg) / "predictions.jsonl").read_text().splitlines()
        asked = Counter(p for p in prompts if is_prediction_prompt(p))
        assert len(asked) == len(rows) > 0
        assert set(asked.values()) == {1}  # evaluate reuses the predict stage's predictions
        prompts.clear()
        assert main([*argv, "--out", str(tmp_path / "warm.json")]) == 0
        assert prompts == [] and reads == []
        assert (tmp_path / "cold.json").read_bytes() == (tmp_path / "warm.json").read_bytes()

    def test_rewritten_input_is_recomputed(self, tmp_path, capsys):
        data = tmp_path / "interactions.csv"
        config = write_config(tmp_path, data)
        reports, outputs = [], []
        for seed in (3, 4):
            data.write_text(small_planted_csv(seed), encoding="utf-8")  # same path, new bytes
            out = tmp_path / f"report-{seed}.json"
            assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
            outputs.append(capsys.readouterr().out)
        assert "cache hit" not in outputs[1]
        assert reports[0] != reports[1]

    def test_artifacts_of_another_walk_scheme_are_not_read(self, config_file, tmp_path, capsys):
        # caches written before the walk scheme was part of the directory name, under the sha256
        # tie keys, and with each walk written again in scored.jsonl: same config and input, any
        # artifact of which would fail its stage if it were read
        cfg = resolve_config(load_config_file(config_file), {})
        digest = hashlib.sha256(Path(cfg.data).read_bytes()).hexdigest()[:16]
        stale = [tmp_path / "cache" / f"{fingerprint(cfg)}-{digest}{suffix}"
                 for suffix in ("", "-splitmix64", f"-{irt.FIT_SCHEME}-splitmix64-mixsum")]
        for root in stale:
            root.mkdir(parents=True)
            for stage in cli.STAGES.values():
                (root / stage.artifact).write_text("written by another draw rule\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(config_file)]) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert cli._cache_dir(cfg) not in stale
        assert (cli._cache_dir(cfg) / "report.json").read_text(encoding="utf-8") == run_experiment(cfg).to_json()

    def test_artifacts_of_another_fit_scheme_are_not_read(self, config_file, tmp_path, capsys):
        # a cache written before the IRT fitting rule was part of the directory name, when the
        # model came from block alternation: any artifact of it would fail its stage if read
        cfg = resolve_config(load_config_file(config_file), {})
        digest = hashlib.sha256(Path(cfg.data).read_bytes()).hexdigest()[:16]
        stale = tmp_path / "cache" / f"{fingerprint(cfg)}-{digest}-splitmix64-mixsum"
        stale.mkdir(parents=True)
        for stage in cli.STAGES.values():
            (stale / stage.artifact).write_text("written by another fitting rule\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(config_file)]) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert cli._cache_dir(cfg) != stale
        assert (cli._cache_dir(cfg) / "report.json").read_text(encoding="utf-8") == run_experiment(cfg).to_json()

    def test_missing_input_is_an_ingest_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["ingest", "--data", str(missing), "--cache-dir", str(tmp_path / "cache")]) == 1
        assert f"cannot open {missing}" in capsys.readouterr().err

    def test_writer_stopped_partway_leaves_no_artifact(self, config_file, monkeypatch, capsys):
        for stage in ("ingest", "fit-irt", "build-hin"):
            assert main([stage, "--config", str(config_file)]) == 0
        write_walks = cli.write_walks

        def stopped(grouped, path):
            path.write_text('{"nodes": [["Q", ', encoding="utf-8")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "write_walks", stopped)
        with pytest.raises(KeyboardInterrupt):
            main(["sample-paths", "--config", str(config_file)])
        cache = cli._cache_dir(resolve_config(load_config_file(config_file), {}))
        assert sorted(p.name for p in cache.iterdir()) == ["dataset.csv", "graph.json", "irt.json"]
        monkeypatch.setattr(cli, "write_walks", write_walks)
        capsys.readouterr()
        assert main(["sample-paths", "--config", str(config_file)]) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert (cache / "paths.jsonl").read_text(encoding="utf-8").count("\n") > 0

    def test_cut_artifact_is_a_stage_failure(self, config_file, capsys):
        for stage in ("ingest", "fit-irt", "build-hin", "sample-paths"):
            assert main([stage, "--config", str(config_file)]) == 0
        paths = cli._cache_dir(resolve_config(load_config_file(config_file), {})) / "paths.jsonl"
        lines = paths.read_text(encoding="utf-8").splitlines()
        paths.write_text("\n".join(lines[:99]) + "\n" + lines[99][:40], encoding="utf-8")
        capsys.readouterr()
        assert main(["score-paths", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert f"error in stage score-paths: {paths} line 100: " in err
        assert not paths.with_name("scored.jsonl").exists()

    def test_a_walk_that_breaks_its_template_is_a_stage_failure(self, config_file, capsys):
        for stage in ("ingest", "fit-irt", "build-hin", "sample-paths"):
            assert main([stage, "--config", str(config_file)]) == 0
        paths = cli._cache_dir(resolve_config(load_config_file(config_file), {})) / "paths.jsonl"
        lines = paths.read_text(encoding="utf-8").splitlines()
        line_no = next(n for n, line in enumerate(lines, start=1) if json.loads(line)["template"] == "Q-D-Q")
        record = json.loads(lines[line_no - 1])
        record["nodes"][1] = ["K", record["target_kc"]]  # a graph node, of the wrong kind
        lines[line_no - 1] = json.dumps(record, sort_keys=True)
        paths.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["score-paths", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert (f"error in stage score-paths: {paths} line {line_no}: ValueError: node 1, "
                f"{['K', record['target_kc']]}, is of kind K, but template Q-D-Q has kind D at position 1") in err
        assert not paths.with_name("scored.jsonl").exists()

    @pytest.mark.parametrize("kc", ["NOPE", "K0_1"], ids=["no-kc", "another-questions-kc"])
    def test_a_target_kc_not_of_its_question_is_a_stage_failure(self, staged, capsys, kc):
        # Q000 covers K0_0 only: K0_1 is a KC of the graph, but Q001's
        flags, root = staged
        for name in ("scored.jsonl", "retrieval.json"):
            (root / name).unlink()
        paths = root / "paths.jsonl"
        lines = paths.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        line_no = next(n for n, rec in enumerate(records, start=1) if rec["target_q"] == "Q000")
        assert records[line_no - 1]["target_kc"] == "K0_0"
        for n, rec in enumerate(records):
            if (rec["target_q"], rec["template"]) == ("Q000", records[line_no - 1]["template"]):
                lines[n] = json.dumps({**rec, "target_kc": kc}, sort_keys=True)
        paths.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["score-paths", *flags]) == 1
        err = capsys.readouterr().err
        assert (f"error in stage score-paths: {paths} line {line_no}: ValueError: target KC {kc!r} does not belong "
                f"to question 'Q000'") in err
        assert not (root / "scored.jsonl").exists()

    @pytest.mark.parametrize("backend", ["formula", "llm"])
    def test_both_walk_files_hold_one_line_per_walk(self, config_file, capsys, backend):
        assert main(["pipeline", "--config", str(config_file), "--score-backend", backend]) == 0
        cfg = resolve_config(load_config_file(config_file), {"score_backend": backend})
        walks = sum(len(group) for per in PipelineContext(cfg).instances(run_seed_of(cfg, 0)).values()
                    for group in per.values())
        root = cli._cache_dir(cfg)
        assert walks > 0
        for name in ("paths.jsonl", "scored.jsonl"):
            assert len((root / name).read_text(encoding="utf-8").splitlines()) == walks

    @pytest.mark.parametrize("backend", ["formula", "llm"])
    def test_retrieve_on_walks_sampled_again_writes_the_same_peers(self, config_file, capsys, backend):
        flags = ["--config", str(config_file), "--score-backend", backend]
        for stage in ("ingest", "fit-irt", "build-hin", "sample-paths", "score-paths", "retrieve"):
            assert main([stage, *flags]) == 0
        root = cli._cache_dir(resolve_config(load_config_file(config_file), {"score_backend": backend}))
        intact = (root / "retrieval.json").read_bytes()
        # without paths.jsonl the walks are sampled again, in attempt order, and scored.jsonl is
        # read onto them
        (root / "retrieval.json").unlink()
        (root / "paths.jsonl").unlink()
        assert main(["retrieve", *flags]) == 0
        assert (root / "retrieval.json").read_bytes() == intact
        assert not (root / "paths.jsonl").exists()

    def test_a_scored_file_of_another_seed_is_a_stage_failure(self, config_file, capsys):
        roots = []
        for seed in ("11", "12"):
            for stage in ("ingest", "fit-irt", "build-hin", "sample-paths", "score-paths"):
                assert main([stage, "--config", str(config_file), "--seed", seed]) == 0
            roots.append(cli._cache_dir(resolve_config(load_config_file(config_file), {"seed": int(seed)})))
        own, other = ((root / "scored.jsonl").read_text(encoding="utf-8").splitlines() for root in roots)
        assert len(own) == len(other)  # the same number of walks, each line a number of other walks
        line_no = next(n for n, (a, b) in enumerate(zip(own, other), start=1)
                       if json.loads(a)["tie_key"] != json.loads(b)["tie_key"])
        scored = roots[0] / "scored.jsonl"
        scored.write_text("\n".join(other) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["retrieve", "--config", str(config_file), "--seed", "11"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error in stage retrieve: {scored} line {line_no}: ValueError: tie key "
                              f"{json.loads(other[line_no - 1])['tie_key']}, but the walk of this line has tie key ")
        assert not scored.with_name("retrieval.json").exists()

    def test_a_score_that_is_not_a_number_is_a_stage_failure(self, config_file, capsys):
        flags = ["--config", str(config_file), "--score-backend", "llm", "--llm-backend", "mock"]
        for stage in ("ingest", "fit-irt", "build-hin", "sample-paths", "score-paths"):
            assert main([stage, *flags]) == 0
        cfg = resolve_config(load_config_file(config_file), {"score_backend": "llm"})
        scored = cli._cache_dir(cfg) / "scored.jsonl"
        lines = scored.read_text(encoding="utf-8").splitlines()
        # null and true read back as NaN and 1.0 before scores were checked
        lines[0] = re.sub(r'"kc_relevance": [^,]+', '"kc_relevance": true',
                          re.sub(r'"centrality": [^,]+', '"centrality": null', lines[0]))
        scored.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["retrieve", *flags]) == 1
        err = capsys.readouterr().err
        assert f"error in stage retrieve: {scored} line 1: ValueError: centrality is null, not a number" in err
        assert not scored.with_name("retrieval.json").exists()

    @pytest.mark.parametrize("cut", ["path block", "hops_from_target", "level"])
    def test_a_scoring_prompt_the_mock_cannot_read_is_a_stage_failure(self, config_file, monkeypatch, capsys, cut):
        flags = ["--config", str(config_file), "--score-backend", "llm", "--llm-backend", "mock"]
        for stage in ("ingest", "fit-irt", "build-hin", "sample-paths"):
            assert main([stage, *flags]) == 0
        render = pathscore.render_scoring_prompt

        def garbled(walks, i):
            prompt = render(walks, i)
            if cut == "path block":
                return prompt.replace("\npath:\n", "\n")
            if cut == "level":  # a level node the formulas have no category for
                return re.sub(r"\n  1\. [^\n]*", "\n  1. A:Bogus", prompt, count=1)
            return re.sub(r" \| hops_from_target: \d+\n", "\n", prompt, count=1)

        monkeypatch.setattr(pathscore, "render_scoring_prompt", garbled)
        capsys.readouterr()
        for command in ("score-paths", "pipeline"):
            assert main([command, *flags]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error in stage score-paths: mock transport cannot read this scoring prompt: ")
            assert {"path block": "no target_kc line", "hops_from_target": "path line '  1. Q:",
                    "level": "path line '  1. A:Bogus'"}[cut] in err

    def test_a_prediction_prompt_the_mock_cannot_read_is_a_stage_failure(self, config_file, monkeypatch, capsys):
        for stage in ("ingest", "fit-irt", "build-hin", "sample-paths", "score-paths", "retrieve"):
            assert main([stage, "--config", str(config_file)]) == 0
        build = predict.build_prompt
        monkeypatch.setattr(predict, "build_prompt", lambda *args: CutPromptBundle(**vars(build(*args))))
        predictions = cli._cache_dir(resolve_config(load_config_file(config_file), {})) / "predictions.jsonl"
        capsys.readouterr()
        for command in ("predict", "pipeline"):
            assert main([command, "--config", str(config_file)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error in stage predict: mock transport cannot read this prediction prompt: ")
            assert not predictions.exists()

    def test_retrieval_without_a_target_is_a_stage_failure(self, config_file, capsys):
        for stage in ("ingest", "fit-irt", "build-hin", "sample-paths", "score-paths", "retrieve"):
            assert main([stage, "--config", str(config_file)]) == 0
        retrieval = cli._cache_dir(resolve_config(load_config_file(config_file), {})) / "retrieval.json"
        payload = json.loads(retrieval.read_text(encoding="utf-8"))
        dropped = sorted(payload["peers"])[5]
        del payload["peers"][dropped]
        retrieval.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--config", str(config_file)]) == 1
        assert f"error in stage predict: {retrieval}: no entry for test target {dropped}" in capsys.readouterr().err
        assert not retrieval.with_name("predictions.jsonl").exists()

    def test_a_graph_with_a_student_not_in_the_dataset_is_a_stage_failure(self, staged, capsys):
        flags, root = staged
        (root / "retrieval.json").unlink()
        graph = root / "graph.json"
        payload = json.loads(graph.read_text(encoding="utf-8"))
        payload["U:SX"] = {"A": ["A:Low"]}  # an isolated student with its ability level
        payload["A:Low"]["U"] = sorted(payload["A:Low"]["U"] + ["U:SX"])
        graph.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        assert main(["retrieve", *flags]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage retrieve: {graph}: SX is not a student of the dataset\n"
        assert not (root / "retrieval.json").exists()

    # each edit of graph.json gets (payload, first question, its first student, second question)
    @pytest.mark.parametrize("edit, message", [
        (lambda p, q, u, o: p[u]["Q"].remove(q), "node {q} lists {u}, which does not list it"),
        (lambda p, q, u, o: (p[q]["K"].append(u), p[u]["Q"].remove(q)),
         "node {q} lists {u} under 'K', which is no K node of the file"),
        (lambda p, q, u, o: (p[q].update(Q=[o]), p[o].update(Q=[q])),
         "node {q} lists Q neighbors, and Q-Q is no edge kind"),
        (lambda p, q, u, o: p.update({"X:1": {}}), "node X:1 is not kind:id of a node kind"),
        (lambda p, q, u, o: p[q]["U"].append("U:ZZ"), "node {q} lists U:ZZ under 'U', which is no U node of the file"),
    ], ids=["one-end-only", "student-under-K", "Q-Q-edge", "kind-X", "neighbor-not-a-node"])
    def test_an_inconsistent_graph_is_a_stage_failure(self, staged, capsys, edit, message):
        flags, root = staged
        (root / "retrieval.json").unlink()
        graph = root / "graph.json"
        payload = json.loads(graph.read_text(encoding="utf-8"))
        q, o = sorted(token for token in payload if token.startswith("Q:"))[:2]
        u = payload[q]["U"][0]
        edit(payload, q, u, o)
        graph.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        assert main(["retrieve", *flags]) == 1
        assert capsys.readouterr().err == f"error in stage retrieve: {graph}: {message.format(q=q, u=u, o=o)}\n"
        assert not (root / "retrieval.json").exists()

    @pytest.mark.parametrize("entry", [["SX"], ["S001", "SX"], "S001", None, [7]])
    def test_retrieval_with_a_peer_not_in_the_dataset_is_a_stage_failure(self, staged, capsys, entry):
        flags, root = staged
        retrieval = root / "retrieval.json"
        payload = json.loads(retrieval.read_text(encoding="utf-8"))
        target = sorted(payload["peers"])[5]
        assert "S001" in {token.split("|")[0] for token in payload["peers"]}  # a student of the dataset
        payload["peers"][target] = entry
        retrieval.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["predict", *flags]) == 1
        err = capsys.readouterr().err
        assert err == (f"error in stage predict: {retrieval}: the peers of test target {target} "
                       "are not students of the dataset\n")
        assert not (root / "predictions.jsonl").exists()

    def test_predictions_without_a_target_are_a_stage_failure(self, config_file, capsys):
        assert main(["pipeline", "--config", str(config_file)]) == 0
        predictions = cli._cache_dir(resolve_config(load_config_file(config_file), {})) / "predictions.jsonl"
        lines = predictions.read_text(encoding="utf-8").splitlines()
        dropped = json.loads(lines[9])
        predictions.write_text("\n".join(lines[:9] + lines[10:]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config_file)]) == 1
        target = f"{dropped['student']}|{dropped['question']}|{dropped['timestamp']}"
        assert f"error in stage evaluate: {predictions}: no entry for test target {target}" in capsys.readouterr().err

    def test_a_dataset_without_its_split_column_is_a_stage_failure(self, config_file, capsys):
        assert main(["ingest", "--config", str(config_file)]) == 0
        dataset = cli._cache_dir(resolve_config(load_config_file(config_file), {})) / "dataset.csv"
        rows = dataset.read_text(encoding="utf-8").splitlines()
        assert rows[0].endswith(",split")
        dataset.write_text("\n".join(row.rsplit(",", 1)[0] for row in rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["fit-irt", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error in stage fit-irt: {dataset}: ")
        assert not dataset.with_name("irt.json").exists()

    @pytest.mark.parametrize("label", ["tset", ""])
    def test_a_dataset_row_without_a_split_label_is_a_stage_failure(self, config_file, capsys, label):
        """A row relabelled ``tset`` would belong to no split, and a blank label to none either."""
        assert main(["ingest", "--config", str(config_file)]) == 0
        dataset = cli._cache_dir(resolve_config(load_config_file(config_file), {})) / "dataset.csv"
        rows = dataset.read_text(encoding="utf-8").splitlines()
        rows[5] = rows[5].rsplit(",", 1)[0] + "," + label
        dataset.write_text("\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["fit-irt", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error in stage fit-irt: {dataset}: row 6: split label must be train, val or test, "
                              f"got {label!r}")
        assert not dataset.with_name("irt.json").exists()


class TestModelArtifact:
    def test_a_cold_question_is_listed_in_the_model_and_flagged_in_its_prompts(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "cold.csv"
        data.write_text(late_question_csv("QX"), encoding="utf-8")
        prompts = []
        complete = LlmClient.complete
        monkeypatch.setattr(LlmClient, "complete", lambda client, prompt: prompts.append(prompt) or complete(client, prompt))
        assert main(["pipeline", "--data", str(data), "--cache-dir", str(tmp_path / "cache"), "--n-walks", "5",
                     "--walk-len", "8", "--top-k", "2", "--top-s", "2", "--pair-sample", "50"]) == 0
        [root] = (tmp_path / "cache").iterdir()
        assert "QX" in json.loads((root / "irt.json").read_text(encoding="utf-8"))["cold_start_questions"]
        asked = [p for p in prompts if is_prediction_prompt(p) and "\nquestion_id: QX\n" in p]
        assert len(asked) == 12
        assert all("\ndifficulty_level: Medium\ncold_start: true\n" in p for p in asked)

    @pytest.mark.parametrize("damage", ["cut", "no field", "levels as a list", "no student", "no question"])
    def test_a_damaged_model_is_a_stage_failure(self, config_file, capsys, damage):
        for stage in ("ingest", "fit-irt"):
            assert main([stage, "--config", str(config_file)]) == 0
        model = cli._cache_dir(resolve_config(load_config_file(config_file), {})) / "irt.json"
        text = model.read_text(encoding="utf-8")
        values = json.loads(text)
        missing = {"no student": sorted(values["theta"])[0], "no question": sorted(values["diff"])[0]}.get(damage)
        if damage == "cut":
            text = text[: len(text) // 2]
        else:
            for table in ("theta", "ability_level", "disc", "diff", "difficulty_level"):
                values[table].pop(missing, None)
            if damage == "no field":
                del values["rounds"]
            if damage == "levels as a list":
                values["ability_level"] = list(values["ability_level"].values())
            text = json.dumps(values)
        model.write_text(text, encoding="utf-8")
        capsys.readouterr()
        for command in ("build-hin", "pipeline"):
            assert main([command, "--config", str(config_file)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error in stage build-hin: ") and str(model) in err
            assert missing is None or f"no entry for {missing}" in err
        assert not model.with_name("graph.json").exists()


class TestGoldenArtifacts:
    # sha256 of the walk files, the peers, the predictions and the report of a tiny LLM-backend
    # pipeline on the acceptance fixture, run from relative paths so the report's echoed config
    # does not name a temporary directory.  The walk files' digests were recorded before they were
    # built from JSON fragments and the mock scorer read path lines by their kind; the peers' and
    # predictions' before the mock predictor's reader became strict: a change to a codec or to
    # what a mock reads shows here.  The report's was recorded again when its config and
    # fingerprint stopped holding the deployment fields (cache dir, out dir, LLM transport), the
    # scored walks' when their lines came to hold the scores and tie key in place of the walk, and
    # both walk files' when each group's lines came to follow its row order instead of node order.
    DIGESTS = {
        "paths.jsonl": "af9d558c213b23da3776743d3d39a8371daa31eec1d6e83c9f23b4cf94472da0",
        "scored.jsonl": "e38e1bf06f1a670eded14aef5f7642d5c3332d444ebd6786606905dad5901b9f",
        "retrieval.json": "82d1a183e294492e8020ca6a47ff9e1eaecf8abe1d9e3bddad9a6e8dd3278b2c",
        "predictions.jsonl": "807d17cdd2c04f7c728f2aeae6fc07199fedc61c6a1b5e7487bf00afe4a4cc78",
        "report.json": "5543bada3630744b995ba933b4daf8ae439aa9455a0b269daeb7abcbc2a010ef",
    }

    def test_llm_backend_artifacts_keep_their_digests(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("interactions.csv").write_text(planted_csv(seed=1)[0], encoding="utf-8")
        argv = ["pipeline", "--data", "interactions.csv", "--cache-dir", "cache", "--n-walks", "4", "--walk-len", "8",
                "--top-k", "3", "--top-s", "2", "--pair-sample", "200", "--pair-source", "paths",
                "--score-backend", "llm", "--llm-backend", "mock"]
        assert main(argv) == 0
        capsys.readouterr()
        [root] = Path("cache").iterdir()
        assert {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in self.DIGESTS} == self.DIGESTS
