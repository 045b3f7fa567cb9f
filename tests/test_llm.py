import io
import json
import os
import random
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import hisekt
from hisekt import llm, pathscore
from hisekt.config import RunConfig
from hisekt.errors import TransportError
from hisekt.evaluation import PipelineContext, run_experiment, run_seed_of
from hisekt.llm import LlmClient
from hisekt.synth import planted_csv

from support import scripted_client


def failing_endpoint(monkeypatch, code):
    """Make every HTTP request fail with ``code``; returns the (requests, sleeps) logs."""
    requests, sleeps = [], []

    def urlopen(request, timeout=None):
        requests.append(request.full_url)
        raise urllib.error.HTTPError(request.full_url, code, "scripted failure", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    monkeypatch.setattr(llm.time, "sleep", sleeps.append)
    return requests, sleeps


class TestHttpRetries:
    @pytest.mark.parametrize("code", [400, 401, 404])
    def test_client_error_fails_at_once(self, monkeypatch, code):
        requests, sleeps = failing_endpoint(monkeypatch, code)
        with pytest.raises(TransportError, match=str(code)) as info:
            http_client().complete("prompt")
        assert info.value.retryable is False
        assert len(requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("code", [408, 429, 503])
    def test_transient_error_is_retried_with_backoff(self, monkeypatch, code):
        requests, sleeps = failing_endpoint(monkeypatch, code)
        monkeypatch.setattr(llm.random, "uniform", lambda low, high: high)  # each wait at its cap
        with pytest.raises(TransportError, match="after retries"):
            http_client().complete("prompt")
        assert len(requests) == 3
        assert sleeps == [0.5, 1.0]  # no wait after the last attempt

    def test_backoff_waits_are_drawn_up_to_their_caps(self, monkeypatch):
        # full jitter: wait k is uniform in [0, 0.5 * 2**k], so clients that fail together
        # spread their retries
        requests, sleeps = failing_endpoint(monkeypatch, 503)
        client = LlmClient(backend="http", endpoint="http://localhost:9/v1/chat", max_retries=5)
        for _ in range(20):
            with pytest.raises(TransportError, match="after retries"):
                client.complete("prompt")
        assert len(requests) == 100 and len(sleeps) == 80
        caps = [0.5, 1.0, 2.0, 4.0] * 20
        assert all(0.0 <= wait <= cap for wait, cap in zip(sleeps, caps))
        assert len(set(sleeps)) == 80  # drawn, not fixed


class FakeHttp:
    """A chat endpoint in place of ``urllib.request.urlopen``: answers each request with
    ``answer(prompt)`` (the mock reply by default) after a random pause, logs the prompts in
    arrival order and records the peak number of requests in flight.  The first ``meet`` requests
    wait until all of them are in flight together, so a pool that keeps fewer in flight fails on
    the barrier's timeout."""

    def __init__(self, seed=0, max_pause=0.002, meet=0, answer=None):
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._barrier = threading.Barrier(meet, timeout=30) if meet > 1 else None
        self.answer = answer or llm.MockTransport()
        self.max_pause = max_pause
        self.prompts = []
        self.in_flight = 0
        self.peak = 0

    def __call__(self, request, timeout=None):
        prompt = json.loads(request.data)["messages"][0]["content"]
        with self._lock:
            order = len(self.prompts)
            self.prompts.append(prompt)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            pause = self._rng.uniform(0, self.max_pause)
        try:
            if self._barrier is not None and order < self._barrier.parties:
                self._barrier.wait()
            time.sleep(pause)
            reply = {"choices": [{"message": {"content": self.answer(prompt)}}]}
            return io.BytesIO(json.dumps(reply).encode("utf-8"))
        finally:
            with self._lock:
                self.in_flight -= 1


def echo(prompt):
    return f"echo {prompt}"


@pytest.fixture
def fake_http(monkeypatch):
    def install(**kwargs):
        endpoint = FakeHttp(**kwargs)
        monkeypatch.setattr(urllib.request, "urlopen", endpoint)
        return endpoint

    return install


@pytest.fixture
def fast_switching():
    """Switch threads as often as the interpreter allows, so races show up within a short test."""
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old_interval)


@pytest.fixture
def pools(monkeypatch):
    """Thread pools built by ``map_bounded``, counted."""
    built = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers", args[0] if args else None))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(llm, "ThreadPoolExecutor", CountingPool)
    return built


@pytest.fixture
def no_threads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an in-process transport started a thread pool")

    monkeypatch.setattr(llm, "ThreadPoolExecutor", refuse)


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    csv, _ = planted_csv(n_bands=3, students_per_band=12, questions_per_band=10, band_gap=2.0,
                         cross_rate=0.05, affinity=2.0, seed=3)
    path = tmp_path_factory.mktemp("data") / "planted.csv"
    path.write_text(csv, encoding="utf-8")
    return str(path)


def llm_cfg(planted_file, **overrides):
    base = dict(data=planted_file, seed=5, n_walks=4, walk_len=8, top_k=2, top_s=2, score_backend="llm",
                llm_endpoint="http://localhost:9/v1/chat")
    return RunConfig(**{**base, **overrides})


def stage_outputs(cfg, base=None):
    """The scored stage's arrays, by (question, template), and the full model's predictions; the
    dataset, IRT fit and graph are read from context ``base`` if given."""
    readers = {stage: lambda _, stage=stage: base.get(stage) for stage in ("dataset", "irt", "graph")} if base else None
    ctx = PipelineContext(cfg, readers)
    run_seed = run_seed_of(cfg, 0)
    scored = {(qid, name): group.scores.tolist()
              for qid, per_template in ctx.scored(run_seed).items() for name, group in per_template.items()}
    return scored, ctx.get("predictions", run_seed=run_seed)


def http_client(max_in_flight=8):
    return LlmClient(backend="http", endpoint="http://localhost:9/v1/chat", max_retries=3,
                     max_in_flight=max_in_flight)


class TestInFlight:
    def test_only_http_requests_run_on_threads(self):
        assert http_client(5).in_flight == 5
        assert LlmClient(max_in_flight=5).in_flight == 1
        assert scripted_client([], max_in_flight=5).in_flight == 1


class TestMapBounded:
    def test_results_are_keyed_whatever_the_completion_order(self, fake_http):
        prompts = {(i % 3, f"t{i}"): f"prompt {i}" for i in range(60)}
        expected = {key: echo(p) for key, p in prompts.items()}
        for max_in_flight in (1, 2, 8):
            endpoint = fake_http(seed=max_in_flight, answer=echo)
            client = http_client(max_in_flight)
            assert llm.map_bounded(client.complete, prompts, client.in_flight) == expected
            assert sorted(endpoint.prompts) == sorted(prompts.values())
            if max_in_flight == 1:
                assert endpoint.prompts == list(prompts.values())

    @pytest.mark.parametrize("max_in_flight", [2, 3, 8])
    def test_peak_concurrency_reaches_the_bound_and_never_exceeds_it(self, fake_http, fast_switching, max_in_flight):
        endpoint = fake_http(meet=max_in_flight, answer=echo)
        client = http_client(max_in_flight)
        prompts = {i: f"prompt {i}" for i in range(5 * max_in_flight)}
        assert llm.map_bounded(client.complete, prompts, client.in_flight) == {i: echo(p) for i, p in prompts.items()}
        assert len(endpoint.prompts) == len(prompts)
        assert endpoint.peak == max_in_flight

    @pytest.mark.parametrize("max_in_flight", [2, 4, 8])
    def test_first_failure_stops_the_dispatch(self, monkeypatch, fast_switching, max_in_flight):
        requests, _ = failing_endpoint(monkeypatch, 401)
        client = http_client(max_in_flight)
        with pytest.raises(TransportError, match="401"):
            llm.map_bounded(client.complete, {i: f"prompt {i}" for i in range(500)}, client.in_flight)
        assert 1 <= len(requests) <= max_in_flight  # the failed one, plus those already in flight

    def test_the_error_raised_is_an_items_own(self, fast_switching):
        # items dropped after a failure, in whatever order the workers reach them, raise nothing
        def fail_some(i):
            if i % 7 == 3:
                raise ValueError(f"item {i}")
            return i

        for _ in range(20):
            with pytest.raises(ValueError, match=r"^item \d+$"):
                llm.map_bounded(fail_some, {i: i for i in range(200)}, 8)
        with pytest.raises(ValueError, match="^item 3$"):
            llm.map_bounded(fail_some, {i: i for i in range(200)}, 1)

    @pytest.mark.parametrize("max_in_flight", [1, 2, 8])
    def test_scripted_client_plays_back_in_order(self, no_threads, max_in_flight):
        client = scripted_client([f"reply {i}" for i in range(30)], max_in_flight=max_in_flight)
        replies = llm.map_bounded(client.complete, {f"k{i}": f"prompt {i}" for i in range(30)}, client.in_flight)
        assert list(replies.items()) == [(f"k{i}", f"reply {i}") for i in range(30)]


class TestStageDispatch:
    def test_http_stages_equal_the_mock_for_any_bound(self, planted_file, fake_http):
        mock = PipelineContext(llm_cfg(planted_file))
        expected = stage_outputs(mock.cfg, mock)
        assert len(expected[0]) > 20 and expected[1]
        for max_in_flight in (1, 2, 8):
            fake_http(seed=max_in_flight, max_pause=0.0005)
            cfg = llm_cfg(planted_file, llm_backend="http", llm_max_in_flight=max_in_flight)
            assert stage_outputs(cfg, mock) == expected

    def test_each_http_block_and_prediction_stage_builds_one_pool(self, planted_file, fake_http, pools):
        endpoint = fake_http()
        ctx = PipelineContext(llm_cfg(planted_file, llm_backend="http", llm_max_in_flight=3))
        run_seed = run_seed_of(ctx.cfg, 0)
        scored = ctx.scored(run_seed)
        walks = sum(len(g) for per_template in scored.values() for g in per_template.values())
        blocks = -(-walks // pathscore.SCORE_BLOCK)
        assert pools == [3] * blocks and blocks > 1  # one pool per block of scoring prompts
        assert sum(map(len, scored.values())) > 20  # groups, each once a pool of its own
        assert len(endpoint.prompts) == walks
        ctx.get("predictions", run_seed=run_seed)
        assert pools == [3] * (blocks + 1)

    def test_mock_backend_starts_no_thread(self, planted_file, no_threads):
        report = run_experiment(llm_cfg(planted_file, llm_max_in_flight=8, variants=("msr",)))
        assert report.auc is not None


def test_an_offline_pipeline_never_imports_the_http_stack(planted_file, tmp_path):
    script = "\n".join([
        "import sys",
        "from hisekt.cli import main",
        f"code = main(['pipeline', '--data', {planted_file!r}, '--cache-dir', {str(tmp_path / 'cache')!r},",
        "             '--n-walks', '4', '--walk-len', '8', '--top-k', '2', '--top-s', '2', '--pair-sample', '200',",
        "             '--score-backend', 'llm', '--llm-backend', 'mock', '--variants', 'rsimu,irt'])",
        "print(code, sorted(name for name in ('urllib.request', 'urllib.error', 'http.client') if name in sys.modules))",
    ])
    src = str(Path(hisekt.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=300, check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "0 []"
