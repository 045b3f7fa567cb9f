"""Chat-completion client with an offline deterministic mock backend.

The HTTP backend posts a chat-completions-style JSON body (model name, one
user message, temperature 0) to the configured endpoint, reading the API key
from the ``HISEKT_LLM_API_KEY`` environment variable.  The mock backend
answers scoring and prediction prompts locally by parsing the prompt text and
computing the reference formulas, so CI and reruns need no network and are
byte-identical.

Scoring prompts go out in blocks (:meth:`LlmClient.complete_many`): the mock
scores a block in one array pass, about 9 us a prompt against about 250 us
alone, and ``http`` keeps up to ``max_in_flight`` of a block's requests in
flight.  Prediction prompts go to :func:`map_bounded` all at once, with
:attr:`LlmClient.in_flight` workers: an in-process transport is answered in the
calling thread, since threads would only contend for the interpreter lock.
The first failed item stops a dispatch: items not yet started are never sent.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import TransportError

logger = logging.getLogger(__name__)

API_KEY_ENV = "HISEKT_LLM_API_KEY"
DEFAULT_MAX_IN_FLIGHT = 8
BACKOFF_BASE_SECONDS = 0.5
RETRYABLE_4XX = (408, 429)  # request timeout, rate limit: the only client errors worth repeating


class MockTransport:
    """Answers prompts offline by recomputing the deterministic reference logic: scoring prompts with
    the ``formula`` backend's array pass (:meth:`many` for a block), as four numbers in braces.
    Each distinct numbered path line is read once per transport."""

    def __init__(self):
        # imported once here, not per prompt, and not at module level: llm is a dependency of
        # both prompt-owning modules
        from . import pathscore, predict

        self._pathscore, self._predict = pathscore, predict
        # each distinct scoring-prompt path line read so far, by the whole numbered line: about a
        # thousand recur across a stage's thousands of prompts; each new client starts cold
        self._path_lines: dict[str, pathscore.NumberedLine] = {}

    def __call__(self, prompt: str) -> str:
        if self._pathscore.is_scoring_prompt(prompt):
            return self.many([prompt])[0]
        if self._predict.is_prediction_prompt(prompt):
            return self._predict.mock_prediction_reply(prompt)
        raise TransportError("mock transport cannot answer this prompt")

    def many(self, prompts: Sequence[str]) -> list[str]:
        """The replies to a block of scoring prompts, scored in one array pass."""
        return self._pathscore.mock_score_replies(prompts, self._path_lines)


@dataclass
class LlmClient:
    """Configuration plus transport for one LLM backend."""

    endpoint: str = ""
    model_name: str = "mock"
    timeout: float = 30.0
    max_retries: int = 3
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT
    backend: str = "mock"
    transport: Callable[[str], str] | None = None

    def __post_init__(self):
        if self.backend not in ("http", "mock"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "mock" and self.transport is None:
            self.transport = MockTransport()

    @property
    def in_flight(self) -> int:
        """Requests to keep in flight at once: ``max_in_flight`` for ``http``, whose requests wait on
        the network; 1 (the calling thread) for an in-process transport."""
        return self.max_in_flight if self.backend == "http" else 1

    def complete(self, prompt: str) -> str:
        """Single completion round trip; retryable transport errors retry with backoff."""
        if self.backend == "mock":
            return self.transport(prompt)
        last_error: Exception | None = None
        attempts = max(self.max_retries, 1)
        for attempt in range(attempts):
            try:
                return self._http_complete(prompt)
            except TransportError as exc:
                if not exc.retryable:
                    raise
                last_error = exc
                if attempt + 1 < attempts:  # no wait after the last attempt: it would only delay the error
                    # full jitter: clients that failed together do not retry together
                    time.sleep(random.uniform(0.0, BACKOFF_BASE_SECONDS * 2**attempt))
        raise TransportError(f"llm endpoint unreachable after retries: {last_error}")

    def complete_many(self, prompts: Sequence[str]) -> list[str]:
        """The replies to ``prompts``: ``http`` through :func:`map_bounded` (:meth:`complete` each),
        a transport with a ``many`` method in one call, any other once per prompt."""
        if self.backend == "http":
            return list(map_bounded(self.complete, enumerate(prompts), self.max_in_flight).values())
        many = getattr(self.transport, "many", None)
        return many(prompts) if many is not None else [self.transport(prompt) for prompt in prompts]

    def _http_complete(self, prompt: str) -> str:
        # imported here, the only place that needs it: an offline run never loads the HTTP stack
        import urllib.error
        import urllib.request

        body = json.dumps(
            {
                "model": self.model_name,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": 0,
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        request = urllib.request.Request(self.endpoint, data=body, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            retryable = not 400 <= exc.code < 500 or exc.code in RETRYABLE_4XX
            raise TransportError(f"request to {self.endpoint} failed: {exc}", retryable) from exc
        except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as exc:
            raise TransportError(f"request to {self.endpoint} failed: {exc}") from exc
        try:
            return payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"unexpected response shape: {payload!r}") from exc


def map_bounded(
    fn: Callable,
    items: Mapping[Hashable, object] | Iterable[tuple[Hashable, object]],
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
) -> dict:
    """Apply ``fn`` to keyed items, at most ``max_in_flight`` at a time; results keyed, order-free.

    With ``max_in_flight`` 1 the items run in the calling thread.  Otherwise one
    pool serves every item; once an item raises, the items not yet started are
    dropped and the first error in item order is raised.
    """
    pairs = list(items.items()) if isinstance(items, Mapping) else list(items)
    if max_in_flight <= 1 or len(pairs) <= 1:
        return {key: fn(value) for key, value in pairs}
    failed = threading.Event()

    def guarded(value):
        if failed.is_set():  # dequeued after a failure, before the pool was cancelled: skip
            return None
        try:
            return fn(value)
        except BaseException:
            failed.set()
            raise

    pool = ThreadPoolExecutor(max_workers=max_in_flight)
    try:
        futures = {key: pool.submit(guarded, value) for key, value in pairs}
        wait(futures.values(), return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    for fut in futures.values():
        if not fut.cancelled() and fut.exception() is not None:
            raise fut.exception()
    return {key: fut.result() for key, fut in futures.items()}
