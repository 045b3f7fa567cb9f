import urllib.error
import urllib.request

import pytest

from hisekt import llm
from hisekt.errors import TransportError
from hisekt.llm import LlmClient


def failing_endpoint(monkeypatch, code):
    """Make every HTTP request fail with ``code``; returns the (requests, sleeps) logs."""
    requests, sleeps = [], []

    def urlopen(request, timeout=None):
        requests.append(request.full_url)
        raise urllib.error.HTTPError(request.full_url, code, "scripted failure", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    monkeypatch.setattr(llm.time, "sleep", sleeps.append)
    return requests, sleeps


def http_client():
    return LlmClient(backend="http", endpoint="http://localhost:9/v1/chat", max_retries=3)


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
        with pytest.raises(TransportError, match="after retries"):
            http_client().complete("prompt")
        assert len(requests) == 3
        assert sleeps == [0.5, 1.0]  # no wait after the last attempt
