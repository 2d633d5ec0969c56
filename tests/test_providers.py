"""Provider behavior: HTTP retries and auth, replay scripts."""

import json

import pytest
import requests

from lumenloop.errors import (
    AuthError,
    MalformedResponse,
    ProviderError,
    SchemaError,
    ScriptExhausted,
)
from lumenloop.loop.providers import (
    DEFAULT_API_BASE,
    ENV_API_BASE,
    ENV_API_KEY,
    HttpProvider,
    ReplayProvider,
    load_replay_script,
)

MESSAGES = [{"role": "system", "content": "hello"}]


class FakeResponse:
    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


def ok(content="fine"):
    return FakeResponse(200, {"choices": [{"message": {"content": content}}]})


class FakeSession:
    """Pops one scripted outcome per post; an exception instance is raised."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.headers = {}
        self.calls = []

    def post(self, url, json=None, timeout=None):
        self.calls.append({"url": url, "json": json, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture
def no_sleep(monkeypatch):
    sleeps = []
    monkeypatch.setattr("lumenloop.loop.providers.time.sleep", sleeps.append)
    return sleeps


def make_provider(session, **kwargs):
    kwargs.setdefault("api_key", "sk-test")
    return HttpProvider(session=session, **kwargs)


def test_success_payload_and_headers():
    session = FakeSession([ok("the reply")])
    provider = make_provider(session, model="gpt-4", temperature=0.25)
    assert provider.complete(MESSAGES) == "the reply"
    (call,) = session.calls
    assert call["url"] == f"{DEFAULT_API_BASE}/chat/completions"
    assert call["json"] == {
        "model": "gpt-4",
        "messages": MESSAGES,
        "temperature": 0.25,
    }
    assert session.headers["Authorization"] == "Bearer sk-test"


def test_base_url_trailing_slash_stripped():
    session = FakeSession([ok()])
    provider = make_provider(session, base_url="https://proxy.local/v1/")
    provider.complete(MESSAGES)
    assert session.calls[0]["url"] == "https://proxy.local/v1/chat/completions"


def test_retries_on_429_then_succeeds(no_sleep):
    session = FakeSession([FakeResponse(429), ok("second try")])
    assert make_provider(session).complete(MESSAGES) == "second try"
    assert len(session.calls) == 2
    assert no_sleep == [1.0]


def test_retry_backoff_doubles_then_gives_up(no_sleep):
    session = FakeSession([requests.Timeout(), FakeResponse(503), requests.ConnectionError()])
    # the last attempt's error is the one named
    with pytest.raises(ProviderError, match="giving up after 3 attempts: request failed"):
        make_provider(session).complete(MESSAGES)
    assert len(session.calls) == 3
    assert no_sleep == [1.0, 2.0]


def test_auth_rejection_never_retries(no_sleep):
    session = FakeSession([FakeResponse(401)])
    with pytest.raises(AuthError, match="401"):
        make_provider(session).complete(MESSAGES)
    assert len(session.calls) == 1
    assert no_sleep == []


def test_other_http_error_fails_fast(no_sleep):
    session = FakeSession([FakeResponse(400, text="bad request body")])
    with pytest.raises(ProviderError, match="400"):
        make_provider(session).complete(MESSAGES)
    assert len(session.calls) == 1


@pytest.mark.parametrize("body", [
    {"choices": []},
    {"choices": [{"message": {}}]},
    {"unexpected": True},
    {"choices": [{"message": {"content": 7}}]},
])
def test_malformed_response_shapes(body):
    session = FakeSession([FakeResponse(200, body)])
    with pytest.raises(MalformedResponse):
        make_provider(session).complete(MESSAGES)


def test_empty_api_key_rejected():
    with pytest.raises(AuthError):
        HttpProvider(api_key="")


def test_from_env_requires_key(monkeypatch):
    monkeypatch.delenv(ENV_API_KEY, raising=False)
    with pytest.raises(AuthError, match=ENV_API_KEY):
        HttpProvider.from_env()


def test_from_env_reads_key_and_base(monkeypatch):
    monkeypatch.setenv(ENV_API_KEY, "sk-env")
    monkeypatch.setenv(ENV_API_BASE, "https://alt.example/v2")
    provider = HttpProvider.from_env()
    assert provider.base_url == "https://alt.example/v2"
    assert provider._session.headers["Authorization"] == "Bearer sk-env"


def test_replay_logs_requests_and_exhausts():
    provider = ReplayProvider(["one", "two"])
    sent = [{"role": "system", "content": "s"}]
    assert provider.complete(sent) == "one"
    sent[0]["content"] = "mutated after the call"
    assert provider.requests[0][0]["content"] == "s"
    assert provider.complete(sent) == "two"
    with pytest.raises(ScriptExhausted, match="after 2 responses"):
        provider.complete(sent)
    assert len(provider.requests) == 3


def test_load_replay_script(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('{"content": "a"}\n\n{"content": "b"}\n')
    provider = load_replay_script(path)
    assert provider.responses == ["a", "b"]


@pytest.mark.parametrize("text,fragment", [
    ("{not json\n", "not valid JSON"),
    ('{"message": "no content key"}\n', "string 'content'"),
    ('{"content": 42}\n', "string 'content'"),
    ("", "empty"),
])
def test_load_replay_script_rejects(tmp_path, text, fragment):
    path = tmp_path / "script.jsonl"
    path.write_text(text)
    with pytest.raises(SchemaError, match=fragment):
        load_replay_script(path)
