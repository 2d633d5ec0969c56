"""Chat-completion providers.

HttpProvider talks to an OpenAI-style /chat/completions endpoint; it is
the only code that imports ``requests``, and only when it runs, so every
other command starts without it. ReplayProvider replays canned responses
so loops run offline and deterministically; it also logs every request it
receives, which is what the loop tests assert prompt contents against.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Protocol

from ..documents import parse_json, read_text
from ..errors import (
    AuthError,
    MalformedResponse,
    ProviderError,
    SchemaError,
    ScriptExhausted,
)

if TYPE_CHECKING:
    import requests

ENV_API_KEY = "LUMENLOOP_API_KEY"
ENV_API_BASE = "LUMENLOOP_API_BASE"
DEFAULT_API_BASE = "https://api.openai.com/v1"
DEFAULT_MODEL = "gpt-4"

Message = dict[str, str]  # {"role": ..., "content": ...}


class Provider(Protocol):
    def complete(self, messages: list[Message]) -> str: ...


_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
_MAX_ATTEMPTS = 3
_BACKOFF_S = 1.0  # sleep before retry k (from 1) is _BACKOFF_S * 2 ** (k - 1)


class HttpProvider:
    def __init__(
        self,
        api_key: str,
        base_url: str = DEFAULT_API_BASE,
        model: str = DEFAULT_MODEL,
        temperature: float = 0.0,
        timeout: float = 60.0,
        session: requests.Session | None = None,
    ):
        if not api_key:
            raise AuthError("API key is empty")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._session.headers["Authorization"] = f"Bearer {api_key}"

    @classmethod
    def from_env(cls, **kwargs) -> "HttpProvider":
        api_key = os.environ.get(ENV_API_KEY, "")
        if not api_key:
            raise AuthError(f"{ENV_API_KEY} is not set")
        kwargs.setdefault("base_url", os.environ.get(ENV_API_BASE, DEFAULT_API_BASE))
        return cls(api_key=api_key, **kwargs)

    def complete(self, messages: list[Message]) -> str:
        import requests

        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": self.temperature,
        }
        url = f"{self.base_url}/chat/completions"
        last_error: ProviderError | None = None
        for attempt in range(_MAX_ATTEMPTS):
            if attempt:
                time.sleep(_BACKOFF_S * 2 ** (attempt - 1))
            try:
                resp = self._session.post(url, json=payload, timeout=self.timeout)
            except requests.Timeout:
                last_error = ProviderError(f"request timed out after {self.timeout}s")
                continue
            except requests.RequestException as exc:
                last_error = ProviderError(f"request failed: {exc}")
                continue
            if resp.status_code in (401, 403):
                raise AuthError(f"authentication rejected ({resp.status_code})")
            if resp.status_code in _RETRYABLE_STATUS:
                last_error = ProviderError(f"server returned {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise ProviderError(
                    f"server returned {resp.status_code}: {resp.text[:200]}"
                )
            return _extract_content(resp)
        assert last_error is not None
        raise ProviderError(
            f"giving up after {_MAX_ATTEMPTS} attempts: {last_error}"
        )


def _extract_content(resp: requests.Response) -> str:
    try:
        body = resp.json()
        content = body["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise MalformedResponse(f"unexpected response shape: {exc}") from exc
    if not isinstance(content, str):
        raise MalformedResponse("message content is not a string")
    return content


class ReplayProvider:
    """Serves scripted responses in order; the script must not run dry.

    Every request's message list is appended to ``requests`` so tests can
    assert exactly what prompts the loop sent.
    """

    def __init__(self, responses: list[str]):
        self.responses = list(responses)
        self.requests: list[list[Message]] = []

    def complete(self, messages: list[Message]) -> str:
        self.requests.append([dict(m) for m in messages])
        index = len(self.requests) - 1
        if index >= len(self.responses):
            raise ScriptExhausted(
                f"replay script exhausted after {len(self.responses)} responses"
            )
        return self.responses[index]


def load_replay_script(path: str | Path) -> ReplayProvider:
    """Read a JSONL file where each line is {"content": <response text>}."""
    responses: list[str] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        doc = parse_json(line, f"{path}:{lineno}")
        if not isinstance(doc, dict) or not isinstance(doc.get("content"), str):
            raise SchemaError(
                f"{path}:{lineno}: expected an object with a string 'content'"
            )
        responses.append(doc["content"])
    if not responses:
        raise SchemaError(f"{path}: replay script is empty")
    return ReplayProvider(responses)
