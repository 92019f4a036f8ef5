"""Chat-completion-style HTTP client used by remote backends.

One wire protocol serves extraction, judging, and value guessing:
POST {model, messages, optional response_format} → choices[0].message.content.
This is the de-facto interface of hosted and locally-served models alike, so
a fine-tuned local model is a config entry, not code.  `post_json` is the
POST of this client and of the remote embedding provider alike.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

from .errors import BackendUnreachable, TransportFailed
from .netutil import HttpPolicy, http_request

CHAT_TIMEOUT_S = 120.0


def post_json(url: str, body: dict, *, api_key_env: Optional[str], timeout: float,
              error: type, http: HttpPolicy = HttpPolicy()):
    """POST `body` to a model service; its decoded JSON reply.  The bearer
    key comes from the environment variable `api_key_env`, when set.  A
    transport failure, a status other than 200 or a reply that is not JSON
    raises `error`; offline mode's OfflineViolation propagates."""
    headers = {}
    key = os.environ.get(api_key_env) if api_key_env else None
    if key:
        headers["Authorization"] = f"Bearer {key}"
    try:
        resp = http_request("POST", url, json=body, headers=headers, timeout=timeout, http=http)
    except TransportFailed as exc:
        raise error(f"transport: {exc}") from exc
    if resp.status_code != 200:
        raise error(f"status {resp.status_code}: {resp.text[:200]}")
    try:
        return json.loads(resp.text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"malformed response: {exc}") from exc


@dataclass
class RemoteConfig:
    """A served chat or embedding model; its key is in env var `api_key_env`."""
    endpoint_url: str
    model_name: str
    api_key_env: Optional[str] = None


class ChatClient:
    def __init__(self, config: RemoteConfig, http: HttpPolicy = HttpPolicy()):
        self.config = config
        self._http = http

    def complete(self, messages: list, response_schema: Optional[dict] = None,
                 schema_name: str = "output"):
        """Run one chat completion; returns (content, total_tokens)."""
        body: dict = {"model": self.config.model_name, "messages": messages}
        if response_schema is not None:
            body["response_format"] = {
                "type": "json_schema",
                "json_schema": {"name": schema_name, "schema": response_schema},
            }
        payload = post_json(
            self.config.endpoint_url, body, api_key_env=self.config.api_key_env,
            timeout=CHAT_TIMEOUT_S, error=BackendUnreachable, http=self._http,
        )
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendUnreachable(f"malformed response: {exc}") from exc
        tokens = 0
        usage = payload.get("usage")
        if isinstance(usage, dict):
            tokens = int(usage.get("total_tokens") or 0)
        if not isinstance(content, str):
            content = json.dumps(content)
        return content, tokens
