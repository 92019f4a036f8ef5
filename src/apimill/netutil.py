"""Shared networking plumbing: politeness limits, thread pools, and the one
outbound HTTP path, `http_request`.

`requests` (and with it urllib3, ssl and charset_normalizer) loads on the
first request, not with this module, so a run that sends none never pays
for it.
"""

from __future__ import annotations

import ipaddress
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence
from urllib.parse import urlsplit

from .errors import OfflineViolation, TransportFailed

if TYPE_CHECKING:
    import requests

# The most bytes of a response body, or of a page file, ever read.  The
# largest legitimate body is a remote embedding batch: 128 texts of 3,072
# pretty-printed floats is about 12 MB.  Pages and model replies are far
# smaller (ingest keeps 512 KiB of cleaned text), so a hostile or runaway
# body costs at most this much memory per in-flight request.
MAX_BODY_BYTES = 16 * 1024 * 1024
_CHUNK_BYTES = 64 * 1024


class HostRateLimiter:
    """Token-bucket politeness limiter, one bucket of one token per host.

    acquire() blocks until the host's bucket has a token; thread-safe.
    rate <= 0 disables limiting.
    """

    def __init__(self, rate_per_sec: float = 1.0):
        self.rate = rate_per_sec
        self._lock = threading.Lock()
        self._buckets: dict = {}  # host -> (tokens, last_refill)

    def acquire(self, host: str) -> None:
        if self.rate <= 0:
            return
        while True:
            with self._lock:
                now = time.monotonic()
                tokens, last = self._buckets.get(host, (1.0, now))
                tokens = min(1.0, tokens + (now - last) * self.rate)
                if tokens >= 1.0:
                    self._buckets[host] = (tokens - 1.0, now)
                    return
                self._buckets[host] = (tokens, now)
                wait = (1.0 - tokens) / self.rate
            time.sleep(min(wait, 0.2))


@dataclass(frozen=True)
class HttpPolicy:
    """The rules every outbound request of a run follows: offline, refuse
    non-loopback targets; verify TLS certificates or not; wait for `limiter`'s
    token for the target host, when one is given.  Only `http_request` reads
    them; every other function passes the policy on whole."""

    offline: bool = False
    tls_verify: bool = True
    limiter: Optional[HostRateLimiter] = None


def is_loopback_url(url: str) -> bool:
    host = urlsplit(url).hostname or ""
    try:
        return host == "localhost" or ipaddress.ip_address(host).is_loopback
    except ValueError:  # a name other than localhost, or no host
        return False


def run_pool(fn: Callable, items: Sequence, width: int = 4) -> list:
    """Map fn over items on a bounded thread pool, preserving input order."""
    items = list(items)
    if not items:
        return []
    width = max(1, min(width, len(items)))
    if width == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(fn, items))


# (scheme, hostname, port, verify) -> the environment settings requests
# merges into a request to that origin; filled once per origin per process
_ENV_SETTINGS: dict = {}
_local = threading.local()
_session_class_lock = threading.Lock()


def _build_session_class() -> type:
    import requests

    class _Session(requests.Session):
        """A Session that reads the proxy and CA-bundle environment once per
        origin.  `http_request`, its only caller, passes no proxies or cert and
        always streams, so the origin and `verify` decide the settings."""

        def merge_environment_settings(self, url, proxies, stream, verify, cert):
            parts = urlsplit(url)
            key = (parts.scheme, parts.hostname, parts.port, verify)
            settings = _ENV_SETTINGS.get(key)
            if settings is None:
                # two threads may both compute it; they compute the same value
                settings = _ENV_SETTINGS.setdefault(
                    key, super().merge_environment_settings(url, proxies, stream, verify, cert)
                )
            # every thread reads the memo: each request gets a proxies dict of its own
            return {**settings, "proxies": dict(settings["proxies"])}

    return _Session


def _session_class() -> type:
    """The module's `_Session`, built by the first caller.  It is then a plain
    module global, so whatever replaces it there is what new sessions use."""
    with _session_class_lock:
        if "_Session" not in globals():
            globals()["_Session"] = _build_session_class()
        return globals()["_Session"]


def __getattr__(name: str):
    # PEP 562: `netutil._Session` before the first request builds it
    if name == "_Session":
        return _session_class()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def http_request(
    method: str, url: str, *, json=None, headers=None, timeout=None,
    http: HttpPolicy = HttpPolicy(),
) -> requests.Response:
    """Send one request under the policy `http`; every outbound request of
    apimill comes here.

    Offline, a non-loopback `url` raises OfflineViolation before any wait
    or socket.  Otherwise the request waits for the policy limiter's token
    for the URL's host, when there is a limiter, and goes out, TLS verified
    or not as the policy says, on this thread's reused session with its
    cookie jar cleared first, so no cookie crosses calls, as with the fresh
    session `requests.request` makes; redirects and .netrc are requests'
    own.  The body is read up to MAX_BODY_BYTES and the connection released
    or closed.  The response's `content`, `text` and `json()` hold what was
    read, and `truncated` says whether more was sent.  Any transport failure
    raises TransportFailed.
    """
    if http.offline and not is_loopback_url(url):
        raise OfflineViolation(f"offline mode forbids non-loopback target: {url}")
    if http.limiter is not None:
        http.limiter.acquire(urlsplit(url).hostname or "")
    import requests  # loaded by the first request; see the module docstring

    session = getattr(_local, "session", None)
    if session is None:
        session = _local.session = _session_class()()
    session.cookies.clear()
    try:
        with session.request(method, url, json=json, headers=headers, timeout=timeout,
                             verify=http.tls_verify, stream=True) as response:
            chunks, size = [], 0
            for chunk in response.iter_content(_CHUNK_BYTES):
                chunks.append(chunk)
                size += len(chunk)
                if size > MAX_BODY_BYTES:  # keep the first MAX_BODY_BYTES
                    chunks[-1] = chunk[: len(chunk) - (size - MAX_BODY_BYTES)]
                    break
    except requests.RequestException as exc:
        raise TransportFailed(str(exc) or exc.__class__.__name__) from exc
    # filled as requests fills it, so text and json() decode as they always did
    response._content = b"".join(chunks)
    response.truncated = size > MAX_BODY_BYTES
    return response
