"""Shared networking plumbing: politeness limits, offline guard, thread
pools, per-thread HTTP sessions."""

from __future__ import annotations

import ipaddress
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence
from urllib.parse import urlsplit

import requests

from .errors import OfflineViolation


class HostRateLimiter:
    """Token-bucket politeness limiter, one bucket per host.

    acquire() blocks until the host's bucket has a token; thread-safe.
    rate <= 0 disables limiting.
    """

    def __init__(self, rate_per_sec: float = 1.0, burst: int = 1):
        self.rate = rate_per_sec
        self.burst = max(1, burst)
        self._lock = threading.Lock()
        self._buckets: dict = {}  # host -> [tokens, last_refill]

    def acquire(self, host: str) -> None:
        if self.rate <= 0:
            return
        while True:
            with self._lock:
                now = time.monotonic()
                tokens, last = self._buckets.get(host, (float(self.burst), now))
                tokens = min(float(self.burst), tokens + (now - last) * self.rate)
                if tokens >= 1.0:
                    self._buckets[host] = (tokens - 1.0, now)
                    return
                self._buckets[host] = (tokens, now)
                wait = (1.0 - tokens) / self.rate
            time.sleep(min(wait, 0.2))

    def acquire_for(self, url: str) -> None:
        self.acquire(urlsplit(url).hostname or "")


def is_loopback_url(url: str) -> bool:
    host = urlsplit(url).hostname
    if not host:
        return False
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def check_url_allowed(url: str, offline: bool) -> None:
    """Raise OfflineViolation for non-loopback targets in offline mode."""
    if offline and not is_loopback_url(url):
        raise OfflineViolation(f"offline mode forbids non-loopback target: {url}")


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


class _Session(requests.Session):
    """A Session that reads the proxy and CA-bundle environment once per
    origin.  `http_request`, its only caller, passes no proxies, stream or
    cert, so the origin and `verify` decide the settings."""

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


def http_request(
    method: str, url: str, *, json=None, headers=None, timeout=None, verify=True
) -> requests.Response:
    """`requests.request` on this thread's reused session.

    The cookie jar is cleared first, so no cookie crosses calls, as with
    the fresh session `requests.request` makes; redirects and .netrc are
    requests' own.
    """
    session = getattr(_local, "session", None)
    if session is None:
        session = _local.session = _Session()
    session.cookies.clear()
    return session.request(
        method, url, json=json, headers=headers, timeout=timeout, verify=verify
    )
