"""Politeness limits, thread pools, and the one outbound HTTP path, `http_request`, over
`http.client`; it, `ssl` and `urllib.request` load on the first request, not before."""

from __future__ import annotations

import base64
import ipaddress
import json as _json
import os
import re
import string
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional
from urllib.parse import quote, unquote, urljoin, urlsplit

from .errors import OfflineViolation, TransportFailed
from .model import LONE_SURROGATE

# The most bytes of a response body, or of a page file, ever read; the largest
# legitimate body, a remote embedding batch of 128 x 3,072 floats, is about 12 MB.
MAX_BODY_BYTES = 16 * 1024 * 1024
_CHUNK_BYTES = 64 * 1024
_MAX_ORIGINS = 10  # kept-alive connections per thread, as requests' pool_connections
_UNRESERVED = {f"%{ord(c):02X}": c for c in string.ascii_letters + string.digits + "-._~"}


class HostRateLimiter:
    """Token-bucket politeness limiter, one bucket of one token per host: acquire()
    blocks until the host's bucket has a token; thread-safe.  rate <= 0 disables it."""

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
    """The rules of every outbound request of a run: offline refuses non-loopback
    targets; verify TLS or not; wait for `limiter`'s token for the host, when given."""

    offline: bool = False
    tls_verify: bool = True
    limiter: Optional[HostRateLimiter] = None


def is_loopback_url(url: str) -> bool:
    host = urlsplit(url).hostname or ""
    try:
        return host == "localhost" or ipaddress.ip_address(host).is_loopback
    except ValueError:  # a name other than localhost, or no host
        return False


def run_pool(fn: Callable, items: Iterable, width: int = 4) -> Iterator:
    """fn of each item, in input order, from `width` threads.  Items are taken
    lazily, and no more than `width` calls start ahead of the result the
    consumer reads; fn's exception is raised at its item's place.  When the
    consumer stops, calls not started are cancelled, and the threads end."""
    if width <= 1:
        yield from map(fn, items)
        return
    items = iter(items)
    pool = ThreadPoolExecutor(max_workers=width)
    try:
        pending = deque(pool.submit(fn, item) for item in islice(items, width))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(items, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class HttpResponse:
    """A status, at most MAX_BODY_BYTES of the body, and its charset."""

    status_code: int
    content: bytes
    truncated: bool = False  # the server sent more than `content` holds
    charset: Optional[str] = None

    @property
    def text(self) -> str:
        try:  # with the charset named, else UTF-8; bad bytes become U+FFFD
            text = self.content.decode(self.charset or "utf-8", errors="replace")
        except LookupError:  # no such codec, or not a text one
            return self.content.decode("utf-8", errors="replace")
        # so does a lone surrogate that a codec such as UTF-7 yields
        return text if text.isascii() else LONE_SURROGATE.sub("\ufffd", text)


def _requote(uri: str) -> str:
    """`uri` as `requests.utils.requote_uri` quotes it, with escapes in upper case."""
    if re.search(r"%(?![0-9A-Fa-f]{2})[^\W_]{2}", uri):  # not an escape: every % is literal
        return quote(uri, safe="!#$&'()*+,/:;=?@[]~")
    uri = re.sub(r"%[0-9A-Fa-f]{2}", lambda m: _UNRESERVED.get(m[0].upper(), m[0].upper()), uri)
    return quote(uri, safe="!#$%&'()*+,/:;=?@[]~")


class _Connections(dict):
    """A thread's kept-alive connections, least recently used first; closed with it."""

    def __del__(self):
        for conn in self.values():
            conn.close()


_local = threading.local()


def _proxy_for(scheme: str, hostport: str) -> Optional[str]:
    """The proxy a request to `hostport` goes through, as requests picks it, or None.
    Where the lookup reads only the environment, it is read once, and not at all
    when no variable name ends in `_proxy`, in any case: then there is no proxy."""
    import urllib.request
    from_environment = urllib.request.getproxies is urllib.request.getproxies_environment
    if from_environment and not any(name[-6:].lower() == "_proxy" for name in os.environ):
        return None
    proxies = urllib.request.getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if proxy and (urllib.request.proxy_bypass_environment(hostport, proxies) if from_environment
                  else urllib.request.proxy_bypass(hostport)):
        return None
    return proxy


def _exchange(method, url, json, headers, timeout, tls_verify) -> tuple:
    """(response, Location) of one request on this thread's connection for `url`."""
    import http.client
    import select
    import ssl
    conns, key, conn = _local.__dict__.setdefault("conns", _Connections()), None, None
    try:
        body = None if json is None else _json.dumps(json, allow_nan=False).encode("utf-8")
        hostport = urlsplit(url).netloc.rpartition("@")[2]
        if not hostport.isascii():  # a host name is sent IDNA-encoded, as requests does
            url = url.replace(hostport, hostport.encode("idna").decode("ascii"), 1)
        parts = urlsplit(_requote(url))
        hostport = parts.netloc.rpartition("@")[2].lower()
        proxy = _proxy_for(parts.scheme, hostport)
        cafile = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("SSL_CERT_FILE")
        key = (parts.scheme, hostport, proxy, tls_verify, cafile if tls_verify else None)
        conn = conns.pop(key, None)  # put back last, as the most recently used
        if conn is None:
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ValueError(f"not an http(s) URL: {url}")
            via = urlsplit(proxy if "://" in proxy else f"http://{proxy}") if proxy else parts
            if proxy and via.scheme != "http":
                raise ValueError(f"only http:// proxies are supported: {proxy}")
            if parts.scheme == "http":
                conn = http.client.HTTPConnection(via.hostname, via.port)
            else:
                context = ssl.create_default_context(cafile=key[-1])
                if not tls_verify:
                    context.check_hostname, context.verify_mode = False, ssl.CERT_NONE
                port = via.port or (80 if proxy else 443)
                conn = http.client.HTTPSConnection(via.hostname, port, context=context)
                if proxy:
                    conn.set_tunnel(parts.hostname, parts.port)
        elif conn.sock is not None:
            idle = select.poll()  # poll, unlike select, takes any descriptor number
            idle.register(conn.sock, select.POLLIN)
            if idle.poll(0):
                conn.close()  # the server closed it while idle; the request reopens it
        if len(conns) >= _MAX_ORIGINS:
            conns.pop(next(iter(conns))).close()
        conns[key] = conn
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if proxy and parts.scheme == "http":  # absolute form, for the proxy
            target = f"http://{hostport}{target}"
        conn.putrequest(method, target, skip_host="host" in map(str.lower, headers),
                        skip_accept_encoding=True)
        for name, value in headers.items():
            conn.putheader(name, value)
        if body is not None or method not in ("GET", "HEAD"):
            conn.putheader("Content-Length", str(len(body or b"")))
        conn.endheaders(body)
        with conn.getresponse() as response:
            content = bytearray()
            while len(content) <= MAX_BODY_BYTES and (chunk := response.read(_CHUNK_BYTES)):
                content += chunk
            if (truncated := len(content) > MAX_BODY_BYTES) or response.will_close:
                conns.pop(key).close()
    except (OSError, http.client.HTTPException, ValueError) as exc:
        if conn is not None:
            conns.pop(key, conn).close()
        raise TransportFailed(str(exc) or exc.__class__.__name__) from exc
    content = bytes(memoryview(content)[:MAX_BODY_BYTES])
    charset, location = response.headers.get_content_charset(), response.headers.get("Location")
    return HttpResponse(response.status, content, truncated, charset), location


def http_request(method: str, url: str, *, json=None, headers=None, timeout=None,
                 http: HttpPolicy = HttpPolicy()) -> HttpResponse:
    """Send one request, as every outbound one of apimill, under the policy `http` on each
    hop; redirects follow requests' rules; every failure raises TransportFailed."""
    headers, parts = dict(headers or {}), urlsplit(url)
    given = {name.lower() for name in headers}
    if "user-agent" not in given:
        headers["User-Agent"] = "apimill"
    if json is not None and "content-type" not in given:
        headers["Content-Type"] = "application/json"
    if parts.password is not None and (parts.username or parts.password):  # as requests
        pair = f"{unquote(parts.username)}:{unquote(parts.password)}".encode("latin-1", "replace")
        headers["Authorization"] = "Basic " + base64.b64encode(pair).decode("ascii")
    for _ in range(31):  # the request and at most 30 redirects, as requests
        if http.offline and not is_loopback_url(url):
            raise OfflineViolation(f"offline mode forbids non-loopback target: {url}")
        if http.limiter is not None:
            http.limiter.acquire(urlsplit(url).hostname or "")
        response, location = _exchange(method, url, json, headers, timeout, http.tls_verify)
        if location is None or response.status_code not in (301, 302, 303, 307, 308):
            return response
        status, old, new = response.status_code, urlsplit(url), urlsplit(urljoin(url, location))
        if status in (302, 303) and method != "HEAD" or status == 301 and method == "POST":
            method = "GET"
        dropped = {"cookie"}
        if status not in (307, 308):  # only these two resend the body
            json, dropped = None, {"cookie", "content-length", "content-type", "transfer-encoding"}
        if old.netloc != new.netloc or (old.scheme, new.scheme) == ("https", "http"):
            dropped.add("authorization")
        headers = {name: value for name, value in headers.items() if name.lower() not in dropped}
        url = new.geturl()
    raise TransportFailed(f"exceeded 30 redirects: {url}")
