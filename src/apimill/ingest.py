"""Documentation ingestion: load pages, strip markup, filter, classify."""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from html.parser import HTMLParser
from pathlib import Path
from typing import Optional

import requests

from .errors import EmptyDocument, FetchFailed
from .judges import judge_with_fallback
from .netutil import check_url_allowed, run_cpu_pool, run_pool

logger = logging.getLogger(__name__)

DEFAULT_TEXT_CAP = 512 * 1024  # bytes of cleaned text kept per document

# content inside these elements never carries documentation text
_SKIPPED = {"script", "style", "noscript", "template"}
# elements that end a visual line; a newline keeps endpoint lines parseable
_BLOCK = {
    "p", "div", "section", "article", "header", "footer", "main", "aside",
    "h1", "h2", "h3", "h4", "h5", "h6", "li", "ul", "ol", "table", "tr",
    "br", "hr", "pre", "blockquote", "dt", "dd", "nav", "form", "title",
}


@dataclass
class ApiDocument:
    source_id: str
    origin: str
    raw: str
    text: str
    category: Optional[str] = None
    analysis: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "source_id": self.source_id,
            "origin": self.origin,
            "category": self.category,
            "analysis": self.analysis,
        }


class _TextExtractor(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list = []
        self._skip_depth = 0
        self._anchor_hrefs: list = []
        self._anchor_texts: list = []

    def handle_starttag(self, tag, attrs):
        if tag in _SKIPPED:
            self._skip_depth += 1
            return
        if tag == "a" and not self._skip_depth:
            href = dict(attrs).get("href") or ""
            self._anchor_hrefs.append(href)
            self._anchor_texts.append([])
        if tag in _BLOCK:
            self.parts.append("\n")

    def handle_endtag(self, tag):
        if tag in _SKIPPED:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag == "a" and self._anchor_hrefs and not self._skip_depth:
            href = self._anchor_hrefs.pop()
            text = "".join(self._anchor_texts.pop())
            # endpoint URLs often live only in the link target
            if href.startswith(("http://", "https://")) and href not in text:
                self.parts.append(f" {href} ")
        if tag in _BLOCK:
            self.parts.append("\n")

    def handle_data(self, data):
        if self._skip_depth:
            return
        if self._anchor_texts:
            self._anchor_texts[-1].append(data)
        self.parts.append(data)


def dehtml(markup: str) -> str:
    """Markup to plain text: tags gone, script/style dropped, hrefs kept,
    entities unescaped once (by the parser), horizontal whitespace
    collapsed, blank lines removed."""
    parser = _TextExtractor()
    parser.feed(markup)
    parser.close()
    return _collapse_lines("".join(parser.parts))


# horizontal whitespace only: a run never spans a line break
_HSPACE = re.compile("[ \t\r\f\v\xa0]+")


def _collapse_lines(text: str) -> str:
    """Runs of horizontal whitespace to one space, each line stripped,
    blank lines dropped."""
    lines = (line.strip() for line in _HSPACE.sub(" ", text).split("\n"))
    return "\n".join(line for line in lines if line)


def _looks_like_html(content: str) -> bool:
    head = content[:2048].lower()
    return "<html" in head or "<!doctype" in head or re.search(r"<\w+[^>]*>", head) is not None


def _source_id_from_origin(origin: str) -> str:
    tail = origin.rstrip("/").rsplit("/", 1)[-1]
    tail = tail.split("?", 1)[0] or "doc"
    stem = tail.rsplit(".", 1)[0] if "." in tail else tail
    slug = re.sub(r"[^a-z0-9]+", "_", stem.lower()).strip("_")
    return slug or "doc"


def load_page(
    origin: str,
    timeout: float = 30.0,
    tls_verify: bool = True,
    offline: bool = False,
    rate_limiter=None,
) -> str:
    """A page's raw content, read from a file or fetched from a URL.

    An HTTP fetch first waits for `rate_limiter`'s token for the origin's
    host, when one is given.  Every failure raises FetchFailed.
    """
    if origin.startswith(("http://", "https://")):
        try:
            check_url_allowed(origin, offline)
            if rate_limiter is not None:
                rate_limiter.acquire_for(origin)
            resp = requests.get(origin, timeout=timeout, verify=tls_verify)
            resp.raise_for_status()
            return resp.text
        except Exception as exc:  # noqa: BLE001 - every fetch failure maps the same way
            raise FetchFailed(origin, str(exc)) from exc
    try:
        return Path(origin).read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise FetchFailed(origin, str(exc)) from exc


def clean_text(raw: str) -> str:
    """A page's plain text: `dehtml` for markup, otherwise whitespace
    collapsed.  Pure and module-level, so worker processes can run it."""
    return dehtml(raw) if _looks_like_html(raw) else _collapse_lines(raw)


def _document(
    origin: str, source_id: Optional[str], raw: str, text: str, max_text_bytes: int
) -> ApiDocument:
    """The cleaned page as a document; EmptyDocument when no text is left,
    and the text cut to `max_text_bytes` of UTF-8."""
    if not text.strip():
        raise EmptyDocument(origin)
    encoded = text.encode("utf-8")
    if len(encoded) > max_text_bytes:
        text = encoded[:max_text_bytes].decode("utf-8", errors="ignore")
        logger.warning("truncated %s to %d bytes of text", origin, max_text_bytes)
    return ApiDocument(
        source_id=source_id or _source_id_from_origin(origin),
        origin=origin,
        raw=raw,
        text=text,
    )


def load_and_clean(
    origin: str,
    source_id: Optional[str] = None,
    timeout: float = 30.0,
    max_text_bytes: int = DEFAULT_TEXT_CAP,
    tls_verify: bool = True,
    offline: bool = False,
) -> ApiDocument:
    """Read a page from a file or URL and clean it to plain text."""
    raw = load_page(origin, timeout=timeout, tls_verify=tls_verify, offline=offline)
    return _document(origin, source_id, raw, clean_text(raw), max_text_bytes)


def filter_api_pages(doc: ApiDocument, judge) -> bool:
    """True iff the page documents callable endpoints (not an index page)."""
    return judge.is_api_page(doc.text)


def classify_document(doc: ApiDocument, judge):
    """Label documentation quality; fills doc.category / doc.analysis."""
    category, analysis = judge.classify_doc(doc.text)
    doc.category = category
    doc.analysis = analysis[:300]
    return category, doc.analysis


def load_corpus_manifest(path) -> list:
    """Manifest format: JSON list of {source_id, origin}."""
    entries = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise FetchFailed(str(path), "manifest must be a JSON list")
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "origin" not in entry:
            raise FetchFailed(str(path), f"manifest entry {i} needs an origin")
        out.append(
            {
                "source_id": entry.get("source_id") or _source_id_from_origin(entry["origin"]),
                "origin": entry["origin"],
            }
        )
    return out


def ingest_corpus(
    manifest_entries: list,
    judge,
    width: int = 4,
    tls_verify: bool = True,
    offline: bool = False,
    rate_limiter=None,
):
    """Load, clean, filter, and classify a corpus concurrently.

    Pages load on `width` threads, HTTP fetches waiting for `rate_limiter`
    when one is given.  They are cleaned on up to `width` worker processes
    (see run_cpu_pool), then judged on `width` threads.

    Returns (documents, decisions, failures): decisions carry the per-doc
    api-page verdict and classification; failures record load errors without
    aborting the run.  A judge that is unavailable degrades to its fallback,
    and the decision records that as judge_degraded.
    """

    def load(entry):
        try:
            return load_page(
                entry["origin"], tls_verify=tls_verify, offline=offline,
                rate_limiter=rate_limiter,
            )
        except FetchFailed as exc:
            return exc

    pages = run_pool(load, manifest_entries, width)
    loaded = [raw for raw in pages if isinstance(raw, str)]
    texts = iter(run_cpu_pool(clean_text, loaded, width))
    documents, failures = [], []
    for entry, raw in zip(manifest_entries, pages):
        try:
            if isinstance(raw, FetchFailed):
                raise raw
            documents.append(
                _document(entry["origin"], entry["source_id"], raw, next(texts), DEFAULT_TEXT_CAP)
            )
        except (FetchFailed, EmptyDocument) as exc:
            failures.append({"source_id": entry["source_id"], "error": str(exc)})

    def judge_doc(doc):
        is_api, failure = judge_with_fallback("is_api_page", judge, doc.text)
        (category, analysis), failure2 = judge_with_fallback("classify_doc", judge, doc.text)
        doc.category, doc.analysis = category, analysis[:300]
        return {
            "source_id": doc.source_id,
            "is_api_page": bool(is_api),
            "category": category,
            "analysis": doc.analysis,
            "judge_degraded": failure is not None or failure2 is not None,
        }

    decisions = run_pool(judge_doc, documents, width)
    return documents, decisions, failures
