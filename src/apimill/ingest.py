"""Documentation ingestion: load pages, strip markup, filter, classify."""

from __future__ import annotations

import functools
import json
import logging
import os
import re
from dataclasses import dataclass
from html import unescape
from pathlib import Path
from typing import Callable, Iterable, Optional

from .errors import EmptyDocument, FetchFailed
from .judges import judge_with_fallback
from .netutil import MAX_BODY_BYTES, HttpPolicy, http_request, run_pool

logger = logging.getLogger(__name__)

DEFAULT_TEXT_CAP = 512 * 1024  # bytes of cleaned text kept per document
FETCH_TIMEOUT_S = 30.0

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


# html.parser's patterns (Python 3.11), copied so that the text does not
# change with the Python release.  One match reads a text run, then a start
# tag (name, attributes, and `>` or `/>` unless unfinished) or an end tag.
_TEXT_AND_TAG = re.compile(
    r"([^<]*)(?:<(?:([a-zA-Z][^\t\n\r\f />\x00]*)((?:[\s/]*(?:(?<=['\"\s/])[^\s/>][^\s/=>]*"
    r"(?:\s*=+\s*(?:'[^']*'|\"[^\"]*\"|(?!['\"])[^>\s]*)\s*)?(?:\s|/(?!>))*)*)?\s*)(/?>)?"
    r"|/\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>))?")
_TAG_NAME = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTR = re.compile(r"((?<=['\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*('[^']*'|\"[^\"]*\"|(?!['\"])[^>\s]*))?"
                   r"(?:\s|/(?!>))*")
_ONLY_SLASHES = re.compile(r"[\s/]*")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_SECTION_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_SECTION_CLOSE = {**dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"),
                                  re.compile(r"]\s*]\s*>")),
                  **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>"))}
_RAW_TEXT_CLOSE = {tag: re.compile(r"</\s*(?ai:%s)\s*>" % tag) for tag in ("script", "style")}
# where a start tag's markup stops before one of these, html.parser finds it unfinished
_UNFINISHED = frozenset("/=abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _any_case(names) -> str:
    """An alternation that matches names in any case.  Each alternative
    starts with a literal letter, lower case first, which the regex engine
    tests the most cheaply: most names fail each alternative at once."""
    def letters(s):
        return "".join(f"[{c}{c.upper()}]" if c.isalpha() else c for c in s)
    rests: dict = {}
    for name in sorted(names):
        rests.setdefault(name[0], []).append(letters(name[1:]))
    return "|".join(f"{c}(?:{'|'.join(rests[c.lower()])})"
                    for c in [*rests, *(c.upper() for c in rests)])


# A plain run, read while no skipped element and no anchor is open: text
# with no `<` or `&`, and well-formed tags whose only effect is a line break
# or nothing.  Such a tag is an end tag, a start tag other than script,
# style, noscript, template and `a`, or `<a ...>text</a>` whose attributes
# hold no "http", so that no href is kept.  Tags have no `/>`, attribute
# values no `<`, `>` or `&`, and whitespace in a tag is html.parser's
# [\t\n\r\f ]: a tag name runs on across other whitespace, such as `\x0b`.
# The run's text is the run with its block tags made newlines and its other
# tags removed.  No repeat can match a part of another's text, so the match
# takes time linear in the run's length.
_WS = r"[\t\n\r\f ]"
_NAME_END = r"[\t\n\r\f >]"
_PLAIN_NAME = r"[a-zA-Z][-.:a-zA-Z0-9_]*"
_PLAIN_ATTRS = (rf"(?:{_WS}+[-.:a-zA-Z0-9_]+(?:{_WS}*={_WS}*"
                rf"(?:\"[^\"<>&]*\"|'[^'<>&]*'|[^\s\"'<=>&/]+))?)*{_WS}*>")
_PLAIN_RUN = (
    r"(?:[^<&]+"
    rf"|</{_PLAIN_NAME}{_WS}*>"
    rf"|<(?!(?:{_any_case(_SKIPPED | {'a'})}){_NAME_END}){_PLAIN_NAME}{_PLAIN_ATTRS}"
    rf"|<[aA](?![^<>]*http){_PLAIN_ATTRS}[^<&]*</[aA]{_WS}*>)*")
_PLAIN_BLOCK = rf"</?(?:{_any_case(_BLOCK)})(?={_NAME_END})[^>]*>"


@functools.cache
def _plain_patterns() -> tuple:
    """_PLAIN_RUN, _PLAIN_BLOCK and a tag, compiled on the first page
    cleaned as HTML: a command that cleans none, such as infer, does not
    hold them."""
    return re.compile(_PLAIN_RUN), re.compile(_PLAIN_BLOCK), re.compile(r"<[^>]*>")


def dehtml(markup: str) -> str:
    """Markup to plain text: tags gone, script/style dropped, hrefs kept,
    entities unescaped once, horizontal whitespace collapsed, blank lines
    removed.  One scan, linear in the input, by html.parser's rules except
    on two kinds of broken markup.  An unfinished start tag with no `>`
    after it, or whose next `>` lies inside its quotes, is text up to where
    its markup stops; html.parser rescans that markup, in quadratic time,
    and may find a tag in it or leave a `<name` before a NUL unescaped.
    `<![` with an unknown keyword is a bogus comment; html.parser raises.

    While no skipped element and no anchor is open, the regex engine reads
    each plain run (_PLAIN_RUN: text without `<` or `&`, and well-formed
    tags that change no state, such as `<li class="x">` or `</p>`) in one
    match and turns it into text in two substitutions, or none where it holds
    no tag; the rest is read tag by tag.  The text is the same as a reading
    tag by tag gives."""
    plain_run, plain_block, plain_tag = _plain_patterns()
    parts: list = []
    anchors: list = []  # per open <a>: (href, its text runs)
    skip = 0  # open script/style/noscript/template elements
    n, last_gt = len(markup), markup.rfind(">")
    unclosed: dict = {}  # close pattern -> a position no match follows

    def data(text):
        if text and not skip:
            if anchors:
                anchors[-1][1].append(text)
            parts.append(text)

    def close_after(pattern, pos):
        """The end of pattern's first match from pos, or -1."""
        if pos < unclosed.get(pattern, n + 1):
            m = pattern.search(markup, pos)
            if m:
                return m.end()
            unclosed[pattern] = pos
        return -1

    def end(tag):
        nonlocal skip
        if tag in _SKIPPED:
            skip = max(0, skip - 1)
        elif tag in _BLOCK:
            parts.append("\n")
        elif tag == "a" and anchors and not skip:
            href, text = anchors.pop()
            # endpoint URLs often live only in the link target
            if href.startswith(("http://", "https://")) and href not in "".join(text):
                parts.append(f" {href} ")

    def start(i, tag, attrs, closing, j):
        """Open the tag read from i to j; where reading goes on."""
        nonlocal skip
        if tag in _SKIPPED:
            skip += 1
        elif tag in _BLOCK:
            parts.append("\n")
        elif tag == "a" and not skip:
            href, k = "", j
            # only an absolute href is used, and it needs "http" or an entity
            if "http" in attrs or "&" in attrs:
                k = _TAG_NAME.match(markup, i + 1).end()
            while k < j and (attr := _ATTR.match(markup, k)):
                name, rest, value = attr.groups()
                if name.lower() == "href":
                    href = rest and unescape(value[1:-1] if value[:1] in "'\"" else value)
                k = attr.end()
            anchors.append((href or "", []))
        # `<br/>` closes itself, `<a href=x/>` does not: the slash is its value's
        if closing == "/>" or markup[j - 2] == "/" and _ONLY_SLASHES.fullmatch(attrs):
            end(tag)
        elif tag in _RAW_TEXT_CLOSE:  # raw text up to its own end tag
            j = close_after(_RAW_TEXT_CLOSE[tag], j)
            if j < 0:
                return n
            end(tag)
        return j

    i = 0
    while i < n:
        if not skip and not anchors:
            run = plain_run.match(markup, i).group()
            if run:  # a run with no tag is its own text
                parts.append(plain_tag.sub("", plain_block.sub("\n", run)) if "<" in run else run)
                i += len(run)
                if i == n:
                    break
        m = _TEXT_AND_TAG.match(markup, i)
        text, tag, attrs, closing, end_tag = m.groups()
        if text:
            data(unescape(text))
            i += len(text)
        if end_tag:
            end(end_tag.lower())
            i = m.end()
        elif closing:
            i = start(i, tag.lower(), attrs, closing, m.end())
        elif tag:
            j = m.end()
            if j == n or markup[j] in _UNFINISHED:  # unfinished: text up to
                # the next `>`, or to where the markup stops if that is further
                j = max(markup.find(">", i + 1) + 1, j)
                data(unescape(markup[i:j]))
            else:
                data(markup[i:j])  # html.parser's raw `<name`, e.g. before a NUL
            i = j
        elif i == n:
            break
        elif i > last_gt:  # nothing can end any more
            data(unescape(markup[i:]))
            break
        elif markup[i + 1] == "/":
            name = _TAG_NAME.match(markup, i + 2)
            if name:
                end(name.group(1).lower())
            i = markup.find(">", i + 2) + 1
        elif markup[i + 1] in "!?":
            section = markup.startswith("<![", i) and _SECTION_NAME.match(markup, i + 3)
            if markup.startswith("<!--", i):
                k = close_after(_COMMENT_CLOSE, i + 4)
            elif section and (close := _SECTION_CLOSE.get(section.group().strip().lower())):
                k = close_after(close, i + 3)
            else:  # doctypes, `<?...>` and bogus comments
                k = markup.find(">", i + 2) + 1
            if k < 0:  # unfinished: text up to the next `>`
                k = markup.find(">", i + 1) + 1
                data(unescape(markup[i:k]))
            i = k
        else:
            data("<")
            i += 1
    return _collapse_lines("".join(parts))


# runs of horizontal whitespace that are not already one space: a run never
# spans a line break, and a lone space is left alone rather than rewritten
_HSPACE = re.compile(" [ \t\r\f\v\xa0]+|[\t\r\f\v\xa0][ \t\r\f\v\xa0]*")
# a text that holds none of these has no such run; looking for them costs a
# fraction of the pattern's search, and most cleaned pages hold none
_HSPACE_STARTS = ("  ", "\t", "\r", "\f", "\v", "\xa0")


def _collapse_lines(text: str) -> str:
    """Runs of horizontal whitespace to one space, each line stripped,
    blank lines dropped."""
    if any(start in text for start in _HSPACE_STARTS):
        text = _HSPACE.sub(" ", text)
    return "\n".join(filter(None, map(str.strip, text.split("\n"))))


# real markup, not a `<placeholder>` in plain text: a doctype, a comment, an
# end tag or the start of an element dehtml acts on
_MARKUP = re.compile(
    r"<(?:!doctype|!--|/[a-z]|(?:%s)[\s/>])"
    % "|".join(sorted(_SKIPPED | _BLOCK | {"html", "head", "body", "a", "code", "span"})),
    re.I,
)


def _looks_like_html(content: str) -> bool:
    return _MARKUP.search(content, 0, 2048) is not None


def _source_id_from_origin(origin: str) -> str:
    tail = origin.rstrip("/").rsplit("/", 1)[-1]
    tail = tail.split("?", 1)[0] or "doc"
    stem = tail.rsplit(".", 1)[0] if "." in tail else tail
    slug = re.sub(r"[^a-z0-9]+", "_", stem.lower()).strip("_")
    return slug or "doc"


def load_page(origin: str, http: HttpPolicy = HttpPolicy()) -> str:
    """A page's raw content, read from a file or fetched from a URL, at most
    MAX_BODY_BYTES of it.

    An HTTP fetch goes through `http_request` under the policy `http`.
    Every failure, an offline refusal included, raises FetchFailed.
    """
    if origin.startswith(("http://", "https://")):
        try:
            resp = http_request("GET", origin, timeout=FETCH_TIMEOUT_S, http=http)
        except Exception as exc:  # noqa: BLE001 - every fetch failure maps the same way
            raise FetchFailed(origin, str(exc)) from exc
        if resp.status_code >= 400:
            raise FetchFailed(origin, f"HTTP status {resp.status_code}")
        raw, truncated = resp.text, resp.truncated
    else:
        try:
            # text mode turns \r\n into \n, as read_text does; the read counts
            # characters (each at least one byte) and is sized by the file, as a
            # buffer of the cap's size for every page raises peak memory
            with open(origin, encoding="utf-8", errors="replace") as fh:
                raw = fh.read(min(os.fstat(fh.fileno()).st_size, MAX_BODY_BYTES) + 1)
        except OSError as exc:
            raise FetchFailed(origin, str(exc)) from exc
        truncated, raw = len(raw) > MAX_BODY_BYTES, raw[:MAX_BODY_BYTES]
    if truncated:
        logger.warning("read only the start of %s, over %d bytes", origin, MAX_BODY_BYTES)
    return raw


def clean_text(raw: str) -> str:
    """A page's plain text: `dehtml` for markup, otherwise whitespace
    collapsed."""
    return dehtml(raw) if _looks_like_html(raw) else _collapse_lines(raw)


def load_and_clean(
    origin: str, source_id: Optional[str] = None, http: HttpPolicy = HttpPolicy()
) -> ApiDocument:
    """Read a page from a file or URL and clean it to plain text, cut to
    DEFAULT_TEXT_CAP bytes of UTF-8; EmptyDocument when no text is left."""
    raw = load_page(origin, http=http)
    text = clean_text(raw)
    if not text.strip():
        raise EmptyDocument(origin)
    encoded = text.encode("utf-8")
    if len(encoded) > DEFAULT_TEXT_CAP:
        text = encoded[:DEFAULT_TEXT_CAP].decode("utf-8", errors="ignore")
        logger.warning("truncated %s to %d bytes of text", origin, DEFAULT_TEXT_CAP)
    return ApiDocument(
        source_id=source_id or _source_id_from_origin(origin), origin=origin, raw=raw, text=text
    )


def load_corpus_manifest(path) -> list:
    """Manifest format: JSON list of {source_id, origin}.

    Each source_id keys the source's rows in every artifact and may name
    files under the output directory, so it must be unique, non-empty, and
    free of `/`, `\\` and `..`.
    """
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FetchFailed(str(path), f"manifest is not JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise FetchFailed(str(path), "manifest must be a JSON list")
    out, seen = [], set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "origin" not in entry:
            raise FetchFailed(str(path), f"manifest entry {i} needs an origin")
        source_id = entry.get("source_id")
        if source_id is None:
            source_id = _source_id_from_origin(entry["origin"])
        if not isinstance(source_id, str) or re.search(r"^$|[/\\]|\.\.", source_id):
            raise FetchFailed(str(path), f"manifest entry {i} has a bad source_id {source_id!r}")
        if source_id in seen:
            raise FetchFailed(str(path), f"manifest entry {i} repeats source_id {source_id!r}")
        seen.add(source_id)
        out.append({"source_id": source_id, "origin": entry["origin"]})
    return out


def ingest_corpus(
    manifest_entries: Iterable,
    judge,
    keep: Callable,
    width: int = 4,
    http: HttpPolicy = HttpPolicy(),
):
    """Load, clean, filter and classify a corpus on `width` threads.

    Each page is read (an HTTP fetch under the policy `http`), cleaned and
    judged on a pool thread; no more than about `width` pages are held at
    once.  The calling thread hands each document to `keep`, in manifest
    order, so `keep` can append every page to one file: creating a file per
    page would cost far more, as creating a file locks its directory.  A
    document's `raw` is kept only for a fetched page, and is "" for a file,
    which is on disk already.

    Returns (decisions, failures), in manifest order: decisions carry the
    per-doc api-page verdict and classification; failures record load errors
    without aborting the run.  A judge that is unavailable degrades to its
    fallback, and the decision records that as judge_degraded.
    """

    def ingest(entry) -> tuple:
        try:
            doc = load_and_clean(entry["origin"], entry["source_id"], http=http)
        except (FetchFailed, EmptyDocument) as exc:
            return {"source_id": entry["source_id"], "error": str(exc)}, None
        is_api, failure = judge_with_fallback("is_api_page", judge, doc.text)
        (category, analysis), failure2 = judge_with_fallback("classify_doc", judge, doc.text)
        if not doc.origin.startswith(("http://", "https://")):
            doc.raw = ""
        return {
            "source_id": doc.source_id,
            "is_api_page": bool(is_api),
            "category": category,
            "analysis": analysis[:300],
            "judge_degraded": failure is not None or failure2 is not None,
        }, doc

    decisions, failures = [], []
    for row, doc in run_pool(ingest, manifest_entries, width):
        if doc is None:
            failures.append(row)
        else:
            keep(doc)
            decisions.append(row)
    return decisions, failures
