"""Structured extraction from cleaned documentation text.

Backends share one contract: given a document, produce raw model-or-rule
output plus a cost figure.  extract_spec then repairs and validates that
output; per-document failures are recorded, never raised, so corpus runs
always complete.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Tuple

from .errors import BackendUnreachable, RepairFailure
from .ingest import ApiDocument
from .model import (
    EXTRACTION_JSON_SCHEMA,
    ApiSpec,
    Endpoint,
    Parameter,
    escape_lone_surrogates,
    loads_finite,
    validate_spec,
)
from .netutil import run_pool
from .prompts import EXTRACTION_INSTRUCTION
from .remote import ChatClient


@dataclass
class ExtractionResult:
    source_id: str
    raw_output: str
    spec: Optional[ApiSpec]
    violations: list = field(default_factory=list)
    backend_kind: str = ""
    token_or_byte_cost: int = 0

    @property
    def valid(self) -> bool:
        return self.spec is not None

    def to_dict(self) -> dict:
        return {
            "source_id": self.source_id,
            "raw_output": self.raw_output,
            "spec": self.spec.to_dict() if self.spec else None,
            "valid": self.valid,
            "violations": [str(v) for v in self.violations],
            "backend_kind": self.backend_kind,
            "token_or_byte_cost": self.token_or_byte_cost,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExtractionResult":
        """Inverse of to_dict; the spec is revalidated, and a result whose
        spec does not survive that is not valid."""
        spec = validate_spec(d["spec"])[0] if d.get("spec") is not None else None
        return cls(
            source_id=d["source_id"],
            raw_output=d.get("raw_output", ""),
            spec=spec,
            violations=d.get("violations", []),
            backend_kind=d.get("backend_kind", ""),
            token_or_byte_cost=int(d.get("token_or_byte_cost", 0)),
        )


# ---------------------------------------------------------------------------
# output repair

_FENCE = re.compile(r"```[a-zA-Z0-9_-]*\s*\n?(.*?)```", re.S)


def _balanced_spans(text: str):
    """Yield top-level {...} spans, honoring JSON string quoting."""
    depth = 0
    start = None
    in_string = False
    escaped = False
    for i, ch in enumerate(text):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            if depth > 0:
                in_string = True
            continue
        if ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}" and depth > 0:
            depth -= 1
            if depth == 0:
                yield text[start : i + 1], False
    if depth > 0:
        yield "", True  # unterminated object reached end of input


def repair_json(raw: str):
    """Recover a JSON object from free-form model output.

    Strips code fences, then parses the earliest balanced brace span that
    loads; truncated objects fail closed.
    """
    candidates = []
    fenced = _FENCE.search(raw)
    if fenced:
        candidates.append(fenced.group(1))
    candidates.append(raw)

    # a candidate that is one JSON object is its own earliest balanced span
    first = candidates[0].strip()
    if first.startswith("{"):
        try:
            return json.loads(first)
        except (ValueError, RecursionError):  # also over 4,300 digits, or nested too deep
            pass

    saw_unbalanced = False
    saw_object = False
    for candidate in candidates:
        for span, unbalanced in _balanced_spans(candidate):
            if unbalanced:
                saw_unbalanced = True
                continue
            saw_object = True
            try:
                return json.loads(span)
            except (ValueError, RecursionError):
                continue
    if saw_unbalanced and not saw_object:
        raise RepairFailure("unbalanced")
    if saw_object:
        raise RepairFailure("no parseable object")
    raise RepairFailure("no object found")


# ---------------------------------------------------------------------------
# backends

class ReplayBackend:
    """Byte-stable recorded outputs keyed by source_id.

    The store is either a mapping or a directory of {source_id}.json files.
    """

    kind = "replay"

    def __init__(self, store):
        self._map = dict(store) if isinstance(store, dict) else None
        self._dir = Path(store) if self._map is None else None

    def extract(self, doc: ApiDocument) -> Tuple[str, int]:
        if self._map is not None:
            if doc.source_id not in self._map:
                raise BackendUnreachable(f"no recorded output for {doc.source_id!r}")
            raw = self._map[doc.source_id]
        else:
            path = self._dir / f"{doc.source_id}.json"
            if not path.exists():
                raise BackendUnreachable(f"no recorded output for {doc.source_id!r}")
            try:
                raw = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise BackendUnreachable(
                    f"unreadable recorded output for {doc.source_id!r}: {exc}") from exc
        # a mapping can hold a lone surrogate, which strict UTF-8 cannot encode
        return raw, len(raw.encode("utf-8", errors="surrogatepass"))


class HeuristicBackend:
    """Rule-based extractor for offline runs.

    Reads the line-oriented shape documentation tends to take once cleaned.
    Each stripped, non-blank line is tried as, in this order: a "VERB url" line
    (either case), which starts an endpoint; a "## name" marker, which names
    the next one; a "Required/Optional parameters" marker, which counts only
    inside an endpoint; or a "- name (type): desc" item, which counts only
    after such a marker.  Any other line is text: after a "##" marker, the
    description of the endpoint it names; before any marker or verb line,
    the title, if it is the first such line and does not start with "-" or
    "*".  Endpoint URLs mentioned mid-prose as "VERB https://..." are picked
    up too, unless an endpoint already has the URL.  Every endpoint's URL
    loses its query, whose keys become required parameters.
    """

    kind = "heuristic"

    _LINE = re.compile(
        r"(?i:(GET|POST|PUT|PATCH|DELETE|HEAD|OPTIONS)\s+(https?://\S+|/\S+))"
        r"|## (.*)"
        r"|(?i:(required|optional)\s+parameters\s*:?)"
        r"|[-*]\s+(\S+?)(?:\s+\(([^()]*)\))?\s*:\s*(.*)"
    )
    _TEXT = (None,) * 8  # the groups of a line _LINE does not match: text
    _PROSE_VERB = re.compile(r"\b(GET|POST|PUT|PATCH|DELETE)\s+(https?://[^\s()\"']+)")
    _NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")  # JSON's, ASCII digits

    def extract(self, doc: ApiDocument) -> Tuple[str, int]:
        title = pending_name = current = section = None
        endpoints: list = []
        pending_desc: list = []
        seen_urls: set = set()

        def add(method: str, url: str, name=None, description=None) -> Endpoint:
            base, _, query = url.partition("?")
            tail = re.sub(r"[{}<>:]", "", base.rstrip("/").rsplit("/", 1)[-1])
            name = name or (tail.replace("_", " ").replace("-", " ").title() if tail
                            else f"Endpoint {len(endpoints) + 1}")
            endpoint = Endpoint(name, method.upper(), base, description)
            for key, eq, value in (piece.partition("=") for piece in query.split("&")):
                if key and eq and all(p.name != key for p in endpoint.required_parameters):
                    endpoint.required_parameters.append(Parameter(name=key, example_value=value))
            endpoints.append(endpoint)
            seen_urls.add(base)
            return endpoint

        for line in doc.text.split("\n"):
            stripped = line.strip()
            if not stripped:
                continue
            m = self._LINE.fullmatch(stripped) or self._TEXT
            if m[1]:
                current = add(m[1], m[2], pending_name, " ".join(pending_desc).strip() or None)
                pending_name, pending_desc, section = None, [], None
            elif m[3]:
                pending_name, pending_desc, current, section = m[3].strip(), [], None, None
            elif m[4] and current is not None:
                section = m[4].lower()
            elif m[5] and section is not None:  # a section is always inside an endpoint
                param = self._parse_param(*m.group(5, 6, 7))
                if all(p.name != param.name for p in current.all_parameters()):
                    (current.required_parameters if section == "required"
                     else current.optional_parameters).append(param)
            elif pending_name is not None:
                pending_desc.append(stripped)
            elif title is None and current is None and not stripped.startswith(("-", "*")):
                title = stripped

        for verb, url in self._PROSE_VERB.findall(doc.text):
            if url.partition("?")[0] not in seen_urls:
                add(verb, url)

        raw = ApiSpec(endpoints=endpoints, title=title).to_json()
        return raw, len(raw.encode("utf-8"))

    @staticmethod
    def _coerce(value: str):
        text = value.strip()
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
        if HeuristicBackend._NUMBER.fullmatch(text):
            try:
                return loads_finite(text)
            except ValueError:  # past a float's range, or past int's digit limit
                pass
        return text

    def _parse_param(self, name: str, type_hint: Optional[str], rest: str) -> Parameter:
        rest, has_default, default = rest.partition(" Default: ")
        rest, has_example, example = rest.partition(" Example: ")
        if not has_example and rest.startswith("Example: "):
            rest, has_example, example = rest.partition("Example: ")
        return Parameter(
            name=name,
            type_hint=type_hint.strip() if type_hint else None,
            description=rest.strip() or None,
            example_value=self._coerce(example) if has_example else None,
            default_value=self._coerce(default) if has_default else None,
        )


class RemoteChatBackend:
    """Chat-protocol extraction, optionally one-shot prompted."""

    kind = "remote_chat"

    def __init__(self, client: ChatClient, one_shot_example: Optional[Tuple[str, str]] = None):
        self.client = client
        self.one_shot_example = one_shot_example

    def _messages(self, doc_text: str) -> list:
        messages = [{"role": "system", "content": EXTRACTION_INSTRUCTION}]
        if self.one_shot_example:
            example_doc, example_json = self.one_shot_example
            messages.append({"role": "user", "content": example_doc})
            messages.append({"role": "assistant", "content": example_json})
        messages.append({"role": "user", "content": doc_text})
        return messages

    def extract(self, doc: ApiDocument) -> Tuple[str, int]:
        return self.client.complete(self._messages(doc.text))


class RemoteStructuredBackend(RemoteChatBackend):
    """Chat-protocol extraction constrained to the extraction schema."""

    kind = "remote_structured"

    def extract(self, doc: ApiDocument) -> Tuple[str, int]:
        return self.client.complete(
            self._messages(doc.text),
            response_schema=EXTRACTION_JSON_SCHEMA,
            schema_name="API",
        )


# ---------------------------------------------------------------------------

def extract_spec(doc: ApiDocument, backend) -> ExtractionResult:
    """Run one backend over one document; failures land in the result.  A
    lone surrogate in the output is escaped, so the result can be written as
    UTF-8, and the spec it reaches is not valid."""
    raw, cost, spec = "", 0, None
    try:
        raw, cost = backend.extract(doc)
        raw = escape_lone_surrogates(raw)
        spec, violations = validate_spec(repair_json(raw))
        # strings, as to_dict writes them, so the result survives its round trip
        violations = [str(v) for v in violations]
    except BackendUnreachable as exc:
        violations = [f"backend: {exc}"]
    except RepairFailure as exc:
        violations = [f"repair: {exc.reason}"]
    return ExtractionResult(
        source_id=doc.source_id,
        raw_output=raw,
        spec=spec,
        violations=violations,
        backend_kind=backend.kind,
        token_or_byte_cost=cost,
    )


def run_extraction(pages: Iterable, backend, keep: Callable, width: int = 4) -> int:
    """Extract a spec from each `(source_id, text)` pair of `pages` on `width`
    threads, and hand each result to `keep` in input order.  Pages are taken
    lazily, so the caller streams them from one file, not one file per page,
    which would cost more, as creating a file locks its directory; no more
    than about `width` texts are held at once.  Returns how many are valid."""

    def extract(page: tuple) -> ExtractionResult:
        source_id, text = page
        return extract_spec(ApiDocument(source_id, origin="", raw="", text=text), backend)

    valid = 0
    for result in run_pool(extract, pages, width):
        keep(result)
        valid += result.valid
    return valid
