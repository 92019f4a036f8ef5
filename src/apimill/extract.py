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
        except json.JSONDecodeError:
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
            except json.JSONDecodeError:
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

    Reads the line-oriented shape documentation tends to take once cleaned:
    a title line, "## name" endpoint markers, "VERB url" lines, and
    "Required/Optional parameters" sections of "- name (type): desc" items.
    Endpoint URLs mentioned mid-prose as "VERB https://..." are picked up
    too, with query-string keys promoted to required parameters.
    """

    kind = "heuristic"

    _VERB_LINE = re.compile(
        r"^\s*(GET|POST|PUT|PATCH|DELETE|HEAD|OPTIONS)\s+(https?://\S+|/\S+)\s*$", re.I
    )
    _PROSE_VERB = re.compile(r"\b(GET|POST|PUT|PATCH|DELETE)\s+(https?://[^\s()\"']+)")
    _SECTION = re.compile(r"^\s*(required|optional)\s+parameters\s*:?\s*$", re.I)
    _ITEM = re.compile(r"^\s*[-*]\s+(\S+?)(?:\s+\(([^()]*)\))?\s*:\s*(.*)$")

    def extract(self, doc: ApiDocument) -> Tuple[str, int]:
        spec = self._parse(doc.text)
        raw = spec.to_json()
        return raw, len(raw.encode("utf-8"))

    # -- text -> spec -------------------------------------------------------

    def _parse(self, text: str) -> ApiSpec:
        lines = text.split("\n")
        title: Optional[str] = None
        endpoints: list = []
        pending_name: Optional[str] = None
        pending_desc: list = []
        current: Optional[Endpoint] = None
        section: Optional[str] = None
        seen_urls: set = set()

        for line in lines:
            stripped = line.strip()
            if not stripped:
                continue
            verb = self._VERB_LINE.match(stripped)
            if verb:
                url = verb.group(2)
                current = Endpoint(
                    name=pending_name or self._name_from_url(url, len(endpoints)),
                    method=verb.group(1).upper(),
                    url=self._strip_query(url),
                    description=" ".join(pending_desc).strip() or None,
                )
                self._promote_query_params(url, current)
                endpoints.append(current)
                seen_urls.add(self._strip_query(url))
                pending_name, pending_desc, section = None, [], None
                continue
            if stripped.startswith("## "):
                pending_name = stripped[3:].strip()
                pending_desc = []
                current, section = None, None
                continue
            sec = self._SECTION.match(stripped)
            if sec and current is not None:
                section = sec.group(1).lower()
                continue
            item = self._ITEM.match(stripped)
            if item and current is not None and section is not None:
                param = self._parse_param(item)
                target = (
                    current.required_parameters
                    if section == "required"
                    else current.optional_parameters
                )
                if all(p.name != param.name for p in current.all_parameters()):
                    target.append(param)
                continue
            if pending_name is not None:
                pending_desc.append(stripped)
                continue
            if title is None and current is None and not stripped.startswith(("-", "*")):
                title = stripped

        for verb, url in self._PROSE_VERB.findall(text):
            base = self._strip_query(url)
            if base in seen_urls:
                continue
            seen_urls.add(base)
            ep = Endpoint(
                name=self._name_from_url(base, len(endpoints)),
                method=verb.upper(),
                url=base,
            )
            self._promote_query_params(url, ep)
            endpoints.append(ep)

        return ApiSpec(endpoints=endpoints, title=title)

    @staticmethod
    def _strip_query(url: str) -> str:
        return url.split("?", 1)[0]

    @staticmethod
    def _name_from_url(url: str, index: int) -> str:
        tail = url.split("?", 1)[0].rstrip("/").rsplit("/", 1)[-1]
        tail = re.sub(r"[{}<>:]", "", tail)
        return tail.replace("_", " ").replace("-", " ").title() if tail else f"Endpoint {index + 1}"

    @staticmethod
    def _promote_query_params(url: str, endpoint: Endpoint) -> None:
        if "?" not in url:
            return
        query = url.split("?", 1)[1]
        for piece in query.split("&"):
            if not piece or "=" not in piece:
                continue
            key, value = piece.split("=", 1)
            if key and all(p.name != key for p in endpoint.all_parameters()):
                endpoint.required_parameters.append(
                    Parameter(name=key, example_value=value)
                )

    @staticmethod
    def _coerce(value: str):
        text = value.strip()
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return text

    def _parse_param(self, item: re.Match) -> Parameter:
        name, type_hint, rest = item.group(1), item.group(2), item.group(3)
        example = default = None
        if " Default: " in rest:
            rest, default_text = rest.split(" Default: ", 1)
            default = self._coerce(default_text)
        if " Example: " in rest:
            rest, example_text = rest.split(" Example: ", 1)
            example = self._coerce(example_text)
        elif rest.startswith("Example: "):
            example = self._coerce(rest[len("Example: "):])
            rest = ""
        return Parameter(
            name=name,
            type_hint=type_hint.strip() if type_hint else None,
            description=rest.strip() or None,
            example_value=example,
            default_value=default,
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
