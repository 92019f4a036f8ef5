"""Missing-parameter inference over a knowledge base of verified values.

Verified (key, description, value) triples come from passing tools and the
scalar leaves of their JSON responses.  Retrieval runs two embedding
channels (description and key), candidates are ranked, and k-best value
combinations are validated in the loop until one passes.
"""

from __future__ import annotations

import copy
import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .embedding import distinct_texts
from .errors import (
    BackendUnreachable,
    DimensionMismatch,
    Exhausted,
    InsufficientCorpus,
    NoCandidates,
)
from .model import Scalar
from .netutil import HttpPolicy
from .prompts import PARAMETER_GUESS_PROMPT, PARAMETER_LIST_SCHEMA
from .toolgen import ToolDescriptor
from .validate import ErrorType, default_args, validate_tool

TOP_PER_CHANNEL = 5
MAX_CANDIDATES = 10
SIMILARITY_FLOOR = 0.5
SIMILARITY_DECIMALS = 12
TAIL_ROWS = 16
MAX_COMBINATIONS = 20
GUESS_ROUNDS = 10

RESPONSE_HARVEST_DEPTH = 3
RESPONSE_HARVEST_KEY_LEN = 40
RESPONSE_HARVEST_CAP = 50


@dataclass
class ParameterKbEntry:
    param_key: str
    value: Scalar
    source_id: str
    description: Optional[str] = None
    key_embedding: Optional[np.ndarray] = None
    description_embedding: Optional[np.ndarray] = None
    provenance: str = "documentation"  # or "response_json"

    def to_dict(self, encoded: tuple = (None, None)) -> dict:
        """The KB row.  `encoded` may hold the key and the description
        embedding already encoded as JSON text, to be written as they are."""
        return {
            "param_key": self.param_key,
            "value": self.value,
            "source_id": self.source_id,
            "description": self.description,
            "key_embedding": _embedding_field(self.key_embedding, encoded[0]),
            "description_embedding": _embedding_field(self.description_embedding, encoded[1]),
            "provenance": self.provenance,
        }


class _Json(str):
    """Text already encoded as JSON."""


def _embedding_field(vec, text: Optional[str] = None):
    if vec is None:
        return None
    return list(map(float, vec)) if text is None else _Json(text)


# one encoder for every field: json.dumps(ensure_ascii=False) builds one per call
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _json_line(fields: dict) -> str:
    """`json.dumps(fields, ensure_ascii=False)` for a flat dict, with its
    _Json values spliced in as they are."""
    return "{" + ", ".join(
        f"{_encode(k)}: {v if isinstance(v, _Json) else _encode(v)}" for k, v in fields.items()
    ) + "}"


def _identity(entry: ParameterKbEntry) -> tuple:
    return (entry.param_key, str(entry.value), entry.source_id)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # einsum sums row by row, without the n x d temporary of rows * rows
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


@dataclass
class _Block:
    """Stacked embedding rows of one channel, with their norms, and the KB
    entries they embed: member j is entry `index[j]`, embedded by row
    `row[j]`.  Only the first `size` members are filled."""

    rows: np.ndarray  # (r, d) float64
    norms: np.ndarray
    index: np.ndarray
    row: np.ndarray
    size: int

    @classmethod
    def of(cls, rows, index, row) -> "_Block":
        rows = np.asarray(rows, dtype=np.float64)
        return cls(rows, _row_norms(rows), index, row, len(index))

    @classmethod
    def empty(cls, capacity: int, dim: int) -> "_Block":
        """A block that `push` fills one member and one row at a time."""
        return cls(np.zeros((capacity, dim)), np.zeros(capacity),
                   np.zeros(capacity, dtype=np.intp), np.arange(capacity, dtype=np.intp), 0)

    def push(self, vec: np.ndarray, entry_index: int) -> np.ndarray:
        """Write the next member's row; return the view of it."""
        i = self.size
        self.rows[i] = vec
        self.norms[i : i + 1] = _row_norms(self.rows[i : i + 1])
        self.index[i] = entry_index
        self.size += 1
        return self.rows[i]


class KnowledgeBase:
    """Append-only store of verified parameter values, deduplicated on
    (param_key, value, source_id).

    The KB owns its embeddings.  Each channel ("key", "description") is a
    list of stacked row blocks, and every entry's `key_embedding` and
    `description_embedding` are row views into those blocks, never copies.
    `extend` embeds each distinct text once, so entries that share a key or
    a description share its row.  `add` writes its entry's vectors into a
    tail block whose capacity doubles from TAIL_ROWS, so entries added one
    at a time cost a few blocks, not one block each.
    """

    def __init__(self):
        self.entries: list = []
        self._seen: set = set()
        self._source_ids: list = []  # parallel to entries
        self._blocks: dict = {"key": [], "description": []}
        self._tails: dict = {}  # channel -> the block `add` writes into

    def __len__(self) -> int:
        return len(self.entries)

    def _append(self, entries: list) -> int:
        """Hold the entries; return the KB index of the first."""
        start = len(self.entries)
        for entry in entries:
            self._seen.add(_identity(entry))
            self.entries.append(entry)
            self._source_ids.append(entry.source_id)
        return start

    def add(self, entry: ParameterKbEntry) -> bool:
        """Add one entry with the embeddings it carries."""
        if _identity(entry) in self._seen:
            return False
        index = self._append([entry])
        for channel in self._blocks:
            attr = f"{channel}_embedding"
            vec = getattr(entry, attr)
            if vec is None:
                continue
            vec = np.asarray(vec, dtype=np.float64).ravel()
            tail = self._tails.get(channel)
            if tail is None or tail.size == len(tail.index) or tail.rows.shape[1] != len(vec):
                capacity = TAIL_ROWS if tail is None else 2 * len(tail.index)
                tail = self._tails[channel] = _Block.empty(capacity, len(vec))
                self._blocks[channel].append(tail)
            setattr(entry, attr, tail.push(vec, index))
        return True

    def extend(self, entries: list, emb) -> None:
        """Add the entries not yet held, first occurrence first, embedding
        their keys and descriptions with `emb`; one block per channel."""
        fresh: dict = {}
        for entry in entries:
            identity = _identity(entry)
            if identity not in self._seen:
                fresh.setdefault(identity, entry)
        entries = list(fresh.values())
        if not entries:
            return
        described = [j for j, e in enumerate(entries) if e.description]
        channels = [("key", range(len(entries)), [e.param_key for e in entries])]
        if described:
            channels.append(
                ("description", described, [entries[j].description for j in described])
            )
        # embed everything before the KB changes, so a failure leaves it whole
        embedded = []
        for channel, members, texts in channels:
            distinct, row = distinct_texts(texts)
            embedded.append((channel, members, emb.embed(distinct), row))
        first = self._append(entries)
        for entry in entries:
            if not entry.description:
                # no block holds a vector for it, so `nearest` could never see one
                entry.description_embedding = None
        for channel, members, rows, row in embedded:
            index = first + np.asarray(members, dtype=np.intp)
            block = _Block.of(rows, index, row)
            self._blocks[channel].append(block)
            for j, r in zip(members, row.tolist()):
                setattr(entries[j], f"{channel}_embedding", block.rows[r])

    def nearest(self, channel: str, query, k: int, include=None) -> tuple:
        """The k entries of `channel` closest to `query` by cosine
        similarity, as (similarities, entry indices), best first.

        Similarities are rounded to SIMILARITY_DECIMALS places before
        ranking, so that ties go to the earlier entry however the products
        were summed.  A zero vector has similarity 0.0.  `include` is a
        boolean mask over entries; blocks it leaves empty are skipped.
        """
        q = np.asarray(query, dtype=np.float64).ravel()
        q_norm = np.linalg.norm(q)
        sims, indices = [], []
        for block in self._blocks[channel]:
            index = block.index[: block.size]
            if include is not None and not include[index].any():
                continue
            if block.rows.shape[1] != q.shape[0]:
                raise DimensionMismatch(got=block.rows.shape[1], expected=q.shape[0])
            denom = block.norms * q_norm
            row_sims = np.divide(block.rows @ q, denom, out=np.zeros_like(denom), where=denom > 0)
            sims.append(np.round(row_sims, SIMILARITY_DECIMALS)[block.row[: block.size]])
            indices.append(index)
        if not sims:
            return np.empty(0), np.empty(0, dtype=np.intp)
        sims, index = np.concatenate(sims), np.concatenate(indices)
        if include is not None:
            keep = include[index]
            sims, index = sims[keep], index[keep]
        if len(sims) > k:
            kth = np.partition(sims, len(sims) - k)[len(sims) - k]
            keep = sims >= kth  # ties at the kth value are settled by lexsort
            sims, index = sims[keep], index[keep]
        order = np.lexsort((index, -sims))[:k]
        return sims[order], index[order]

    def source_mask(self, exclude_source: Optional[str]):
        """Boolean mask of the entries not from `exclude_source`, or None
        when nothing is excluded."""
        if exclude_source is None:
            return None
        return np.fromiter(
            (s != exclude_source for s in self._source_ids),
            dtype=bool, count=len(self._source_ids),
        )

    def _embedding_texts(self, channel: str) -> list:
        """Per entry, the JSON text of its `channel` row, None where no block
        holds one; each row is encoded once, however many entries share it."""
        texts = [None] * len(self.entries)
        for block in self._blocks[channel]:
            encoded: dict = {}
            for i, r in zip(block.index[: block.size].tolist(), block.row[: block.size].tolist()):
                if r not in encoded:
                    encoded[r] = json.dumps(_embedding_field(block.rows[r]))
                texts[i] = encoded[r]
        return texts

    def save_jsonl(self, path) -> None:
        """One `to_dict` row per entry, as JSON."""
        rows = zip(self._embedding_texts("key"), self._embedding_texts("description"))
        with open(path, "w", encoding="utf-8") as fh:
            for entry, encoded in zip(self.entries, rows):
                fh.write(_json_line(entry.to_dict(encoded)) + "\n")


def harvest_response_values(json_body) -> list:
    """Scalar (key, value) leaves from a response object.

    Shallow and capped so payload noise doesn't drown the store: depth <= 3,
    key length <= 40, at most 50 pairs per response.
    """
    found: list = []

    def walk(node, key: Optional[str], depth: int):
        if len(found) >= RESPONSE_HARVEST_CAP or depth > RESPONSE_HARVEST_DEPTH:
            return
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, str(k), depth + 1)
        elif isinstance(node, list):
            for item in node:
                walk(item, key, depth + 1)
        elif isinstance(node, (str, int, float, bool)) and key:
            if len(key) <= RESPONSE_HARVEST_KEY_LEN and node != "":
                if len(found) < RESPONSE_HARVEST_CAP:
                    found.append((key, node))

    walk(json_body, None, 0)
    return found


def build_kb(reports: list, tools: list, emb) -> KnowledgeBase:
    """Knowledge base from passing tools: documented values plus scalar
    leaves harvested from their passing responses."""
    by_name = {t.tool_name: t for t in tools}
    kb = KnowledgeBase()
    pending: list = []  # entries awaiting embeddings

    for report in reports:
        if report.error_type is not ErrorType.PASSED:
            continue
        tool = by_name.get(report.tool_name)
        if tool is None:
            continue
        for arg in tool.args:
            if arg.has_value:
                pending.append(
                    ParameterKbEntry(
                        param_key=arg.name,
                        value=arg.preferred_value,
                        source_id=tool.source_id,
                        description=arg.description,
                        provenance="documentation",
                    )
                )
        for record in report.attempts:
            if record.json_body is not None:
                for key, value in harvest_response_values(record.json_body):
                    pending.append(
                        ParameterKbEntry(
                            param_key=key,
                            value=value,
                            source_id=tool.source_id,
                            provenance="response_json",
                        )
                    )

    kb.extend(pending, emb)
    return kb


@dataclass
class Candidate:
    entry: ParameterKbEntry
    similarity: float


def retrieve_candidates(
    param,
    kb: KnowledgeBase,
    emb,
    exclude_source: Optional[str] = None,
) -> list:
    """Top candidates for one parameter: 5 by description similarity union
    5 by key similarity, deduplicated on (key, value), floor 0.5 applied
    after the union, best first, at most 10.  Similarities are exact
    cosines rounded to 12 places; ties go to the earlier KB entry.

    `param` needs .name and .description attributes (a ToolArg fits).
    """
    include = kb.source_mask(exclude_source)
    if not kb.entries or (include is not None and not include.any()):
        return []

    best: dict = {}  # (key, str(value)) -> (similarity, KB index, entry)

    def consider(channel: str, text: str):
        sims, index = kb.nearest(channel, emb.embed_one(text), TOP_PER_CHANNEL, include)
        for sim, idx in zip(sims.tolist(), index.tolist()):
            entry = kb.entries[idx]
            dedupe_key = (entry.param_key, str(entry.value))
            held = best.get(dedupe_key)
            if held is None or sim > held[0] or (sim == held[0] and idx < held[1]):
                best[dedupe_key] = (sim, idx, entry)

    description = getattr(param, "description", None)
    if description:
        consider("description", description)
    consider("key", param.name)

    survivors = [
        Candidate(entry=entry, similarity=sim)
        for sim, idx, entry in sorted(best.values(), key=lambda t: (-t[0], t[1]))
        if sim >= SIMILARITY_FLOOR
    ]
    return survivors[:MAX_CANDIDATES]


def rank_combinations(per_param: dict, limit: int = MAX_COMBINATIONS) -> list:
    """Best-first value assignments ordered by the product of similarities
    (sum of logs), enumerated lazily so large spaces never materialize.

    Returns up to `limit` dicts of {param_name: Candidate}.
    """
    names = list(per_param.keys())
    for name in names:
        if not per_param[name]:
            raise NoCandidates(name)
    # the successor rule (bump one index) only enumerates best-first when
    # every list is descending; stable sort keeps tie order deterministic
    lists = [
        sorted(per_param[name], key=lambda c: -c.similarity) for name in names
    ]

    def score(index_vector) -> float:
        total = 0.0
        for name_i, ci in enumerate(index_vector):
            sim = lists[name_i][ci].similarity
            total += math.log(max(sim, 1e-12))
        return total

    start = tuple(0 for _ in names)
    heap = [(-score(start), start)]
    visited = {start}
    out: list = []
    while heap and len(out) < limit:
        _, idx = heapq.heappop(heap)
        out.append({name: lists[i][j] for i, (name, j) in enumerate(zip(names, idx))})
        for pos in range(len(names)):
            if idx[pos] + 1 < len(lists[pos]):
                nxt = idx[:pos] + (idx[pos] + 1,) + idx[pos + 1 :]
                if nxt not in visited:
                    visited.add(nxt)
                    heapq.heappush(heap, (-score(nxt), nxt))
    return out


@dataclass
class InferenceOutcome:
    tool_name: str
    success: bool
    assignment: Optional[dict] = None
    attempts: int = 0
    candidates_considered: int = 0
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "tool_name": self.tool_name,
            "success": self.success,
            "assignment": self.assignment,
            "attempts": self.attempts,
            "candidates_considered": self.candidates_considered,
            "note": self.note,
        }

    @classmethod
    def failed(cls, tool_name: str, exc) -> "InferenceOutcome":
        """The outcome of an inference that raised NoCandidates or Exhausted."""
        if isinstance(exc, NoCandidates):
            return cls(tool_name, False, note=f"no candidates: {exc}")
        return cls(tool_name, False, attempts=exc.attempts, note=str(exc))


def _inference_targets(tool: ToolDescriptor) -> list:
    """The args whose values inference looks for: the value-missing required
    args when there are any, otherwise every required arg (the wrong-value
    case)."""
    return tool.missing_value_args or [a for a in tool.args if a.required]


def infer_parameters(
    tool: ToolDescriptor,
    kb: KnowledgeBase,
    judge,
    emb,
    exclude_source: Optional[str] = None,
    limit: int = MAX_COMBINATIONS,
    http: HttpPolicy = HttpPolicy(),
) -> InferenceOutcome:
    """Try ranked KB value combinations for the tool's `_inference_targets`
    until it passes validation.  The winning assignment is written back onto
    the descriptor's example values and inserted into the knowledge base;
    failures leave the KB untouched.
    """
    targets = _inference_targets(tool)
    if not targets:
        return InferenceOutcome(tool.tool_name, True, assignment={}, note="nothing to infer")

    per_param: dict = {}
    candidates_considered = 0
    for arg in targets:
        candidates = retrieve_candidates(arg, kb, emb, exclude_source=exclude_source)
        for c in candidates:
            assert c.entry.source_id != exclude_source, (
                f"isolation breach: candidate for {arg.name!r} from excluded source"
            )
        if not candidates:
            raise NoCandidates(arg.name)
        per_param[arg.name] = candidates
        candidates_considered += len(candidates)

    base_args = default_args(tool)
    attempts = 0
    for assignment in rank_combinations(per_param, limit=limit):
        trial_args = dict(base_args)
        trial_args.update({name: c.entry.value for name, c in assignment.items()})
        attempts += 1
        report = validate_tool(tool, judge, args=trial_args, http=http)
        if report.passed:
            values = {name: c.entry.value for name, c in assignment.items()}
            by_name = {a.name: a for a in tool.args}
            for name, value in values.items():
                by_name[name].example_value = value
                kb.add(
                    ParameterKbEntry(
                        param_key=name,
                        value=value,
                        source_id=tool.source_id,
                        description=by_name[name].description,
                        key_embedding=emb.embed_one(name),
                        description_embedding=(
                            emb.embed_one(by_name[name].description)
                            if by_name[name].description
                            else None
                        ),
                        provenance="documentation",
                    )
                )
            return InferenceOutcome(
                tool.tool_name,
                True,
                assignment=values,
                attempts=attempts,
                candidates_considered=candidates_considered,
            )
    raise Exhausted(tool.tool_name, attempts)


def llm_guess_baseline(
    tool: ToolDescriptor,
    judge,
    backend,
    rounds: int = GUESS_ROUNDS,
    http: HttpPolicy = HttpPolicy(),
) -> InferenceOutcome:
    """Guess values with a model instead of the knowledge base: up to 10
    rounds, feeding failed guesses back through the prompt's history block."""
    targets = _inference_targets(tool)
    if not targets:
        return InferenceOutcome(tool.tool_name, True, assignment={}, note="nothing to infer")

    param_description = "\n".join(
        f"{a.name}: {a.description or '(no description)'}" for a in targets
    )
    base_args = default_args(tool)
    history: list = []
    attempts = 0
    for _ in range(rounds):
        prompt = PARAMETER_GUESS_PROMPT.format(
            history="\n".join(json.dumps(h, ensure_ascii=False) for h in history),
            description=tool.description,
            param_description=param_description,
        )
        content, _tokens = backend.complete(
            [{"role": "user", "content": prompt}],
            response_schema=PARAMETER_LIST_SCHEMA,
            schema_name="ParameterList",
        )
        try:
            parsed = json.loads(content)
            guesses = {
                str(p["parameter_key"]): str(p["parameter_guess"])
                for p in parsed["parameters"]
            }
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendUnreachable(f"malformed guess output: {exc}") from exc

        trial_args = dict(base_args)
        trial_args.update({a.name: guesses[a.name] for a in targets if a.name in guesses})
        attempts += 1
        report = validate_tool(tool, judge, args=trial_args, http=http)
        if report.passed:
            return InferenceOutcome(
                tool.tool_name, True, assignment=guesses, attempts=attempts
            )
        history.append(guesses)
    return InferenceOutcome(tool.tool_name, False, attempts=attempts)


def leave_one_api_out(
    tools: list,
    reports: list,
    emb,
    judge,
    http: HttpPolicy = HttpPolicy(),
) -> dict:
    """Re-infer each passing tool's required values with its own source
    hidden from retrieval.  Needs at least two distinct source documents."""
    passing_names = {r.tool_name for r in reports if r.error_type is ErrorType.PASSED}
    passing_tools = sorted(
        (t for t in tools if t.tool_name in passing_names), key=lambda t: t.tool_name
    )
    sources = {t.source_id for t in passing_tools}
    if len(sources) < 2:
        raise InsufficientCorpus(
            f"leave-one-out needs >= 2 source documents, found {len(sources)}"
        )

    kb = build_kb(reports, tools, emb)
    outcomes: list = []
    skipped: list = []
    for tool in passing_tools:
        stripped = copy.deepcopy(tool)
        for arg in stripped.args:
            if arg.required:
                arg.example_value = None
                arg.default_value = None
        if not stripped.missing_value_args:
            skipped.append(tool.tool_name)
            continue
        try:
            outcome = infer_parameters(
                stripped,
                kb,
                judge,
                emb,
                exclude_source=tool.source_id,
                http=http,
            )
        except (NoCandidates, Exhausted) as exc:
            outcome = InferenceOutcome.failed(tool.tool_name, exc)
        outcomes.append(outcome)

    attempted = [o for o in outcomes if o.attempts > 0]
    return {
        "outcomes": outcomes,
        "success_count": sum(1 for o in outcomes if o.success),
        "total": len(outcomes),
        "mean_attempts": (
            sum(o.attempts for o in attempted) / len(attempted) if attempted else 0.0
        ),
        "skipped_no_required_args": skipped,
    }
