"""Missing-parameter inference over a knowledge base of verified values.

Verified (key, description, value) triples come from passing tools and the
scalar leaves of their JSON responses.  The knowledge base keeps one
embedding row per distinct text, shared by its two channels (key and
description), and searches them exactly with the standard library.
Retrieval ranks candidates from both channels, and k-best value combinations
are validated in the loop until one passes; the model-guess baseline goes
through the same loop.
"""

from __future__ import annotations

import copy
import heapq
import json
import math
from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import groupby
from typing import Optional

from .embedding import cosine_similarity, vector_norm
from .errors import BackendUnreachable, DimensionMismatch, InsufficientCorpus, NoCandidates
from .model import LONE_SURROGATE, ErrorType, Scalar, coerce_scalar
from .netutil import HttpPolicy
from .prompts import PARAMETER_GUESS_PROMPT, PARAMETER_LIST_SCHEMA
from .toolgen import ToolDescriptor
from .validate import default_args, validate_tool

TOP_PER_CHANNEL = 5
MAX_CANDIDATES = 10
SIMILARITY_FLOOR = 0.5
SIMILARITY_DECIMALS = 12
_SCALE = 10.0 ** SIMILARITY_DECIMALS
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
    provenance: str = "documentation"  # or "response_json"


def _identity(entry: ParameterKbEntry) -> tuple:
    return (entry.param_key, str(entry.value), entry.source_id)


def _rounded(similarity: float) -> float:
    """`similarity` rounded to SIMILARITY_DECIMALS places as numpy's
    `round` does it: scale, round half to even, scale back.  NaN, the cosine
    of two vectors whose norms overflow, becomes -inf, so that it ranks last
    and below the floor, as numpy ranked NaN."""
    if math.isnan(similarity):
        return -math.inf
    return round(similarity * _SCALE) / _SCALE


class KnowledgeBase:
    """Append-only store of verified parameter values, deduplicated on
    (param_key, value, source_id).

    The KB owns the embeddings: one `array('d')` row per distinct text, key
    or description, each as wide as the first vectors the KB took.  Each
    channel ("key", "description") maps a row to the entries that name its
    text in that channel, ascending; an entry without a description is in
    no description row.
    """

    def __init__(self):
        self.entries: list = []
        self._seen: set = set()
        self._per_source: Counter = Counter()  # source_id -> entries
        self._slot: dict = {}  # text -> row
        self._rows: list = []  # one array('d') per distinct text
        self._norms: list = []  # vector_norm of each row
        self._channels = {"key": {}, "description": {}}  # row -> entry indices
        # query vector (bytes) -> rounded similarities to _rows[:len]; the rows
        # only grow, so a later call scores only the rows added since
        self._scores: dict = {}
        self._width: Optional[int] = None  # of every vector; the first ones set it

    def __len__(self) -> int:
        return len(self.entries)

    def holds_other_than(self, source_id: Optional[str]) -> bool:
        """Whether any entry comes from a source other than `source_id`."""
        return len(self.entries) > self._per_source[source_id]

    def extend(self, entries: list, emb) -> None:
        """Add the entries not yet held, first occurrence first, embedding
        with `emb` the texts that have no row yet, keys before descriptions."""
        fresh: dict = {}
        for entry in entries:
            identity = _identity(entry)
            if identity not in self._seen:
                fresh.setdefault(identity, entry)
        entries = list(fresh.values())
        if not entries:
            return
        texts = {"key": [e.param_key for e in entries],
                 "description": [e.description or None for e in entries]}
        unseen = [t for t in dict.fromkeys(texts["key"] + texts["description"])
                  if t is not None and t not in self._slot]
        # embed everything before the KB changes, so a failure leaves it whole
        # an embedder's array('d') row is kept as it is, shared with its memo
        vectors = [v if isinstance(v, array) and v.typecode == "d" else array("d", v)
                   for v in (emb.embed(unseen) if unseen else [])]
        width = self._width
        for vector in vectors:
            width = len(vector) if width is None else width
            if len(vector) != width:
                raise DimensionMismatch(got=len(vector), expected=width)
        self._width = width
        for text, vector in zip(unseen, vectors):
            self._slot[text] = len(self._rows)
            self._rows.append(vector)
            self._norms.append(vector_norm(vector))
        start = len(self.entries)
        for entry in entries:
            self._seen.add(_identity(entry))
            self.entries.append(entry)
            self._per_source[entry.source_id] += 1
        for name, members in self._channels.items():
            for i, text in enumerate(texts[name], start):
                if text is not None:
                    members.setdefault(self._slot[text], []).append(i)

    def nearest(self, channel: str, query, k: int, exclude_source: Optional[str] = None) -> list:
        """The k entries of `channel` closest to `query` by cosine
        similarity, as (similarity, entry index) pairs, best first, leaving
        out the entries of `exclude_source`.

        Each distinct text is scored once, and each query once against it.
        Similarities are rounded to SIMILARITY_DECIMALS places before
        ranking, so that ties go to the earlier entry however the products
        were summed.  A zero vector has similarity 0.0.
        """
        members = self._channels[channel]
        if not members:
            return []
        query = array("d", query)
        if len(query) != self._width:
            raise DimensionMismatch(got=self._width, expected=len(query))
        sims = self._scores.setdefault(query.tobytes(), array("d"))
        if len(sims) < len(self._rows):
            norm = vector_norm(query)
            sims.extend([
                _rounded(cosine_similarity(query, row, norm, row_norm))
                for row, row_norm in zip(self._rows[len(sims):], self._norms[len(sims):])
            ])
        found: list = []
        best_first = sorted(members, key=sims.__getitem__, reverse=True)
        for sim, tied in groupby(best_first, key=sims.__getitem__):
            for i in heapq.merge(*(members[r] for r in tied)):
                if self.entries[i].source_id != exclude_source:
                    found.append((sim, i))
                    if len(found) == k:
                        return found
        return found

    def vectors(self):
        """(text, vector) once for each text, in the order the KB took them."""
        return zip(self._slot, self._rows)


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
                    found.append((key, coerce_scalar(node)))

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
    cosines rounded to 12 places; ties go to the earlier KB entry.  A value
    holding a lone surrogate is skipped, as no request can carry it.

    `param` needs .name and .description attributes (a ToolArg fits).
    """
    if not kb.holds_other_than(exclude_source):
        return []

    best: dict = {}  # (key, str(value)) -> (similarity, KB index, entry)

    def consider(channel: str, text: str):
        (query,) = emb.embed([text])
        for sim, idx in kb.nearest(channel, query, TOP_PER_CHANNEL, exclude_source):
            entry = kb.entries[idx]
            if isinstance(entry.value, str) and LONE_SURROGATE.search(entry.value):
                continue
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


def rank_combinations(per_param: dict) -> list:
    """Best-first value assignments ordered by the product of similarities
    (sum of logs), enumerated lazily so large spaces never materialize.

    Returns up to MAX_COMBINATIONS dicts of {param_name: Candidate}.
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
    while heap and len(out) < MAX_COMBINATIONS:
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
        return asdict(self)


def _inference_targets(tool: ToolDescriptor) -> list:
    """The args whose values inference looks for: the value-missing required
    args when there are any, otherwise every required arg (the wrong-value
    case)."""
    return tool.missing_value_args or [a for a in tool.args if a.required]


def _first_passing(tool: ToolDescriptor, judge, trials, http: HttpPolicy) -> tuple:
    """Validate `tool` with each trial's {arg: value} over its default args
    until one passes: (that trial's values or None, validations spent)."""
    base_args = default_args(tool)
    attempts = 0
    for values in trials:
        attempts += 1
        if validate_tool(tool, judge, args={**base_args, **values}, http=http).passed:
            return values, attempts
    return None, attempts


def infer_parameters(
    tool: ToolDescriptor,
    kb: KnowledgeBase,
    judge,
    emb,
    exclude_source: Optional[str] = None,
    http: HttpPolicy = HttpPolicy(),
) -> InferenceOutcome:
    """Try ranked KB value combinations for the tool's `_inference_targets`
    until it passes validation.  The winning assignment is written back onto
    the descriptor's example values and inserted into the knowledge base.
    A target without candidates, or a search in which every combination
    fails, returns a failed outcome and leaves the KB untouched.
    """
    targets = _inference_targets(tool)
    if not targets:
        return InferenceOutcome(tool.tool_name, True, assignment={}, note="nothing to infer")

    # every target text in one embed call, so a remote embedder sends the
    # new ones in one request
    emb.embed([text for arg in targets for text in (arg.description, arg.name) if text])
    per_param: dict = {}
    candidates_considered = 0
    for arg in targets:
        candidates = retrieve_candidates(arg, kb, emb, exclude_source=exclude_source)
        for c in candidates:
            assert c.entry.source_id != exclude_source, (
                f"isolation breach: candidate for {arg.name!r} from excluded source"
            )
        if not candidates:
            return InferenceOutcome(tool.tool_name, False, note=(
                f"no candidates: no usable candidates for parameter {arg.name!r}"))
        per_param[arg.name] = candidates
        candidates_considered += len(candidates)

    values, attempts = _first_passing(tool, judge, (
        {name: c.entry.value for name, c in assignment.items()}
        for assignment in rank_combinations(per_param)
    ), http)
    if values is None:
        return InferenceOutcome(
            tool.tool_name, False, attempts=attempts, candidates_considered=candidates_considered,
            note=f"{tool.tool_name}: all {attempts} ranked assignments failed validation",
        )
    by_name = {a.name: a for a in tool.args}
    for name, value in values.items():
        by_name[name].example_value = value
    kb.extend([ParameterKbEntry(param_key=name, value=value, source_id=tool.source_id,
                                description=by_name[name].description)
               for name, value in values.items()], emb)
    return InferenceOutcome(tool.tool_name, True, assignment=values, attempts=attempts,
                            candidates_considered=candidates_considered)


def llm_guess_baseline(
    tool: ToolDescriptor,
    judge,
    backend,
    http: HttpPolicy = HttpPolicy(),
) -> InferenceOutcome:
    """Guess values with a model instead of the knowledge base: up to 10
    rounds, feeding failed guesses back through the prompt's history block.
    The assignment holds the target values sent, as infer_parameters' does."""
    targets = _inference_targets(tool)
    if not targets:
        return InferenceOutcome(tool.tool_name, True, assignment={}, note="nothing to infer")

    param_description = "\n".join(
        f"{a.name}: {a.description or '(no description)'}" for a in targets
    )

    def guesses():
        history: list = []
        for _ in range(GUESS_ROUNDS):
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
                named = {str(p["parameter_key"]): str(p["parameter_guess"])
                         for p in json.loads(content)["parameters"]}
            except (ValueError, KeyError, TypeError) as exc:
                raise BackendUnreachable(f"malformed guess output: {exc}") from exc
            yield {a.name: named[a.name] for a in targets if a.name in named}
            history.append(named)  # reached only when the guess failed

    values, attempts = _first_passing(tool, judge, guesses(), http)
    return InferenceOutcome(tool.tool_name, values is not None, assignment=values,
                            attempts=attempts)


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
        outcomes.append(infer_parameters(
            stripped, kb, judge, emb, exclude_source=tool.source_id, http=http
        ))

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
