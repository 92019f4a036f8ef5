import heapq
import itertools
import json
import math
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apimill.cli import _write_kb
from apimill.embedding import LexicalEmbedding, RemoteEmbedding, cosine_similarity, vector_norm
from apimill.errors import (
    BackendUnreachable,
    DimensionMismatch,
    InsufficientCorpus,
    NoCandidates,
)
from apimill.inference import (
    MAX_CANDIDATES,
    SIMILARITY_DECIMALS,
    SIMILARITY_FLOOR,
    TOP_PER_CHANNEL,
    Candidate,
    KnowledgeBase,
    ParameterKbEntry,
    _rounded,
    build_kb,
    harvest_response_values,
    infer_parameters,
    leave_one_api_out,
    llm_guess_baseline,
    rank_combinations,
    retrieve_candidates,
)
from apimill.model import Endpoint, Parameter
from apimill.netutil import HttpPolicy
from apimill.remote import RemoteConfig
from apimill.synthetic import build_corpus
from apimill.toolgen import ToolArg, generate_tool, generate_tools_for_spec
from apimill.validate import ErrorType, run_validation, validate_tool


class TestHarvest:
    def test_scalar_leaves_with_keys(self):
        body = {"a": 1, "b": {"c": "x", "d": {"e": True}}, "f": None}
        assert set(harvest_response_values(body)) == {("a", 1), ("c", "x"), ("e", True)}

    def test_lists_descend_under_same_key(self):
        body = {"data": [{"id": "one"}, {"id": "two"}]}
        assert harvest_response_values(body) == [("id", "one"), ("id", "two")]

    def test_depth_capped(self):
        body = {"l1": {"l2": {"l3": {"l4": "too deep"}}}}
        assert harvest_response_values(body) == []

    def test_empty_values_and_long_keys_skipped(self):
        body = {"ok": "kept", "blank": "", ("k" * 41): "dropped"}
        assert harvest_response_values(body) == [("ok", "kept")]

    def test_cap_50(self):
        body = {f"k{i}": i for i in range(200)}
        assert len(harvest_response_values(body)) == 50

    def test_bare_scalar_has_no_key(self):
        assert harvest_response_values("just a string") == []

    def test_non_finite_number_kept_as_its_json_text(self):
        # Python's JSON reader accepts NaN and Infinity; strict JSON has no such number
        body = json.loads('{"a": NaN, "b": [Infinity, -Infinity], "c": 1.5}')
        assert harvest_response_values(body) == [
            ("a", "NaN"), ("b", "Infinity"), ("b", "-Infinity"), ("c", 1.5)]


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def kb_vector(kb, channel, i):
    """Entry i's `channel` vector as the KB holds it, None where it has none;
    the entry belongs to one row of the channel at most."""
    (row,) = [r for r, members in kb._channels[channel].items() if i in members] or [None]
    return None if row is None else kb._rows[row]


class CountingEmbedding(LexicalEmbedding):
    """Lexical embedding that records every text it computes a row for."""

    def __init__(self):
        super().__init__()
        self.texts = []

    def embed_one(self, text):
        self.texts.append(text)
        return super().embed_one(text)


class TestKnowledgeBase:
    def test_dedupe_on_key_value_source(self, emb):
        kb = KnowledgeBase()
        kb.extend([ParameterKbEntry(param_key="q", value="x", source_id="s")], emb)
        kb.extend([
            ParameterKbEntry(param_key="q", value="x", source_id="s"),  # held already
            ParameterKbEntry(param_key="q", value="x", source_id="other"),
            ParameterKbEntry(param_key="q", value="y", source_id="s"),
            ParameterKbEntry(param_key="q", value="y", source_id="s", description="a copy"),
        ], emb)
        assert [(e.value, e.source_id, e.description) for e in kb.entries] == [
            ("x", "s", None), ("x", "other", None), ("y", "s", None),
        ]
        assert len(kb) == 3

    def test_save_jsonl(self, tmp_path, emb):
        kb = KnowledgeBase()
        kb.extend([ParameterKbEntry(param_key="q", value="x", source_id="s")], emb)
        _write_kb(tmp_path, kb)
        (row,) = read_jsonl(tmp_path / "kb.jsonl")
        assert row == {"param_key": "q", "value": "x", "source_id": "s", "description": None,
                       "provenance": "documentation"}
        assert read_jsonl(tmp_path / "vectors.jsonl") == [
            {"text": "q", "vector": emb.embed_one("q").tolist()}]

    def test_extend_drops_vector_of_missing_description(self, tmp_path, emb):
        kb = KnowledgeBase()
        kb.extend([
            ParameterKbEntry(param_key="q", value="x", source_id="s"),
            ParameterKbEntry(param_key="q", value="y", source_id="s", description=""),
        ], emb)
        assert kb._channels["description"] == {} and list(kb._slot) == ["q"]
        assert kb_vector(kb, "description", 0) is None and kb_vector(kb, "description", 1) is None
        _write_kb(tmp_path, kb)
        assert [r["description"] for r in read_jsonl(tmp_path / "kb.jsonl")] == [None, ""]
        assert [r["text"] for r in read_jsonl(tmp_path / "vectors.jsonl")] == ["q"]

    def test_save_jsonl_bytes_match_per_entry_encoding(self, tmp_path, emb):
        def batch(source):
            return [
                ParameterKbEntry(
                    param_key=key, value=value, source_id=source, description=desc,
                    provenance="documentation" if desc else "response_json",
                )
                for key, value, desc in (
                    ("city", "Zürich", "the city 東京"), ("city", "Köln", "the city 東京"),
                    ("limit", 10, None), ("ratio", 0.1, "a ratio"), ("flag", True, None),
                    ("limit", 20, None), ("a ratio", 0.5, "limit"),
                )
            ]

        kb = KnowledgeBase()
        kb.extend(batch("a"), emb)
        kb.extend(batch("b"), emb)
        for i in range(19):  # one entry per call, as inference adds them
            desc = f"added {i % 2}" if i % 3 else None
            kb.extend([ParameterKbEntry(
                param_key=f"k{i % 4}", value=i, source_id="c", description=desc,
            )], emb)
        _write_kb(tmp_path, kb)

        want = "".join(
            json.dumps({
                "param_key": e.param_key, "value": e.value, "source_id": e.source_id,
                "description": e.description, "provenance": e.provenance,
            }, ensure_ascii=False) + "\n"
            for e in kb.entries
        )
        assert (tmp_path / "kb.jsonl").read_bytes() == want.encode("utf-8")
        rows = read_jsonl(tmp_path / "vectors.jsonl")
        # each text once, in the order the KB took it, each call's keys first
        assert [r["text"] for r in rows] == [
            "city", "limit", "ratio", "flag", "a ratio", "the city 東京",
            "k0", "k1", "added 1", "k2", "added 0", "k3",
        ]
        vectors = {r["text"]: array("d", r["vector"]).tobytes() for r in rows}
        for entry in kb.entries:
            for text in (entry.param_key, entry.description):
                if text:
                    assert vectors[text] == emb.embed_one(text).tobytes()

    def test_one_row_per_distinct_text_across_extends(self, emb):
        kb = KnowledgeBase()
        calls = [
            [("id", 1, "the id"), ("id", 2, "the id"), ("name", "a", None)],
            [("id", 3, "the id"), ("name", "b", "a name")],
            [("name", "c", "a name")],
            [("id", 4, None), ("page", 5, "the id")],
        ]
        for n, rows in enumerate(calls):
            kb.extend([
                ParameterKbEntry(param_key=key, value=value, source_id=f"s{n}", description=desc)
                for key, value, desc in rows
            ], emb)
        # one row per distinct text, in the order the KB took them
        assert list(kb._slot) == ["id", "name", "the id", "a name", "page"]
        assert list(kb._slot.values()) == list(range(5)) and len(kb._rows) == 5
        assert all(r.typecode == "d" and len(r) == emb.dimension for r in kb._rows)
        assert kb._norms == [vector_norm(r) for r in kb._rows]
        for channel, texts in (("key", ["id", "name", "page"]),
                               ("description", ["the id", "a name"])):
            assert sorted(kb._channels[channel]) == [kb._slot[t] for t in texts]
        for i, entry in enumerate(kb.entries):
            assert kb_vector(kb, "key", i) == emb.embed_one(entry.param_key)
            if entry.description:
                assert kb_vector(kb, "description", i) == emb.embed_one(entry.description)
            else:
                assert kb_vector(kb, "description", i) is None

    def test_held_texts_are_not_embedded_again(self):
        counting = CountingEmbedding()
        kb = KnowledgeBase()
        kb.extend([
            ParameterKbEntry(param_key="id", value=1, source_id="a", description="the id"),
            ParameterKbEntry(param_key="id", value=2, source_id="a", description="the id"),
        ], counting)
        assert counting.texts == ["id", "the id"]
        kb.extend([
            ParameterKbEntry(param_key="id", value=3, source_id="b", description="the id"),
            ParameterKbEntry(param_key="name", value="x", source_id="b", description="the id"),
        ], counting)
        kb.extend([ParameterKbEntry(param_key="id", value=4, source_id="c")], counting)
        assert counting.texts == ["id", "the id", "name"]
        assert len(kb) == 5

    def test_failed_embedding_leaves_kb_whole(self, emb):
        class FailsOnDescriptions(LexicalEmbedding):
            def embed(self, texts):
                if "the id" in texts:
                    raise BackendUnreachable("down")
                return super().embed(texts)

        kb = KnowledgeBase()
        kb.extend([ParameterKbEntry(param_key="id", value=1, source_id="a")], emb)
        with pytest.raises(BackendUnreachable):
            kb.extend([ParameterKbEntry(param_key="name", value=2, source_id="a",
                                        description="the id")], FailsOnDescriptions())
        assert len(kb) == 1 and list(kb._slot) == ["id"]
        assert len(kb._rows) == len(kb._norms) == 1
        assert kb._channels == {"key": {0: [0]}, "description": {}}
        kb.extend([ParameterKbEntry(param_key="name", value=2, source_id="a",
                                    description="the id")], emb)
        assert len(kb) == 2 and list(kb._slot) == ["id", "name", "the id"]
        assert kb._channels == {"key": {0: [0], 1: [1]}, "description": {2: [1]}}


def scripted_report(tool, error_type, json_body=None):
    from apimill.validate import InvocationRecord, ValidationReport

    attempts = []
    if json_body is not None:
        attempts.append(InvocationRecord(status_code=200, json_body=json_body))
    return ValidationReport(
        tool_name=tool.tool_name,
        attempts=attempts,
        error_type=error_type,
        source_id=tool.source_id,
    )


class TestBuildKb:
    def make_tool(self, source_id="src_a"):
        return generate_tool(
            Endpoint(
                name="Search", method="GET", url="https://h.example/x",
                required_parameters=[Parameter(
                    name="q", description="query text", example_value="hello",
                )],
            ),
            source_id,
        )

    def test_documented_and_harvested(self, emb):
        tool = self.make_tool()
        report = scripted_report(tool, ErrorType.PASSED, json_body={"token": "abc123"})
        kb = build_kb([report], [tool], emb)
        by_key = {(e.param_key, e.provenance) for e in kb.entries}
        assert ("q", "documentation") in by_key
        assert ("token", "response_json") in by_key
        for i in range(len(kb)):
            assert kb_vector(kb, "key", i) is not None
        doc_index = next(i for i, e in enumerate(kb.entries) if e.provenance == "documentation")
        assert kb_vector(kb, "description", doc_index) is not None

    def test_failing_tools_contribute_nothing(self, emb):
        tool = self.make_tool()
        report = scripted_report(tool, ErrorType.FAILED, json_body={"token": "abc"})
        assert len(build_kb([report], [tool], emb)) == 0

    def test_entry_embeddings_are_views_of_kb_blocks(self, emb):
        tool = self.make_tool()
        body = {
            "token": "abc123",
            "items": [{"token": "abc123"}, {"token": "xyz"}, {"q": "hello"}],
        }
        kb = build_kb([scripted_report(tool, ErrorType.PASSED, json_body=body)], [tool], emb)
        # ("q", "hello") is documented and harvested, ("token", "abc123") harvested twice
        assert [(e.param_key, e.value) for e in kb.entries] == [
            ("q", "hello"), ("token", "abc123"), ("token", "xyz"),
        ]
        assert list(kb._slot) == ["q", "token", "query text"]  # one row per distinct text
        assert len(kb._rows) == 3
        assert kb._channels["key"] == {0: [0], 1: [1, 2]}  # both token entries share its row
        assert kb._channels["description"] == {2: [0]}
        for i, entry in enumerate(kb.entries):
            assert kb_vector(kb, "key", i) == emb.embed_one(entry.param_key)
        assert kb_vector(kb, "description", 0) == emb.embed_one("query text")

        held = list(kb._rows)
        for i in range(3):
            kb.extend([ParameterKbEntry(param_key=f"later {i}", value=i, source_id="s")], emb)
        kb.extend([ParameterKbEntry(param_key="token", value="new", source_id="s")], emb)
        # every call's new texts get rows; a held text keeps its row
        assert list(kb._slot) == ["q", "token", "query text", "later 0", "later 1", "later 2"]
        assert len(kb._rows) == 6 and all(a is b for a, b in zip(kb._rows, held))
        assert kb._channels["key"] == {0: [0], 1: [1, 2, 6], 3: [3], 4: [4], 5: [5]}
        assert kb._channels["description"] == {2: [0]}
        for i, entry in enumerate(kb.entries[3:], start=3):
            assert kb_vector(kb, "key", i) == emb.embed_one(entry.param_key)


class TestRetrieveCandidates:
    def kb_with(self, emb, rows):
        kb = KnowledgeBase()
        for key, value, source, desc in rows:
            kb.extend([ParameterKbEntry(
                param_key=key, value=value, source_id=source, description=desc,
            )], emb)
        return kb

    def test_exact_key_match_tops(self, emb):
        kb = self.kb_with(emb, [
            ("glytoucan_id", "G00048MO", "a", None),
            ("unrelated_field", "zzz", "a", None),
        ])
        arg = ToolArg(name="glytoucan_id", location="query", required=True)
        candidates = retrieve_candidates(arg, kb, emb)
        assert candidates
        assert candidates[0].entry.value == "G00048MO"
        assert candidates[0].similarity == pytest.approx(1.0)

    def test_floor_applied_after_union(self, emb):
        kb = self.kb_with(emb, [("completely_different", "v", "a", None)])
        arg = ToolArg(name="q", location="query", required=True)
        assert retrieve_candidates(arg, kb, emb) == []

    def test_exclusion_filters_source(self, emb):
        kb = self.kb_with(emb, [("q", "x", "mine", None), ("q", "y", "theirs", None)])
        arg = ToolArg(name="q", location="query", required=True)
        values = {c.entry.value for c in retrieve_candidates(arg, kb, emb, exclude_source="mine")}
        assert values == {"y"}

    def test_dedupe_keeps_best_similarity(self, emb):
        # same (key, value) in two sources: one entry in the result
        kb = self.kb_with(emb, [("q", "x", "a", None), ("q", "x", "b", None)])
        arg = ToolArg(name="q", location="query", required=True)
        candidates = retrieve_candidates(arg, kb, emb)
        assert len(candidates) == 1

    def test_description_channel_requires_param_description(self, emb):
        kb = self.kb_with(emb, [
            ("key_one", "v1", "a", "the shared description text"),
        ])
        undescribed = ToolArg(name="nomatch", location="query", required=True)
        assert retrieve_candidates(undescribed, kb, emb) == []
        described = ToolArg(
            name="nomatch", location="query", required=True,
            description="the shared description text",
        )
        candidates = retrieve_candidates(described, kb, emb)
        assert candidates and candidates[0].similarity == pytest.approx(1.0)

    def test_dimension_mismatch(self, emb):
        kb = self.kb_with(emb, [("q", "x", "a", None)])
        arg = ToolArg(name="q", location="query", required=True)
        with pytest.raises(DimensionMismatch):
            retrieve_candidates(arg, kb, LexicalEmbedding(dimension=64))
        # rows of an excluded source are never compared
        assert retrieve_candidates(
            arg, kb, LexicalEmbedding(dimension=64), exclude_source="a"
        ) == []
        # vectors of another width never enter the KB, in either channel
        for entry in (ParameterKbEntry(param_key="q2", value="y", source_id="b"),
                      ParameterKbEntry(param_key="q", value="y", source_id="b",
                                       description="a new text")):
            with pytest.raises(DimensionMismatch):
                kb.extend([entry], LexicalEmbedding(dimension=64))
        assert len(kb) == 1 and kb._channels["description"] == {}
        assert list(kb._slot) == ["q"] and len(kb._rows) == len(kb._norms) == 1
        assert [c.entry.value for c in retrieve_candidates(arg, kb, emb)] == ["x"]

    def test_overflowing_vectors_rank_last(self):
        # finite rows whose norms overflow: their cosine is NaN
        emb = TableEmbedding({"big": [1e200, 1e200], "small": [1.0, 1.0]})
        kb = self.kb_with(emb, [("big", "x", "a", None), ("small", "y", "a", None)])
        assert kb.nearest("key", emb.embed_one("big"), 5) == [(0.0, 1), (-math.inf, 0)]
        assert retrieve_candidates(SimpleNamespace(name="big", description=None), kb, emb) == []

    def test_cap_ten(self, emb):
        rows = [(f"query_{i}", f"v{i}", "a", None) for i in range(30)]
        rows += [(f"query_{i}", f"w{i}", "b", None) for i in range(30)]
        kb = self.kb_with(emb, rows)
        arg = ToolArg(name="query_0", location="query", required=True,
                      description=None)
        candidates = retrieve_candidates(arg, kb, emb)
        assert len(candidates) <= MAX_CANDIDATES
        assert all(c.similarity >= SIMILARITY_FLOOR for c in candidates)
        sims = [c.similarity for c in candidates]
        assert sims == sorted(sims, reverse=True)


def exhaustive_rank(per_param, limit=20):
    """Brute-force oracle mirroring rank_combinations' scoring exactly."""
    names = list(per_param.keys())
    lists = [sorted(per_param[name], key=lambda c: -c.similarity) for name in names]
    scored = []
    for idx in itertools.product(*(range(len(l)) for l in lists)):
        total = 0.0
        for name_i, ci in enumerate(idx):
            total += math.log(max(lists[name_i][ci].similarity, 1e-12))
        scored.append((-total, idx))
    scored.sort()
    return [
        {name: lists[i][j] for i, (name, j) in enumerate(zip(names, idx))}
        for _, idx in scored[:limit]
    ]


def fake_candidates(sims, tag):
    return [
        Candidate(
            entry=ParameterKbEntry(param_key=tag, value=f"{tag}{i}", source_id="s"),
            similarity=s,
        )
        for i, s in enumerate(sims)
    ]


class TestRankCombinations:
    def test_single_param_ordering(self):
        per = {"a": fake_candidates([0.5, 0.9, 0.7], "a")}
        out = rank_combinations(per)
        assert [c["a"].similarity for c in out] == [0.9, 0.7, 0.5]

    def test_cross_product_limited(self):
        per = {
            "a": fake_candidates([0.9, 0.8, 0.7, 0.6, 0.5], "a"),
            "b": fake_candidates([0.9, 0.8, 0.7, 0.6, 0.5], "b"),
        }
        out = rank_combinations(per)
        assert len(out) == 20  # 25 combinations exist

    def test_empty_candidate_list_raises(self):
        with pytest.raises(NoCandidates):
            rank_combinations({"a": []})

    def test_matches_exhaustive_oracle_basic(self):
        per = {
            "a": fake_candidates([0.9, 0.51], "a"),
            "b": fake_candidates([0.8, 0.79, 0.5], "b"),
            "c": fake_candidates([1.0], "c"),
        }
        got = rank_combinations(per)
        want = exhaustive_rank(per, limit=20)
        assert [
            {k: (c.entry.param_key, c.entry.value) for k, c in row.items()} for row in got
        ] == [
            {k: (c.entry.param_key, c.entry.value) for k, c in row.items()} for row in want
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0.5, max_value=1.0, allow_nan=False, width=32),
                min_size=1, max_size=5,
            ),
            min_size=1, max_size=3,
        )
    )
    def test_matches_exhaustive_oracle_random(self, sim_lists):
        per = {
            f"p{i}": fake_candidates(sims, f"p{i}") for i, sims in enumerate(sim_lists)
        }
        got = rank_combinations(per)
        want = exhaustive_rank(per, limit=20)
        as_values = lambda rows: [
            {k: c.entry.value for k, c in row.items()} for row in rows
        ]
        assert as_values(got) == as_values(want)


def loop_retrieve(param, kb, emb, exclude_source=None):
    """The per-entry loop retrieve_candidates replaced, kept as the
    reference, with the same rounding of similarities; each entry's vectors
    are embedded from its own texts."""
    pool = [
        (i, e) for i, e in enumerate(kb.entries)
        if exclude_source is None or e.source_id != exclude_source
    ]
    if not pool:
        return []
    best = {}

    def sim(query, vec):
        return float(np.round(cosine_similarity(query, vec), SIMILARITY_DECIMALS))

    def consider(channel_sims):
        top = heapq.nlargest(TOP_PER_CHANNEL, channel_sims, key=lambda t: (t[0], -t[1]))
        for s, idx, entry in top:
            dedupe_key = (entry.param_key, str(entry.value))
            held = best.get(dedupe_key)
            if held is None or s > held[0] or (s == held[0] and idx < held[1]):
                best[dedupe_key] = (s, idx, entry)

    if param.description:
        query = emb.embed_one(param.description)
        described = [
            (sim(query, emb.embed_one(e.description)), i, e) for i, e in pool if e.description
        ]
        if described:
            consider(described)
    query = emb.embed_one(param.name)
    consider([(sim(query, emb.embed_one(e.param_key)), i, e) for i, e in pool])
    survivors = [
        Candidate(entry=entry, similarity=s)
        for s, idx, entry in sorted(best.values(), key=lambda t: (-t[0], t[1]))
        if s >= SIMILARITY_FLOOR
    ]
    return survivors[:MAX_CANDIDATES]


class TableEmbedding:
    """Looks each text up in a table of vectors."""

    def __init__(self, table):
        self.table = {text: np.array(vec) for text, vec in table.items()}

    def embed_one(self, text):
        return self.table[text]

    def embed(self, texts):
        return np.array([self.table[t] for t in texts]).reshape(len(texts), -1)


# exact binary fractions keep every dot product exact, so both sides see the
# same cosines; few distinct values, parallel and zero vectors make ties, the
# case the earlier-entry rule decides
component = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
vector = st.one_of(
    st.sampled_from([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),
    st.lists(component, min_size=3, max_size=3),
)
KEYS = ("id", "name", "q")
TEXTS = (*KEYS, *(f"about {key}" for key in KEYS))
kb_row = st.tuples(
    st.sampled_from(KEYS),                      # key
    st.integers(0, 3),                          # value
    st.sampled_from(["a", "b", "c"]),           # source
    st.one_of(st.none(), st.sampled_from(TEXTS)),  # description, maybe another entry's key
)


class TestRetrievalOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(kb_row, max_size=30),
        extended=st.integers(0, 30),
        text_vecs=st.lists(vector, min_size=len(TEXTS), max_size=len(TEXTS)),
        name_vec=vector,
        desc_vec=st.one_of(st.none(), vector),
        exclude=st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
    )
    def test_matches_per_entry_loop(self, rows, extended, text_vecs, name_vec, desc_vec, exclude):
        table = dict(zip(TEXTS, text_vecs), target=name_vec, **{"target text": desc_vec})
        emb = TableEmbedding(table)
        entries = [
            ParameterKbEntry(param_key=key, value=value, source_id=source, description=desc)
            for key, value, source, desc in rows
        ]
        kb = KnowledgeBase()
        # a leading share in one call, as build_kb adds them; the rest one
        # call each, as inference adds them
        kb.extend(entries[:extended], emb)
        for entry in entries[extended:]:
            kb.extend([entry], emb)

        param = SimpleNamespace(name="target", description="target text" if desc_vec else None)
        got = retrieve_candidates(param, kb, emb, exclude_source=exclude)
        want = loop_retrieve(param, kb, emb, exclude_source=exclude)
        assert [id(c.entry) for c in got] == [id(c.entry) for c in want]
        assert [c.similarity for c in got] == [c.similarity for c in want]


def numpy_nearest(kb, emb, channel, query, k, exclude_source=None):
    """The numpy search `KnowledgeBase.nearest` replaced, kept as its
    oracle: one matrix-vector product over a row per entry, embedded from
    the entry's own text, cosines rounded with np.round, the top k by
    similarity and ties to the earlier entry.  Also returns the cosines
    before rounding."""
    texts = [e.param_key if channel == "key" else e.description for e in kb.entries]
    index = np.array([i for i, (text, e) in enumerate(zip(texts, kb.entries))
                      if text and e.source_id != exclude_source], dtype=np.intp)
    if not len(index):
        return [], np.empty(0)
    rows = np.array([emb.embed_one(texts[i]) for i in index], dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    denom = np.sqrt(np.einsum("ij,ij->i", rows, rows)) * np.linalg.norm(q)
    raw = np.divide(rows @ q, denom, out=np.zeros_like(denom), where=denom > 0)
    sims = np.round(raw, SIMILARITY_DECIMALS)
    if len(sims) > k:
        kth = np.partition(sims, len(sims) - k)[len(sims) - k]
        keep = sims >= kth  # ties at the kth value are settled by lexsort
        sims, index = sims[keep], index[keep]
    order = np.lexsort((index, -sims))[:k]
    return list(zip(sims[order].tolist(), index[order].tolist())), raw


# non-dyadic: most products round, so the two summation orders can differ in
# the last bits; magnitudes stay far from underflow
dense = st.integers(-10_000, 10_000).map(lambda n: n / 1000)


def vectors(width):
    unit = [1.0] + [0.0] * (width - 1)
    return st.one_of(
        st.sampled_from([[0.0] * width, unit, [2.0 * x for x in unit]]),  # zero, parallel
        st.lists(component, min_size=width, max_size=width),  # exact products, many ties
        st.lists(dense, min_size=width, max_size=width),
    )


class TestNearestMatchesNumpy:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_entries_and_similarities(self, data):
        width = data.draw(st.integers(1, 6), label="width")
        table = data.draw(st.lists(vectors(width), min_size=len(TEXTS), max_size=len(TEXTS)),
                          label="text vectors")
        emb = TableEmbedding(dict(zip(TEXTS, table)))
        batches = data.draw(st.lists(st.lists(kb_row, min_size=1, max_size=8),
                                     min_size=1, max_size=4), label="extend calls")
        queries = data.draw(st.lists(st.tuples(
            vectors(width), st.sampled_from(["key", "description"]),
            st.sampled_from([1, 2, TOP_PER_CHANNEL, 40]),
            st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
        ), min_size=1, max_size=4), label="queries")
        kb = KnowledgeBase()
        for batch in batches:
            kb.extend([
                ParameterKbEntry(param_key=key, value=value, source_id=source, description=desc)
                for key, value, source, desc in batch
            ], emb)
            # the same queries after every extend: their held scores must
            # grow by the rows the call added
            for query, channel, k, exclude in queries:
                got = kb.nearest(channel, query, k, exclude)
                want, raw = numpy_nearest(kb, emb, channel, query, k, exclude)
                scaled = raw * 10.0 ** SIMILARITY_DECIMALS
                if np.any(np.abs(scaled % 1.0 - 0.5) < 0.01):
                    # a cosine within 1e-14 of a rounding boundary may round
                    # either way under another summation order; the two
                    # differ by at most 8e-16 here
                    continue
                assert got == want

    @given(st.floats(allow_nan=False, min_value=-1e290, max_value=1e290))
    @example(0.5e-12)
    @example(-0.0)
    @example(0.1 + 0.2)
    def test_rounding_matches_numpy(self, x):
        assert _rounded(x) == float(np.round(x, SIMILARITY_DECIMALS))


class TestEmbeddingMemo:
    def test_held_texts_are_not_embedded_for_queries(self):
        counting = CountingEmbedding()
        kb = KnowledgeBase()
        kb.extend([ParameterKbEntry(param_key="city", value="Köln", source_id="a",
                                    description="the city name")], counting)
        counting.texts.clear()
        arg = ToolArg(name="city", location="query", required=True, description="the city name")
        assert [c.entry.value for c in retrieve_candidates(arg, kb, counting)] == ["Köln"]
        assert counting.texts == []

    def test_unheld_target_text_embedded_once(self, judge, emb, monkeypatch):
        remote = RemoteEmbedding(RemoteConfig(endpoint_url="http://127.0.0.1:9/v1", model_name="m"))
        posted = []
        monkeypatch.setattr(remote, "_post_batch", lambda batch: posted.append(list(batch))
                            or [emb.embed_one(t).tolist() for t in batch])
        kb = KnowledgeBase()
        kb.extend([ParameterKbEntry(param_key="glytoucan_id", value="G00048MO",
                                    source_id="a")], remote)
        posted.clear()
        for n in (1, 2):
            tool = generate_tool(
                Endpoint(name=f"Lookup {n}", method="GET", url=f"https://h.example/{n}",
                         required_parameters=[Parameter(name="accession",
                                                        description="the accession code")]),
                f"s{n}",
            )
            outcome = infer_parameters(tool, kb, judge, remote, http=HttpPolicy(offline=True))
            assert outcome.note.startswith("no candidates")
        # the targets of both tools in one request, and their queries in none
        assert posted == [["the accession code", "accession"]]


@pytest.fixture()
def validated_corpus(mock_api, judge, emb):
    """Tools + validation reports for the full synthetic corpus."""
    tools = []
    for source_id, spec, _text in build_corpus(mock_api.base_url):
        built, _ = generate_tools_for_spec(spec, source_id)
        tools.extend(built)
    reports = run_validation(tools, judge, width=4, http=HttpPolicy(offline=True, limiter=None))
    return tools, reports


class TestInferParameters:
    def test_recovers_gated_value_from_other_source(self, validated_corpus, judge, emb):
        tools, reports = validated_corpus
        kb = build_kb(reports, tools, emb)
        target = next(t for t in tools if t.tool_name == "get_glycan")
        import copy

        stripped = copy.deepcopy(target)
        for arg in stripped.args:
            arg.example_value = arg.default_value = None
        outcome = infer_parameters(
            stripped, kb, judge, emb, exclude_source=target.source_id,
            http=HttpPolicy(offline=True),
        )
        assert outcome.success
        assert outcome.assignment == {"glytoucan_id": "G00048MO"}
        assert outcome.attempts <= 20
        # winning value written back onto the descriptor
        assert stripped.args[0].example_value == "G00048MO"

    def test_empty_kb_has_no_candidates(self, mock_api, judge, emb):
        tool = generate_tool(
            Endpoint(name="E", method="GET", url=f"{mock_api.base_url}/glycan",
                     required_parameters=[Parameter(name="glytoucan_id")]),
            "s",
        )
        before = len(mock_api.hits)
        outcome = infer_parameters(tool, KnowledgeBase(), judge, emb,
                                   http=HttpPolicy(offline=True))
        assert (outcome.success, outcome.attempts) == (False, 0)
        assert outcome.note == "no candidates: no usable candidates for parameter 'glytoucan_id'"
        assert len(mock_api.hits) == before

    def test_exhausted_counts_attempts(self, mock_api, judge, emb):
        kb = KnowledgeBase()
        kb.extend([
            ParameterKbEntry(param_key="glytoucan_id", value=wrong, source_id=f"s{i}")
            for i, wrong in enumerate(["BAD1", "BAD2", "BAD3"])
        ], emb)
        tool = generate_tool(
            Endpoint(name="Get Glycan", method="GET", url=f"{mock_api.base_url}/glycan",
                     required_parameters=[Parameter(name="glytoucan_id")]),
            "mine",
        )
        outcome = infer_parameters(tool, kb, judge, emb, http=HttpPolicy(offline=True))
        assert (outcome.success, outcome.attempts) == (False, 3)
        assert outcome.note == "get_glycan: all 3 ranked assignments failed validation"
        assert len(kb) == 3  # a failure inserts nothing

    def test_failed_outcomes(self, mock_api, judge, emb):
        # the rows infer writes to kb/inference.jsonl, every field in field order
        tool = generate_tool(
            Endpoint(name="t", method="GET", url=f"{mock_api.base_url}/glycan",
                     required_parameters=[Parameter(name="q")]),
            "s",
        )
        http = HttpPolicy(offline=True)
        none = infer_parameters(tool, KnowledgeBase(), judge, emb, http=http)
        assert list(none.to_dict().items()) == [
            ("tool_name", "t"), ("success", False), ("assignment", None), ("attempts", 0),
            ("candidates_considered", 0),
            ("note", "no candidates: no usable candidates for parameter 'q'"),
        ]
        kb = KnowledgeBase()
        kb.extend([ParameterKbEntry(param_key="q", value=f"BAD{i}", source_id=f"o{i}")
                   for i in range(4)], emb)
        spent = infer_parameters(tool, kb, judge, emb, http=http).to_dict()
        assert list(spent) == list(none.to_dict())
        assert (spent["success"], spent["assignment"], spent["attempts"]) == (False, None, 4)
        assert spent["candidates_considered"] == 4
        assert spent["note"] == "t: all 4 ranked assignments failed validation"

    def test_nothing_to_infer(self, judge, emb):
        tool = generate_tool(
            Endpoint(name="E", method="GET", url="https://h.example/x"), "s"
        )
        outcome = infer_parameters(tool, KnowledgeBase(), judge, emb,
                                   http=HttpPolicy(offline=True))
        assert outcome.success and outcome.note == "nothing to infer"
        assert outcome.attempts == 0


class _GuessBackend:
    def __init__(self, scripted):
        self.scripted = list(scripted)
        self.prompts = []

    def complete(self, messages, response_schema=None, schema_name="output"):
        self.prompts.append(messages[0]["content"])
        return self.scripted.pop(0), 7


class TestGuessBaseline:
    def make_tool(self, mock_api):
        return generate_tool(
            Endpoint(name="Get Glycan", method="GET", url=f"{mock_api.base_url}/glycan",
                     description="Glycan record by accession.",
                     required_parameters=[Parameter(name="glytoucan_id")]),
            "s",
        )

    def test_history_feedback_until_pass(self, mock_api, judge):
        backend = _GuessBackend([
            json.dumps({"parameters": [{"parameter_key": "glytoucan_id", "parameter_guess": "WRONG"}]}),
            json.dumps({"parameters": [{"parameter_key": "glytoucan_id", "parameter_guess": "G00048MO"},
                                       {"parameter_key": "not_an_arg", "parameter_guess": "x"}]}),
        ])
        outcome = llm_guess_baseline(self.make_tool(mock_api), judge, backend,
                                     http=HttpPolicy(offline=True))
        assert outcome.success and outcome.attempts == 2
        # the target values it sent, as infer_parameters reports them
        assert outcome.assignment == {"glytoucan_id": "G00048MO"}
        assert "WRONG" in backend.prompts[1]  # failed guess fed back as history
        assert "***history start" in backend.prompts[0]

    def test_rounds_exhausted(self, mock_api, judge):
        wrong = json.dumps({"parameters": [{"parameter_key": "glytoucan_id", "parameter_guess": "NOPE"}]})
        backend = _GuessBackend([wrong] * 10)
        outcome = llm_guess_baseline(self.make_tool(mock_api), judge, backend,
                                     http=HttpPolicy(offline=True))
        assert not outcome.success and outcome.attempts == 10

    def test_malformed_output_raises(self, mock_api, judge):
        backend = _GuessBackend(["not json at all"])
        with pytest.raises(BackendUnreachable):
            llm_guess_baseline(self.make_tool(mock_api), judge, backend,
                               http=HttpPolicy(offline=True))


class TestLeaveOneApiOut:
    def test_two_source_recovery(self, validated_corpus, judge, emb):
        tools, reports = validated_corpus
        result = leave_one_api_out(tools, reports, emb, judge, http=HttpPolicy(offline=True))
        by_name = {o.tool_name: o for o in result["outcomes"]}

        assert by_name["get_glycan"].success
        assert by_name["convert_structure"].success
        assert by_name["get_glycan"].attempts <= 20
        assert by_name["get_glycan"].candidates_considered <= 10
        # the cross-source query param has no sufficiently similar neighbor
        assert not by_name["search_cards"].success
        assert "legacy_lookup" in result["skipped_no_required_args"]
        assert result["success_count"] == 2
        assert result["total"] == 3

    def test_original_tools_untouched(self, validated_corpus, judge, emb):
        tools, reports = validated_corpus
        before = {t.tool_name: json.dumps(t.to_dict(), sort_keys=True) for t in tools}
        leave_one_api_out(tools, reports, emb, judge, http=HttpPolicy(offline=True))
        after = {t.tool_name: json.dumps(t.to_dict(), sort_keys=True) for t in tools}
        assert before == after

    def test_insufficient_corpus(self, mock_api, judge, emb):
        tool = generate_tool(
            Endpoint(name="Search Cards", method="GET", url=f"{mock_api.base_url}/cards",
                     required_parameters=[Parameter(name="q", example_value="x")]),
            "only_source",
        )
        report = scripted_report(tool, ErrorType.PASSED)
        with pytest.raises(InsufficientCorpus):
            leave_one_api_out([tool], [report], emb, judge, http=HttpPolicy(offline=True))
