import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from apimill.errors import RepairFailure
from apimill.extract import (
    _FENCE,
    ExtractionResult,
    HeuristicBackend,
    RemoteChatBackend,
    RemoteStructuredBackend,
    ReplayBackend,
    _balanced_spans,
    extract_spec,
    repair_json,
    run_extraction,
)
from apimill.ingest import ApiDocument, dehtml
from apimill.prompts import EXTRACTION_INSTRUCTION


def doc(text, source_id="doc"):
    return ApiDocument(source_id=source_id, origin="", raw="", text=text)


def scan_repair(raw):
    """repair_json by its scan alone: the earliest balanced span that loads,
    in the fenced block and then in the whole output; None if none does."""
    fenced = _FENCE.search(raw)
    for candidate in ([fenced.group(1)] if fenced else []) + [raw]:
        for span, unbalanced in _balanced_spans(candidate):
            if not unbalanced:
                try:
                    return json.loads(span)
                except json.JSONDecodeError:
                    pass
    return None


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(st.sampled_from('ab {}[]"\\:,'), max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# model output: JSON objects and arrays, fences, prose and stray brackets
_OUTPUT = st.lists(st.one_of(
    st.tuples(st.dictionaries(st.text(max_size=4), _JSON, max_size=3) | st.lists(_JSON, max_size=3),
              st.sampled_from([None, 2])).map(lambda v: json.dumps(v[0], indent=v[1])),
    st.sampled_from(["```json\n", "\n```", "```", " ", "\n", "Here it is: ", " Hope that helps.",
                     "{", "}", '"', "[1, 2]", "{not json}", '{"a": '])), max_size=4).map("".join)


class TestRepairJson:
    def test_plain_object(self):
        assert repair_json('{"a": 1}') == {"a": 1}

    def test_fenced_block(self):
        raw = 'Sure! Here you go:\n```json\n{"a": [1, 2]}\n```\nHope that helps.'
        assert repair_json(raw) == {"a": [1, 2]}

    def test_prose_around_object(self):
        assert repair_json('prefix {"k": "v"} suffix') == {"k": "v"}

    def test_earliest_parseable_span_wins(self):
        assert repair_json('{"first": 1} {"second": 2}') == {"first": 1}

    def test_braces_inside_strings_ignored(self):
        raw = '{"s": "has } and { inside"}'
        assert repair_json(raw) == {"s": "has } and { inside"}

    def test_truncated_output_fails_closed(self):
        with pytest.raises(RepairFailure) as err:
            repair_json('{"API": {"endpoints": [')
        assert err.value.reason == "unbalanced"

    def test_no_object(self):
        with pytest.raises(RepairFailure) as err:
            repair_json("there is no json here")
        assert err.value.reason == "no object found"

    def test_balanced_but_invalid(self):
        with pytest.raises(RepairFailure) as err:
            repair_json("{not json}")
        assert err.value.reason == "no parseable object"

    def test_nested_object_returned_whole(self):
        raw = '{"API": {"endpoints": []}}'
        assert repair_json(raw) == {"API": {"endpoints": []}}

    @given(st.dictionaries(st.text(min_size=1, max_size=6), st.integers() | st.text(max_size=6), max_size=4))
    def test_round_trips_any_json_object(self, obj):
        noisy = "noise " + json.dumps(obj) + " trailing"
        assert repair_json(noisy) == obj

    @given(_OUTPUT)
    @example('```json\n{"a": 1}\n``` {"b": 2}')
    @example(' {"a": "} {"} {"b": 2}')
    @example('[{"a": 1}]')
    def test_same_object_as_the_scan(self, raw):
        try:
            repaired = repair_json(raw)
        except RepairFailure:
            repaired = None
        assert repaired == scan_repair(raw)


class TestReplayBackend:
    def test_dict_store(self, pokemon_spec_dict):
        backend = ReplayBackend({"pokemon": json.dumps(pokemon_spec_dict)})
        result = extract_spec(doc("anything", "pokemon"), backend)
        assert result.valid
        assert result.spec.endpoints[0].name == "Search Cards"
        assert result.backend_kind == "replay"
        assert result.token_or_byte_cost > 0

    def test_dir_store(self, tmp_path, pokemon_spec_dict):
        (tmp_path / "pokemon.json").write_text(json.dumps(pokemon_spec_dict))
        backend = ReplayBackend(tmp_path)
        assert extract_spec(doc("x", "pokemon"), backend).valid

    def test_missing_key_recorded_not_raised(self):
        result = extract_spec(doc("x", "absent"), ReplayBackend({}))
        assert not result.valid
        assert result.violations and result.violations[0].startswith("backend:")

    def test_unreadable_file_recorded_not_raised(self, tmp_path):
        (tmp_path / "latin.json").write_bytes(b'{"endpoints": [], "title": "caf\xe9 \xff"}')
        (tmp_path / "folder.json").mkdir()
        backend = ReplayBackend(tmp_path)
        for source_id in ("latin", "folder"):
            result = extract_spec(doc("x", source_id), backend)
            assert not result.valid
            (violation,) = result.violations
            assert violation.startswith(f"backend: unreadable recorded output for {source_id!r}")

    def test_lone_surrogate_in_mapping_recorded_invalid(self):
        # the character itself, not its JSON escape: the output has no UTF-8 form
        raw = '{"endpoints": [{"name": "q\ud800", "method": "GET", "url": "https://h.example/"}]}'
        result = extract_spec(doc("x", "a"), ReplayBackend({"a": raw}))
        assert not result.valid
        assert result.violations == [
            "wrong_value_kind at endpoints[0].name (text holds a lone surrogate)"]
        assert "\\ud800" in result.raw_output
        line = json.dumps(result.to_dict(), ensure_ascii=False).encode("utf-8")
        assert ExtractionResult.from_dict(json.loads(line)) == result


def _ep(name, method, url, req=(), opt=(), description=None):
    """An endpoint as `HeuristicBackend` writes it, fields in their order."""
    return {"name": name} | ({"description": description} if description else {}) | {
        "method": method, "url": url, "headers": [],
        "required_parameters": list(req), "optional_parameters": list(opt)}


class TestHeuristicBackend:
    def test_structured_page(self):
        text = (
            "Weather Service API\n"
            "## Current Conditions\n"
            "Latest observed weather for a station.\n"
            "GET https://api.weather.example/v1/current\n"
            "Required parameters:\n"
            "- station (string): Station identifier. Example: KSFO\n"
            "Optional parameters:\n"
            "- units (string): Unit system. Example: metric Default: si\n"
        )
        result = extract_spec(doc(text), HeuristicBackend())
        assert result.valid
        spec = result.spec
        assert spec.title == "Weather Service API"
        (ep,) = spec.endpoints
        assert ep.name == "Current Conditions"
        assert ep.description == "Latest observed weather for a station."
        assert ep.method == "GET"
        assert ep.url == "https://api.weather.example/v1/current"
        (station,) = ep.required_parameters
        assert (station.type_hint, station.description, station.example_value) == (
            "string", "Station identifier.", "KSFO",
        )
        (units,) = ep.optional_parameters
        assert units.example_value == "metric" and units.default_value == "si"

    def test_prose_url_promoted_with_query_params(self):
        text = "Look up cards via GET https://api.cards.example/v2/cards?q=name:pikachu for searches."
        result = extract_spec(doc(text), HeuristicBackend())
        assert result.valid
        (ep,) = result.spec.endpoints
        assert ep.url == "https://api.cards.example/v2/cards"
        (q,) = ep.required_parameters
        assert q.name == "q" and q.example_value == "name:pikachu"

    def test_value_coercion(self):
        text = (
            "## E\nGET https://h.example/api\nOptional parameters:\n"
            "- page (integer): Page. Example: 3\n"
            "- deep (boolean): Expand. Default: false\n"
            "- score (number): Cut-off. Example: 1.5\n"
        )
        result = extract_spec(doc(text), HeuristicBackend())
        p = {x.name: x for x in result.spec.endpoints[0].optional_parameters}
        assert p["page"].example_value == 3
        assert p["deep"].default_value is False
        assert p["score"].example_value == 1.5

    def test_pokemon_html_end_to_end(self, pokemon_html):
        result = extract_spec(doc(dehtml(pokemon_html), "pokemon"), HeuristicBackend())
        assert result.valid
        ep = result.spec.endpoints[0]
        assert ep.method == "GET"
        assert ep.url == "https://api.pokemontcg.io/v2/cards"
        assert any(p.name == "q" for p in ep.required_parameters)

    def test_pageless_text_yields_empty_spec(self):
        result = extract_spec(doc("nothing API-like here"), HeuristicBackend())
        assert result.valid and result.spec.endpoints == []

    @pytest.mark.parametrize("text, title, endpoints", [
        # a lower-case verb and scheme still make a verb line
        ("Cards\nget HTTPS://h.example/v1/cards\n", "Cards",
         [_ep("Cards", "GET", "HTTPS://h.example/v1/cards")]),
        # trailing text: not a verb line, so description text of a marker no
        # verb line follows; only the prose pass reads the URL
        ("Cards\n## Search\nGET https://h.example/find now\n", "Cards",
         [_ep("Find", "GET", "https://h.example/find")]),
        # a section marker before any endpoint, and an item before any
        # section, are text; an item is never the title
        ("- a (string): before any endpoint\nRequired parameters:\nTitle\n"
         "GET https://h.example/x\n- b (string): no section yet\nRequired parameters:\n"
         "- c (int): kept\n## Next\n- d (string): a description line\n",
         "Required parameters:",
         [_ep("X", "GET", "https://h.example/x", req=[{"name": "c", "type": "int", "description": "kept"}])]),
        # a name already held, by a query key or an earlier item, is dropped
        ("## Dup\nGET https://h.example/d?q=1\nRequired parameters:\n- q (string): again\n"
         "- r (string): first\nOptional parameters:\n- r (integer): second\n", None,
         [_ep("Dup", "GET", "https://h.example/d",
              req=[{"name": "q", "example": "1"}, {"name": "r", "type": "string", "description": "first"}])]),
        ("## S\nPOST /s\nrequired  parameters :\n* k: key\nOPTIONAL PARAMETERS\n"
         "-  m   (  bool ) :  Example: TRUE\n", None,
         [_ep("S", "POST", "/s", req=[{"name": "k", "description": "key"}],
              opt=[{"name": "m", "type": "bool", "example": True}])]),
        # a marker no verb line follows takes the text after it with it
        ("Title\n## Lonely\nno verb line follows\n##   Spaced   name\n", "Title", []),
        # a prose URL stops at a bracket or a quote
        ('See GET https://h.example/p(1) and POST https://h.example/q"x for more.\n',
         'See GET https://h.example/p(1) and POST https://h.example/q"x for more.',
         [_ep("P", "GET", "https://h.example/p"), _ep("Q", "POST", "https://h.example/q")]),
        # only a query piece with a key and an "=" is promoted
        ("## Q\nGET https://h.example/q?q=1&b=&=3&c&d=e=f\n", None,
         [_ep("Q", "GET", "https://h.example/q", req=[
             {"name": "q", "example": "1"}, {"name": "b", "example": ""}, {"name": "d", "example": "e=f"}])]),
        # " Example: " splits at its first place; "Example: " opening the rest
        # counts only when no " Example: " follows
        ("## E\nGET https://h.example/e\nOptional parameters:\n- a (string): Example: 5\n"
         "- d (string): d Example: a Example: b\n- e: Example: a Example: b\n", None,
         [_ep("E", "GET", "https://h.example/e", opt=[
             {"name": "a", "type": "string", "example": 5},
             {"name": "d", "type": "string", "description": "d", "example": "a Example: b"},
             {"name": "e", "description": "Example: a", "example": "b"}])]),
        # " Default: " is cut off first, so an example after it stays in it
        ("## D\nGET https://h.example/d\nOptional parameters:\n"
         "- x (number): Cut. Default: 2.5 Example: 3\n- y: Example: false Default: x\n", None,
         [_ep("D", "GET", "https://h.example/d", opt=[
             {"name": "x", "type": "number", "description": "Cut.", "default": "2.5 Example: 3"},
             {"name": "y", "default": "x", "example": False}])]),
        # the text between a marker and its verb line, blank lines skipped
        ("## Rel\n  First line.\n\nSecond line.\nDELETE /rel/{id}\n", None,
         [_ep("Rel", "DELETE", "/rel/{id}", description="First line. Second line.")]),
        # a verb line is kept however often its URL was seen; a prose URL is
        # dropped once its base was
        ("GET https://h.example/r\nGET https://h.example/r\n"
         "Use GET https://h.example/s?a=1 or GET https://h.example/s?b=2\n", None,
         [_ep("R", "GET", "https://h.example/r"), _ep("R", "GET", "https://h.example/r"),
          _ep("S", "GET", "https://h.example/s", req=[{"name": "a", "example": "1"}])]),
        ("GET https://h.example/a-b_c/\nGET https://h.example/items/{}\n", None,
         [_ep("A B C", "GET", "https://h.example/a-b_c/"), _ep("Endpoint 2", "GET", "https://h.example/items/{}")]),
        # only a finite JSON number literal reads as a number
        pytest.param(
            "## N\nGET https://h.example/n\nOptional parameters:\n- a: Example: 1_000\n"
            "- b: Example: \u0663\n- c: Example: +5\n- d: Example: 007\n- e: Example: 1e400\n"
            f"- f: Example: {'9' * 5000}\n- g: Example: -0.5E2\n- h: Example: -0\n", None,
            [_ep("N", "GET", "https://h.example/n", opt=[
                {"name": "a", "example": "1_000"}, {"name": "b", "example": "\u0663"},
                {"name": "c", "example": "+5"}, {"name": "d", "example": "007"},
                {"name": "e", "example": "1e400"}, {"name": "f", "example": "9" * 5000},
                {"name": "g", "example": -50.0}, {"name": "h", "example": 0}])],
            id="json-number-literals"),
    ])
    def test_grammar(self, text, title, endpoints):
        raw, cost = HeuristicBackend().extract(doc(text))
        expected = ({"title": title} if title is not None else {}) | {"endpoints": endpoints}
        assert raw == json.dumps(expected, indent=2, ensure_ascii=False)
        assert cost == len(raw.encode("utf-8"))


class _ScriptedClient:
    """Stand-in chat client recording calls and replaying canned output."""

    def __init__(self, content):
        self.content = content
        self.calls = []

    def complete(self, messages, response_schema=None, schema_name="output"):
        self.calls.append({"messages": messages, "schema": response_schema, "name": schema_name})
        return self.content, 42


class TestRemoteBackends:
    def test_chat_messages_and_one_shot(self, pokemon_spec_dict):
        client = _ScriptedClient(json.dumps(pokemon_spec_dict))
        backend = RemoteChatBackend(client, one_shot_example=("EX DOC", '{"endpoints": []}'))
        result = extract_spec(doc("the page text", "pokemon"), backend)
        assert result.valid and result.token_or_byte_cost == 42
        msgs = client.calls[0]["messages"]
        assert msgs[0] == {"role": "system", "content": EXTRACTION_INSTRUCTION}
        assert msgs[1]["content"] == "EX DOC"
        assert msgs[2]["role"] == "assistant"
        assert msgs[3]["content"] == "the page text"
        assert client.calls[0]["schema"] is None

    def test_structured_passes_schema(self, pokemon_spec_dict):
        client = _ScriptedClient(json.dumps({"API": pokemon_spec_dict}))
        backend = RemoteStructuredBackend(client)
        result = extract_spec(doc("text"), backend)
        assert result.valid
        call = client.calls[0]
        assert call["schema"] is not None and call["name"] == "API"
        assert "definitions" in call["schema"]

    def test_malformed_output_recorded(self):
        backend = RemoteChatBackend(_ScriptedClient('{"endpoints": ['))
        result = extract_spec(doc("text"), backend)
        assert not result.valid
        assert result.violations == ["repair: unbalanced"]

    def test_schema_violations_recorded(self):
        backend = RemoteChatBackend(_ScriptedClient('{"endpoints": [{"name": "X"}]}'))
        result = extract_spec(doc("text"), backend)
        assert not result.valid and result.spec is None
        assert any("missing_required_field" in v for v in (str(x) for x in result.violations))


def test_extraction_result_dict_round_trip(pokemon_html):
    valid = extract_spec(doc(dehtml(pokemon_html), "pokemon"), HeuristicBackend())
    unrepaired = extract_spec(doc("x", "broken"), ReplayBackend({"broken": "no json here"}))
    unreachable = extract_spec(doc("x", "gone"), ReplayBackend({}))
    invalid = extract_spec(doc("x", "bad"), ReplayBackend({"bad": '{"endpoints": [{"name": "X"}]}'}))
    assert valid.valid and valid.spec.endpoints
    assert not invalid.valid and invalid.violations
    for result in (valid, unrepaired, unreachable, invalid):
        assert ExtractionResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result
    # the row still carries "valid", derived from the spec
    assert [r.to_dict()["valid"] for r in (valid, unrepaired, unreachable, invalid)] == [
        True, False, False, False]


def test_run_extraction_preserves_order():
    texts = {f"s{i}": f"## E{i}\nGET https://h.example/{i}\n" for i in range(6)}
    results = []
    valid = run_extraction(iter(texts.items()), HeuristicBackend(), results.append, width=3)
    assert [r.source_id for r in results] == list(texts)
    assert all(r.valid for r in results) and valid == 6
    assert results[2].spec.endpoints[0].url == "https://h.example/2"
