import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from apimill.extract import ReplayBackend, extract_spec
from apimill.ingest import ApiDocument
from apimill.model import (
    ApiSpec,
    Endpoint,
    Parameter,
    coerce_scalar,
    primary_url,
    render_scalar,
    validate_spec,
)
from apimill.toolgen import parse_url_template


def minimal_endpoint(**over):
    ep = {"name": "Ping", "method": "get", "url": "https://h.example/ping"}
    ep.update(over)
    return ep


def wrap(*endpoints, title=None):
    doc = {"endpoints": list(endpoints)}
    if title is not None:
        doc["title"] = title
    return doc


class TestValidateSpec:
    def test_bare_and_wrapped_forms_agree(self, pokemon_spec_dict):
        bare, v1 = validate_spec(pokemon_spec_dict)
        wrapped, v2 = validate_spec({"API": pokemon_spec_dict})
        assert v1 == v2 == []
        assert bare.to_dict() == wrapped.to_dict()

    def test_output_is_bare_form(self, pokemon_spec_dict):
        spec, _ = validate_spec({"API": pokemon_spec_dict})
        assert "API" not in spec.to_dict()
        assert "endpoints" in spec.to_dict()

    def test_pokemon_round_trip(self, pokemon_spec_dict):
        spec, violations = validate_spec(pokemon_spec_dict)
        assert violations == []
        assert spec.title == "Pokémon TCG API Documentation"
        (ep,) = spec.endpoints
        assert ep.name == "Search Cards"
        assert ep.method == "GET"
        assert ep.url == "https://api.pokemontcg.io/v2/cards"
        (q,) = ep.required_parameters
        assert q.name == "q"
        assert q.type_hint == "string"
        assert q.example_value == "name:gardevoir"
        assert q.default_value is None  # explicit null means absent
        # serialized form re-validates to the same structure
        again, v = validate_spec(json.loads(spec.to_json()))
        assert v == [] and again.to_dict() == spec.to_dict()

    def test_method_uppercased(self):
        spec, v = validate_spec(wrap(minimal_endpoint(method=" get ")))
        assert v == []
        assert spec.endpoints[0].method == "GET"

    def test_missing_required_fields(self):
        _, v = validate_spec(wrap({"name": "X"}))
        kinds = {(x.kind, x.path) for x in v}
        assert ("missing_required_field", "endpoints[0].method") in kinds
        assert ("missing_required_field", "endpoints[0].url") in kinds

    def test_missing_endpoints_key(self):
        spec, v = validate_spec({"title": "T"})
        assert spec is None
        assert any(x.path == "endpoints" for x in v)

    def test_non_object_document(self):
        spec, v = validate_spec([1, 2])
        assert spec is None and v[0].kind == "not_an_object"

    def test_any_violation_means_no_spec(self):
        doc = wrap(minimal_endpoint(), {"name": "Bad"})
        spec, v = validate_spec(doc)
        assert spec is None and v

    def test_wrapped_path_prefix(self):
        _, v = validate_spec({"API": {"endpoints": [{"name": "X"}]}})
        assert all(x.path.startswith("API.endpoints[0]") for x in v)

    def test_url_list_accepted_empty_rejected(self):
        spec, v = validate_spec(
            wrap(minimal_endpoint(url=["https://a.example/x", "https://b.example/x"]))
        )
        assert v == [] and spec.endpoints[0].url == ["https://a.example/x", "https://b.example/x"]
        spec, v = validate_spec(wrap(minimal_endpoint(url=[])))
        assert spec is None and any("url" in x.path for x in v)

    def test_url_wrong_kind(self):
        spec, v = validate_spec(wrap(minimal_endpoint(url=7)))
        assert spec is None and any(x.kind == "wrong_value_kind" for x in v)

    def test_required_wins_over_optional(self):
        ep = minimal_endpoint(
            required_parameters=[{"name": "id", "example": "1"}],
            optional_parameters=[{"name": "id", "example": "2"}, {"name": "v"}],
        )
        spec, v = validate_spec(wrap(ep))
        assert v == []
        assert [p.name for p in spec.endpoints[0].required_parameters] == ["id"]
        assert [p.name for p in spec.endpoints[0].optional_parameters] == ["v"]

    def test_duplicate_in_list_keeps_first(self):
        ep = minimal_endpoint(
            required_parameters=[{"name": "a", "example": "first"}, {"name": "a", "example": "second"}]
        )
        spec, _ = validate_spec(wrap(ep))
        (a,) = spec.endpoints[0].required_parameters
        assert a.example_value == "first"

    def test_param_name_rules(self):
        for bad in ["", "  ", "has space", 7, None]:
            ep = minimal_endpoint(required_parameters=[{"name": bad}])
            spec, v = validate_spec(wrap(ep))
            assert spec is None, bad
            assert v

    def test_compound_example_becomes_json_string(self):
        ep = minimal_endpoint(required_parameters=[{"name": "f", "example": {"a": 1}}])
        spec, v = validate_spec(wrap(ep))
        assert v == []
        assert spec.endpoints[0].required_parameters[0].example_value == '{"a":1}'

    def test_stray_scalar_text_fields_stringified(self):
        ep = minimal_endpoint(description=12)
        spec, v = validate_spec(wrap(ep, title=True))
        assert v == []
        assert spec.title == "true"
        assert spec.endpoints[0].description == "12"

    def test_container_text_field_rejected(self):
        spec, v = validate_spec(wrap(minimal_endpoint(description=["x"])))
        assert spec is None and any(x.kind == "wrong_value_kind" for x in v)

    def test_header_scalars_stringified(self):
        ep = minimal_endpoint(headers=["X-Key: abc", 5])
        spec, v = validate_spec(wrap(ep))
        assert v == []
        assert spec.endpoints[0].headers == ["X-Key: abc", "5"]

    @pytest.mark.parametrize("document, path", [
        (wrap(minimal_endpoint(), title="T\ud800"), "title"),
        (wrap(minimal_endpoint(name="P\udfff")), "endpoints[0].name"),
        (wrap(minimal_endpoint(method="g\ud800")), "endpoints[0].method"),
        (wrap(minimal_endpoint(url="https://h.example/\ud800")), "endpoints[0].url"),
        (wrap(minimal_endpoint(url=["https://h.example/", "https://h.example/\ud800"])),
         "endpoints[0].url[1]"),
        (wrap(minimal_endpoint(description="\udc00")), "endpoints[0].description"),
        (wrap(minimal_endpoint(headers=["X-Key: \ud800"])), "endpoints[0].headers[0]"),
        (wrap(minimal_endpoint(required_parameters=[{"name": "q\ud800"}])),
         "endpoints[0].required_parameters[0].name"),
        (wrap(minimal_endpoint(optional_parameters=[{"name": "q", "type": "\ud800"}])),
         "endpoints[0].optional_parameters[0].type"),
        (wrap(minimal_endpoint(required_parameters=[{"name": "q", "description": "\ud800"}])),
         "endpoints[0].required_parameters[0].description"),
        (wrap(minimal_endpoint(required_parameters=[{"name": "q", "default": "\ud800"}])),
         "endpoints[0].required_parameters[0].default"),
        (wrap(minimal_endpoint(required_parameters=[{"name": "q", "example": ["\ud800"]}])),
         "endpoints[0].required_parameters[0].example"),
    ])
    def test_lone_surrogate_rejected_where_it_is(self, document, path):
        spec, v = validate_spec(document)
        assert spec is None
        assert [(x.kind, x.path) for x in v] == [("wrong_value_kind", path)]

    @pytest.mark.parametrize("document, want", [
        ([1, 2], ["not_an_object at $ (expected an object)"]),
        (wrap("GET /x"), ["not_an_object at endpoints[0] (expected an object)"]),
        (wrap(minimal_endpoint(optional_parameters=["q"])),
         ["not_an_object at endpoints[0].optional_parameters[0] (expected an object)"]),
        ({"title": "T"}, ["missing_required_field at endpoints"]),
        ({"API": {"title": "T"}}, ["missing_required_field at API.endpoints"]),
        (wrap({"url": "https://h.example/"}),
         ["missing_required_field at endpoints[0].name",
          "missing_required_field at endpoints[0].method"]),
        (wrap({"name": "P", "method": "GET"}), ["missing_required_field at endpoints[0].url"]),
        (wrap(minimal_endpoint(required_parameters=[{"type": "string"}])),
         ["missing_required_field at endpoints[0].required_parameters[0].name"]),
        (wrap(minimal_endpoint(), title={"t": 1}),
         ["wrong_value_kind at title (expected text, got dict)"]),
        (wrap(minimal_endpoint(required_parameters=[{"name": "q", "type": ["s"]}])),
         ["wrong_value_kind at endpoints[0].required_parameters[0].type (expected text, got list)"]),
        ({"endpoints": {"name": "P"}}, ["wrong_value_kind at endpoints (expected an array)"]),
        ({"endpoints": None}, ["wrong_value_kind at endpoints (expected an array)"]),
        (wrap(minimal_endpoint(required_parameters={"name": "q"})),
         ["wrong_value_kind at endpoints[0].required_parameters (expected an array)"]),
        (wrap(minimal_endpoint(optional_parameters="q")),
         ["wrong_value_kind at endpoints[0].optional_parameters (expected an array)"]),
        (wrap(minimal_endpoint(headers="X-Key: abc")),
         ["wrong_value_kind at endpoints[0].headers (expected an array)"]),
        (wrap(minimal_endpoint(headers=["X-Key: abc", {"X-Key": "abc"}, None])),
         ["wrong_value_kind at endpoints[0].headers[1] (header must be a string)",
          "wrong_value_kind at endpoints[0].headers[2] (header must be a string)"]),
        (wrap(minimal_endpoint(required_parameters=[{"name": 7}])),
         ["wrong_value_kind at endpoints[0].required_parameters[0].name "
          "(parameter name must be a string)"]),
        (wrap(minimal_endpoint(required_parameters=[{"name": " "}])),
         ["wrong_value_kind at endpoints[0].required_parameters[0].name (parameter name is empty)"]),
        (wrap(minimal_endpoint(optional_parameters=[{"name": "page size"}])),
         ["wrong_value_kind at endpoints[0].optional_parameters[0].name "
          "(parameter name contains whitespace)"]),
        (wrap(minimal_endpoint(url=[])),
         ["wrong_value_kind at endpoints[0].url (url array is empty)"]),
        (wrap(minimal_endpoint(url=["https://h.example/", 7, None])),
         ["wrong_value_kind at endpoints[0].url[1] (url must be a string)"]),
        (wrap(minimal_endpoint(url=None)),
         ["wrong_value_kind at endpoints[0].url (url must be a string or array of strings)"]),
        (wrap(minimal_endpoint(name=" ")),
         ["wrong_value_kind at endpoints[0].name (endpoint name must be a non-empty string)"]),
        (wrap(minimal_endpoint(name=3)),
         ["wrong_value_kind at endpoints[0].name (endpoint name must be a non-empty string)"]),
        (wrap(minimal_endpoint(method="")),
         ["wrong_value_kind at endpoints[0].method (method must be a non-empty string)"]),
        (wrap(minimal_endpoint(method=["GET"])),
         ["wrong_value_kind at endpoints[0].method (method must be a non-empty string)"]),
        ({"API": {"endpoints": [minimal_endpoint(headers=["\udc00"])]}},
         ["wrong_value_kind at API.endpoints[0].headers[0] (text holds a lone surrogate)"]),
        # every rule of one endpoint in field order; its description is read
        # only once the rest is clean, so a bad one is not reported here
        (wrap({"name": "", "method": "g\ud800", "url": [], "headers": [None],
               "description": {}, "required_parameters": [{"name": "a b"}],
               "optional_parameters": 1}, {"url": 1}, title=[]),
         ["wrong_value_kind at title (expected text, got list)",
          "wrong_value_kind at endpoints[0].name (endpoint name must be a non-empty string)",
          "wrong_value_kind at endpoints[0].method (text holds a lone surrogate)",
          "wrong_value_kind at endpoints[0].url (url array is empty)",
          "wrong_value_kind at endpoints[0].headers[0] (header must be a string)",
          "wrong_value_kind at endpoints[0].required_parameters[0].name "
          "(parameter name contains whitespace)",
          "wrong_value_kind at endpoints[0].optional_parameters (expected an array)",
          "missing_required_field at endpoints[1].name",
          "missing_required_field at endpoints[1].method",
          "wrong_value_kind at endpoints[1].url (url must be a string or array of strings)"]),
        (wrap(minimal_endpoint(description={}), minimal_endpoint(description=[1])),
         ["wrong_value_kind at endpoints[0].description (expected text, got dict)",
          "wrong_value_kind at endpoints[1].description (expected text, got list)"]),
    ])
    def test_violation_details(self, document, want):
        spec, v = validate_spec(document)
        assert spec is None
        assert [str(x) for x in v] == want

    def test_surrogate_pair_is_one_character(self):
        spec, v = validate_spec(json.loads('{"endpoints": [{"name": "Smile \\ud83d\\ude00", '
                                           '"method": "GET", "url": "https://h.example/"}]}'))
        assert v == [] and spec.endpoints[0].name == "Smile \U0001f600"

    def test_unknown_fields_dropped(self):
        ep = minimal_endpoint(novel_field="ignored")
        spec, v = validate_spec(wrap(ep))
        assert v == []
        assert "novel_field" not in spec.endpoints[0].to_dict()

    def test_not_json(self):
        doc = ApiDocument(source_id="x", origin="", raw="", text="")
        result = extract_spec(doc, ReplayBackend({"x": "{nope"}))
        assert result.spec is None and result.violations == ["repair: unbalanced"]


class TestValueHandling:
    def test_preferred_value_example_beats_default(self):
        p = Parameter(name="x", default_value="d", example_value="e")
        assert p.preferred_value == "e"
        assert Parameter(name="x", default_value="d").preferred_value == "d"
        assert Parameter(name="x").preferred_value is None
        assert not Parameter(name="x").has_value

    def test_render_scalar(self):
        assert render_scalar(None) == ""
        assert render_scalar("a b") == "a b"
        assert render_scalar(True) == "true"
        assert render_scalar(1) == "1"
        assert render_scalar(2.5) == "2.5"

    def test_coerce_scalar(self):
        assert coerce_scalar(None) is None
        assert coerce_scalar("s") == "s"
        assert coerce_scalar(3) == 3
        assert coerce_scalar([1, "a"]) == '[1,"a"]'
        assert coerce_scalar(2.5) == 2.5
        assert [coerce_scalar(float(x)) for x in ("nan", "inf", "-inf")] == ["NaN", "Infinity", "-Infinity"]

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ))
    @example(float("inf"))
    def test_coerce_scalar_total_and_json_safe(self, value):
        out = coerce_scalar(value)
        assert out is None or isinstance(out, (str, int, float, bool))
        json.dumps(out, allow_nan=False)  # storable as strict JSON


def template_of(url):
    return parse_url_template(primary_url(Endpoint(name="E", method="GET", url=url)))


class TestResolveUrl:
    def test_scheme_detection(self):
        assert template_of("https://h.example/v1/x").base == "https://h.example"
        assert template_of("/v1/x").base is None
        # a scheme without a host is no base either
        for url in ("https://", "https:///", "http://?q=1"):
            assert template_of(url).base is None

    def test_url_array_first_is_primary(self):
        ep = Endpoint(name="E", method="GET", url=["https://a.example/x", "https://b.example/y"])
        assert primary_url(ep) == "https://a.example/x"

    @pytest.mark.parametrize(
        "url,empty",
        [
            ("https://h.example", True),
            ("https://h.example/", True),
            ("https://h.example?q=1", True),
            ("https://h.example/api", False),
            ("https://h.example/api?q=1", False),
        ],
    )
    def test_path_is_empty(self, url, empty):
        assert (template_of(url).path == "/") is empty

    def test_double_slash_collapsed_scheme_kept(self):
        ep = Endpoint(name="E", method="GET", url="https://h.example//v1///x")
        assert primary_url(ep) == "https://h.example/v1/x"


def test_spec_json_is_deterministic():
    spec = ApiSpec(
        title="T",
        endpoints=[Endpoint(name="E", method="GET", url="https://h.example/x")],
    )
    assert spec.to_json() == spec.to_json()
    parsed = json.loads(spec.to_json())
    assert parsed["endpoints"][0]["headers"] == []
