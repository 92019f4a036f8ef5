import string
import sys
import types
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apimill import toolgen
from apimill.errors import MalformedUrl, MixedHosts, UnboundPathParam
from apimill.model import Endpoint, ErrorType, Parameter, validate_spec
from apimill.toolgen import (
    ToolDescriptor,
    export_function_source,
    export_openapi,
    generate_tool,
    generate_tools_for_spec,
    group_tools_by_host,
    parse_url_template,
    sanitize_tool_name,
)
from apimill.model import ApiSpec
from apimill.synthetic import build_corpus


class TestUrlTemplate:
    @pytest.mark.parametrize(
        "url",
        [
            "https://a.example/users/{id}/posts",
            "https://a.example/users/:id/posts",
            "https://a.example/users/<id>/posts",
        ],
    )
    def test_three_syntaxes_one_canonical(self, url):
        t = parse_url_template(url)
        assert t.canonical() == "https://a.example/users/{id}/posts"
        assert t.param_names() == ["id"]
        assert t.erased() == "https://a.example/users/{}/posts"

    def test_no_placeholders(self):
        t = parse_url_template("https://a.example/v2/cards")
        assert t.param_names() == []
        assert t.canonical() == "https://a.example/v2/cards"

    def test_colon_in_scheme_is_not_placeholder(self):
        t = parse_url_template("https://a.example:8080/x")
        assert t.param_names() == []

    def test_colon_mid_segment_is_literal(self):
        # ":" placeholders only open right after a slash
        t = parse_url_template("https://a.example/time/12:30")
        assert t.param_names() == []

    def test_query_base_preserved_not_parameterized(self):
        t = parse_url_template("https://a.example/x/{id}?format=json")
        assert t.query_base == "format=json"
        assert t.canonical().endswith("?format=json")
        assert t.param_names() == ["id"]

    def test_repeated_placeholder_listed_once(self):
        t = parse_url_template("https://a.example/{v}/pair/{v}")
        assert t.param_names() == ["v"]

    def test_render_binds_and_encodes(self):
        t = parse_url_template("https://a.example/q/{term}")
        assert t.render({"term": "a+b=c"}) == "https://a.example/q/a%2Bb%3Dc"
        assert t.render({"term": "a+b=c"}, encode=False) == "https://a.example/q/a+b=c"

    def test_render_unbound_raises(self):
        t = parse_url_template("https://a.example/q/{term}")
        with pytest.raises(UnboundPathParam):
            t.render({})
        with pytest.raises(UnboundPathParam):
            t.render({"term": None})

    @pytest.mark.parametrize("url", ["", "https://a.example/{unclosed", "https://a.example/{}", "https://a.example/<>"])
    def test_malformed(self, url):
        with pytest.raises(MalformedUrl):
            parse_url_template(url)

    H = "https://h.example"

    # each URL -> (canonical, erased, param_names, base, path, query_base),
    # or the exact MalformedUrl message
    @pytest.mark.parametrize("url, expected", [
        # a placeholder runs to the first closer of its own kind
        (H + "/{a<b}", (H + "/{a<b}", H + "/{}", ["a<b"], H, "/{a<b}", None)),
        (H + "/<a{b>", (H + "/{a{b}", H + "/{}", ["a{b"], H, "/{a{b}", None)),
        (H + "/{a}b}", (H + "/{a}b}", H + "/{}b}", ["a"], H, "/{a}b}", None)),
        (H + "/<a>>", (H + "/{a}>", H + "/{}>", ["a"], H, "/{a}>", None)),
        (H + "/{ x }/y", (H + "/{x}/y", H + "/{}/y", ["x"], H, "/{x}/y", None)),
        (H + "/{a/:b}", (H + "/{a/:b}", H + "/{}", ["a/:b"], H, "/{a/:b}", None)),
        # base and path split the canonical text, placeholder names included
        ("https://h{a/:b}/x", ("https://h{a/:b}/x", "https://h{}/x", ["a/:b"], "https://h{a", "/:b}/x", None)),
        # ":x" opens only right after a slash, and only on an identifier
        (H + "/x:y", (H + "/x:y", H + "/x:y", [], H, "/x:y", None)),
        (H + "/:1x", (H + "/:1x", H + "/:1x", [], H, "/:1x", None)),
        (H + "/:_v1/:x-y", (H + "/{_v1}/{x}-y", H + "/{}/{}-y", ["_v1", "x"], H, "/{_v1}/{x}-y", None)),
        (":a/{b}", (":a/{b}", ":a/{}", ["b"], None, ":a/{b}", None)),
        ("https://{r}.h.example/x", ("https://{r}.h.example/x", "https://{}.h.example/x", ["r"],
                                     "https://{r}.h.example", "/x", None)),
        (H, (H, H, [], H, "/", None)),
        ("http://h.example:8080", ("http://h.example:8080", "http://h.example:8080", [],
                                   "http://h.example:8080", "/", None)),
        ("/v1/{id}", ("/v1/{id}", "/v1/{}", ["id"], None, "/v1/{id}", None)),
        ("https:///x", ("https:///x", "https:///x", [], None, "/x", None)),
        # the query is kept whole, braces and all, and names no parameter
        (H + "/{a}/{a}?q={b}", (H + "/{a}/{a}?q={b}", H + "/{}/{}", ["a"], H, "/{a}/{a}", "q={b}")),
        # errors, the first from the left
        (H + "/{a}/<b", "unclosed '<' placeholder"),
        (H + "/{ }", "empty placeholder name"),
        (H + "/{}/{x", "empty placeholder name"),
        (H + "/{x/<>", "unclosed '{' placeholder"),
        (H + "/{a?}", "unclosed '{' placeholder"),
        ("", "empty url"),
    ])
    def test_grammar(self, url, expected):
        if isinstance(expected, str):
            with pytest.raises(MalformedUrl) as err:
                parse_url_template(url)
            assert str(err.value) == expected
            return
        t = parse_url_template(url)
        assert (t.canonical(), t.erased(), t.param_names(), t.base, t.path, t.query_base) == expected

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["{x}", ":x", "<x>", "{long_name}"]),
                st.text(alphabet=string.ascii_lowercase + "0123456789.-", min_size=1, max_size=8),
            ),
            min_size=0,
            max_size=6,
        )
    )
    def test_round_trip_identity_bindings(self, pieces):
        url = "https://h.example"
        for placeholder, lit in pieces:
            url += "/" + lit + "/" + placeholder
        t = parse_url_template(url)
        bindings = {name: "{" + name + "}" for name in t.param_names()}
        assert t.render(bindings, encode=False) == t.canonical()


class TestGenerateTool:
    def make_search_cards(self):
        return Endpoint(
            name="Search Cards",
            method="GET",
            url="https://api.pokemontcg.io/v2/cards",
            description="Perform advanced search queries to find cards by name, type, release date, legality, and more.",
            required_parameters=[
                Parameter(
                    name="q",
                    type_hint="string",
                    description="The search query using Lucene-like syntax.",
                    example_value="name:gardevoir",
                )
            ],
        )

    def test_search_cards(self):
        tool = generate_tool(self.make_search_cards(), "pokemon")
        assert tool.tool_name == "search_cards"
        assert tool.method == "GET"
        (q,) = tool.args
        assert (q.name, q.location, q.required) == ("q", "query", True)
        assert q.example_value == "name:gardevoir"
        assert tool.missing_value_args == []
        assert tool.timeout_seconds == 50

    def test_path_args_bound(self):
        ep = Endpoint(
            name="Get User",
            method="GET",
            url="https://h.example/users/{id}",
            required_parameters=[Parameter(name="id", example_value="7")],
            optional_parameters=[Parameter(name="expand")],
        )
        tool = generate_tool(ep, "s")
        by_name = {a.name: a for a in tool.args}
        assert by_name["id"].location == "path"
        assert by_name["expand"].location == "query" and not by_name["expand"].required
        assert tool.warnings == []

    def test_unbound_placeholder_synthesized(self):
        ep = Endpoint(name="Get Thing", method="GET", url="https://h.example/things/{thing_id}")
        tool = generate_tool(ep, "s")
        (arg,) = tool.args
        assert (arg.name, arg.location, arg.required, arg.has_value) == ("thing_id", "path", True, False)
        assert any("thing_id" in w for w in tool.warnings)
        assert tool.missing_value_args == [arg]

    def test_required_arg_without_value_flagged(self):
        ep = Endpoint(
            name="E", method="GET", url="https://h.example/x",
            required_parameters=[Parameter(name="token")],
        )
        tool = generate_tool(ep, "s")
        assert [a.name for a in tool.missing_value_args] == ["token"]

    def test_name_collision_suffixes(self):
        spec = ApiSpec(endpoints=[
            Endpoint(name="List!", method="GET", url="https://h.example/a"),
            Endpoint(name="List?", method="GET", url="https://h.example/b"),
            Endpoint(name="list", method="GET", url="https://h.example/c"),
        ])
        tools, unbuildable = generate_tools_for_spec(spec, "s")
        assert [t.tool_name for t in tools] == ["list", "list_2", "list_3"]
        assert unbuildable == []

    def test_schemeless_endpoint_separated(self):
        spec = ApiSpec(endpoints=[
            Endpoint(name="Good", method="GET", url="https://h.example/a"),
            Endpoint(name="Bad", method="GET", url="/v1/only-path"),
            Endpoint(name="Item", method="GET", url="https://h.example/items/{id"),
            Endpoint(name="Root", method="GET", url="https:///"),
            Endpoint(name="Item", method="GET", url="https://h.example/items"),
        ])
        tools, unbuildable = generate_tools_for_spec(spec, "s")
        # an unbuildable endpoint reserves no name
        assert [t.tool_name for t in tools] == ["good", "item"]
        assert [(e.name, e.url, label) for e, label in unbuildable] == [
            ("Bad", "/v1/only-path", ErrorType.MISSING_BASE_URL),
            ("Item", "https://h.example/items/{id", ErrorType.MISSING_ENDPOINT_PATH),
            ("Root", "https:///", ErrorType.MISSING_BASE_URL),
        ]

    def test_descriptor_round_trip(self):
        tool = generate_tool(self.make_search_cards(), "pokemon")
        again = ToolDescriptor.from_dict(tool.to_dict())
        assert again.to_dict() == tool.to_dict()
        assert again.template.canonical() == tool.template.canonical()

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("Search Cards", "search_cards"),
            ("GET /users/:id", "get_users_id"),
            ("2nd Endpoint", "f_2nd_endpoint"),
            ("---", "tool"),
            ("Álready ASCII-ish", "lready_ascii_ish"),
            # cut to 64 characters, and no "_" left at the cut
            ("Name " * 60, "name_" * 12 + "name"),
            ("a" * 63 + " b", "a" * 63),
        ],
    )
    def test_sanitize_tool_name(self, name, expected):
        assert sanitize_tool_name(name) == expected


class TestFunctionExport:
    def test_search_cards_layout(self):
        tool = generate_tool(TestGenerateTool().make_search_cards(), "pokemon")
        src = export_function_source(tool, tls_verify=False)
        assert "import requests" in src
        assert "def search_cards(q=None):" in src
        assert '    api_url = f"https://api.pokemontcg.io/v2/cards"' in src
        assert "    querystring = {'q': q, }" in src
        assert "    assert q is not None, 'Missing required parameter: q'" in src
        assert "requests.get(url=api_url, params=querystring, timeout=50, verify=False)" in src
        assert "# in case API can't handle redundant params" in src
        assert "    # print(response.json())" in src
        assert "r = search_cards(q='''name:gardevoir''')" in src
        for key in ("status_code", "text", "json", "content"):
            assert f"result_dict['{key}']" in src

    def test_bundled_search_cards_full_text(self, pokemon_spec_dict):
        spec, _ = validate_spec(pokemon_spec_dict)
        (tool,), _ = generate_tools_for_spec(spec, "pokemon")
        assert export_function_source(tool, tls_verify=False) == "\n".join([
            "import requests",
            "",
            "",
            "def search_cards(q=None):",
            '    api_url = f"https://api.pokemontcg.io/v2/cards"',
            "    querystring = {'q': q, }",
            "    assert q is not None, 'Missing required parameter: q'",
            "    ",
            "    response = requests.get(url=api_url, params=querystring, timeout=50, verify=False)",
            "    if response.status_code != 200:",
            "        response2 = requests.get(url=api_url, timeout=50)"
            " # in case API can't handle redundant params",
            "        response = response2",
            "    return response",
            "    # print(response.json())",
            "",
            "if __name__ == '__main__':",
            "    r = search_cards(q='''name:gardevoir''')",
            "    r_json = None",
            "    try:",
            "        r_json = r.json()",
            "    except:",
            "        pass",
            "    import json",
            "    result_dict = dict()",
            "    result_dict['status_code'] = r.status_code",
            "    result_dict['text'] = r.text",
            "    result_dict['json'] = r_json",
            '    result_dict[\'content\'] = r.content.decode("utf-8")',
            "",
        ])

    def test_tls_on_by_default(self):
        tool = generate_tool(TestGenerateTool().make_search_cards(), "pokemon")
        assert "verify=True" in export_function_source(tool)

    def test_zero_args(self):
        ep = Endpoint(name="Ping", method="GET", url="https://h.example/ping")
        src = export_function_source(generate_tool(ep, "s"))
        assert "def ping():" in src
        assert "querystring = {}" in src
        assert "assert" not in src

    def test_source_is_pure_function_of_descriptor(self):
        a = generate_tool(TestGenerateTool().make_search_cards(), "pokemon")
        b = generate_tool(TestGenerateTool().make_search_cards(), "pokemon")
        b.args[0].example_value = "name:pikachu"
        src_a, src_b = export_function_source(a), export_function_source(b)
        diff = [
            (la, lb)
            for la, lb in zip(src_a.splitlines(), src_b.splitlines())
            if la != lb
        ]
        assert diff == [
            ("    r = search_cards(q='''name:gardevoir''')", "    r = search_cards(q='''name:pikachu''')")
        ]

    def test_path_arg_interpolated(self):
        ep = Endpoint(
            name="Get User", method="GET", url="https://h.example/users/{id}",
            required_parameters=[Parameter(name="id", example_value="7")],
        )
        src = export_function_source(generate_tool(ep, "s"))
        assert 'api_url = f"https://h.example/users/{id}"' in src
        assert "querystring = {}" in src

    def test_post_sends_json_body(self):
        ep = Endpoint(
            name="Make Item", method="POST", url="https://h.example/items",
            required_parameters=[Parameter(name="label", example_value="x")],
        )
        src = export_function_source(generate_tool(ep, "s"))
        assert "requests.post(url=api_url, json=querystring" in src


def _stub_requests(calls: list) -> types.ModuleType:
    """A `requests` module that records each call and answers 200."""
    module = types.ModuleType("requests")

    def verb(name):
        def send(**kwargs):
            calls.append((name, kwargs))
            return types.SimpleNamespace(status_code=200, text="", content=b"", json=dict)
        return send

    module.get, module.post = verb("get"), verb("post")
    return module


# quotes, backslashes, braces, and names that Python or the export itself reserves
_ODD_NAMES = ["it's", "a'''b", "from", "requests", "api_url", "querystring", "id"]
_ODD_VALUES = ["it's'", "a'''b", "C:\\new", "{id}", 'say "hi"']


@settings(max_examples=150, deadline=None)
@given(
    name=st.text(max_size=10) | st.sampled_from(["import", "requests", "Find Trainer"]),
    method=st.sampled_from(["GET", "POST"]),
    path=st.text(st.characters(exclude_characters="{<?:"), max_size=12) | st.just('a"b'),
    placeholder=st.text(st.characters(exclude_characters="{}?"), min_size=1, max_size=8)
    .filter(lambda s: s == s.strip()),
    query_base=st.none() | st.text(max_size=12) | st.just("fields={id}"),
    path_value=st.text(max_size=12) | st.sampled_from(_ODD_VALUES),
    params=st.dictionaries(
        st.text(min_size=1, max_size=8) | st.sampled_from(_ODD_NAMES),
        st.text(max_size=12) | st.sampled_from(_ODD_VALUES),
        max_size=3,
    ),
)
# a lone surrogate, which the export must escape to encode as UTF-8
@example(name="", method="GET", path='a"b', placeholder="\ud800", query_base=None,
         path_value="", params={})
def test_export_compiles_and_sends_what_the_descriptor_describes(
    name, method, path, placeholder, query_base, path_value, params,
):
    params.pop(placeholder, None)
    url = f"https://h.example/{path}{{{placeholder}}}"
    if query_base is not None:
        url += "?" + query_base
    tool = generate_tool(Endpoint(
        name=name, method=method, url=url,
        required_parameters=[Parameter(name=placeholder, example_value=path_value)],
        optional_parameters=[Parameter(name=n, example_value=v) for n, v in params.items()],
    ), "s")
    code = compile(export_function_source(tool).encode("utf-8"), "export.py", "exec")
    calls: list = []
    with mock.patch.dict(sys.modules, requests=_stub_requests(calls)):
        exec(code, {"__name__": "__main__"})
    payload = "params" if method == "GET" else "json"
    assert calls == [(method.lower(), {
        "url": tool.template.render({placeholder: path_value}, encode=False),
        payload: params, "timeout": 50, "verify": True,
    })]


class TestOpenApiExport:
    def build_tools(self):
        eps = [
            Endpoint(
                name="Search Cards", method="GET", url="https://api.example/v2/cards",
                description="Find cards.",
                required_parameters=[Parameter(name="q", type_hint="string", example_value="x")],
            ),
            Endpoint(
                name="Get Card", method="GET", url="https://api.example/v2/cards/{id}",
                required_parameters=[Parameter(name="id", type_hint="int", example_value="3")],
            ),
        ]
        return [generate_tool(e, "s") for e in eps]

    def test_single_document_reparses(self):
        text = export_openapi(self.build_tools())
        doc = yaml.safe_load(text)
        assert doc["openapi"] == "3.0.3"
        assert doc["servers"] == [{"url": "https://api.example"}]
        assert set(doc["paths"]) == {"/v2/cards", "/v2/cards/{id}"}
        get_cards = doc["paths"]["/v2/cards"]["get"]
        assert get_cards["operationId"] == "search_cards"
        (q,) = get_cards["parameters"]
        assert (q["name"], q["in"], q["required"]) == ("q", "query", True)
        (idp,) = doc["paths"]["/v2/cards/{id}"]["get"]["parameters"]
        assert (idp["in"], idp["required"], idp["schema"]["type"]) == ("path", True, "integer")

    def test_mixed_hosts_rejected(self):
        tools = self.build_tools()
        other = generate_tool(
            Endpoint(name="Other", method="GET", url="https://elsewhere.example/x"), "s"
        )
        with pytest.raises(MixedHosts):
            export_openapi(tools + [other])

    def test_post_body_schema(self):
        ep = Endpoint(
            name="Make", method="POST", url="https://h.example/items",
            required_parameters=[Parameter(name="label", type_hint="string")],
            optional_parameters=[Parameter(name="count", type_hint="integer")],
        )
        doc = yaml.safe_load(export_openapi([generate_tool(ep, "s")]))
        op = doc["paths"]["/items"]["post"]
        schema = op["requestBody"]["content"]["application/json"]["schema"]
        assert set(schema["properties"]) == {"label", "count"}
        assert schema["required"] == ["label"]

    def test_group_by_host(self):
        tools = self.build_tools()
        other = generate_tool(
            Endpoint(name="Other", method="GET", url="https://elsewhere.example:444/x"), "s"
        )
        groups = group_tools_by_host(tools + [other])
        assert set(groups) == {"api.example", "elsewhere.example:444"}
        for host, group in groups.items():
            yaml.safe_load(export_openapi(group))  # each group exports cleanly

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
    def test_libyaml_export_is_the_pure_python_one(self, monkeypatch):
        used, tools = set(), []
        for source_id, spec, _ in build_corpus("http://127.0.0.1:8080"):
            tools += generate_tools_for_spec(spec, source_id, used)[0]
        (group,) = group_tools_by_host(tools).values()
        fast = export_openapi(group)
        monkeypatch.setattr(toolgen, "YAML_DUMPER", yaml.SafeDumper)
        assert export_openapi(group) == fast
        assert yaml.load(fast, Loader=yaml.CSafeLoader) == yaml.safe_load(fast)

    def test_base_and_path(self):
        t = parse_url_template("https://h.example/a/{b}?x=1")
        assert (t.base, t.path) == ("https://h.example", "/a/{b}")
        t = parse_url_template("https://h.example")
        assert (t.base, t.path) == ("https://h.example", "/")
        t = parse_url_template("/no/scheme")
        assert (t.base, t.path) == (None, "/no/scheme")
        # a tool without a base has no server: no export, and no host group
        baseless = generate_tool(Endpoint(name="E", method="GET", url="/no/scheme"), "s")
        with pytest.raises(MixedHosts):
            export_openapi([baseless])
        assert group_tools_by_host([baseless]) == {}
