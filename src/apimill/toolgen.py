"""Turn validated endpoints into executable tool descriptors and exports.

A descriptor is the language-neutral runtime artifact; the function-source
and OpenAPI exports are serializations of it, so nothing downstream ever
shells out to an interpreter.
"""

from __future__ import annotations

import json
import keyword
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional
from urllib.parse import quote

import yaml

from .errors import MalformedUrl, MixedHosts, UnboundPathParam
from .model import (
    Endpoint,
    ErrorType,
    Parameter,
    canonical_type,
    escape_lone_surrogates,
    primary_url,
    render_scalar,
)

DEFAULT_TIMEOUT_SECONDS = 50

# PyYAML's libyaml dumper, where it is built with it: the same text as the
# pure-Python one, several times faster
YAML_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


# a URL as the scheme and host that start it, when it is http(s), and the rest
_SCHEME_HOST = re.compile(r"(https?://([^/]*))?(.*)", re.S)

# the three placeholder spellings, {x}, <x> and :x right after a slash, and
# last an opener that no closer follows
_PLACEHOLDER = re.compile(r"\{([^}]*)\}|<([^>]*)>|(?<=/):([A-Za-z_][A-Za-z0-9_]*)|([{<])")


@dataclass
class UrlTemplate:
    """A URL as literal text and placeholder names in turn: `parts` holds the
    literals, maybe empty, at even indices and the names at odd ones; the
    query after the first "?" is kept whole in `query_base`."""

    raw: str
    parts: tuple
    query_base: Optional[str] = None

    def param_names(self) -> list:
        return list(dict.fromkeys(self.parts[1::2]))

    @cached_property
    def _body(self) -> str:
        """The canonical URL before its query."""
        parts = list(self.parts)
        parts[1::2] = ("{" + name + "}" for name in parts[1::2])
        return "".join(parts)

    def _with_query(self, body: str) -> str:
        return body if self.query_base is None else body + "?" + self.query_base

    def canonical(self) -> str:
        """Single normal form: every placeholder as {name}."""
        return self._with_query(self._body)

    @cached_property
    def base(self) -> Optional[str]:
        """scheme://host; None when the URL has no http(s) scheme or no host."""
        m = _SCHEME_HOST.fullmatch(self._body)
        return m[1] if m[2] else None

    @cached_property
    def path(self) -> str:
        """The templated path after the base, query aside; "/" when empty."""
        return _SCHEME_HOST.fullmatch(self._body)[3] or "/"

    def erased(self) -> str:
        """Placeholder names dropped — the positional identity of the path."""
        return "{}".join(self.parts[::2])

    def render(self, bindings: dict, encode: bool = True) -> str:
        parts = list(self.parts)
        for i in range(1, len(parts), 2):
            value = bindings.get(parts[i])
            if value is None:
                raise UnboundPathParam(parts[i])
            value = str(value)
            parts[i] = quote(value, safe="") if encode else value
        return self._with_query("".join(parts))


def parse_url_template(url: str) -> UrlTemplate:
    """Recognize the three placeholder spellings: {x}, :x (after a slash), <x>."""
    if not url:
        raise MalformedUrl("empty url")
    body, sep, query = url.partition("?")
    parts, start = [], 0
    for m in _PLACEHOLDER.finditer(body):
        name = m[m.lastindex]
        if m.lastindex == 4:
            raise MalformedUrl(f"unclosed {name!r} placeholder")
        name = name.strip()
        if not name:
            raise MalformedUrl("empty placeholder name")
        parts += (body[start:m.start()], name)
        start = m.end()
    parts.append(body[start:])
    return UrlTemplate(raw=url, parts=tuple(parts), query_base=query if sep else None)


@dataclass(kw_only=True)
class ToolArg(Parameter):
    """A parameter as the tool binds it: in the URL path or the query."""

    location: str  # "path" | "query"
    required: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "location": self.location,
            "required": self.required,
            "type_hint": self.type_hint,
            "description": self.description,
            "example_value": self.example_value,
            "default_value": self.default_value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ToolArg":
        return cls(**d)


@dataclass
class ToolDescriptor:
    tool_name: str
    description: str
    method: str
    template: UrlTemplate
    args: list
    headers: list = field(default_factory=list)
    source_id: str = ""
    timeout_seconds: int = DEFAULT_TIMEOUT_SECONDS
    warnings: list = field(default_factory=list)

    @property
    def missing_value_args(self) -> list:
        return [a for a in self.args if a.required and not a.has_value]

    def to_dict(self) -> dict:
        return {
            "tool_name": self.tool_name,
            "description": self.description,
            "method": self.method,
            "url_template": self.template.raw,
            "args": [a.to_dict() for a in self.args],
            "headers": list(self.headers),
            "source_id": self.source_id,
            "timeout_seconds": self.timeout_seconds,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ToolDescriptor":
        return cls(
            tool_name=d["tool_name"],
            description=d.get("description", ""),
            method=d["method"],
            template=parse_url_template(d["url_template"]),
            args=[ToolArg.from_dict(a) for a in d.get("args", [])],
            headers=list(d.get("headers", [])),
            source_id=d.get("source_id", ""),
            timeout_seconds=int(d.get("timeout_seconds", DEFAULT_TIMEOUT_SECONDS)),
            warnings=list(d.get("warnings", [])),
        )


def sanitize_tool_name(name: str) -> str:
    """`name` as a slug of at most 64 characters, short enough for a file
    name even with `unique_name`'s suffix."""
    slug = re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")[:64].rstrip("_")
    if not slug:
        return "tool"
    if slug[0].isdigit():
        slug = "f_" + slug
    return slug


def unique_name(base: str, used_names: set) -> str:
    """`base`, or the first of `base_2`, `base_3`, ... not in `used_names`;
    the name returned is added to the set."""
    name, n = base, 2
    while name in used_names:
        name = f"{base}_{n}"
        n += 1
    used_names.add(name)
    return name


def generate_tool(
    endpoint: Endpoint,
    source_id: str,
    used_names: Optional[set] = None,
) -> ToolDescriptor:
    """Descriptor for one scheme-bearing endpoint.

    Path placeholders claim their matching parameters; placeholders with no
    declared parameter get a synthesized required arg and a warning (the
    caller sees the tool rather than losing it).
    """
    return _build_tool(endpoint, parse_url_template(primary_url(endpoint)), source_id, used_names)


def _build_tool(
    endpoint: Endpoint, template: UrlTemplate, source_id: str, used_names: Optional[set]
) -> ToolDescriptor:
    path_names = set(template.param_names())

    warnings: list = []
    args: list = []

    def add(params: list, required: bool):
        for p in params:
            location = "path" if p.name in path_names else "query"
            args.append(ToolArg(**vars(p), location=location, required=required))

    declared = {p.name for p in endpoint.all_parameters()}
    add(endpoint.required_parameters, True)
    for name in template.param_names():
        if name not in declared:
            args.append(ToolArg(name=name, location="path", required=True))
            warnings.append(f"synthesized required arg for unbound path placeholder: {name}")
    add(endpoint.optional_parameters, False)

    tool_name = sanitize_tool_name(endpoint.name)
    if used_names is not None:
        tool_name = unique_name(tool_name, used_names)

    return ToolDescriptor(
        tool_name=tool_name,
        description=endpoint.description or endpoint.name,
        method=endpoint.method,
        template=template,
        args=args,
        headers=list(endpoint.headers),
        source_id=source_id,
        warnings=warnings,
    )


def generate_tools_for_spec(spec, source_id: str, used_names: Optional[set] = None):
    """(tools, unbuildable): the tool of each endpoint whose URL parses and
    has a base, and an (endpoint, ErrorType) pair for each other endpoint:
    Missing Endpoint Path for a URL that does not parse, Missing Base URL for
    one without scheme or host.

    Tool names are unique within `used_names`, which the call extends with
    the names of built tools; pass one set for every spec of a corpus so that
    tools of different sources never share a name.  A name's first
    occurrence keeps its bare form.
    """
    used = set() if used_names is None else used_names
    tools, unbuildable = [], []
    for endpoint in spec.endpoints:
        try:
            template = parse_url_template(primary_url(endpoint))
        except MalformedUrl:
            unbuildable.append((endpoint, ErrorType.MISSING_ENDPOINT_PATH))
            continue
        if template.base is None:
            unbuildable.append((endpoint, ErrorType.MISSING_BASE_URL))
            continue
        tools.append(_build_tool(endpoint, template, source_id, used))
    return tools, unbuildable


# ---------------------------------------------------------------------------
# function-source export

# names the exported source binds or calls itself; no function or parameter may take one
_EXPORT_BOUND = frozenset(keyword.kwlist) | {
    "__debug__", "requests", "api_url", "querystring", "response", "response2", "dict"}


def _py_identifier(name: str, taken: set) -> str:
    ident = re.sub(r"[^0-9a-zA-Z_]", "_", name)
    if not ident or ident[0].isdigit():
        ident = "p_" + ident
    return unique_name(ident, taken)


def _py_escape(text: str, quote: str = "'", multiline: bool = False, fstring: bool = False) -> str:
    """`text` as the inside of a Python string literal delimited by `quote`,
    or by three of it when `multiline`; in an f-string, braces double too.
    A lone surrogate becomes its `\\uXXXX` escape, so the source encodes as
    UTF-8."""
    table = {"\\": "\\\\", "\r": "\\r", "\0": "\\x00", quote: "\\" + quote}
    if not multiline:
        table["\n"] = "\\n"
    if fstring:
        table.update({"{": "{{", "}": "}}"})
    escaped = text.translate(str.maketrans(table))
    return escape_lone_surrogates(escaped)


# the exported client; `asserts` ends in the four spaces of the line after it
_CLIENT = """import requests


def {func}({signature}):
    api_url = f"{url_expr}"
    querystring = {{{entries}}}
{asserts}
    response = requests.{verb}(url=api_url, {payload}=querystring, timeout={timeout}, verify={tls_verify})
    if response.status_code != 200:
        response2 = requests.{verb}(url=api_url, timeout={timeout}) # in case API can't handle redundant params
        response = response2
    return response
    # print(response.json())

if __name__ == '__main__':
    r = {func}({call_args})
    r_json = None
    try:
        r_json = r.json()
    except:
        pass
    import json
    result_dict = dict()
    result_dict['status_code'] = r.status_code
    result_dict['text'] = r.text
    result_dict['json'] = r_json
    result_dict['content'] = r.content.decode("utf-8")
"""


def export_function_source(tool: ToolDescriptor, tls_verify: bool = True) -> str:
    """Emit the tool as a self-contained script-style function text."""
    taken = set(_EXPORT_BOUND)
    func = _py_identifier(tool.tool_name, set(_EXPORT_BOUND))
    py_names = {arg.name: _py_identifier(arg.name, taken) for arg in tool.args}

    url_expr = "".join(
        "{" + py_names[part] + "}" if i % 2 else _py_escape(part, '"', fstring=True)
        for i, part in enumerate(tool.template.parts)
    )
    if tool.template.query_base is not None:
        url_expr += "?" + _py_escape(tool.template.query_base, '"', fstring=True)
    verb = tool.method.lower()
    verb = verb if verb in ("get", "post", "put", "patch", "delete", "head", "options") else "get"
    return _CLIENT.format(
        func=func, url_expr=url_expr, verb=verb, payload="params" if verb == "get" else "json",
        timeout=tool.timeout_seconds, tls_verify=tls_verify,
        signature=", ".join(f"{py_names[a.name]}=None" for a in tool.args),
        entries="".join(f"'{_py_escape(a.name)}': {py_names[a.name]}, "
                        for a in tool.args if a.location == "query"),
        asserts="".join(f"    assert {py_names[a.name]} is not None, "
                        f"'Missing required parameter: {_py_escape(a.name)}'\n"
                        for a in tool.args if a.required) + "    ",
        call_args=", ".join(
            f"{py_names[a.name]}='''{_py_escape(render_scalar(a.preferred_value), multiline=True)}'''"
            for a in tool.args if a.has_value),
    )


# ---------------------------------------------------------------------------
# OpenAPI export

_OPENAPI_TYPES = {"string", "integer", "number", "boolean"}


def export_openapi(tools: list) -> str:
    """One OpenAPI YAML document for tools sharing a single host; each
    distinct base (scheme://host) is a server, in sorted order."""
    if not tools:
        raise MixedHosts("no tools to export")
    bases = sorted({str(tool.template.base) for tool in tools})
    hosts = {base.partition("://")[2] for base in bases}
    if len(hosts) != 1 or any(tool.template.base is None for tool in tools):
        raise MixedHosts(f"{len(hosts)} distinct hosts in one export: {bases}")

    paths: dict = {}
    for tool in tools:
        parameters = []
        body_props: dict = {}
        body_required: list = []
        is_get_like = tool.method.upper() == "GET"
        for arg in tool.args:
            schema_type = canonical_type(arg.type_hint)
            if schema_type not in _OPENAPI_TYPES:
                schema_type = "string"
            if arg.location == "path" or is_get_like:
                entry = {
                    "name": arg.name,
                    "in": arg.location,
                    "required": arg.location == "path" or bool(arg.required),
                    "schema": {"type": schema_type},
                }
                if arg.description:
                    entry["description"] = arg.description
                if arg.example_value is not None:
                    entry["example"] = arg.example_value
                parameters.append(entry)
            else:
                prop: dict = {"type": schema_type}
                if arg.description:
                    prop["description"] = arg.description
                body_props[arg.name] = prop
                if arg.required:
                    body_required.append(arg.name)
        operation: dict = {
            "operationId": tool.tool_name,
            "summary": tool.description,
            "responses": {"200": {"description": "Successful response"}},
        }
        if parameters:
            operation["parameters"] = parameters
        if body_props:
            schema: dict = {"type": "object", "properties": body_props}
            if body_required:
                schema["required"] = body_required
            operation["requestBody"] = {
                "content": {"application/json": {"schema": schema}},
                "required": bool(body_required),
            }
        paths.setdefault(tool.template.path, {})[tool.method.lower()] = operation

    doc = {
        "openapi": "3.0.3",
        "info": {"title": bases[0], "version": "1.0.0"},
        "servers": [{"url": base} for base in bases],
        "paths": paths,
    }
    return yaml.dump(doc, Dumper=YAML_DUMPER, sort_keys=False, allow_unicode=True)


def group_tools_by_host(tools: list) -> dict:
    """Tools by the host of their base URL; a tool without a base has no
    server to export under and is left out."""
    groups: dict = {}
    for tool in tools:
        if tool.template.base is not None:
            groups.setdefault(tool.template.base.partition("://")[2], []).append(tool)
    return groups
