"""Typed domain model for extracted API descriptions.

The central currency of the pipeline: a validated `ApiSpec` holding
`Endpoint`s and their `Parameter`s, matching the extraction JSON schema
(snake_case field names: required_parameters, optional_parameters).
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Optional, Union

Scalar = Union[str, int, float, bool]


class ErrorType(enum.Enum):
    """The seven outcome labels; every endpoint of a valid spec ends with one."""

    PASSED = "Passed Validation"
    MISSING_ENDPOINT_PATH = "Missing Endpoint Path"
    MISSING_BASE_URL = "Missing Base URL"
    FAILED = "Failed Validation"
    ABNORMAL = "Abnormal Response"
    NO_PARAM_VALUE = "No Parameter Value"
    WRONG_PARAM_VALUE = "Wrong Parameter Value"


# JSON Schema the extraction backends are asked to satisfy.  Structured-mode
# remote backends receive it verbatim as their response format.
EXTRACTION_JSON_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "definitions": {
        "Parameters": {
            "type": "object",
            "properties": {
                "name": {
                    "type": "string",
                    "description": "Name of the parameter",
                },
                "type": {
                    "type": "string",
                    "description": "Type of the parameter",
                },
                "description": {
                    "type": "string",
                    "description": (
                        "Description of the parameter. If the parameter is "
                        "categorical, please list all possible values."
                    ),
                },
                "default": {"description": "Default value of the parameter"},
                "example": {"description": "Example value of the parameter"},
            },
            "required": ["name"],
        },
        "Endpoint": {
            "type": "object",
            "properties": {
                "name": {
                    "type": "string",
                    "description": "Name of the endpoint",
                },
                "description": {
                    "type": "string",
                    "description": "Description of the endpoint",
                },
                "method": {
                    "type": "string",
                    "description": "Method of the endpoint",
                },
                "url": {
                    "oneOf": [
                        {"type": "string"},
                        {"type": "array", "items": {"type": "string"}},
                    ],
                    "description": "URL of the endpoint, start with http:// or https://",
                },
                "headers": {
                    "type": "array",
                    "items": {"type": "string"},
                    "description": "Headers of the endpoint",
                    "default": [],
                },
                "required_parameters": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/Parameters"},
                },
                "optional_parameters": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/Parameters"},
                },
            },
            "required": ["name", "method", "url"],
        },
        "API": {
            "type": "object",
            "properties": {
                "title": {
                    "type": "string",
                    "description": "Title of the API",
                },
                "endpoints": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/Endpoint"},
                },
            },
            "required": ["endpoints"],
        },
    },
    "type": "object",
    "properties": {"API": {"$ref": "#/definitions/API"}},
}


@dataclass
class Parameter:
    """One endpoint parameter.

    `default_value`/`example_value` hold JSON scalars; compound values are
    stored as their compact-JSON string form.  None means "absent".
    """

    name: str
    type_hint: Optional[str] = None
    description: Optional[str] = None
    default_value: Optional[Scalar] = None
    example_value: Optional[Scalar] = None

    @property
    def has_value(self) -> bool:
        return self.example_value is not None or self.default_value is not None

    @property
    def preferred_value(self) -> Optional[Scalar]:
        # example beats default when both exist
        if self.example_value is not None:
            return self.example_value
        return self.default_value

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.type_hint is not None:
            out["type"] = self.type_hint
        if self.description is not None:
            out["description"] = self.description
        if self.default_value is not None:
            out["default"] = self.default_value
        if self.example_value is not None:
            out["example"] = self.example_value
        return out


@dataclass
class Endpoint:
    name: str
    method: str
    url: Union[str, list]
    description: Optional[str] = None
    headers: list = field(default_factory=list)
    required_parameters: list = field(default_factory=list)
    optional_parameters: list = field(default_factory=list)

    def all_parameters(self) -> list:
        return list(self.required_parameters) + list(self.optional_parameters)

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.description is not None:
            out["description"] = self.description
        out["method"] = self.method
        out["url"] = self.url
        out["headers"] = list(self.headers)
        out["required_parameters"] = [p.to_dict() for p in self.required_parameters]
        out["optional_parameters"] = [p.to_dict() for p in self.optional_parameters]
        return out


@dataclass
class ApiSpec:
    endpoints: list
    title: Optional[str] = None

    def to_dict(self) -> dict:
        out: dict = {}
        if self.title is not None:
            out["title"] = self.title
        out["endpoints"] = [e.to_dict() for e in self.endpoints]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False)


@dataclass
class SchemaViolation:
    """One problem found while validating a structured document.

    kind ∈ {missing_required_field, wrong_value_kind, not_an_object};
    path is dotted/indexed and reachable in the input tree.
    """

    kind: str
    path: str
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.kind} at {self.path}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


def _missing(path: str) -> SchemaViolation:
    return SchemaViolation("missing_required_field", path)


def _wrong(path: str, detail: str) -> SchemaViolation:
    return SchemaViolation("wrong_value_kind", path, detail)


def _not_object(path: str) -> SchemaViolation:
    return SchemaViolation("not_an_object", path, "expected an object")


def coerce_scalar(value: Any) -> Optional[Scalar]:
    """Normalize a default/example value to a storable scalar.

    Compound values (objects/arrays) are kept as compact JSON strings so the
    information survives even when the extractor over-structures a field;
    so is a NaN or an infinity, which strict JSON has no number for.
    """
    if value is None or isinstance(value, (str, int, bool)) or (
            isinstance(value, float) and math.isfinite(value)):
        return value
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def loads_finite(text: str) -> Any:
    """`json.loads` that refuses NaN, the infinities and a number past a
    float's range, none of which strict JSON can write back."""
    return json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)


def render_scalar(value: Optional[Scalar]) -> str:
    """String form of a stored scalar as it should appear in a request."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return json.dumps(value)


def aligned_rows(headers: list, values: list) -> list:
    """A header row and a value row of a text table, each column as wide as
    its wider cell."""
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in (headers, values)]


_TYPE_FAMILIES = {
    "string": "string", "str": "string",
    "integer": "integer", "int": "integer",
    "number": "number", "float": "number", "double": "number",
    "boolean": "boolean", "bool": "boolean",
}


def canonical_type(label: Optional[str]) -> Optional[str]:
    """Collapse spelling families; anything else lowercased verbatim."""
    if label is None:
        return None
    t = label.strip().lower()
    return _TYPE_FAMILIES.get(t, t)


LONE_SURROGATE = re.compile("[\ud800-\udfff]")  # no UTF-8 text can hold one


def escape_lone_surrogates(text: str) -> str:
    """`text` with each lone surrogate as its `\\uXXXX` escape, so that it
    encodes as UTF-8; in a JSON or Python string literal the escape still
    reads as the same character."""
    return LONE_SURROGATE.sub(lambda m: f"\\u{ord(m[0]):04x}", text)


# The spec parser has one rule per kind of field: `_array` walks every array but
# a URL list, `_text_field` reads free text and headers, `_name` an endpoint's
# name and method; each gives None, or drops the item, where it records a violation.


def _kept(value: Any, path: str, violations: list) -> Any:
    """`value`, and a kind error at `path` when it is a string holding a
    lone surrogate, which no artifact could then be written with."""
    if isinstance(value, str) and LONE_SURROGATE.search(value):
        violations.append(_wrong(path, "text holds a lone surrogate"))
    return value


def _text_field(raw: Any, path: str, violations: list, detail: str = "") -> Optional[str]:
    """Free text: strings pass, stray scalars are stringified; a container,
    or None where `detail` is given, is a kind error with that detail."""
    if isinstance(raw, str):
        return _kept(raw, path, violations)
    if isinstance(raw, (int, float, bool)):
        return json.dumps(raw)
    if raw is not None or detail:
        violations.append(_wrong(path, detail or f"expected text, got {type(raw).__name__}"))
    return None


def _header(raw: Any, path: str, violations: list) -> Optional[str]:
    return _text_field(raw, path, violations, "header must be a string")


def _name(raw: Any, path: str, violations: list, detail: str) -> Optional[str]:
    """A required name, stripped: None is missing, a blank or non-string is `detail`."""
    if isinstance(raw, str) and raw.strip():
        return _kept(raw.strip(), path, violations)
    violations.append(_missing(path) if raw is None else _wrong(path, detail))
    return None


def _array(raw: Any, path: str, violations: list, parse_item) -> list:
    """What `parse_item` makes of each item of an array, leaving out None."""
    if raw is None:
        return []
    if not isinstance(raw, list):
        violations.append(_wrong(path, "expected an array"))
        return []
    out = []
    for i, item in enumerate(raw):
        parsed = parse_item(item, f"{path}[{i}]", violations)
        if parsed is not None:
            out.append(parsed)
    return out


def _parse_parameter(raw: Any, path: str, violations: list) -> Optional[Parameter]:
    if not isinstance(raw, dict):
        violations.append(_not_object(path))
        return None
    name = raw.get("name")
    if name is None:
        violations.append(_missing(f"{path}.name"))
        return None
    if not isinstance(name, str):
        violations.append(_wrong(f"{path}.name", "parameter name must be a string"))
        return None
    name = name.strip()
    if not name:
        violations.append(_wrong(f"{path}.name", "parameter name is empty"))
        return None
    if re.search(r"\s", name):
        violations.append(_wrong(f"{path}.name", "parameter name contains whitespace"))
        return None
    return Parameter(
        name=_kept(name, f"{path}.name", violations),
        type_hint=_text_field(raw.get("type"), f"{path}.type", violations),
        description=_text_field(raw.get("description"), f"{path}.description", violations),
        default_value=_kept(coerce_scalar(raw.get("default")), f"{path}.default", violations),
        example_value=_kept(coerce_scalar(raw.get("example")), f"{path}.example", violations),
    )


def _parse_url(raw: Any, path: str, violations: list) -> Optional[Union[str, list]]:
    # not an `_array`: a non-string item ends the walk, and an empty list is an error
    if isinstance(raw, str):
        return _kept(raw.strip(), path, violations)
    if isinstance(raw, list):
        if not raw:
            violations.append(_wrong(path, "url array is empty"))
            return None
        items = []
        for i, item in enumerate(raw):
            if not isinstance(item, str):
                violations.append(_wrong(f"{path}[{i}]", "url must be a string"))
                return None
            items.append(_kept(item.strip(), f"{path}[{i}]", violations))
        return items
    violations.append(_wrong(path, "url must be a string or array of strings"))
    return None


def _parse_endpoint(raw: Any, path: str, violations: list) -> Optional[Endpoint]:
    if not isinstance(raw, dict):
        violations.append(_not_object(path))
        return None
    before = len(violations)
    name = _name(raw.get("name"), f"{path}.name", violations,
                 "endpoint name must be a non-empty string")
    method = _name(raw.get("method"), f"{path}.method", violations,
                   "method must be a non-empty string")
    if "url" not in raw:
        violations.append(_missing(f"{path}.url"))
        url = None
    else:
        url = _parse_url(raw["url"], f"{path}.url", violations)
    headers = _array(raw.get("headers"), f"{path}.headers", violations, _header)
    required = _array(raw.get("required_parameters"), f"{path}.required_parameters",
                      violations, _parse_parameter)
    optional = _array(raw.get("optional_parameters"), f"{path}.optional_parameters",
                      violations, _parse_parameter)

    # a name may not sit in both lists: required wins; duplicates within a
    # list keep the first occurrence
    seen: set = set()
    required = [p for p in required if not (p.name in seen or seen.add(p.name))]
    optional = [p for p in optional if not (p.name in seen or seen.add(p.name))]

    if len(violations) > before:  # as it is when name, method or url is None
        return None
    # read last: a bad description is reported only once the rest is clean
    description = _text_field(raw.get("description"), f"{path}.description", violations)
    return Endpoint(name=name, method=method.upper(), url=url, description=description,
                    headers=headers, required_parameters=required, optional_parameters=optional)


def validate_spec(document: Any):
    """Check a parsed JSON value against the extraction schema.

    Returns (spec, violations): spec is an ApiSpec when the document is
    clean, otherwise None with the violations found.  An endpoint's
    description is checked only once the rest of that endpoint is clean, so
    a bad description next to another violation of the same endpoint is not
    reported.  Both the wrapped form {"API": {...}} and the bare form
    {"endpoints": [...]} are accepted; unknown extra fields are dropped.
    """
    violations: list = []
    if not isinstance(document, dict):
        return None, [_not_object("$")]

    root, prefix = document, ""
    if "endpoints" not in root and isinstance(root.get("API"), dict):
        root, prefix = root["API"], "API."

    title = _text_field(root.get("title"), f"{prefix}title", violations)

    raw_endpoints = root.get("endpoints")
    if not isinstance(raw_endpoints, list):
        violations.append(_wrong(f"{prefix}endpoints", "expected an array")
                          if "endpoints" in root else _missing(f"{prefix}endpoints"))
        return None, violations
    endpoints = _array(raw_endpoints, f"{prefix}endpoints", violations, _parse_endpoint)
    if violations:
        return None, violations
    return ApiSpec(endpoints=endpoints, title=title), []


_MULTI_SLASH = re.compile(r"(?<!:)/{2,}")


def primary_url(endpoint: Endpoint) -> str:
    """The endpoint's URL, the first of a URL list, with repeated slashes
    collapsed."""
    url = endpoint.url[0] if isinstance(endpoint.url, list) else endpoint.url
    return _MULTI_SLASH.sub("/", url)
