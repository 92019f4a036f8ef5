"""Turn natural-language REST API documentation into validated, invocable tools.

Each public name is imported from its home module on first access, so that
`import apimill.mockapi` or one `apimill <stage>` command loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "ApiSpec": "model",
    "Endpoint": "model",
    "ErrorType": "model",
    "HttpPolicy": "netutil",
    "LexicalEmbedding": "embedding",
    "Parameter": "model",
    "ToolDescriptor": "toolgen",
    "compute_metrics": "evaluate",
    "cosine_similarity": "embedding",
    "estimate_causes": "validate",
    "export_function_source": "toolgen",
    "export_openapi": "toolgen",
    "extract_spec": "extract",
    "generate_tools_for_spec": "toolgen",
    "infer_parameters": "inference",
    "invoke_tool": "validate",
    "leave_one_api_out": "inference",
    "parse_url_template": "toolgen",
    "rank_combinations": "inference",
    "repair_json": "extract",
    "validate_spec": "model",
    "validate_tool": "validate",
}

__all__ = sorted([*_HOMES, "__version__"])


def __getattr__(name: str):
    """A public name, imported from its home module and kept here; any other
    name raises AttributeError, so `from apimill import <submodule>` imports
    the submodule."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return list(__all__)
