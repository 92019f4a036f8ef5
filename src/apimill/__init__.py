"""Turn natural-language REST API documentation into validated, invocable tools."""

from .embedding import LexicalEmbedding, cosine_similarity
from .evaluate import compute_metrics
from .extract import extract_spec, repair_json
from .inference import infer_parameters, leave_one_api_out, rank_combinations
from .model import ApiSpec, Endpoint, ErrorType, Parameter, validate_spec
from .netutil import HttpPolicy
from .toolgen import (
    ToolDescriptor,
    export_function_source,
    export_openapi,
    generate_tools_for_spec,
    parse_url_template,
)
from .validate import estimate_causes, invoke_tool, validate_tool

__version__ = "0.1.0"

__all__ = [
    "ApiSpec",
    "Endpoint",
    "ErrorType",
    "HttpPolicy",
    "LexicalEmbedding",
    "Parameter",
    "ToolDescriptor",
    "__version__",
    "compute_metrics",
    "cosine_similarity",
    "estimate_causes",
    "export_function_source",
    "export_openapi",
    "extract_spec",
    "generate_tools_for_spec",
    "infer_parameters",
    "invoke_tool",
    "leave_one_api_out",
    "parse_url_template",
    "rank_combinations",
    "repair_json",
    "validate_spec",
    "validate_tool",
]
