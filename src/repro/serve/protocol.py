"""Request/response schema of the synthesis service.

One validated request becomes exactly one :class:`repro.api.SynthesisOptions`
plus a source buffer and simulation arguments — the same frozen option set
every other entry point uses, so a served synthesis is content-addressed by
the same ``identity()`` as a CLI or matrix cell and shares its artifacts.

Validation is strict and happens **before** any dispatch: a request that
names an unknown flow, an out-of-range ``opt_level``, or an oversized
source is answered with a 4xx JSON error body and never reaches a worker
process.  :class:`ValidationError` carries the HTTP status, a stable
machine-readable ``code``, and the offending field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..api import SynthesisOptions
from ..ir.passes.fixpoint import OPT_LEVELS

#: Stable error codes: clients branch on these, not on message text.
BAD_JSON = "bad_json"
BAD_REQUEST = "bad_request"
UNKNOWN_FLOW = "unknown_flow"
BAD_FIELD = "bad_field"
SOURCE_TOO_LARGE = "source_too_large"
RATE_LIMITED = "rate_limited"
OVERLOADED = "overloaded"
NOT_FOUND = "not_found"
METHOD_NOT_ALLOWED = "method_not_allowed"
INTERNAL = "internal_error"
DRAINING = "draining"

SIM_BACKENDS = ("interp", "compiled", "batched")

_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ValidationError(Exception):
    """A request the server refuses before dispatch (always a 4xx)."""

    def __init__(self, code: str, message: str,
                 field_name: str = "", status: int = 400):
        super().__init__(message)
        self.code = code
        self.message = message
        self.field = field_name
        self.status = status

    def body(self) -> Dict[str, object]:
        error: Dict[str, object] = {"code": self.code, "message": self.message}
        if self.field:
            error["field"] = self.field
        return {"error": error}


@dataclass(frozen=True)
class ServeLimits:
    """Validation bounds; capacity knobs live in the server config."""

    max_source_bytes: int = 64 * 1024
    max_args: int = 16
    max_flow_options: int = 16
    max_flows: int = 32


@dataclass(frozen=True)
class SynthesizeRequest:
    """A validated ``POST /synthesize`` body."""

    source: str
    options: SynthesisOptions
    args: Tuple[int, ...] = ()


@dataclass(frozen=True)
class AnalysisRequest:
    """A validated ``POST /lint`` or ``POST /check`` body."""

    source: str
    flows: Optional[Tuple[str, ...]] = None
    function: str = "main"
    # check-only knobs (ignored by lint), already range-checked.
    check_options: Tuple[Tuple[str, object], ...] = field(default=())


def _require_object(data: object) -> Dict[str, object]:
    if not isinstance(data, dict):
        raise ValidationError(
            BAD_REQUEST, "request body must be a JSON object"
        )
    return data


def _string_field(data: Dict[str, object], name: str, default: str,
                  required: bool = False) -> str:
    value = data.get(name, default)
    if required and not isinstance(value, str):
        raise ValidationError(
            BAD_FIELD, f"{name!r} is required and must be a string", name
        )
    if not isinstance(value, str):
        raise ValidationError(BAD_FIELD, f"{name!r} must be a string", name)
    return value


def _check_source(data: Dict[str, object], limits: ServeLimits) -> str:
    source = data.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ValidationError(
            BAD_FIELD, "'source' is required and must be a non-empty string",
            "source",
        )
    size = len(source.encode("utf-8", errors="replace"))
    if size > limits.max_source_bytes:
        raise ValidationError(
            SOURCE_TOO_LARGE,
            f"source is {size} bytes; this server accepts at most "
            f"{limits.max_source_bytes}",
            "source",
            status=413,
        )
    return source


def _check_flow(name: str, field_name: str = "flow") -> str:
    from ..flows import COMPILABLE

    if name not in COMPILABLE:
        raise ValidationError(
            UNKNOWN_FLOW,
            f"unknown flow {name!r}; compilable flows: "
            + ", ".join(sorted(COMPILABLE)),
            field_name,
        )
    return name


def _check_function(data: Dict[str, object]) -> str:
    function = _string_field(data, "function", "main")
    if not _IDENTIFIER.match(function):
        raise ValidationError(
            BAD_FIELD, f"'function' must be a C identifier, got {function!r}",
            "function",
        )
    return function


def parse_synthesize(data: object, limits: ServeLimits) -> SynthesizeRequest:
    """Validate a ``/synthesize`` body into source + options + args."""
    body = _require_object(data)
    source = _check_source(body, limits)
    flow = _check_flow(_string_field(body, "flow", "c2verilog"))
    function = _check_function(body)

    opt_level = body.get("opt_level", None)
    if opt_level is not None and (
        isinstance(opt_level, bool) or not isinstance(opt_level, int)
        or opt_level not in OPT_LEVELS
    ):
        raise ValidationError(
            BAD_FIELD,
            f"'opt_level' must be one of {list(OPT_LEVELS)}, got {opt_level!r}",
            "opt_level",
        )

    sim_backend = _string_field(body, "sim_backend", "interp")
    if sim_backend not in SIM_BACKENDS:
        raise ValidationError(
            BAD_FIELD,
            f"'sim_backend' must be one of {list(SIM_BACKENDS)}, "
            f"got {sim_backend!r}",
            "sim_backend",
        )

    check = body.get("check", False)
    if not isinstance(check, bool):
        raise ValidationError(
            BAD_FIELD, "'check' must be a boolean", "check"
        )

    raw_args = body.get("args", [])
    if not isinstance(raw_args, list) or len(raw_args) > limits.max_args:
        raise ValidationError(
            BAD_FIELD,
            f"'args' must be a list of at most {limits.max_args} integers",
            "args",
        )
    args = []
    for item in raw_args:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ValidationError(
                BAD_FIELD, f"'args' entries must be integers, got {item!r}",
                "args",
            )
        args.append(item)

    raw_options = body.get("options", {})
    if not isinstance(raw_options, dict) or len(raw_options) > limits.max_flow_options:
        raise ValidationError(
            BAD_FIELD,
            f"'options' must be an object with at most "
            f"{limits.max_flow_options} entries",
            "options",
        )
    from ..api import _FIELD_KWARGS

    for key, value in raw_options.items():
        if not isinstance(key, str) or not _IDENTIFIER.match(key):
            raise ValidationError(
                BAD_FIELD, f"'options' keys must be identifiers, got {key!r}",
                "options",
            )
        if key in _FIELD_KWARGS or key == "trace":
            raise ValidationError(
                BAD_FIELD,
                f"{key!r} is a top-level request field, not a flow option",
                "options",
            )
        if isinstance(value, bool) or isinstance(value, (int, float, str)):
            continue
        raise ValidationError(
            BAD_FIELD,
            f"'options' values must be scalars, got {type(value).__name__}"
            f" for {key!r}",
            "options",
        )

    field_kwargs: Dict[str, object] = {
        "flow": flow,
        "function": function,
        "sim_backend": sim_backend,
        "check": check,
    }
    if opt_level is not None:
        field_kwargs["opt_level"] = opt_level
    options = SynthesisOptions.make(
        SynthesisOptions(**field_kwargs), **raw_options
    )
    return SynthesizeRequest(
        source=source, options=options, args=tuple(args)
    )


def parse_analysis(data: object, limits: ServeLimits,
                   kind: str) -> AnalysisRequest:
    """Validate a ``/lint`` or ``/check`` body (``kind`` picks the extras)."""
    body = _require_object(data)
    source = _check_source(body, limits)
    function = _check_function(body)

    flows: Optional[Tuple[str, ...]] = None
    raw_flows = body.get("flows")
    if raw_flows is not None:
        if not isinstance(raw_flows, list) or not raw_flows \
                or len(raw_flows) > limits.max_flows:
            raise ValidationError(
                BAD_FIELD,
                f"'flows' must be a non-empty list of at most "
                f"{limits.max_flows} flow keys",
                "flows",
            )
        flows = tuple(
            _check_flow(str(name), field_name="flows") for name in raw_flows
        )

    check_options = []
    if kind == "check":
        for name, kind_check, describe in (
            ("pipeline_ii", lambda v: isinstance(v, int)
                and not isinstance(v, bool) and v >= 1, "an integer >= 1"),
            ("clock_budget_ns", lambda v: isinstance(v, (int, float))
                and not isinstance(v, bool) and v > 0, "a positive number"),
            ("memory_ports", lambda v: isinstance(v, int)
                and not isinstance(v, bool) and v >= 1, "an integer >= 1"),
        ):
            value = body.get(name)
            if value is None:
                continue
            if not kind_check(value):
                raise ValidationError(
                    BAD_FIELD, f"{name!r} must be {describe}, got {value!r}",
                    name,
                )
            check_options.append((name, value))
    return AnalysisRequest(
        source=source, flows=flows, function=function,
        check_options=tuple(check_options),
    )


def result_body(result, served_by: str, key: str) -> Dict[str, object]:
    """A ``CellResult`` as the ``/synthesize`` response body.

    ``served_by`` records which dedup tier answered: ``"cache"`` (warm
    artifact), ``"coalesced"`` (joined an identical in-flight compile),
    or ``"compile"`` (a fresh worker dispatch)."""
    return {
        "verdict": result.verdict,
        "value": result.value,
        "cycles": result.cycles,
        "clock_ns": result.clock_ns,
        "latency_ns": result.latency_ns,
        "area_ge": result.area_ge,
        "rtl_hash": result.rtl_hash,
        "rule": result.rule,
        "diagnostics": list(result.diagnostics),
        "served_by": served_by,
        "key": key,
    }


__all__ = [
    "AnalysisRequest",
    "ServeLimits",
    "SynthesizeRequest",
    "ValidationError",
    "parse_analysis",
    "parse_synthesize",
    "result_body",
]
