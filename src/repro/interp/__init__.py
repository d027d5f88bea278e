"""Golden-model interpreter for the C-like language.

Every synthesis flow in :mod:`repro.flows` is validated against this
interpreter: for a given program and inputs, the simulated hardware must
produce the same observable results (:class:`Observable`).
"""

from .interpreter import (
    Box,
    ExecutionResult,
    Interpreter,
    Observable,
    Pointer,
    RuntimeChannel,
    run_program,
    run_source,
)
from .machine import BINARY_OPS, COMPARISON_OPS, UNARY_OPS, eval_binary, eval_unary, wrap

__all__ = [
    "BINARY_OPS",
    "Box",
    "COMPARISON_OPS",
    "ExecutionResult",
    "Interpreter",
    "Observable",
    "Pointer",
    "RuntimeChannel",
    "UNARY_OPS",
    "eval_binary",
    "eval_unary",
    "run_program",
    "run_source",
    "wrap",
]
