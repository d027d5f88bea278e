"""Intermediate representation: CDFG construction and transformation.

The lowering pipeline every flow shares::

    parse -> inline (passes.inline) -> build_module (builder) ->
    optimize (passes.fixpoint) -> schedule -> bind -> FSMD

AST-level transforms live in :mod:`repro.ir.passes` alongside the
CDFG-level ones.  The liveness names load :mod:`.liveness` on first use
(:mod:`repro._exports`).
"""

from .._exports import lazy_exports
from .astutils import Cloner, fresh_symbol, make_identifier
from .builder import BuildError, build_function, build_module, CDFGBuilder
from .cdfg import (
    BasicBlock,
    FunctionCDFG,
    ModuleCDFG,
    TimingConstraint,
    validate,
)
from .ops import (
    Branch,
    Const,
    Jump,
    Operand,
    Operation,
    OpKind,
    Ret,
    Terminator,
    VReg,
    VarRead,
)

__all__ = [
    "BasicBlock",
    "Branch",
    "BuildError",
    "CDFGBuilder",
    "Cloner",
    "Const",
    "FunctionCDFG",
    "Jump",
    "LivenessInfo",
    "ModuleCDFG",
    "OpKind",
    "Operand",
    "Operation",
    "Ret",
    "Terminator",
    "TimingConstraint",
    "VReg",
    "VarRead",
    "block_use_def",
    "build_function",
    "build_module",
    "compute_liveness",
    "fresh_symbol",
    "make_identifier",
    "op_def",
    "op_var_uses",
    "op_vreg_uses",
    "validate",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "LivenessInfo": ".liveness",
    "block_use_def": ".liveness",
    "compute_liveness": ".liveness",
    "op_def": ".liveness",
    "op_var_uses": ".liveness",
    "op_vreg_uses": ".liveness",
})
