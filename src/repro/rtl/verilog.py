"""Verilog emission.

Every synthesized artifact can be printed as synthesizable-style Verilog-
2001: FSMDs become a state register plus one clocked always-block; Cones
netlists become a forest of continuous assignments.  The text is the
deliverable the historical tools produced (C2Verilog's and Transmogrifier's
output *was* Verilog/netlists); it is emitted for inspection and downstream
tooling, while functional verification happens in the cycle-accurate Python
simulators against the golden model.

Rendezvous channels appear as four-phase ready/valid port pairs; a state
holding a channel operation stalls until its handshake completes, matching
the simulator's semantics.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Set

from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import ArrayType, BoolType, IntType, PointerType, Type
from ..ir.ops import Const, Operand, Operation, OpKind, VReg, VarRead
from .combinational import CombinationalNetlist
from .fsmd import CondNext, Done, FSMD, FSMDSystem, NextState, State


def _width_of(value_type: Type) -> int:
    if isinstance(value_type, (IntType, BoolType, PointerType)):
        return max(value_type.bit_width, 1)
    return 32


def _is_signed(value_type: Type) -> bool:
    return isinstance(value_type, IntType) and value_type.signed


_GENSYM = re.compile(r"~\d+")


def _sanitize(text: str) -> str:
    return text.replace(".", "_").replace("~", "_").replace(
        "[", "_"
    ).replace("]", "")


# Verilog-2001 reserved words; C identifiers may spell any of them.
_VERILOG_KEYWORDS = frozenset("""
    always and assign automatic begin buf bufif0 bufif1 case casex casez
    cell cmos config deassign default defparam design disable edge else end
    endcase endconfig endfunction endgenerate endmodule endprimitive
    endspecify endtable endtask event for force forever fork function
    generate genvar highz0 highz1 if ifnone incdir include initial inout
    input instance integer join large liblist library localparam
    macromodule medium module nand negedge nmos nor noshowcancelled not
    notif0 notif1 or output parameter pmos posedge primitive pull0 pull1
    pulldown pullup pulsestyle_ondetect pulsestyle_onevent rcmos real
    realtime reg release repeat rnmos rpmos rtran rtranif0 rtranif1
    scalared showcancelled signed small specify specparam strong0 strong1
    supply0 supply1 table task time tran tranif0 tranif1 tri tri0 tri1
    triand trior trireg unsigned use vectored wait wand weak0 weak1 while
    wire wor xnor xor
""".split())

# The nets an FSMD module declares for itself.  Its ``arg_<param>`` ports
# are kept apart by never handing out a name that starts with ``arg_``.
_FSMD_NETS = ("clk", "rst", "done", "result", "state")


class _Namer:
    """Deterministic per-module net names.

    Symbol ``unique_name``s embed a process-global disambiguation counter,
    so reusing them would make the emitted text depend on everything
    compiled earlier in the process.  The namer renumbers shadowed symbols
    densely in emission order instead (and leaves unshadowed names bare),
    making ``verilog()`` a pure function of the design — which is what
    lets the matrix runner content-address RTL by hash.  A name that is a
    Verilog keyword or one of the module's own nets (``reserved``) is
    renumbered the same way, and a name starting with one of ``escaped``
    (by default ``arg_``, the testbench's argument prefix) gets a
    leading ``_``."""

    def __init__(self, reserved: Sequence[str] = (),
                 escaped: Sequence[str] = ("arg_",)):
        self._assigned: Dict[str, str] = {}
        self._used: Set[str] = set(_VERILOG_KEYWORDS)
        self._used.update(reserved)
        self._escaped = tuple(escaped)
        self._next = 0

    def __call__(self, symbol: Symbol) -> str:
        key = symbol.unique_name
        if key in self._assigned:
            return self._assigned[key]
        # ``~N`` is fresh_symbol's process-global gensym marker; drop it
        # before renumbering locally.
        base = _sanitize(_GENSYM.sub("", symbol.name))
        if base.startswith(self._escaped):
            base = f"_{base}"
        if key == symbol.name and base not in self._used:
            chosen = base
        else:
            chosen = f"{base}_{self._next}"
            self._next += 1
            while chosen in self._used:
                chosen = f"{base}_{self._next}"
                self._next += 1
        self._used.add(chosen)
        self._assigned[key] = chosen
        return chosen


_BINARY_VERILOG = {
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
    "&": "&", "|": "|", "^": "^", "<<": "<<", ">>": ">>>",
    "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "&&": "&&", "||": "||",
}


class _ExprPrinter:
    """Renders operand DAGs as Verilog expressions (inlined per use)."""

    def __init__(self, producers: Dict[int, Operation], net: "_Namer",
                 unbound: Optional[Dict[int, int]] = None):
        self.producers = producers
        self.net = net
        # Cross-state values have no producer here; number the placeholders
        # densely per module so the text stays content-deterministic.
        self.unbound = unbound if unbound is not None else {}

    def operand(self, operand: Operand) -> str:
        if isinstance(operand, Const):
            width = _width_of(operand.type)
            if operand.value < 0:
                return f"-{width}'sd{abs(operand.value)}"
            return f"{width}'d{operand.value}"
        if isinstance(operand, VarRead):
            return self.net(operand.var)
        producer = self.producers.get(operand.id)
        if producer is None:
            index = self.unbound.setdefault(operand.id, len(self.unbound))
            return f"/*unbound*/ v{index}"
        return self.expression(producer)

    def expression(self, op: Operation) -> str:
        if op.kind is OpKind.BINARY:
            verilog_op = _BINARY_VERILOG[op.op]
            left = self.operand(op.operands[0])
            right = self.operand(op.operands[1])
            if op.op == ">>" and op.dest is not None and not _is_signed(op.dest.type):
                verilog_op = ">>"
            return f"({left} {verilog_op} {right})"
        if op.kind is OpKind.UNARY:
            mapping = {"-": "-", "~": "~", "!": "!"}
            return f"({mapping[op.op]}{self.operand(op.operands[0])})"
        if op.kind is OpKind.CAST:
            assert op.dest is not None
            width = _width_of(op.dest.type)
            return f"({self.operand(op.operands[0])} & {{{width}{{1'b1}}}})"
        if op.kind is OpKind.SELECT:
            return (
                f"({self.operand(op.operands[0])} ?"
                f" {self.operand(op.operands[1])} :"
                f" {self.operand(op.operands[2])})"
            )
        if op.kind is OpKind.LOAD:
            assert op.array is not None
            return f"{self.net(op.array)}[{self.operand(op.operands[0])}]"
        if op.kind is OpKind.RECV:
            assert op.channel is not None
            return f"{self.net(op.channel)}_data_in"
        return f"/*{op.kind.value}*/ 0"


def _collect_producers(ops: List[Operation]) -> Dict[int, Operation]:
    return {op.dest.id: op for op in ops if op.dest is not None}


def emit_fsmd(fsmd: FSMD, module_name: Optional[str] = None) -> str:
    """One FSMD as a Verilog module."""
    name = module_name or f"fsmd_{fsmd.name}"
    lines: List[str] = []
    net = _Namer(_FSMD_NETS)
    state_bits = max((fsmd.n_states - 1).bit_length(), 1)
    result_width = (
        _width_of(fsmd.return_type) if fsmd.return_type is not None else 32
    )

    channels: Set[Symbol] = set()
    for state in fsmd.states:
        for op in state.ops:
            if op.channel is not None:
                channels.add(op.channel)

    ports = ["input wire clk", "input wire rst"]
    for param in fsmd.params:
        if isinstance(param.type, ArrayType):
            continue
        width = _width_of(param.type)
        ports.append(f"input wire [{width - 1}:0] arg_{net(param)}")
    # Channels are globals, so plain source names are unique among them.
    for channel in sorted(channels, key=lambda s: s.name):
        width = _width_of(channel.type)
        ports += [
            f"output reg {net(channel)}_valid_out",
            f"output reg [{width - 1}:0] {net(channel)}_data_out",
            f"input wire {net(channel)}_ready_out",
            f"input wire {net(channel)}_valid_in",
            f"input wire [{width - 1}:0] {net(channel)}_data_in",
            f"output reg {net(channel)}_ready_in",
        ]
    ports += ["output reg done", f"output reg [{result_width - 1}:0] result"]

    lines.append(f"module {name} (")
    lines.append("    " + ",\n    ".join(ports))
    lines.append(");")
    lines.append(f"    reg [{state_bits - 1}:0] state;")
    for symbol in fsmd.registers:
        width = _width_of(symbol.type)
        signed = " signed" if _is_signed(symbol.type) else ""
        lines.append(f"    reg{signed} [{width - 1}:0] {net(symbol)};")
    for array in fsmd.arrays:
        assert isinstance(array.type, ArrayType)
        width = _width_of(array.type.element)
        lines.append(
            f"    reg [{width - 1}:0] {net(array)}"
            f" [0:{array.type.size - 1}];"
        )
    lines.append("")
    lines.append("    always @(posedge clk) begin")
    lines.append("        if (rst) begin")
    lines.append(f"            state <= {state_bits}'d{fsmd.entry};")
    lines.append("            done <= 1'b0;")
    for param in fsmd.params:
        if isinstance(param.type, ArrayType):
            continue
        lines.append(
            f"            {net(param)} <= arg_{net(param)};"
        )
    lines.append("        end else begin")
    lines.append("            case (state)")
    unbound: Dict[int, int] = {}
    for state in fsmd.states:
        lines.extend(_emit_state(state, state_bits, fsmd, net, unbound))
    lines.append("            endcase")
    lines.append("        end")
    lines.append("    end")
    lines.append("endmodule")
    return "\n".join(lines)


def _emit_state(state: State, state_bits: int, fsmd: FSMD, net: _Namer,
                unbound: Optional[Dict[int, int]] = None) -> List[str]:
    pad = "                "
    lines = [f"{pad}{state_bits}'d{state.id}: begin  // {state.label}"]
    printer = _ExprPrinter(_collect_producers(state.ops), net, unbound)
    channel_op = state.channel_op()
    guard = pad + "    "
    body_pad = guard
    if channel_op is not None:
        chan = net(channel_op.channel)  # type: ignore[arg-type]
        if channel_op.kind is OpKind.SEND:
            lines.append(f"{guard}{chan}_valid_out <= 1'b1;")
            lines.append(
                f"{guard}{chan}_data_out <="
                f" {printer.operand(channel_op.operands[0])};"
            )
            lines.append(f"{guard}if ({chan}_ready_out) begin")
        else:
            lines.append(f"{guard}{chan}_ready_in <= 1'b1;")
            lines.append(f"{guard}if ({chan}_valid_in) begin")
        body_pad = guard + "    "
    for op in state.ops:
        if op.kind is OpKind.STORE:
            assert op.array is not None
            lines.append(
                f"{body_pad}{net(op.array)}"
                f"[{printer.operand(op.operands[0])}] <="
                f" {printer.operand(op.operands[1])};"
            )
    for symbol, value in state.latches.items():
        lines.append(f"{body_pad}{net(symbol)} <= {printer.operand(value)};")
    lines.extend(_emit_transition(state.transition, printer, state_bits, body_pad))
    if channel_op is not None:
        lines.append(f"{guard}end")
    lines.append(f"{pad}end")
    return lines


def _emit_transition(transition, printer: _ExprPrinter, state_bits: int,
                     pad: str) -> List[str]:
    if isinstance(transition, NextState):
        return [f"{pad}state <= {state_bits}'d{transition.target};"]
    if isinstance(transition, Done):
        lines = [f"{pad}done <= 1'b1;"]
        if transition.value is not None:
            lines.append(f"{pad}result <= {printer.operand(transition.value)};")
        return lines
    if isinstance(transition, CondNext):
        lines = [f"{pad}if ({printer.operand(transition.cond)}) begin"]
        lines += _emit_arm(transition.if_true, printer, state_bits, pad + "    ")
        lines.append(f"{pad}end else begin")
        lines += _emit_arm(transition.if_false, printer, state_bits, pad + "    ")
        lines.append(f"{pad}end")
        return lines
    return [f"{pad}// no transition"]


def _emit_arm(arm, printer: _ExprPrinter, state_bits: int, pad: str) -> List[str]:
    if isinstance(arm, int):
        return [f"{pad}state <= {state_bits}'d{arm};"]
    return _emit_transition(arm, printer, state_bits, pad)


def emit_fsmd_system(system: FSMDSystem, top_name: str = "top",
                     trace=None) -> str:
    """All machines of a system, plus a comment header describing the
    shared channels (the interconnect a system integrator would wire)."""
    from ..trace import ensure_trace

    t = ensure_trace(trace)
    parts = [
        "// Generated by repro — C-like hardware synthesis framework",
        f"// {len(system.fsmds)} machine(s);"
        f" {len(system.channels)} rendezvous channel(s)",
        "",
    ]
    for fsmd in system.fsmds:
        if t.enabled:
            with t.span(f"emit.{fsmd.name}", cat="module"):
                text = emit_fsmd(fsmd)
                t.count(states=fsmd.n_states)
        else:
            text = emit_fsmd(fsmd)
        parts.append(text)
        parts.append("")
    return "\n".join(parts)


def _read_symbols(netlist: CombinationalNetlist) -> List[Symbol]:
    """Every symbol a VarRead in ``netlist`` names, in first-read order."""
    operands = [o for op in netlist.ops for o in op.operands]
    if netlist.output is not None:
        operands.append(netlist.output)
    operands.extend(netlist.global_outputs.values())
    for elements in netlist.array_outputs.values():
        operands.extend(elements)
    return list({o.var.unique_name: o.var for o in operands
                 if isinstance(o, VarRead)}.values())


def emit_combinational(netlist: CombinationalNetlist,
                       module_name: Optional[str] = None,
                       trace=None) -> str:
    """A Cones netlist as a module of continuous assignments."""
    if trace is not None and trace.enabled:
        with trace.span(f"emit.{netlist.name}", cat="module"):
            text = emit_combinational(netlist, module_name)
            trace.count(ops=len(netlist.ops))
        return text
    name = module_name or f"cones_{netlist.name}"
    lines: List[str] = []
    # Wire per op result, assigned in topological order.  VReg ids come
    # from a process-global counter, so wires are renumbered densely in
    # netlist order to keep the text content-deterministic.
    wire_index: Dict[int, int] = {}
    for op in netlist.ops:
        if op.dest is not None:
            wire_index[op.dest.id] = len(wire_index)
    # No port may take a wire's name, and no input may start like a
    # ``g_<name>`` global output.
    net = _Namer(("out",) + tuple(f"n{k}" for k in range(len(wire_index))),
                 escaped=("arg_", "g_"))
    ports: List[str] = []
    inputs = list(netlist.inputs)
    for elements in netlist.element_inputs.values():
        inputs.extend(elements)
    # Scalar globals the netlist reads are inputs too.
    declared = {symbol.unique_name for symbol in inputs}
    inputs.extend(symbol for symbol in _read_symbols(netlist)
                  if symbol.unique_name not in declared)
    for symbol in inputs:
        width = _width_of(symbol.type)
        ports.append(f"input wire [{width - 1}:0] {net(symbol)}")
    out_width = (
        _width_of(netlist.output.type) if netlist.output is not None else 32
    )
    ports.append(f"output wire [{out_width - 1}:0] out")
    for symbol in netlist.global_outputs:
        width = _width_of(symbol.type)
        ports.append(f"output wire [{width - 1}:0] g_{net(symbol)}")
    lines.append(f"module {name} (")
    lines.append("    " + ",\n    ".join(ports))
    lines.append(");")
    for op in netlist.ops:
        if op.dest is not None:
            width = _width_of(op.dest.type)
            lines.append(f"    wire [{width - 1}:0] n{wire_index[op.dest.id]};")

    def leaf(operand: Operand) -> str:
        if isinstance(operand, Const):
            width = _width_of(operand.type)
            if operand.value < 0:
                return f"-{width}'sd{abs(operand.value)}"
            return f"{width}'d{operand.value}"
        if isinstance(operand, VarRead):
            return net(operand.var)
        return f"n{wire_index[operand.id]}"

    for op in netlist.ops:
        if op.dest is None:
            continue
        if op.kind is OpKind.BINARY:
            text = (
                f"{leaf(op.operands[0])} {_BINARY_VERILOG[op.op]}"
                f" {leaf(op.operands[1])}"
            )
        elif op.kind is OpKind.UNARY:
            mapping = {"-": "-", "~": "~", "!": "!"}
            text = f"{mapping[op.op]}{leaf(op.operands[0])}"
        elif op.kind is OpKind.CAST:
            text = leaf(op.operands[0])
        elif op.kind is OpKind.SELECT:
            text = (
                f"{leaf(op.operands[0])} ? {leaf(op.operands[1])} :"
                f" {leaf(op.operands[2])}"
            )
        else:
            text = "0 /* unsupported */"
        lines.append(f"    assign n{wire_index[op.dest.id]} = {text};")
    if netlist.output is not None:
        lines.append(f"    assign out = {leaf(netlist.output)};")
    for symbol, operand in netlist.global_outputs.items():
        lines.append(f"    assign g_{net(symbol)} = {leaf(operand)};")
    lines.append("endmodule")
    return "\n".join(lines)


def emit_fsmd_testbench(
    fsmd: FSMD,
    args: List[int],
    expected_value: Optional[int],
    expected_cycles: Optional[int] = None,
    module_name: Optional[str] = None,
) -> str:
    """A self-checking testbench for one FSMD.

    The expected value comes from the golden model, so the generated pair
    (module + testbench) carries this framework's validation chain into
    any external Verilog simulator.  Designs with rendezvous channels need
    a system-level harness instead and are rejected here.
    """
    for state in fsmd.states:
        if state.channel_op() is not None:
            raise ValueError(
                "testbench generation covers single closed machines;"
                f" {fsmd.name} uses rendezvous channels"
            )
    dut = module_name or f"fsmd_{fsmd.name}"
    # Mirror emit_fsmd's naming pass (params are seeded first there) so the
    # testbench's arg_* port binds match the module's ports.
    net = _Namer(_FSMD_NETS)
    scalar_params = [p for p in fsmd.params if not isinstance(p.type, ArrayType)]
    if len(args) != len(scalar_params):
        raise ValueError(
            f"{fsmd.name} takes {len(scalar_params)} arguments, got {len(args)}"
        )
    result_width = (
        _width_of(fsmd.return_type) if fsmd.return_type is not None else 32
    )
    lines = [
        "`timescale 1ns/1ps",
        f"module tb_{fsmd.name};",
        "    reg clk = 1'b0;",
        "    reg rst = 1'b1;",
        "    wire done;",
        f"    wire [{result_width - 1}:0] result;",
        "    integer cycles = 0;",
    ]
    port_binds = ["        .clk(clk),", "        .rst(rst),"]
    for param, value in zip(scalar_params, args):
        width = _width_of(param.type)
        name = net(param)
        masked = value & ((1 << width) - 1)
        lines.append(f"    reg [{width - 1}:0] arg_{name} = {width}'d{masked};")
        port_binds.append(f"        .arg_{name}(arg_{name}),")
    port_binds.append("        .done(done),")
    port_binds.append("        .result(result)")
    lines.append(f"    {dut} dut (")
    lines.extend(port_binds)
    lines.append("    );")
    lines.append("    always #5 clk = ~clk;")
    lines.append("    always @(posedge clk) if (!rst && !done) cycles = cycles + 1;")
    lines.append("    initial begin")
    lines.append("        repeat (2) @(posedge clk);")
    lines.append("        rst = 1'b0;")
    lines.append("        wait (done);")
    lines.append("        @(posedge clk);")
    if expected_value is not None:
        expected_masked = expected_value & ((1 << result_width) - 1)
        lines.append(
            f"        if (result !== {result_width}'d{expected_masked}) begin"
        )
        lines.append(
            f'            $display("FAIL: result=%0d expected={expected_value}",'
            " result);"
        )
        lines.append("            $fatal;")
        lines.append("        end")
    if expected_cycles is not None:
        lines.append(f"        if (cycles !== {expected_cycles})")
        lines.append(
            f'            $display("NOTE: cycles=%0d, model said'
            f' {expected_cycles}", cycles);'
        )
    lines.append('        $display("PASS");')
    lines.append("        $finish;")
    lines.append("    end")
    lines.append("endmodule")
    return "\n".join(lines)
